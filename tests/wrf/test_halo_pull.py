"""The compiled halo pull leaves what the slab copy leaves.

``exchange_halos_rank`` moves each incoming segment's bins and
occupancy bits in one compiled pull (``halo_pull``): a species group
is copied where its source bit is set, zero-filled where only the old
destination bit is set, and left alone where both are clear (a clear
bit promises exact zeros); a row whose every cell has every bit set
goes as one run. The numpy fallback (``REPRO_DISABLE_CSTENCIL``)
copies every box whole, and is the oracle here.

The property: on synthetic blocks that hold the occupancy invariant —
decomposed 1 × 4, 2 × 2 and 4 × 1 (corner segments included), 1–3
members, set bits over all-zero bins, nonzero halo bins under set
destination bits, rows where every cell has every bit set — a full
exchange leaves every rank's state block, bins block and occupancy
field equal to the slab copy's, and each pull counts the bins it wrote.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constants import CONUS12KM_DX, NKR
from repro.fsbm.species import Species
from repro.grid.decomposition import decompose_domain
from repro.grid.domain import DomainSpec
from repro.grid.halo import build_halo_plan
from repro.wrf import cstencil
from repro.wrf.model import RankBlocks, exchange_halos_rank, rank_halo
from repro.wrf.state import rank_blocks
from repro.wrf.transport import ScalarLayout

NSP = len(Species)

#: (ranks, nx, ny), decomposed 1 × 4, 2 × 2 and 4 × 1.
LAYOUTS = ((4, 6, 24), (4, 12, 12), (4, 24, 6))

pytestmark = pytest.mark.skipif(
    cstencil.load_stencil() is None, reason="compiled halo pull unavailable"
)


def _masks(nkr: int) -> tuple[np.ndarray, np.ndarray]:
    """The bins layout's ``(smask, glo)``: one group of ``nkr`` bins per
    species."""
    return ScalarLayout(
        entries=tuple((f"bin_{sp}", nkr) for sp in range(NSP))
    ).masks()


def _fill(rng, blocks: RankBlocks, nkr: int, there: float, ghost: float, dense: float):
    """Random contents that hold the invariant, halo cells included: a
    species is present (nonzero bins, some zero) with probability
    ``there``; an absent one keeps its bit set over zeros with
    probability ``ghost``; an ``(m, i, k)`` row gets every bit set with
    probability ``dense``; bit 7 (no species) is set at random."""
    state, bins, occ = blocks
    state[...] = rng.standard_normal(state.shape)
    cells = occ.shape
    present = rng.random((*cells, NSP)) < there
    bits = present | (rng.random((*cells, NSP)) < ghost)
    bits[rng.random(cells[:3]) < dense] = True
    values = rng.random((*cells, NSP, nkr)) * (rng.random((*cells, NSP, nkr)) < 0.7)
    values[~present] = 0.0
    bins[...] = values.reshape(bins.shape)
    spare = (rng.random(cells) < 0.1).astype(np.uint8) << 7
    occ[...] = (bits.astype(np.uint8) << np.arange(NSP, dtype=np.uint8)).sum(
        axis=-1, dtype=np.uint8
    ) | spare


def _blocks(layout, members: int, nkr: int, seed: int, fractions):
    """Every rank's filled blocks of a small domain, and its halo plan."""
    ranks, nx, ny = layout
    domain = DomainSpec(nx=nx, nz=3, ny=ny, dx=CONUS12KM_DX)
    decomposition = decompose_domain(domain, ranks)
    rng = np.random.default_rng(seed)
    blocks = []
    for patch in decomposition.patches:
        _, state, bins = rank_blocks(members, patch.shape, nkr=nkr)
        occ = np.empty((members, *patch.shape), np.uint8)
        blocks.append(RankBlocks(state, bins, occ))
        _fill(rng, blocks[-1], nkr, *fractions)
    return build_halo_plan(decomposition), blocks


def _copy(blocks: list[RankBlocks]) -> list[RankBlocks]:
    return [RankBlocks(*(a.copy() for a in b)) for b in blocks]


def _expected_moved(src_occ: np.ndarray, dst_occ: np.ndarray, nkr: int) -> int:
    """The bins a pull writes: each group whose bit is set at either
    end (a row moved as one run has every bit set in every cell)."""
    groups = ((src_occ | dst_occ)[..., None] >> np.arange(NSP)) & 1
    return int(groups.sum()) * nkr


def _pull(halo) -> list[np.ndarray]:
    """Exchange ``halo`` and return each segment's per-row counts,
    which read -1 where the compiled pull did not run."""
    moved = [pull[-1] for pull in halo.pulls]
    for counts in moved:
        counts[...] = -1
    exchange_halos_rank(halo)
    return moved


class TestPullEqualsSlabCopy:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        layout=st.sampled_from(LAYOUTS),
        members=st.integers(1, 3),
        nkr=st.sampled_from((1, 4, NKR)),
        there=st.sampled_from((0.0, 0.2, 1.0)),
        ghost=st.sampled_from((0.0, 0.3)),
        dense=st.sampled_from((0.0, 0.5, 1.0)),
        seed=st.integers(0, 10_000),
    )
    def test_a_full_exchange_equals_the_slab_copy(
        self, layout, members, nkr, there, ghost, dense, seed
    ):
        plan, blocks = _blocks(layout, members, nkr, seed, (there, ghost, dense))
        masks = _masks(nkr)
        slab = _copy(blocks)
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv(cstencil.DISABLE_ENV, "1")
            for rank in range(len(slab)):
                exchange_halos_rank(rank_halo(plan, rank, slab, masks))
        before = _copy(blocks)
        for rank in range(len(blocks)):
            halo = rank_halo(plan, rank, blocks, masks)
            want = sum(
                _expected_moved(box[4], box[5].copy(), nkr) for box in halo.boxes
            )
            moved = _pull(halo)
            assert all((counts >= 0).all() for counts in moved)
            assert sum(int(counts.sum()) for counts in moved) == want
        for rank, (got, oracle) in enumerate(zip(blocks, slab)):
            for name, a, b in zip(RankBlocks._fields, got, oracle):
                assert np.array_equal(a, b), f"rank {rank}: {name} differs"
        # The exchange wrote halo cells only: a rank's owned cells are
        # what they were.
        for rank, patch in enumerate(plan.decomposition.patches):
            for seg in plan.segments_from(rank):
                i, k, j = seg.src_slices(patch)
                assert np.array_equal(
                    blocks[rank].bins[:, i, k, j], before[rank].bins[:, i, k, j]
                )

    def test_an_empty_halo_moves_no_bin(self):
        """Clear bits at both ends: the pull writes no bin and counts none."""
        plan, blocks = _blocks(LAYOUTS[1], 2, NKR, 3, (0.0, 0.0, 0.0))
        masks = _masks(NKR)
        for rank in range(len(blocks)):
            blocks[rank].bins[...] = np.nan  # untouched under clear bits
            moved = _pull(rank_halo(plan, rank, blocks, masks))
            assert all((counts == 0).all() for counts in moved)
            assert np.isnan(blocks[rank].bins).all()


class TestArguments:
    def test_boxes_must_match_their_bits(self):
        plan, blocks = _blocks(LAYOUTS[1], 1, 4, 0, (0.5, 0.0, 0.0))
        box = rank_halo(plan, 0, blocks, _masks(4)).boxes[0]
        src, dst, socc, docc = box[2:]
        with pytest.raises(ValueError):
            cstencil.halo_pull_args(src, dst, socc[..., ::-1], docc, _masks(4))
        with pytest.raises(ValueError):
            cstencil.halo_pull_args(src.copy(), dst, socc, docc, _masks(4))
        with pytest.raises(ValueError):
            cstencil.halo_pull_args(src, dst, socc, docc, _masks(3))
