"""The fused two-block transport engine vs. the per-field reference.

The contract under test: the fused kernels (sliced numpy stencil or
compiled C stencil) on a rank's member-stacked planar state block and
bins block reproduce the per-field ``rk_scalar_tend``/``rk3_advect``
numerics of every member to ~1e-14 — the per-field loop lives here, as
the oracle — the compiled in-place sweep equals the numpy path bit for
bit (modulo signed zeros) and sums each cell's condensate in a fixed
lane order, and the model performs zero heap allocations after warmup
(the ``map(alloc:)`` analogy) while pinning no block-sized buffer.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import cache_stats
from repro.fsbm.species import Species
from repro.fsbm.state import all_occupied
from repro.wrf import cstencil
from repro.wrf.dynamics import (
    RK3_FRACTIONS,
    WindSplit,
    rk3_advect,
    rk_scalar_tend,
)
from repro.wrf.model import WrfModel
from repro.wrf.namelist import conus12km_namelist
from repro.wrf.transport import (
    STATE_FLOORS,
    ScalarLayout,
    TransportWorkspace,
    fused_euler_advect,
    fused_rk3_advect,
    fused_upwind_tend,
    get_workspace,
    sum_condensate,
)

#: Shapes exercising interior stencils and every 1-cell-wide edge case.
SHAPES = st.tuples(
    st.integers(1, 7), st.integers(1, 6), st.integers(1, 5), st.integers(1, 4)
)


def _random_problem(rng, shape4, members=None):
    """Winds and a block of ``shape4``; with ``members``, a member stack
    of them (leading axis) with member-stacked winds."""
    lead = () if members is None else (members,)
    ni, nk, nj, _ = shape4
    u, v, w = (
        rng.standard_normal((*lead, ni, nk, nj)) * 10.0 for _ in range(3)
    )
    split = WindSplit.build(u, v, w, 12000.0, 500.0)
    block = np.ascontiguousarray(rng.uniform(-1.0, 2.0, size=(*lead, *shape4)))
    return split, block


def _random_blocks(rng, shape4, members):
    """Winds and a member stack of both blocks: the planar ``(members,
    ni, 3, nk, nj)`` state block and the ``(members, ni, nk, nj, ns)``
    bins block of ``shape4 = (ni, nk, nj, ns)``."""
    ni, nk, nj, ns = shape4
    split, bins = _random_problem(rng, shape4, members)
    state = np.ascontiguousarray(
        rng.uniform(-1.0, 2.0, size=(members, ni, 3, nk, nj))
    )
    return split, state, bins


def _member_split(split, m):
    return WindSplit(
        pos=tuple(p[m] for p in split.pos), neg=tuple(n[m] for n in split.neg)
    )


def _reference_tend(block, split):
    return np.stack(
        [rk_scalar_tend(block[..., n], split) for n in range(block.shape[-1])],
        axis=-1,
    )


def _one_group(ns):
    """Masks that make every bin one group of species bit 0."""
    return np.ones(ns, dtype=np.int64), np.array([0, ns], dtype=np.int64)


def _floors(clipped):
    """Per-scalar floors: 0.0 where clipped, -inf elsewhere."""
    return np.where(np.asarray(clipped, dtype=bool), 0.0, -np.inf)


def _lane_condensate(bins, mass, lanes=cstencil.CONDENSATE_LANES):
    """The kernel's fixed-order condensate: lane ``(n + LANE_OFFSET) %
    lanes`` sums ``bins[..., n] * mass[n]`` over ascending ``n`` from
    0.0, then the lanes add up in order."""
    prod = bins * mass
    acc = np.zeros((*bins.shape[:-1], lanes))
    for n in range(bins.shape[-1]):
        acc[..., (n + cstencil.LANE_OFFSET) % lanes] += prod[..., n]
    total = acc[..., 0].copy()
    for lane in range(1, lanes):
        total += acc[..., lane]
    return total


def _per_field_advect(state, bins, split, dt, clipped, rk3):
    """The per-field oracle: every field of every member advected on
    its own through ``rk_scalar_tend``/``rk3_advect`` — the state
    planes clipped as :data:`STATE_FLOORS` says, the bins as
    ``clipped`` says."""
    fields = [(state[:, :, q], STATE_FLOORS[q] == 0.0) for q in range(3)]
    fields += [(bins[..., n], clipped[n]) for n in range(bins.shape[-1])]
    out = []
    for arr, clip in fields:
        ref = arr.copy()
        for m in range(ref.shape[0]):
            msplit = _member_split(split, m)
            col = np.ascontiguousarray(ref[m])
            if rk3:
                rk3_advect(col, msplit, dt, clip_negative=clip)
            else:
                col += dt * rk_scalar_tend(col, msplit)
                if clip:
                    np.maximum(col, 0.0, out=col)
            ref[m] = col
        out.append(ref)
    return np.stack(out[:3], axis=2), np.stack(out[3:], axis=-1)


class TestFusedTendProperty:
    @settings(max_examples=30, deadline=None)
    @given(shape4=SHAPES, seed=st.integers(0, 2**31 - 1))
    def test_numpy_fused_tend_matches_reference(self, shape4, seed):
        rng = np.random.default_rng(seed)
        split, block = _random_problem(rng, shape4)
        ws = TransportWorkspace(shape4[:3], shape4[3])
        out = np.empty_like(block)
        fused_upwind_tend(block, split, out, ws)
        ref = _reference_tend(block, split)
        np.testing.assert_allclose(out, ref, rtol=0.0, atol=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(
        shape4=SHAPES,
        members=st.integers(1, 3),
        seed=st.integers(0, 2**31 - 1),
        rk3=st.booleans(),
    )
    def test_fused_advect_matches_per_field(self, shape4, members, seed, rk3):
        """Fused Euler/RK3 (whichever stencil backend is active) on a
        member stack of both blocks vs. the per-field reference of each
        member, including the per-scalar clip mask — so no stencil reads
        across a member boundary."""
        rng = np.random.default_rng(seed)
        split, state, bins = _random_blocks(rng, shape4, members)
        ns = shape4[3]
        layout = ScalarLayout(
            entries=tuple((f"s{n}", 1) for n in range(ns))
        )
        no_clip = tuple(f"s{n}" for n in range(0, ns, 2))
        floors = layout.floors(no_clip=no_clip)
        dt = 3.0
        clipped = [f"s{n}" not in no_clip for n in range(ns)]
        want_state, want_bins = _per_field_advect(
            state, bins, split, dt, clipped, rk3
        )
        ws = TransportWorkspace(bins.shape[:4], ns)
        advect = fused_rk3_advect if rk3 else fused_euler_advect
        cells = bins.shape[:4]
        advect(
            state, bins, split, dt, ws, floors, np.ones(ns), layout.masks(),
            np.empty(cells), all_occupied(cells),
        )
        np.testing.assert_allclose(state, want_state, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(bins, want_bins, rtol=0.0, atol=1e-13)


def _numpy_advect(advect, state, bins, split, dt, floors, mass, masks=None):
    """``advect`` on copies of both blocks with the stencil switched off."""
    import os

    got = state.copy(), bins.copy()
    os.environ[cstencil.DISABLE_ENV] = "1"
    try:
        cells = bins.shape[:4]
        ws = TransportWorkspace(cells, bins.shape[-1])
        cond = np.full(cells, np.nan)
        occ = np.zeros(cells, dtype=np.uint8)
        assert advect(
            *got, split, dt, ws, floors, mass,
            _one_group(bins.shape[-1]) if masks is None else masks, cond, occ,
        ) is None
        # The fallback leaves the condensate to its caller and sets
        # every occupancy bit.
        assert np.isnan(cond).all()
        assert (occ == 0xFF).all()
    finally:
        os.environ.pop(cstencil.DISABLE_ENV, None)
    return got


#: Draws for the in-place sweep: 1-3 members, extents including 1 (a
#: one-row member makes every row both a first and a last row of the
#: ring), bin counts around the 8-lane blocks of the condensate, and a
#: clip flag per bin.
SWEEPS = dict(
    shape4=st.tuples(
        st.integers(1, 7), st.integers(1, 6), st.integers(1, 5),
        st.integers(1, 3 * cstencil.CONDENSATE_LANES + 3),
    ),
    members=st.integers(1, 3),
    seed=st.integers(0, 2**31 - 1),
    clip_bits=st.integers(0, 2**27 - 1),
)


def _sweep_problem(shape4, members, seed, clip_bits):
    rng = np.random.default_rng(seed)
    split, state, bins = _random_blocks(rng, shape4, members)
    ns = shape4[3]
    floors = _floors([(clip_bits >> n) & 1 for n in range(ns)])
    mass = rng.uniform(0.0, 1.0, ns) * (rng.random(ns) < 0.8)
    return split, state, bins, floors, mass


#: Draws for the sparse sweep: 1-7 species of any width, most of them
#: absent from most cells.
SPARSE = dict(
    shape3=st.tuples(st.integers(1, 7), st.integers(1, 6), st.integers(1, 5)),
    members=st.integers(1, 3),
    nsp=st.integers(1, 7),
    width=st.integers(1, 10),
    seed=st.integers(0, 2**31 - 1),
)


def _bits_of(bins, masks):
    """Each cell's exact occupancy bits: the mask of every bin with a
    nonzero value."""
    smask, _ = masks
    bits = np.zeros(bins.shape[:-1], dtype=np.uint8)
    for n, mask in enumerate(smask):
        bits |= np.where(bins[..., n] != 0.0, mask, 0).astype(np.uint8)
    return bits


def _sparse_problem(shape3, members, nsp, width, seed, density=0.3):
    """A bins block in which each (cell, species) is present with
    probability ``density`` (absent: exact zeros), and a valid occupancy
    field for it: its exact bits plus random extra set bits."""
    rng = np.random.default_rng(seed)
    layout = ScalarLayout(entries=tuple((f"bin_{n}", width) for n in range(nsp)))
    ns = layout.nscalars
    split, state, bins = _random_blocks(rng, (*shape3, ns), members)
    masks = layout.masks()
    glo = masks[1]
    cells = bins.shape[:4]
    for g in range(nsp):
        present = rng.random((*cells, 1)) < density
        bins[..., glo[g]:glo[g + 1]] = np.where(
            present, rng.uniform(0.0, 2.0, (*cells, width)), 0.0
        )
    extra = (rng.random((*cells, 8)) < 0.1 * (density > 0)) << np.arange(8)
    occ = _bits_of(bins, masks) | extra.sum(axis=-1).astype(np.uint8)
    mass = rng.uniform(0.1, 1.0, ns)
    return split, state, bins, masks, occ, mass, layout.floors(), rng


def _stencil_or(occ):
    """Each cell's bits ORed over its 7-point stencil, edges clamped at
    each member's own rows (as the kernel clamps them)."""
    out = occ.copy()
    for ax in (1, 2, 3):
        n = occ.shape[ax]
        pad = np.pad(occ, [(1, 1) if a == ax else (0, 0) for a in range(4)], "edge")
        out |= np.take(pad, range(n), axis=ax) | np.take(pad, range(2, n + 2), axis=ax)
    return out


def _edge_cells(rng, cells, count):
    """``count`` random cells on a patch face of a random member: first
    or last row, plane or column, so a member boundary too."""
    picked = []
    for _ in range(count):
        at = [int(rng.integers(0, n)) for n in cells]
        axis = int(rng.integers(1, 4))
        at[axis] = int(rng.choice([0, cells[axis] - 1]))
        picked.append(tuple(at))
    return picked


@pytest.mark.skipif(
    cstencil.load_stencil() is None,
    reason=f"compiled stencil unavailable: {cstencil.load_error}",
)
class TestSparseSweep:
    @settings(max_examples=60, deadline=None)
    @given(**SPARSE)
    def test_sparse_occupancy_equals_the_all_set_sweep(
        self, shape3, members, nsp, width, seed
    ):
        """In place, a sweep that skips the species its (valid, sparse)
        occupancy marks empty gives the all-set sweep's blocks,
        condensate and new bits exactly; the bits are exact, and each
        cell counts the species set in its stencil's OR as swept."""
        split, state, bins, masks, occ, mass, floors, _ = _sparse_problem(
            shape3, members, nsp, width, seed
        )
        cells = bins.shape[:4]
        ns = bins.shape[-1]
        runs = []
        for bits in (occ.copy(), all_occupied(cells)):
            got, cond = (state.copy(), bins.copy()), np.empty(cells)
            swept = fused_euler_advect(
                *got, split, 3.0, TransportWorkspace(cells, ns), floors, mass,
                masks, cond, bits,
            )
            runs.append((got, cond, bits, swept.copy()))
        (sparse, cond, bits, swept), (dense, want_cond, want_bits, all_swept) = runs
        assert np.array_equal(sparse[0], dense[0])
        assert np.array_equal(sparse[1], dense[1])
        assert np.array_equal(cond, want_cond)
        assert np.array_equal(bits, want_bits)
        assert np.array_equal(bits, _bits_of(dense[1], masks))
        species = np.uint8((1 << nsp) - 1)
        live = _stencil_or(occ) & species
        assert np.array_equal(
            swept, np.unpackbits(live[..., None], axis=-1).sum(axis=-1)
        )
        assert (all_swept == nsp).all()

    @settings(max_examples=60, deadline=None)
    @given(
        **SPARSE,
        density=st.sampled_from([0.0, 0.02, 0.3]),
        empty_planes=st.integers(0, 6),
        lone=st.integers(0, 4),
        rk3=st.booleans(),
    )
    def test_empty_planes_and_lone_cells_match_the_numpy_path(
        self, shape3, members, nsp, width, seed, density, empty_planes,
        lone, rk3,
    ):
        """Sparse blocks with whole empty ``(row, plane)``s and lone live
        cells on patch faces and member boundaries: the compiled sweep
        (Euler, or RK3) equals the numpy fallback's blocks (== treats
        -0.0 and 0.0 as equal), and the condensate and bits it leaves
        are what the ``condensate`` kernel computes from the result."""
        split, state, bins, masks, occ, mass, floors, rng = _sparse_problem(
            shape3, members, nsp, width, seed, density
        )
        cells = bins.shape[:4]
        glo = masks[1]
        for _ in range(empty_planes):
            m, i, k = (int(rng.integers(0, n)) for n in cells[:3])
            bins[m, i, k] = 0.0
            occ[m, i, k] = 0
        for at in _edge_cells(rng, cells, lone):
            g = int(rng.integers(0, nsp))
            bins[(*at, slice(glo[g], glo[g + 1]))] = rng.uniform(0.5, 2.0, width)
            occ[at] |= np.uint8(1 << g)
        assert not (_bits_of(bins, masks) & ~occ).any()  # a valid field
        advect = fused_rk3_advect if rk3 else fused_euler_advect
        want = _numpy_advect(advect, state, bins, split, 3.0, floors, mass, masks)
        cond = np.empty(cells)
        assert advect(
            state, bins, split, 3.0, TransportWorkspace(cells, bins.shape[-1]),
            floors, mass, masks, cond, occ,
        ) is not None
        assert np.array_equal(state, want[0])
        assert np.array_equal(bins, want[1])
        filled = np.empty(cells)
        exact = np.zeros(cells, dtype=np.uint8)
        assert sum_condensate(bins, mass, masks, filled, exact)
        assert np.array_equal(cond, filled)
        assert np.array_equal(occ, exact)
        assert np.array_equal(cond, _lane_condensate(bins, mass))


@pytest.mark.skipif(
    cstencil.load_stencil() is None,
    reason=f"compiled stencil unavailable: {cstencil.load_error}",
)
class TestCompiledStencil:
    @settings(max_examples=60, deadline=None)
    @given(**SWEEPS, rk3=st.booleans())
    def test_c_path_matches_numpy_path(
        self, shape4, members, seed, clip_bits, rk3
    ):
        """One compiled pass, in place through the rings, gives the numpy
        fused path's values (== treats -0.0 and 0.0 as equal) in both
        blocks and the fixed-lane-order condensate of the bins it
        stored. RK3 runs its stages through the same ring kernel with
        the outputs apart from the stage inputs (the last stage writes
        the blocks that are also ``phi0``) and returns the last stage's
        condensate."""
        split, state, bins, floors, mass = _sweep_problem(
            shape4, members, seed, clip_bits
        )
        advect = fused_rk3_advect if rk3 else fused_euler_advect
        want = _numpy_advect(advect, state, bins, split, 3.0, floors, mass)
        ws = TransportWorkspace(bins.shape[:4], shape4[3])
        cond = np.empty(bins.shape[:4])
        occ = all_occupied(bins.shape[:4])
        assert advect(
            state, bins, split, 3.0, ws, floors, mass, _one_group(shape4[3]),
            cond, occ,
        ) is not None
        assert np.array_equal(state, want[0])
        assert np.array_equal(bins, want[1])
        assert np.array_equal(cond, _lane_condensate(bins, mass))

    @settings(max_examples=15, deadline=None)
    @given(**{**SWEEPS, "members": st.integers(2, 4)})
    def test_member_stack_equals_one_member_calls_bitwise(
        self, shape4, members, seed, clip_bits
    ):
        """The stencil folds the members' rows into one row loop; each
        member's slices, and its condensate, must equal a one-member call
        exactly."""
        split, state, bins, floors, mass = _sweep_problem(
            shape4, members, seed, clip_bits
        )
        ns = shape4[3]
        stacked = state.copy(), bins.copy()
        cond = np.empty(bins.shape[:4])
        fused_euler_advect(
            *stacked, split, 3.0, TransportWorkspace(bins.shape[:4], ns),
            floors, mass, _one_group(ns), cond, all_occupied(bins.shape[:4]),
        )
        for m in range(members):
            one = state[m : m + 1].copy(), bins[m : m + 1].copy()
            one_cond = np.empty(one[1].shape[:4])
            fused_euler_advect(
                *one,
                WindSplit(
                    pos=tuple(p[m : m + 1] for p in split.pos),
                    neg=tuple(n[m : m + 1] for n in split.neg),
                ),
                3.0,
                TransportWorkspace((1, *shape4[:3]), ns),
                floors,
                mass,
                _one_group(ns),
                one_cond,
                all_occupied(one[1].shape[:4]),
            )
            assert np.array_equal(stacked[0][m], one[0][0])
            assert np.array_equal(stacked[1][m], one[1][0])
            assert np.array_equal(cond[m], one_cond[0])

    @settings(max_examples=30, deadline=None)
    @given(**SWEEPS)
    def test_condensate_kernel_sums_in_the_sweeps_order(
        self, shape4, members, seed, clip_bits
    ):
        """The build-time fill (``sum_condensate``, the stencil module's
        ``condensate`` kernel) and the sweep write the same bits for the
        same bins block: the lane order has one source."""
        split, state, bins, floors, mass = _sweep_problem(
            shape4, members, seed, clip_bits
        )
        cells = bins.shape[:4]
        masks = _one_group(shape4[3])
        filled = np.empty(cells)
        occ = np.zeros(cells, dtype=np.uint8)
        assert sum_condensate(bins, mass, masks, filled, occ)
        assert np.array_equal(filled, _lane_condensate(bins, mass))
        swept = np.empty(cells)
        ws = TransportWorkspace(cells, shape4[3])
        assert fused_euler_advect(
            state, bins, split, 3.0, ws, floors, mass, masks, swept, occ
        ) is not None
        assert sum_condensate(bins, mass, masks, filled, occ)
        assert np.array_equal(swept, filled)

    def test_condensate_kernel_refuses_mismatched_operands(self):
        lib = cstencil.load_stencil()
        assert hasattr(lib, "condensate")
        block = np.zeros((1, 3, 2, 2, 4))
        occ = np.zeros((1, 3, 2, 2), dtype=np.uint8)
        masks = _one_group(4)
        for mass, cond, bits, masked in (
            (np.zeros(3), np.empty((1, 3, 2, 2)), occ, masks),
            (np.zeros(4), np.empty((1, 3, 2, 3)), occ, masks),
            (np.zeros(4), np.empty((1, 3, 2, 2, 2))[..., 0], occ, masks),
            (np.zeros(4), np.empty((1, 3, 2, 2)), occ.astype(np.int64), masks),
            (np.zeros(4), np.empty((1, 3, 2, 2)), occ, _one_group(3)),
        ):
            with pytest.raises(ValueError):
                cstencil.condensate(lib, block, mass, cond, masked, bits)

    def test_mismatched_operands_are_refused(self):
        rng = np.random.default_rng(0)
        split, state, bins = _random_blocks(rng, (3, 2, 2, 4), 1)
        cells = bins.shape[:4]
        ws = TransportWorkspace(cells, 4)
        rings = ws.rings(bins.shape, 1)
        cond = np.empty(cells)
        occ = all_occupied(cells)
        swept = np.empty(cells, dtype=np.int32)

        def call(floors=np.zeros(4), cond=cond, masks=_one_group(4),
                 occ=occ, swept=swept, rings=rings, state=state,
                 sfloors=STATE_FLOORS):
            cstencil.advect_stage(
                cstencil.load_stencil(), state, state, state, bins, bins,
                bins, split.pos, split.neg, 1.0, sfloors, floors,
                np.zeros(4), cond, masks, occ, occ, swept, rings,
            )

        call()  # the right operands pass
        for bad in (
            dict(floors=np.zeros(3)),
            dict(sfloors=np.zeros(2)),
            # A state block laid out like the bins, or with its planes
            # strided.
            dict(state=np.zeros((1, 3, 2, 2, 3))),
            dict(state=np.zeros((1, 3, 3, 2, 2, 2))[..., 0]),
            dict(rings={**rings, "out_ring": np.empty((1, *bins.shape[2:]))}),
            dict(rings={k: v for k, v in rings.items() if k != "out_guard"}),
            dict(rings={k: v for k, v in rings.items() if k != "sout_ring"}),
            # Right shapes, but a strided condensate: the kernel would
            # write it as a dense array.
            dict(cond=np.empty((*cells, 2))[..., 0]),
            dict(occ=occ.astype(np.int64)),
            dict(swept=swept.astype(np.int64)),
            # Masks that do not fit the bins, groups that do not split
            # them in order or mix masks, or a mask that is not one bit
            # (0 included: every bin belongs to a species).
            dict(masks=_one_group(3)),
            dict(masks=(np.ones(4, dtype=np.int64), np.array([0, 3, 2, 4]))),
            dict(masks=(np.ones(4, dtype=np.int64), np.array([0, 4, 4]))),
            dict(masks=(np.array([1, 1, 1, 2]), np.array([0, 2, 4]))),
            dict(masks=(np.array([1, 1, 3, 3]), np.array([0, 2, 4]))),
            dict(masks=(np.array([1, 1, 256, 256]), np.array([0, 2, 4]))),
            dict(masks=(np.array([0, 0, 1, 1]), np.array([0, 2, 4]))),
        ):
            with pytest.raises(ValueError):
                call(**bad)

    def test_disable_env_forces_fallback(self, monkeypatch):
        monkeypatch.setenv(cstencil.DISABLE_ENV, "1")
        assert cstencil.load_stencil() is None


class TestScalarLayout:
    def test_layout_slices_and_masks(self):
        layout = ScalarLayout(entries=(("bin_a", 3), ("bin_b", 2)))
        assert layout.nscalars == 5
        sls = layout.slices()
        assert sls["bin_a"] == slice(0, 3)
        assert sls["bin_b"] == slice(3, 5)
        # Every bin is clipped unless its field is named.
        inf = float("inf")
        assert layout.floors().tolist() == [0, 0, 0, 0, 0]
        floors = layout.floors(no_clip=("bin_b",))
        assert floors.tolist() == [0, 0, 0, -inf, -inf]
        assert not floors.flags.writeable  # cached and shared
        # One group per species, each with its own bit.
        smask, glo = layout.masks()
        assert smask.tolist() == [1, 1, 1, 2, 2]
        assert glo.tolist() == [0, 3, 5]
        # t and w are never clamped: their floor is -inf; qv clips at 0.
        assert STATE_FLOORS.tolist() == [-inf, 0, -inf]
        assert not STATE_FLOORS.flags.writeable


def _model_blocks(nl, steps=1):
    """Each rank's resident blocks, wind split and layout after a few
    model steps — the real transport inputs."""
    model = WrfModel(nl)
    try:
        for _ in range(steps):
            model.step()
        return [
            (
                rs.state.copy(),
                rs.bins.copy(),
                WindSplit.build(
                    rs.u, rs.v, rs.w, nl.domain.dx, nl.domain.dz,
                ),
                rs.floors,
                rs.scalar_masses,
                rs.scalar_bits,
            )
            for rs in model.ranks
        ]
    finally:
        model.close()


def _assert_kernels_match_per_field(nl, rk3):
    advect = fused_rk3_advect if rk3 else fused_euler_advect
    for state, bins, split, floors, mass, bits in _model_blocks(nl):
        want_state, want_bins = _per_field_advect(
            state, bins, split, nl.dt, floors == 0.0, rk3
        )
        ws = TransportWorkspace(bins.shape[:4], bins.shape[-1])
        advect(
            state, bins, split, nl.dt, ws, floors, mass, bits,
            np.empty(bins.shape[:4]), all_occupied(bins.shape[:4]),
        )
        np.testing.assert_allclose(state, want_state, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(bins, want_bins, rtol=0.0, atol=1e-12)


class TestModelEquivalence:
    @pytest.mark.parametrize("rk3", [False, True])
    def test_fused_matches_per_field_model(self, rk3):
        nl = conus12km_namelist(
            scale=0.04, num_ranks=2, use_rk3_numerics=rk3, seed=7
        )
        _assert_kernels_match_per_field(nl, rk3)

    def test_narrow_patches_match(self):
        """Rank decomposition producing 1-cell-wide owned patches."""
        from repro.grid.domain import DomainSpec
        from repro.wrf.namelist import Namelist

        nl = Namelist(
            domain=DomainSpec(nx=2, nz=6, ny=2), num_ranks=2, seed=3
        )
        probe = WrfModel(nl)
        narrow = any(
            min(p.i.size, p.j.size) == 1
            for p in probe.decomposition.patches
        )
        probe.close()
        assert narrow
        _assert_kernels_match_per_field(nl, rk3=False)


@pytest.mark.skipif(
    cstencil.load_stencil() is None,
    reason=f"compiled stencil unavailable: {cstencil.load_error}",
)
class TestCompiledModelTransport:
    def test_condensate_matches_total_condensate_mass(self):
        """The sweep's condensate is each cell's bins times their masses,
        within rounding of the BLAS contraction."""
        nl = conus12km_namelist(scale=0.04, num_ranks=1, members=2, seed=7)
        model = WrfModel(nl)
        try:
            for _ in range(2):
                model.step()
            rs = model.ranks[0]
            split = WindSplit.build(
                rs.u, rs.v, rs.w, nl.domain.dx, nl.domain.dz,
            )
            assert fused_euler_advect(
                rs.state, rs.bins, split, nl.dt, rs.workspace, rs.floors,
                rs.scalar_masses, rs.scalar_bits, rs.condensate,
                rs.occupancy,
            ) is not None
            cond = rs.condensate
            for m, f in enumerate(rs.fields):
                blas = f.micro.total_condensate_mass()
                assert (blas > 0).sum() > 100  # the storm has cloud
                # Every term is non-negative after the clamp, so the two
                # summation orders agree to a few ulps of the total.
                assert np.all(np.abs(cond[m] - blas) <= 1e-15 * blas)
                assert np.array_equal(
                    cond[m], _lane_condensate(rs.bins[m], rs.scalar_masses)
                )
        finally:
            model.close()

    def test_euler_path_pins_no_block_sized_pool(self):
        """The in-place sweep needs the two-row rings (both blocks'
        values, the evaluated guards, new bits), one swept count per
        cell and the six wind pieces: no tendency pool, no block copy;
        the condensate and bits it writes are the rank state's fields,
        one value per cell."""
        nl = conus12km_namelist(scale=0.04, num_ranks=1, seed=11)
        model = WrfModel(nl)
        try:
            for _ in range(2):
                model.step()
            rs = model.ranks[0]
            nm, ni, nk, nj, ns = rs.bins.shape
            ng = len(rs.scalar_bits[1]) - 1
            cells = nm * ni * nk * nj
            # Three guards per cell, two per (cell, group), the new bits.
            rings = 8 * 2 * nk * nj * (ns + 3) + 2 * nk * nj * (2 * ng + 4)
            assert rs.workspace.nbytes == rings + 4 * cells + 6 * 8 * cells
            assert rs.workspace.nbytes < (rs.state.nbytes + rs.bins.nbytes) / 4
            assert rs.condensate.shape == (nm, ni, nk, nj)
            assert rs.occupancy.shape == (nm, ni, nk, nj)
        finally:
            model.close()


class TestWorkspaceReuse:
    def test_steps_reuse_buffers_without_allocating(self):
        """After a warm-up step, Euler and RK3 steps allocate no pool,
        the wind split's six pieces included, and build no workspace."""
        for rk3 in (False, True):
            nl = conus12km_namelist(
                scale=0.04, num_ranks=1, seed=11, use_rk3_numerics=rk3
            )
            model = WrfModel(nl)
            try:
                model.step()  # warmup allocates every pool once
                ws = model.workspaces[0]
                allocs = ws.allocations
                before = cache_stats()["wrf.transport_workspace"]
                for _ in range(3):
                    model.step()
                after = cache_stats()["wrf.transport_workspace"]
            finally:
                model.close()
            assert ws.allocations == allocs  # zero new pool allocations
            assert after.misses == before.misses  # no new workspace builds
            assert after.currsize == before.currsize
            assert after.nbytes >= ws.nbytes > 0  # sizer reports pinned bytes

    def test_wind_split_lands_in_the_pools_bitwise(self):
        """The split built into the workspace's pools equals a fresh
        ``WindSplit.build`` bit for bit, and a second build reuses them."""
        rng = np.random.default_rng(5)
        u, v, w = (rng.standard_normal((2, 4, 3, 5)) * 10.0 for _ in range(3))
        ws = TransportWorkspace((2, 4, 3, 5), 7)
        got = ws.wind_split(u, v, w, 12000.0, 500.0)
        want = WindSplit.build(u, v, w, 12000.0, 500.0)
        for a, b in zip(got.pos + got.neg, want.pos + want.neg):
            assert a.tobytes() == b.tobytes()
        allocs = ws.allocations
        again = ws.wind_split(u, v, w, 12000.0, 500.0)
        assert ws.allocations == allocs == 6
        assert all(a is not b and np.shares_memory(a, b)
                   for a, b in zip(got.pos, again.pos))

    def test_workspace_registry_keys_by_owner(self):
        a = get_workspace((4, 3, 2), 5, owner=0)
        b = get_workspace((4, 3, 2), 5, owner=1)
        again = get_workspace((4, 3, 2), 5, owner=0)
        assert a is again
        assert a is not b

    def test_buffer_views_share_one_pool(self):
        ws = TransportWorkspace((4, 3, 2), 5)
        big = ws.buffer("tend", (4, 3, 2, 5))
        small = ws.buffer("tend", (4, 3, 2))
        assert ws.allocations == 1
        assert np.shares_memory(big, small)
