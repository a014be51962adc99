"""The fused superblock transport engine vs. the per-field reference.

The contract under test: the fused kernels (sliced numpy stencil or
compiled C stencil) on a member-stacked superblock reproduce the
per-field ``rk_scalar_tend``/``rk3_advect`` numerics of every member to
~1e-14 — the per-field loop lives here, as the oracle — and the model
performs zero heap allocations after warmup (the ``map(alloc:)``
analogy).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import cache_stats
from repro.fsbm.species import Species
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
    ScalarLayout,
    TransportWorkspace,
    fused_euler_advect,
    fused_rk3_advect,
    fused_upwind_tend,
    get_workspace,
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


def _member_split(split, m):
    return WindSplit(
        pos=tuple(p[m] for p in split.pos), neg=tuple(n[m] for n in split.neg)
    )


def _reference_tend(block, split):
    return np.stack(
        [rk_scalar_tend(block[..., n], split) for n in range(block.shape[-1])],
        axis=-1,
    )


def _per_field_advect(block, split, dt, clipped, rk3):
    """The per-field oracle: every scalar of every member advected on
    its own through ``rk_scalar_tend``/``rk3_advect``."""
    ref = block.copy()
    for m in range(block.shape[0]):
        msplit = _member_split(split, m)
        for n in range(block.shape[-1]):
            col = np.ascontiguousarray(ref[m, ..., n])
            if rk3:
                rk3_advect(col, msplit, dt, clip_negative=clipped[n])
            else:
                col += dt * rk_scalar_tend(col, msplit)
                if clipped[n]:
                    np.maximum(col, 0.0, out=col)
            ref[m, ..., n] = col
    return ref


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
        member stack vs. the per-field reference of each member,
        including the per-scalar clip mask — so no stencil reads across
        a member boundary."""
        rng = np.random.default_rng(seed)
        split, block = _random_problem(rng, shape4, members)
        ns = shape4[3]
        layout = ScalarLayout(
            entries=tuple((f"s{n}", 1) for n in range(ns))
        )
        no_clip = tuple(f"s{n}" for n in range(0, ns, 2))
        clip_slices = layout.clip_slices(no_clip=no_clip)
        dt = 3.0
        clipped = [f"s{n}" not in no_clip for n in range(ns)]
        ref = _per_field_advect(block, split, dt, clipped, rk3)
        ws = TransportWorkspace(block.shape[:4], ns)
        advect = fused_rk3_advect if rk3 else fused_euler_advect
        result = advect(block, split, dt, ws, clip_slices)
        np.testing.assert_allclose(result, ref, rtol=0.0, atol=1e-13)


@pytest.mark.skipif(
    cstencil.load_stencil() is None,
    reason=f"compiled stencil unavailable: {cstencil.load_error}",
)
class TestCompiledStencil:
    @settings(max_examples=25, deadline=None)
    @given(
        shape4=SHAPES,
        members=st.integers(1, 3),
        seed=st.integers(0, 2**31 - 1),
        rk3=st.booleans(),
    )
    def test_c_path_matches_numpy_path(self, shape4, members, seed, rk3):
        import os

        rng = np.random.default_rng(seed)
        split, block = _random_problem(rng, shape4, members)
        ns = shape4[3]
        clip_slices = (slice(1, ns),) if ns > 1 else ()
        dt = 3.0
        advect = fused_rk3_advect if rk3 else fused_euler_advect

        ws_c = TransportWorkspace(block.shape[:4], ns)
        got_c = advect(block.copy(), split, dt, ws_c, clip_slices).copy()

        os.environ[cstencil.DISABLE_ENV] = "1"
        try:
            ws_np = TransportWorkspace(block.shape[:4], ns)
            got_np = advect(block.copy(), split, dt, ws_np, clip_slices).copy()
        finally:
            os.environ.pop(cstencil.DISABLE_ENV, None)
        np.testing.assert_allclose(got_c, got_np, rtol=0.0, atol=1e-13)

    @settings(max_examples=15, deadline=None)
    @given(
        shape4=SHAPES,
        members=st.integers(2, 4),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_member_stack_equals_one_member_calls_bitwise(
        self, shape4, members, seed
    ):
        """The stencil folds the members' rows into one row loop; each
        member's slice must equal a one-member call exactly."""
        rng = np.random.default_rng(seed)
        split, block = _random_problem(rng, shape4, members)
        ns = shape4[3]
        clip_slices = (slice(1, ns),) if ns > 1 else ()
        stacked = fused_euler_advect(
            block.copy(), split, 3.0,
            TransportWorkspace(block.shape[:4], ns), clip_slices,
        ).copy()
        for m in range(members):
            one = fused_euler_advect(
                block[m : m + 1].copy(),
                WindSplit(
                    pos=tuple(p[m : m + 1] for p in split.pos),
                    neg=tuple(n[m : m + 1] for n in split.neg),
                ),
                3.0,
                TransportWorkspace((1, *shape4[:3]), ns),
                clip_slices,
            )
            assert np.array_equal(stacked[m], one[0])

    def test_disable_env_forces_fallback(self, monkeypatch):
        monkeypatch.setenv(cstencil.DISABLE_ENV, "1")
        assert cstencil.load_stencil() is None


class TestScalarLayout:
    def test_layout_slices_and_masks(self):
        layout = ScalarLayout(
            entries=(("t", 1), ("qv", 1), ("w", 1), ("bin_a", 3), ("bin_b", 2))
        )
        assert layout.nscalars == 8
        sls = layout.slices()
        assert sls["t"] == slice(0, 1)
        assert sls["bin_b"] == slice(6, 8)
        # t and w unclipped -> two merged runs: qv, then both bin blocks.
        assert layout.clip_slices(no_clip=("t", "w")) == (
            slice(1, 2),
            slice(3, 8),
        )
        mask = layout.clip_mask(no_clip=("t", "w"))
        assert mask.tolist() == [0, 1, 0, 1, 1, 1, 1, 1]


def _model_blocks(nl, steps=1):
    """Each rank's resident block, wind split and layout after a few
    model steps — the real transport inputs."""
    model = WrfModel(nl)
    try:
        for _ in range(steps):
            model.step()
        return [
            (
                rs.block.copy(),
                WindSplit.build(
                    rs.u, rs.v, rs.block[..., rs.w_start],
                    nl.domain.dx, nl.domain.dz,
                ),
                rs.clip_slices,
                rs.fields[0].layout,
            )
            for rs in model.ranks
        ]
    finally:
        model.close()


def _assert_kernels_match_per_field(nl, rk3):
    advect = fused_rk3_advect if rk3 else fused_euler_advect
    for block, split, clip_slices, layout in _model_blocks(nl):
        clipped = layout.clip_mask().astype(bool)
        ref = _per_field_advect(block, split, nl.dt, clipped, rk3)
        ws = TransportWorkspace(block.shape[:4], block.shape[-1])
        got = advect(block, split, nl.dt, ws, clip_slices)
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12)


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


class TestWorkspaceReuse:
    def test_steps_reuse_buffers_without_allocating(self):
        nl = conus12km_namelist(scale=0.04, num_ranks=1, seed=11)
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
