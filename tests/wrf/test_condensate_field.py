"""The rank state's condensate field stays the sum of the current bins.

``RankState.condensate`` is filled once when a rank is built and then
written by every transport sweep; the physics predicate and the output
frames read it instead of contracting the bins again. The contract
under test: after construction and after every step, each rank's field
is ``array_equal`` to the fixed-lane sum of its current bins (the
compiled stencil's order, :func:`tests.wrf.test_transport_fused._lane_condensate`)
or, with the stencil switched off, to the per-member BLAS contraction
its numpy fallback uses — on random decompositions (1 × 4, 2 × 2 and
4 × 1 among them), process ranks, 1–3 members, Euler and RK3. And no
model step contracts the bins through ``MicroState.total_condensate_mass``.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constants import CONUS12KM_DX
from repro.errors import ProcPoolError
from repro.fsbm.species import Species, species_bins
from repro.fsbm.state import MicroState
from repro.grid.domain import DomainSpec
from repro.grid.indexing import owned_slice
from repro.optim.stages import Stage
from repro.wrf import cstencil
from repro.wrf.model import WrfModel
from repro.wrf.namelist import Namelist
from repro.wrf.state import rank_blocks
from tests.wrf.test_transport_fused import _lane_condensate

#: ``(ranks, nx, ny, process ranks)``: the domain's aspect ratio picks
#: the process grid (``factor_ranks``), so the 4-rank shapes come out
#: 1 × 4, 2 × 2 and 4 × 1.
LAYOUTS = (
    (1, 10, 8, False),
    (2, 12, 8, False),
    (3, 12, 8, False),
    (4, 6, 24, False),
    (4, 12, 12, False),
    (4, 24, 6, False),
    (2, 12, 8, True),
)

#: Member perturbations: the control run and two stronger storms.
DELTAS = (
    (),
    (("bubble_dtheta", 3.5), ("seed_offset", 3)),
    (("moisture_boost", 1.45), ("seed_offset", 7)),
)


def _namelist(layout, members, rk3, seed) -> Namelist:
    ranks, nx, ny, procs = layout
    return Namelist(
        domain=DomainSpec(nx=nx, nz=24, ny=ny, dx=CONUS12KM_DX),
        num_ranks=ranks,
        stage=Stage.LOOKUP,
        members=members,
        member_deltas=DELTAS[:members],
        use_rk3_numerics=rk3,
        use_process_ranks=procs,
        seed=seed,
    )


def _scalar_masses() -> np.ndarray:
    """Per-bin masses of the bins block."""
    grids = species_bins()
    return np.concatenate([grids[sp].masses for sp in Species])


@contextmanager
def _stencil(engine: str):
    """Run a block on the compiled stencil or, with its kill switch
    set, on the numpy transport fallback."""
    old = os.environ.get(cstencil.DISABLE_ENV)
    if engine == "numpy":
        os.environ[cstencil.DISABLE_ENV] = "1"
    try:
        yield
    finally:
        if old is None:
            os.environ.pop(cstencil.DISABLE_ENV, None)
        else:
            os.environ[cstencil.DISABLE_ENV] = old


def _assert_field_is_current(model: WrfModel, engine: str, when: str) -> None:
    """Each rank's condensate equals the sum of its current bins."""
    mass = _scalar_masses()
    if model._pool is None:
        for rs in model.ranks:
            if engine == "compiled":
                want = _lane_condensate(rs.bins, mass)
            else:
                want = np.stack(
                    [f.micro.total_condensate_mass() for f in rs.fields]
                )
            assert np.array_equal(rs.condensate, want), (
                f"rank {rs.rank} condensate is stale {when}"
            )
        return
    # Process ranks: the workers own the field; the model reads it
    # through the output frames, and the bins through the shared blocks.
    nm = model.namelist.members
    for m in range(nm):
        got = model.gather_output(m)["QCLOUD_TOTAL"]
        for patch, storage in zip(model.decomposition.patches, model._pool.blocks):
            _, _, bins = rank_blocks(nm, patch.shape, lambda _: storage)
            if engine == "compiled":
                full = _lane_condensate(bins[m], mass)
            else:
                full = bins[m] @ mass
            sl = (patch.i.to_slice(1), patch.k.to_slice(1), patch.j.to_slice(1))
            assert np.array_equal(got[sl], full[owned_slice(patch)]), (
                f"rank {patch.rank} member {m} condensate is stale {when}"
            )


@pytest.mark.skipif(
    cstencil.load_stencil() is None,
    reason=f"compiled stencil unavailable: {cstencil.load_error}",
)
class TestCondensateField:
    @pytest.mark.parametrize("engine", ["compiled", "numpy"])
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        layout=st.sampled_from(LAYOUTS),
        members=st.integers(1, 3),
        rk3=st.booleans(),
        seed=st.integers(0, 10_000),
    )
    def test_field_equals_the_sum_of_the_current_bins(
        self, engine, layout, members, rk3, seed
    ):
        with _stencil(engine):
            model = WrfModel(_namelist(layout, members, rk3, seed))
            try:
                if layout[3]:
                    assert model._pool is not None
                    assert model.ranks == []
                _assert_field_is_current(model, engine, "after construction")
                for step in (1, 2):
                    model.step_members()
                    _assert_field_is_current(model, engine, f"after step {step}")
            finally:
                model.close()

    def test_layouts_cover_the_four_rank_factorizations(self):
        grids = set()
        for layout in LAYOUTS:
            if layout[0] == 4:
                model = WrfModel(_namelist(layout, 1, False, 0))
                try:
                    dec = model.decomposition
                    grids.add((dec.nproc_x, dec.nproc_y))
                finally:
                    model.close()
        assert grids == {(1, 4), (2, 2), (4, 1)}


#: The one module that may contract the bins through
#: ``MicroState.total_condensate_mass`` here: the case builder, for
#: the initial conditions.
_ALLOWED_CALLERS = {"repro.wrf.cases"}


@pytest.mark.skipif(
    cstencil.load_stencil() is None,
    reason=f"compiled stencil unavailable: {cstencil.load_error}",
)
class TestNoStepContractsTheBins:
    @pytest.fixture(autouse=True)
    def _guard(self, monkeypatch):
        """Make ``total_condensate_mass`` raise for any caller but the
        case builder. Patched on the class before the models exist, so
        process-rank workers, forked at construction, inherit it."""
        original = MicroState.total_condensate_mass

        def guarded(self):
            caller = sys._getframe(1).f_globals.get("__name__")
            if caller not in _ALLOWED_CALLERS:
                raise AssertionError(
                    f"{caller} contracted the bins during a model step"
                )
            return original(self)

        monkeypatch.setattr(MicroState, "total_condensate_mass", guarded)

    @pytest.mark.parametrize("procs", [False, True], ids=["1rank", "2procs"])
    def test_steps_and_frames_read_the_field(self, procs):
        layout = (2, 12, 8, True) if procs else (1, 10, 8, False)
        model = WrfModel(_namelist(layout, 1, False, 11))
        try:
            for _ in range(2):
                model.step()
            frame = model.gather_output()
        except ProcPoolError as exc:
            pytest.fail(f"a worker contracted the bins: {exc}")
        finally:
            model.close()
        assert frame["QCLOUD_TOTAL"].max() > 0.0
