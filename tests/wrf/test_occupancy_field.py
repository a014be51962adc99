"""The rank state's occupancy field never hides a nonzero bin.

``RankState.occupancy`` holds one byte per memory-extent cell: bit
``sp`` clear promises that every bin of species ``sp`` in that cell is
an exact zero (a set bit promises nothing). The transport and
sedimentation kernels skip what it marks empty, so a clear bit over a
nonzero bin would silently drop hydrometeors. Its writers are the
build, the transport sweep, the physics scatter, the sedimentation
sweep and the halo exchange. The contracts under test:

* the invariant, after construction, when each rank's transport
  starts (after physics, sedimentation and the halo exchange) and
  after every step, in every memory-extent cell of every rank — on
  random decompositions (1 × 4, 2 × 2 and 4 × 1 among them), process
  ranks (read through the shared mappings), 1–3 members, Euler and
  RK3, with the compiled kernels and with each numpy fallback
  (``REPRO_DISABLE_CSTENCIL``, ``REPRO_DISABLE_CPHYS``);
* the oracle: a run whose field is forced all set before every step
  computes what a run that skips nothing computes (the halo pull then
  moves every bin), so it must give the default run's fields, frames,
  precipitation and condensate bit for bit, and the same step stats and
  simulated clocks — with thread ranks and with process ranks, whose
  shared fields the driver forces.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constants import NKR
from repro.fsbm import ckernels
from repro.fsbm.species import Species
from repro.fsbm.state import ALL_OCCUPIED
from repro.wrf import cstencil
from repro.wrf import model as wrf_model
from repro.wrf.model import RankBlocks, WrfModel
from repro.wrf.state import rank_blocks
from tests.wrf.test_condensate_field import LAYOUTS, _namelist

#: Engine name -> the kill switch that selects it ("" = compiled).
ENGINES = {
    "compiled": "",
    "numpy_stencil": cstencil.DISABLE_ENV,
    "numpy_physics": ckernels.DISABLE_ENV,
}


@contextmanager
def _engine(name: str):
    """Run with the named engine's kill switch set (if any)."""
    env = ENGINES[name]
    old = os.environ.get(env) if env else None
    if env:
        os.environ[env] = "1"
    try:
        yield
    finally:
        if env:
            if old is None:
                os.environ.pop(env, None)
            else:
                os.environ[env] = old


def _hidden(bins: np.ndarray, occ: np.ndarray) -> int:
    """How many (cell, species) pairs hold a nonzero bin under a clear
    bit, over every memory-extent cell of a rank's bins block."""
    nsp = len(Species)
    bins = bins.reshape(*bins.shape[:4], nsp, NKR)
    nonzero = (bins != 0.0).any(axis=-1)
    clear = ((occ[..., None] >> np.arange(nsp)) & 1) == 0
    return int((nonzero & clear).sum())


def _rank_fields(model: WrfModel) -> list[RankBlocks]:
    """Every rank's state and bins blocks and occupancy field: the rank
    states in process, the shared mappings under process ranks."""
    if model._pool is None:
        return [RankBlocks(rs.state, rs.bins, rs.occupancy) for rs in model.ranks]
    nm = model.namelist.members
    return [
        RankBlocks(*rank_blocks(nm, patch.shape, lambda _, s=storage: s)[1:], occ)
        for patch, storage, occ in zip(
            model.decomposition.patches, model._pool.blocks, model._pool.occupancy
        )
    ]


def _assert_no_hidden_bins(model: WrfModel, when: str) -> None:
    for rank, (_, bins, occ) in enumerate(_rank_fields(model)):
        hidden = _hidden(bins, occ)
        assert hidden == 0, (
            f"rank {rank}: {hidden} (cell, species) pairs hold bins under a "
            f"clear bit {when}"
        )


@pytest.mark.skipif(
    cstencil.load_stencil() is None or ckernels.load_kernels() is None,
    reason="compiled kernels unavailable",
)
class TestOccupancyField:
    @pytest.fixture(autouse=True)
    def _check_before_transport(self, monkeypatch):
        """Hold the invariant where a rank's transport starts, too: the
        sweep heals bits it reads around, so only there do the physics
        writers and the halo exchange show alone. Patched before the
        models exist, so process-rank workers, forked at construction,
        inherit it (their assertion fails the step)."""
        original = wrf_model.transport_numerics

        def checked(namelist, rs):
            hidden = _hidden(rs.bins, rs.occupancy)
            assert hidden == 0, (
                f"rank {rs.rank}: {hidden} (cell, species) pairs hold bins "
                "under a clear bit before transport"
            )
            return original(namelist, rs)

        monkeypatch.setattr(wrf_model, "transport_numerics", checked)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow, HealthCheck.function_scoped_fixture,
        ],
    )
    @given(
        layout=st.sampled_from(LAYOUTS),
        members=st.integers(1, 3),
        rk3=st.booleans(),
        seed=st.integers(0, 10_000),
    )
    def test_no_clear_bit_over_a_nonzero_bin(
        self, engine, layout, members, rk3, seed
    ):
        with _engine(engine):
            model = WrfModel(_namelist(layout, members, rk3, seed))
            try:
                if layout[3]:
                    assert model._pool is not None
                _assert_no_hidden_bins(model, "after construction")
                for step in (1, 2):
                    model.step_members()
                    _assert_no_hidden_bins(model, f"after step {step}")
            finally:
                model.close()

    def test_the_storm_field_skips_most_species(self):
        """The field is not all set: after construction and a step of a
        storm, most (cell, species) pairs are marked empty."""
        model = WrfModel(_namelist((1, 10, 8, False), 1, False, 5))
        try:
            for _ in range(2):
                occ = model.ranks[0].occupancy
                bits = (occ[..., None] >> np.arange(len(Species))) & 1
                assert 0.0 < bits.mean() < 0.5
                model.step()
        finally:
            model.close()


def _outputs(model: WrfModel, timings) -> dict:
    """Everything a step leaves: fields, frames, stats, clocks (the
    condensate field only in process: a worker keeps its own)."""
    nm = model.namelist.members
    return {
        "blocks": [b.copy() for rb in _rank_fields(model) for b in rb[:2]],
        "condensate": [rs.condensate.copy() for rs in model.ranks],
        "frames": [model.gather_output(m) for m in range(nm)],
        "stats": [repr(t.sbm_stats) for t in timings],
        "clocks": [[c.state() for c in row] for row in model.member_clocks],
        "elapsed": [t.elapsed for t in timings],
    }


@pytest.mark.skipif(
    cstencil.load_stencil() is None or ckernels.load_kernels() is None,
    reason="compiled kernels unavailable",
)
class TestAllSetOracle:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_skipping_changes_nothing(self, layout):
        """A run forced to skip nothing (its field set to all ones before
        every step: what a sweep of every bin computes, and a halo pull
        that moves every bin) and the default run agree bit for bit,
        stats and clocks included. Under process ranks the driver sets
        the workers' shared fields."""
        runs = []
        for forced in (False, True):
            model = WrfModel(_namelist(layout, 2, False, 17))
            try:
                assert (model._pool is not None) == layout[3]
                steps = []
                for _ in range(3):
                    if forced:
                        for rb in _rank_fields(model):
                            rb.occupancy[...] = ALL_OCCUPIED
                    steps.append(_outputs(model, model.step_members()))
                runs.append(steps)
            finally:
                model.close()
        default, oracle = runs
        for step, (got, want) in enumerate(zip(default, oracle), start=1):
            for a, b in zip(got["blocks"] + got["condensate"],
                            want["blocks"] + want["condensate"]):
                assert np.array_equal(a, b), f"fields differ at step {step}"
            for fa, fb in zip(got["frames"], want["frames"]):
                for name in fa:
                    assert np.array_equal(fa[name], fb[name]), (
                        f"{name} differs at step {step}"
                    )
            for key in ("stats", "clocks", "elapsed"):
                assert got[key] == want[key], f"{key} differ at step {step}"
