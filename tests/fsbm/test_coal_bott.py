"""Collision–coalescence invariants: the heart of the reproduction."""

import dataclasses
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.fsbm import ckernels, coal_bott
from repro.fsbm.coal_bott import (
    CoalSelection,
    _interaction_selection,
    _pair_split,
    coal_bott_step,
    predict_coal_work,
)
from repro.fsbm.species import INTERACTIONS, Species, species_bins
from tests.conftest import make_liquid_dists, total_mass
from tests.fsbm.coal_oracle import dense_coal_step


def _occupied(dists, eps=1e-10):
    out = {}
    for sp, d in dists.items():
        present = d > eps
        rev = present[:, ::-1]
        first = np.argmax(rev, axis=1)
        out[sp] = np.where(present.any(axis=1), d.shape[1] - first, 0)
    return out


def _step(dists, t=280.0, p=700.0, dt=5.0, **kw):
    npts = next(iter(dists.values())).shape[0]
    from repro.fsbm.collision_kernels import get_tables

    return coal_bott_step(
        dists,
        np.full(npts, t),
        np.full(npts, p),
        dt,
        get_tables(),
        INTERACTIONS,
        **kw,
    )


class TestConservation:
    @given(seed=st.integers(0, 1000), dt=st.floats(0.1, 30.0))
    @settings(max_examples=25, deadline=None)
    def test_mass_conserved_for_warm_rain(self, seed, dt):
        dists = make_liquid_dists(20, seed=seed)
        before = total_mass(dists)
        _step(dists, dt=dt)
        after = total_mass(dists)
        assert after == pytest.approx(before, rel=1e-10)

    @given(seed=st.integers(0, 500))
    @settings(max_examples=15, deadline=None)
    def test_mass_conserved_mixed_phase(self, seed):
        rng = np.random.default_rng(seed)
        dists = {sp: np.zeros((12, 33)) for sp in Species}
        for sp in (Species.LIQUID, Species.SNOW, Species.GRAUPEL, Species.ICE_PLA):
            dists[sp][:, 4:20] = rng.uniform(0, 2, (12, 16))
        before = total_mass(dists)
        _step(dists, t=258.0)
        assert total_mass(dists) == pytest.approx(before, rel=1e-10)

    @given(seed=st.integers(0, 500), dt=st.floats(1.0, 120.0))
    @settings(max_examples=25, deadline=None)
    def test_no_negative_concentrations_even_at_large_dt(self, seed, dt):
        dists = make_liquid_dists(10, seed=seed, lo_bin=10, hi_bin=25)
        dists[Species.LIQUID] *= 100.0  # drive the limiter hard
        _step(dists, dt=dt)
        for sp, d in dists.items():
            assert (d >= 0).all(), f"{sp} went negative"


class TestPhysicalBehaviour:
    def test_collisions_move_mass_to_larger_bins(self):
        dists = make_liquid_dists(8, lo_bin=5, hi_bin=15)
        big_before = dists[Species.LIQUID][:, 15:].sum()
        _step(dists)
        big_after = dists[Species.LIQUID][:, 15:].sum()
        assert big_after > big_before

    def test_total_number_decreases(self):
        """Coalescence only merges particles."""
        dists = make_liquid_dists(8)
        n_before = dists[Species.LIQUID].sum()
        _step(dists)
        n_after = sum(d.sum() for d in dists.values())
        assert n_after < n_before

    def test_riming_produces_graupel(self):
        dists = {sp: np.zeros((6, 33)) for sp in Species}
        dists[Species.LIQUID][:, 5:12] = 5.0
        dists[Species.ICE_PLA][:, 8:16] = 1.0
        _step(dists, t=262.0)
        assert dists[Species.GRAUPEL].sum() > 0

    def test_warm_points_skip_ice_interactions(self):
        dists = {sp: np.zeros((6, 33)) for sp in Species}
        dists[Species.LIQUID][:, 5:12] = 5.0
        dists[Species.SNOW][:, 8:16] = 1.0
        snow_before = dists[Species.SNOW].copy()
        _step(dists, t=290.0)  # above freezing: cwls inactive
        np.testing.assert_array_equal(dists[Species.SNOW], snow_before)

    def test_empty_state_is_noop(self):
        dists = {sp: np.zeros((5, 33)) for sp in Species}
        stats = _step(dists)
        assert stats.pair_entries == 0
        assert total_mass(dists) == 0.0

    def test_cold_cutoff_skips_everything(self):
        dists = make_liquid_dists(5)
        before = {sp: d.copy() for sp, d in dists.items()}
        _step(dists, t=210.0)  # below every interaction's gate? no: LL has no gate
        # LL still runs (it has no temperature gate) — the cutoff lives
        # in the caller (fast_sbm's call_coal predicate).
        assert not np.array_equal(dists[Species.LIQUID], before[Species.LIQUID])


class TestWorkAccounting:
    def test_baseline_charges_all_twenty_tables(self):
        dists = make_liquid_dists(10)
        stats = _step(dists, on_demand=False)
        assert stats.kernel_entries >= 10 * 20 * 33 * 33

    def test_ondemand_charges_less(self):
        d1 = make_liquid_dists(10)
        d2 = make_liquid_dists(10)
        occ = _occupied(d1)
        base = _step(d1, on_demand=False, occupied=occ)
        ond = _step(d2, on_demand=True, occupied=occ)
        assert ond.kernel_entries < base.kernel_entries / 10

    def test_predict_matches_step_stats(self):
        from repro.fsbm.collision_kernels import get_tables

        dists = make_liquid_dists(15)
        occ = _occupied(dists)
        t = np.full(15, 280.0)
        predicted = predict_coal_work(
            dists, t, get_tables(), INTERACTIONS, occ, on_demand=True
        )
        actual = _step(dists, occupied=occ, on_demand=True)
        assert predicted.kernel_entries == actual.kernel_entries
        assert predicted.pair_entries == actual.pair_entries

    def test_flops_positive_when_active(self):
        stats = _step(make_liquid_dists(5))
        assert stats.flops > 0
        assert stats.bytes_moved > 0


class TestPrecisionPaths:
    def test_float32_close_to_float64(self):
        d64 = make_liquid_dists(10)
        d32 = {sp: d.copy() for sp, d in d64.items()}
        _step(d64, dtype=np.float64)
        _step(d32, dtype=np.float32)
        for sp in Species:
            np.testing.assert_allclose(
                d32[sp], d64[sp], rtol=2e-5, atol=1e-12
            )

    def test_float32_differs_in_last_digits(self):
        """The device-precision path must NOT be bitwise identical —
        that difference is what Sec. VII-B measures."""
        d64 = make_liquid_dists(10)
        d32 = {sp: d.copy() for sp, d in d64.items()}
        _step(d64, dtype=np.float64)
        _step(d32, dtype=np.float32)
        assert not np.array_equal(d32[Species.LIQUID], d64[Species.LIQUID])


class TestOccupiedSlicing:
    def test_occupied_bins_give_identical_results(self):
        """Restricting loops to occupied bins must not change physics."""
        d_full = make_liquid_dists(10)
        d_occ = {sp: d.copy() for sp, d in d_full.items()}
        _step(d_full, occupied=None)
        _step(d_occ, occupied=_occupied(d_occ))
        for sp in Species:
            np.testing.assert_allclose(d_occ[sp], d_full[sp], rtol=1e-12)


def _mixed_state(npts, seed, boost=1.0):
    """Randomized mixed-phase state exercising warm + cold interactions."""
    rng = np.random.default_rng(seed)
    dists = {sp: np.zeros((npts, 33)) for sp in Species}
    dists[Species.LIQUID][:, 3:22] = boost * rng.uniform(0.0, 4.0, (npts, 19))
    cold = np.arange(npts) % 2 == 1
    ncold = int(cold.sum())
    dists[Species.SNOW][cold, 6:20] = boost * rng.uniform(0.0, 1.5, (ncold, 14))
    dists[Species.GRAUPEL][cold, 8:18] = boost * rng.uniform(0.0, 1.0, (ncold, 10))
    dists[Species.ICE_PLA][cold, 4:14] = boost * rng.uniform(0.0, 0.8, (ncold, 10))
    temperature = np.where(cold, 258.0, 283.0) + rng.uniform(-3.0, 3.0, npts)
    pressure_mb = rng.uniform(520.0, 980.0, npts)
    return dists, temperature, pressure_mb


def _max_rel_dev(got, ref):
    worst = 0.0
    for sp in Species:
        scale = float(np.abs(ref[sp]).max()) or 1.0
        dev = np.abs(got[sp] - ref[sp])
        rel = dev / np.maximum(np.abs(ref[sp]), 1e-30)
        # Deviations below ~500 ULP of the field scale are rounding
        # noise (e.g. a bin the limiter drained to ~0 by cancellation),
        # not structure; the relative criterion applies above it.
        rel = np.where(dev < 1e-13 * scale, 0.0, rel)
        worst = max(worst, float(rel.max()))
    return worst


class TestSparseEngine:
    """The factored sparse contraction against the dense oracle.

    Every engine a step can run is held to the oracle
    (``tests/fsbm/coal_oracle.py``): the default call (the compiled
    kernel whenever it loads) and the numpy sparse engine the kill
    switch forces.
    """

    def _both(self, dists, t, p, dt=5.0, occupied="auto", dtype=np.float64):
        from repro.fsbm.collision_kernels import get_tables

        occ = _occupied(dists) if occupied == "auto" else occupied
        dense = {sp: d.copy() for sp, d in dists.items()}
        dense_coal_step(dense, t, p, dt, occ, dtype=dtype)
        engines = []
        for env in ({}, {ckernels.DISABLE_ENV: "1"}):
            work = {sp: d.copy() for sp, d in dists.items()}
            with mock.patch.dict(os.environ, env):
                coal_bott_step(
                    work, t, p, dt, get_tables(), INTERACTIONS,
                    occupied=occ, on_demand=True, dtype=dtype,
                )
            engines.append(work)
        return engines, dense

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=10, deadline=None)
    def test_sparse_matches_dense_to_1e12(self, seed):
        dists, t, p = _mixed_state(48, seed)
        engines, dense = self._both(dists, t, p)
        for got in engines:
            assert _max_rel_dev(got, dense) < 1e-12

    def test_sparse_matches_dense_without_occupied(self):
        dists, t, p = _mixed_state(32, seed=7)
        engines, dense = self._both(dists, t, p, occupied=None)
        for got in engines:
            assert _max_rel_dev(got, dense) < 1e-12

    @given(seed=st.integers(0, 500), dt=st.floats(10.0, 120.0))
    @settings(max_examples=10, deadline=None)
    def test_sparse_matches_dense_with_binding_limiter(self, seed, dt):
        # Large concentrations + long dt force the limiter to bind,
        # exercising the sparse engine's slow (re-contraction) path.
        dists, t, p = _mixed_state(32, seed, boost=100.0)
        engines, dense = self._both(dists, t, p, dt=dt)
        for got in engines:
            assert _max_rel_dev(got, dense) < 1e-12

    def test_sparse_float32_matches_dense_float32(self):
        dists, t, p = _mixed_state(32, seed=11)
        engines, dense = self._both(dists, t, p, dtype=np.float32)
        for got in engines:
            for sp in Species:
                np.testing.assert_allclose(
                    got[sp], dense[sp], rtol=2e-4, atol=1e-10
                )

    def test_sparse_conserves_mass(self):
        dists, t, p = _mixed_state(24, seed=3)
        before = total_mass(dists)
        from repro.fsbm.collision_kernels import get_tables

        with mock.patch.dict(os.environ, {ckernels.DISABLE_ENV: "1"}):
            stats = coal_bott_step(
                dists, t, p, 5.0, get_tables(), INTERACTIONS,
                occupied=_occupied(dists), on_demand=True,
            )
        assert stats.engine == "numpy"
        assert total_mass(dists) == pytest.approx(before, rel=1e-10)

    def test_pair_split_structure_is_triangular(self):
        """The mass-doubling ladder satisfies the engines' destination
        structure (otherwise the step refuses the grid)."""
        assert _pair_split(33).triangular
        assert _pair_split(17).triangular

    def test_grid_off_the_ladder_is_refused(self, monkeypatch):
        from repro.fsbm.collision_kernels import get_tables

        ladder = coal_bott._pair_split
        monkeypatch.setattr(
            coal_bott,
            "_pair_split",
            lambda nkr: dataclasses.replace(ladder(nkr), triangular=False),
        )
        dists, t, p = _mixed_state(8, seed=1)
        with pytest.raises(ConfigurationError, match="mass-doubling ladder"):
            coal_bott_step(dists, t, p, 5.0, get_tables(), INTERACTIONS)


class TestCoalSelection:
    def test_masks_match_reference_selection(self):
        dists, t, _ = _mixed_state(40, seed=5)
        sel = CoalSelection.build(dists, t)
        for ix in INTERACTIONS:
            np.testing.assert_array_equal(
                sel.mask(ix), _interaction_selection(dists, t, ix)
            )

    def test_shared_selection_gives_identical_step(self):
        from repro.fsbm.collision_kernels import get_tables

        dists, t, p = _mixed_state(32, seed=9)
        occ = _occupied(dists)
        auto = {sp: d.copy() for sp, d in dists.items()}
        shared = {sp: d.copy() for sp, d in dists.items()}
        coal_bott_step(
            auto, t, p, 5.0, get_tables(), INTERACTIONS,
            occupied=occ, on_demand=True,
        )
        sel = CoalSelection.build(shared, t)
        coal_bott_step(
            shared, t, p, 5.0, get_tables(), INTERACTIONS,
            occupied=occ, on_demand=True, selection=sel,
        )
        for sp in Species:
            np.testing.assert_array_equal(shared[sp], auto[sp])

    def test_fork_isolates_mutations(self):
        dists, t, _ = _mixed_state(16, seed=2)
        base = CoalSelection.build(dists, t)
        fork = base.fork()
        dists[Species.LIQUID][:, :] = 0.0
        fork.refresh(dists, {Species.LIQUID}, np.arange(16))
        ll = INTERACTIONS[0]
        assert not fork.mask(ll).any()
        # the pristine instance still sees the pre-mutation sums
        assert base.mask(ll).any()

    def test_selection_cascade_matches_per_interaction_recompute(self):
        """Sequential selection: an interaction that empties a species
        must stop later interactions at those points, exactly as the
        scalar loop's per-interaction recompute does. The riming chain
        (liquid + ice -> graupel) changes selections mid-step; shared
        and unshared paths already agree bitwise (above), so here we
        only confirm the cascade actually fires in this state."""
        dists, t, p = _mixed_state(32, seed=13)
        sel_before = CoalSelection.build(dists, t)
        graupel_ix = [
            ix for ix in INTERACTIONS if ix.product is Species.GRAUPEL
        ][0]
        pre = sel_before.mask(graupel_ix).copy()
        from repro.fsbm.collision_kernels import get_tables

        coal_bott_step(
            dists, t, p, 5.0, get_tables(), INTERACTIONS,
            occupied=_occupied(dists), on_demand=True,
        )
        post = CoalSelection.build(dists, t).mask(graupel_ix)
        assert not np.array_equal(pre, post) or dists[Species.GRAUPEL].sum() > 0
