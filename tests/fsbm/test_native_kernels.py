"""Compiled physics kernels vs their numpy references.

The contract of :mod:`repro.fsbm.ckernels` (see its module docstring):
the fused sedimentation sweep is **bit identical** to the numpy path;
the ``onecond`` condensation, ``freeze_melt`` and ``coal_bott_new``
kernels agree with their numpy engines to 1e-12 of each row's largest
bin (only the order of their sums differs) and are bitwise independent
of how points are grouped into calls; every compiled path degrades to
numpy under ``REPRO_DISABLE_CPHYS``.
"""

import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import T_0
from repro.fsbm import ckernels
from repro.fsbm.coal_bott import coal_bott_step, coal_bott_step_members
from repro.fsbm.collision_kernels import get_tables
from repro.fsbm.condensation import _remap_spectrum
from repro.fsbm.fast_sbm import (
    _condensation,
    _occupied as _packed_occupied,
    _species_axis,
    species_columns,
)
from repro.fsbm.freezing import freezing_melting_step
from repro.fsbm.reference import coal_bott_reference_point
from repro.fsbm.sedimentation import _courant_tables, sedimentation_step
from repro.fsbm.species import INTERACTIONS, Species, species_bins
from repro.fsbm.state import N_EPS, MicroState
from repro.fsbm.thermo import saturation_mixing_ratio
from tests.conftest import make_liquid_dists, total_mass

NKR = 33
SPLIST = list(Species)


def test_kernels_compile_in_ci():
    """The compiled path must actually be exercised by this suite."""
    lib = ckernels.load_kernels()
    assert lib is not None, ckernels.load_error
    for name in (
        "mp_candidates", "sed_sweep", "onecond", "freeze_melt", "gather_rows",
        "scatter_rows", "row_stats", "coal_bott_new",
    ):
        assert hasattr(lib, name), name


# --- sedimentation -----------------------------------------------------------


def _superblock_state(shape=(4, 6, 5), seed=0, species=None):
    """A MicroState whose dists are strided views into one superblock,
    exactly the layout :meth:`repro.wrf.state.WrfFields.bind_block`
    produces (bin axis unit-stride, shared element strides)."""
    ni, nk, nj = shape
    block = np.zeros((ni, nk, nj, len(SPLIST) * NKR))
    dists = {
        sp: block[..., isp * NKR : (isp + 1) * NKR]
        for isp, sp in enumerate(SPLIST)
    }
    rng = np.random.default_rng(seed)
    for sp in species or (Species.LIQUID, Species.SNOW, Species.GRAUPEL):
        mask = rng.random((ni, nk, nj)) < 0.5
        dists[sp][mask] = rng.uniform(0.0, 5.0, (int(mask.sum()), NKR))
    return MicroState(shape=shape, dists=dists)


P_LEVELS = np.linspace(1000.0, 400.0, 6)


class TestSedimentation:
    def test_native_bitwise_matches_numpy_on_superblock_views(
        self, monkeypatch
    ):
        state = _superblock_state()
        ref = state.copy()  # contiguous copy -> numpy path workload
        stats_nat = sedimentation_step(state, P_LEVELS, 50_000.0, 5.0)
        with monkeypatch.context() as mp:
            mp.setenv(ckernels.DISABLE_ENV, "1")
            stats_ref = sedimentation_step(ref, P_LEVELS, 50_000.0, 5.0)
        for sp in SPLIST:
            np.testing.assert_array_equal(
                state.dists[sp], ref.dists[sp], err_msg=str(sp)
            )
        # Only the precip dot product accumulates in a different order.
        np.testing.assert_allclose(state.precip, ref.precip, rtol=1e-12)
        assert stats_nat.cell_bins == stats_ref.cell_bins > 0

    @settings(max_examples=20, deadline=None)
    @given(members=st.integers(1, 3), seed=st.integers(0, 10_000))
    def test_sweep_with_bits_equals_the_all_set_sweep(self, members, seed):
        """``sed_sweep`` reading only the rows whose bit is set (a valid,
        sparse field: exact bits plus random extra ones) equals the
        all-set call in dists, precip and ``active``, and sets the bit
        of every cell a row deposits into, so no clear bit ends up over
        a nonzero row."""
        rng = np.random.default_rng(seed)
        shape = (members, 3, 6, 4)
        block = np.zeros((*shape, len(SPLIST) * NKR))
        for isp in range(len(SPLIST)):
            rows = rng.random(shape) < 0.3
            block[rows, isp * NKR : (isp + 1) * NKR] = rng.uniform(
                0.0, 5.0, (int(rows.sum()), NKR)
            )
        species = block.reshape(*shape, len(SPLIST), NKR)
        nonzero = (species != 0.0).any(axis=-1)
        exact = (nonzero << np.arange(len(SPLIST))).sum(axis=-1).astype(np.uint8)
        extra = ((rng.random((*shape, 8)) < 0.1) << np.arange(8)).sum(axis=-1)
        tables = _courant_tables(P_LEVELS, 50_000.0, 5.0)
        runs = []
        for occ in (exact | extra.astype(np.uint8), np.full(shape, 0xFF, np.uint8)):
            got = block.copy()
            precip = np.zeros((members, shape[1], shape[3]))
            active = ckernels.sed_sweep(
                _compiled_kernels(),
                [got[..., n * NKR : (n + 1) * NKR] for n in range(len(SPLIST))],
                tables["stack"], tables["masses"], precip, occ,
            )
            runs.append((got, precip, active, occ))
        (got, precip, active, occ), (want, want_precip, want_active, _) = runs
        assert np.array_equal(got, want)
        assert np.array_equal(precip, want_precip)
        assert np.array_equal(active, want_active)
        # Row k held the species, so it deposited into row k - 1.
        deposited = np.zeros_like(nonzero)
        deposited[:, :, :-1] = nonzero[:, :, 1:]
        bits = (occ[..., None] >> np.arange(len(SPLIST))) & 1
        assert bits[deposited].all()
        after = (got.reshape(*shape, len(SPLIST), NKR) != 0.0).any(axis=-1)
        assert bits[after].all()

    def test_multi_step_stays_bitwise(self, monkeypatch):
        state = _superblock_state(seed=7)
        ref = state.copy()
        for _ in range(4):
            sedimentation_step(state, P_LEVELS, 50_000.0, 5.0)
            with monkeypatch.context() as mp:
                mp.setenv(ckernels.DISABLE_ENV, "1")
                sedimentation_step(ref, P_LEVELS, 50_000.0, 5.0)
        for sp in SPLIST:
            np.testing.assert_array_equal(state.dists[sp], ref.dists[sp])

    def test_cfl_violation_raises_when_species_present(self):
        state = _superblock_state(species=(Species.HAIL,))
        tables = _courant_tables(P_LEVELS, 50_000.0, 15.0)
        assert tables["cmax"][Species.HAIL] > 1.0  # dt=15 breaks hail
        with pytest.raises(AssertionError, match="CFL violated"):
            sedimentation_step(state, P_LEVELS, 50_000.0, 15.0)

    @pytest.mark.parametrize("native", [True, False])
    def test_cfl_violation_ignored_for_absent_species(self, native, monkeypatch):
        # Hail violates CFL at dt=15 but is absent; liquid is present
        # and stable, so the step must run on both paths.
        if not native:
            monkeypatch.setenv(ckernels.DISABLE_ENV, "1")
        state = _superblock_state(species=(Species.LIQUID,))
        ref = state.copy()
        sedimentation_step(state, P_LEVELS, 50_000.0, 15.0)
        assert not np.array_equal(
            state.dists[Species.LIQUID], ref.dists[Species.LIQUID]
        )

    def test_other_bin_counts_take_the_numpy_path(self):
        # The sweep is compiled for NKR bins; any other count is refused
        # before the kernel runs, leaving every array as it was.
        nkr = NKR - 1
        dists = [np.ones((1, 2, 3, 2, nkr)) for _ in SPLIST]
        precip = np.zeros((1, 2, 2))
        occ = np.full((1, 2, 3, 2), 0xFF, np.uint8)
        active = ckernels.sed_sweep(
            _compiled_kernels(),
            dists,
            np.zeros((len(SPLIST), 3, nkr)),
            np.zeros((len(SPLIST), nkr)),
            precip,
            occ,
        )
        assert active is None
        assert all((d == 1.0).all() for d in dists)
        assert not precip.any() and (occ == 0xFF).all()

    def test_courant_tables_are_cached(self):
        a = _courant_tables(P_LEVELS, 50_000.0, 5.0)
        b = _courant_tables(P_LEVELS.copy(), 50_000.0, 5.0)
        assert a is b  # CountingCache hit, not a rebuild
        assert _courant_tables(P_LEVELS, 50_000.0, 2.5) is not a

    def test_mass_conserved_including_precip(self):
        state = _superblock_state(seed=3)
        grids = species_bins()
        before = sum(
            float((state.dists[sp].reshape(-1, NKR) @ grids[sp].masses).sum())
            for sp in SPLIST
        )
        sedimentation_step(state, P_LEVELS, 50_000.0, 5.0)
        after = sum(
            float((state.dists[sp].reshape(-1, NKR) @ grids[sp].masses).sum())
            for sp in SPLIST
        )
        assert after + state.precip.sum() == pytest.approx(before, rel=1e-10)

    def test_disable_env_forces_numpy_path(self, monkeypatch):
        state = _superblock_state()
        ref = state.copy()
        monkeypatch.setenv(ckernels.DISABLE_ENV, "1")
        assert ckernels.load_kernels() is None
        assert ckernels.DISABLE_ENV in ckernels.load_error
        sedimentation_step(state, P_LEVELS, 50_000.0, 5.0)
        # The numpy reference: the per-species upwind update, written
        # out here on the contiguous copy.
        grids = species_bins()
        tables = _courant_tables(P_LEVELS, 50_000.0, 5.0)
        for sp in SPLIST:
            n = ref.dists[sp]
            if not n.any():
                continue
            flux = n * tables["courant"][sp][None, :, None, :]
            n -= flux
            n[:, :-1, :, :] += flux[:, 1:, :, :]
            ref.precip += flux[:, 0, :, :] @ grids[sp].masses
        for sp in SPLIST:
            np.testing.assert_array_equal(state.dists[sp], ref.dists[sp])
        np.testing.assert_array_equal(state.precip, ref.precip)


# --- condensation and freezing/melting kernels ------------------------------

#: Temperature regimes the point draws mix: homogeneous freezing (below
#: -38 C), Bigg freezing, cold but not freezing, and warm (melting).
REGIMES = (T_0 - 50.0, T_0 - 20.0, T_0 - 3.0, T_0 + 8.0)


def _micro_points(npts, seed, top=False):
    """Packed point rows (every species a column slice at row stride
    ``7 * NKR``, the sweep's gather) with physically sized spectra:
    ``(packed, t, p, qv, rho, ccn)``. Some rows stay all zero; with
    ``top`` every liquid spectrum reaches the top bin."""
    rng = np.random.default_rng(seed)
    packed = np.zeros((npts, len(SPLIST) * NKR))
    dists = species_columns(packed)
    for sp in SPLIST:
        x = species_bins()[sp].masses
        present = rng.random(npts) < (0.8 if sp is Species.LIQUID else 0.4)
        for n in np.flatnonzero(present):
            lo = int(rng.integers(0, NKR - 1))
            hi = NKR if top and sp is Species.LIQUID else int(rng.integers(lo + 1, NKR + 1))
            shape = rng.uniform(0.01, 1.0, hi - lo)
            mass = 10.0 ** rng.uniform(-10.0, -5.5)
            dists[sp][n, lo:hi] = shape * (mass / (shape @ x[lo:hi]))
    t = rng.choice(REGIMES, npts) + rng.uniform(-4.0, 4.0, npts)
    p = rng.uniform(450.0, 1000.0, npts)
    qv = saturation_mixing_ratio(t, p) * rng.uniform(0.3, 1.1, npts)
    rho = rng.uniform(0.4e-3, 1.2e-3, npts)
    ccn = rng.uniform(10.0, 300.0, npts)
    return packed, t, p, qv, rho, ccn


def _engine_context(engine):
    return _numpy_engine() if engine == "numpy" else nullcontext()


def _condense(state, dt, segments, engine="compiled"):
    """The sweep's condensation stage on a copy of ``state``: the
    presence flags and warm/cold routing as ``step_members`` derives
    them. Returns ``((packed, t, qv, ccn), per-member stats)``."""
    packed, t, p, qv, rho, ccn = (a.copy() for a in state)
    rowsums = packed.reshape(len(t), len(SPLIST), NKR).sum(axis=2)
    sp_present = [
        dict(zip(SPLIST, (rowsums[s:e] != 0.0).any(axis=0).tolist()))
        for s, e in segments
    ]
    ice = (rowsums[:, [sp.is_ice for sp in SPLIST]] > N_EPS).any(axis=1)
    warm = (t > T_0 - 5.0) & ~ice
    with _engine_context(engine):
        stats = _condensation(
            species_columns(packed), t, p, qv, rho, ccn, warm, dt, segments,
            sp_present,
        )
    return (packed, t, qv, ccn), stats


def _freeze(state, dt, engine="compiled"):
    packed, t, _, _, rho, _ = (a.copy() for a in state)
    with _engine_context(engine):
        stats = freezing_melting_step(species_columns(packed), t, rho, dt)
    return (packed, t), stats


def _bins_deviation(before, a, b):
    """Largest ``|a - b|`` of a bin over its row's largest magnitude
    (before or after the step): each species row of each point."""
    shape = (before.shape[0], len(SPLIST), NKR)
    scale = np.maximum(
        np.abs(before).reshape(shape).max(axis=2),
        np.abs(b).reshape(shape).max(axis=2),
    )
    scale = np.where(scale > 0, scale, 1.0)[:, :, None]
    return float((np.abs(a - b).reshape(shape) / scale).max(initial=0.0))


def _relative(before, a, b):
    """Largest ``|a - b|`` over the larger magnitude before or after."""
    scale = np.maximum(np.abs(before), np.abs(b))
    return float((np.abs(a - b) / np.where(scale > 0, scale, 1.0)).max(initial=0.0))


def _segments(sizes):
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    return [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]


class TestCompiledCondensation:
    @given(
        sizes=st.lists(st.integers(0, 16), min_size=1, max_size=4),
        seed=st.integers(0, 10_000),
        dt=st.floats(1.0, 20.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_numpy_engine(self, sizes, seed, dt):
        state = _micro_points(max(sum(sizes), 1), seed)
        state = tuple(a[: sum(sizes)] for a in state)
        segments = _segments(sizes)
        got, s_got = _condense(state, dt, segments)
        want, s_want = _condense(state, dt, segments, engine="numpy")
        assert _bins_deviation(state[0], got[0], want[0]) <= 1e-12
        for before, a, b in zip((state[1], state[3], state[5]), got[1:], want[1:]):
            assert _relative(before, a, b) <= 1e-14
        for a, b in zip(s_got, s_want):
            assert (a.points, a.bin_updates) == (b.points, b.bin_updates)
            assert {a.engine, b.engine} <= {"compiled", "numpy", "none"}
            assert a.engine in ("compiled", "none") and b.engine in ("numpy", "none")

    @given(
        sizes=st.lists(st.integers(0, 12), min_size=1, max_size=4),
        seed=st.integers(0, 10_000),
        dt=st.floats(1.0, 20.0),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_member_call_equals_solo_calls_bitwise(self, sizes, seed, dt, data):
        npts = sum(sizes)
        state = tuple(a[:npts].copy() for a in _micro_points(max(npts, 1), seed))
        segments = _segments(sizes)
        # Per-member species gates: a species can be absent from a
        # member, or hold only sub-threshold rows there (skipped, and
        # its rows must not move).
        faint = []
        dists = species_columns(state[0])
        for s, e in segments:
            for sp in SPLIST:
                mode = data.draw(st.sampled_from(["keep", "absent", "faint"]))
                if e == s or mode == "keep":
                    continue
                dists[sp][s:e] = 0.0
                if mode == "faint":
                    dists[sp][s:e, 3] = 0.2 * N_EPS
                    faint.append((sp, s, e))
        batched, stats = _condense(state, dt, segments)
        for m, (s, e) in enumerate(segments):
            solo_state = tuple(a[s:e] for a in state)
            solo, (solo_stats,) = _condense(solo_state, dt, [(0, e - s)])
            for a, b in zip(batched, solo):
                np.testing.assert_array_equal(a[s:e], b)
            assert stats[m] == solo_stats
        for sp, s, e in faint:
            np.testing.assert_array_equal(
                species_columns(batched[0])[sp][s:e], dists[sp][s:e]
            )

    def _one_point(self, liquid, t, supersat):
        packed = np.zeros((1, len(SPLIST) * NKR))
        species_columns(packed)[Species.LIQUID][0] = liquid
        p = np.array([800.0])
        t = np.array([t])
        qv = saturation_mixing_ratio(t, p) * (1.0 + supersat)
        return packed, t, p, qv, np.array([1.0e-3]), np.array([100.0])

    def _both(self, state, dt=5.0):
        got, stats = _condense(state, dt, [(0, 1)])
        want, _ = _condense(state, dt, [(0, 1)], engine="numpy")
        assert _bins_deviation(state[0], got[0], want[0]) <= 1e-12
        for before, a, b in zip((state[1], state[3], state[5]), got[1:], want[1:]):
            assert _relative(before, a, b) <= 1e-14
        assert stats[0].engine == "compiled"
        return got

    def _spectrum(self, lo, hi, mass=1.0e-6):
        x = species_bins()[Species.LIQUID].masses
        n = np.zeros(NKR)
        n[lo:hi] = 1.0
        return n * (mass / (n @ x))

    def test_binding_limiter_stops_at_saturation(self):
        # A dense cloud of small drops in 0.5 % supersaturation would
        # condense more vapor than the excess: the limiter takes qv to
        # the saturation of the step's entry temperature.
        state = self._one_point(self._spectrum(0, 10, 3e-6), T_0 + 10.0, 0.005)
        _, _, qv, _ = self._both(state)
        qs = saturation_mixing_ratio(state[1], state[2])
        assert qv[0] == pytest.approx(qs[0], rel=1e-12)

    def test_evaporation_below_half_the_smallest_mass_credits_ccn(self):
        state = self._one_point(self._spectrum(0, 6, 1e-8), T_0 + 10.0, -0.5)
        packed, _, _, ccn = self._both(state)
        assert ccn[0] > state[5][0]
        assert species_columns(packed)[Species.LIQUID][0, 0] < state[0][0, 0]

    def test_evaporation_boundary_is_strict(self):
        """The evaporation cut is ``new_mass < 0.5 * x[0]``: a particle
        landing exactly at half the smallest bin mass survives (clipped
        onto the ladder); one ULP below it evaporates — on both
        engines."""
        grid = species_bins()[Species.LIQUID]
        x0 = grid.masses[0]
        lib = ckernels.load_kernels()
        # With G = 1, S = qv / qs - 1 = -0.5 and dt = 1, the growth of
        # bin 0 is exactly -0.5 * prefactor.
        for prefactor, evaporates in ((x0, False), (np.nextafter(x0, 1.0), True)):
            cr = np.zeros(NKR)
            cr[0] = prefactor
            n = np.zeros((1, NKR))
            n[0, 0] = 1.0
            qs = np.array([0.01])
            qv, t, ccn = np.array([0.005]), np.array([T_0 + 10.0]), np.array([100.0])
            assert ckernels.onecond(
                lib, n, np.array([0]), np.ones(1), qs, np.array([1e-3]), qv, t,
                ccn, cr, grid.masses, 1.0, 0.5 * x0, 1.0, True,
            )
            new_mass = grid.masses[None, :].copy()
            new_mass[0, 0] = x0 - 0.5 * prefactor
            n_ref, evap_ref = _remap_spectrum(
                np.array([[1.0] + [0.0] * (NKR - 1)]), new_mass, grid
            )
            assert evap_ref[0] == (1.0 if evaporates else 0.0)
            assert ccn[0] == (101.0 if evaporates else 100.0)
            assert n[0, 0] == n_ref[0, 0] == (0.0 if evaporates else 1.0)

    def test_top_bin_clips_growth(self):
        state = self._one_point(self._spectrum(NKR - 3, NKR, 1e-7), T_0 + 10.0, 0.05)
        packed, *_ = self._both(state)
        liquid = species_columns(packed)[Species.LIQUID][0]
        assert liquid[-1] > state[0][0, NKR - 1]

    def test_all_zero_rows_stay_untouched(self):
        state = _micro_points(12, seed=3)
        state[0][4:9] = 0.0
        got, _ = _condense(state, 5.0, [(0, 12)])
        np.testing.assert_array_equal(got[0][4:9], 0.0)
        empty = slice(4, 9)
        np.testing.assert_array_equal(got[1][empty], state[1][empty])

    def test_kill_switch_falls_back_to_numpy(self):
        state = _micro_points(20, seed=8)
        _, stats = _condense(state, 5.0, [(0, 20)], engine="numpy")
        assert stats[0].engine == "numpy"
        _, stats = _condense(state, 5.0, [(0, 20)])
        assert stats[0].engine == "compiled"

    def test_malformed_rows_are_refused(self):
        lib = ckernels.load_kernels()
        n = np.zeros((4, NKR))
        per_row = [np.zeros(4) for _ in range(4)]
        masses = species_bins()[Species.LIQUID].masses
        for rows in ([0, 4], [2, 1], [1, 1], [-1, 2]):
            rows = np.array(rows, dtype=np.int64)
            with pytest.raises(ValueError, match="malformed"):
                ckernels.onecond(
                    lib, n, rows, np.zeros(2), np.ones(2), *per_row,
                    masses, masses, 5.0, 0.5 * masses[0], 1.0, True,
                )
        with pytest.raises(ValueError, match="malformed"):
            ckernels.onecond(
                lib, n, np.array([0, 1]), np.zeros(3), np.ones(2), *per_row,
                masses, masses, 5.0, 0.5 * masses[0], 1.0, True,
            )


class TestCompiledFreezing:
    @given(
        npts=st.integers(1, 40),
        seed=st.integers(0, 10_000),
        dt=st.floats(1.0, 20.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_numpy_engine(self, npts, seed, dt):
        state = _micro_points(npts, seed)
        (packed, t), stats = _freeze(state, dt)
        (ref, t_ref), ref_stats = _freeze(state, dt, engine="numpy")
        assert _bins_deviation(state[0], packed, ref) <= 1e-12
        assert _relative(state[1], t, t_ref) <= 1e-14
        assert stats.bin_updates == ref_stats.bin_updates
        assert (stats.engine, ref_stats.engine) == ("compiled", "numpy")

    @given(
        sizes=st.lists(st.integers(1, 12), min_size=1, max_size=4),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=20, deadline=None)
    def test_member_call_equals_solo_calls_bitwise(self, sizes, seed):
        """Rows whose gate is off are untouched, so one call over every
        member's rows gives each member's one-member values."""
        state = _micro_points(sum(sizes), seed)
        (packed, t), _ = _freeze(state, 5.0)
        for s, e in _segments(sizes):
            (solo, t_solo), _ = _freeze(tuple(a[s:e] for a in state), 5.0)
            np.testing.assert_array_equal(packed[s:e], solo)
            np.testing.assert_array_equal(t[s:e], t_solo)

    def test_homogeneous_freezing_and_melting(self):
        state = _micro_points(24, seed=5)
        state[1][:12] = T_0 - 45.0  # every drop freezes
        state[1][12:] = T_0 + 6.0  # ice melts
        (packed, t), stats = _freeze(state, 5.0)
        cols, before = species_columns(packed), species_columns(state[0])
        np.testing.assert_array_equal(cols[Species.LIQUID][:12], 0.0)
        assert (t[:12] >= state[1][:12]).all()  # latent heat of fusion
        assert (t[12:] <= state[1][12:]).all()
        for sp in (Species.SNOW, Species.GRAUPEL):
            held = before[sp][12:].sum(axis=1) > 0
            assert (cols[sp][12:].sum(axis=1) < before[sp][12:].sum(axis=1))[held].all()
        assert stats.bin_updates > 0

    def test_malformed_species_are_refused(self):
        lib = ckernels.load_kernels()
        dists = [np.zeros((3, NKR)) for _ in SPLIST]
        masses = species_bins()[Species.LIQUID].masses
        for msp in ([0, 7], [-1]):
            with pytest.raises(ValueError, match="malformed"):
                ckernels.freeze_melt(
                    lib, dists, np.zeros(3), np.full(3, T_0), np.ones(3),
                    masses, np.array(msp, dtype=np.int64), np.zeros(len(msp)),
                    0, 2, 6, 14, T_0, 1.0,
                )


def test_condensation_and_freezing_are_thread_safe():
    """Thread ranks call the kernels concurrently with the GIL
    released: no call may see another's scratch."""
    states = [_micro_points(31, seed=s) for s in range(6)]

    def run(state):
        grown, _ = _condense(state, 10.0, [(0, 31)])
        frozen, _ = _freeze(state, 10.0)
        return (*grown, *frozen)

    serial = [run(s) for s in states]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(run, states * 3, timeout=300))
    finally:
        sys.setswitchinterval(interval)
    for n, got in enumerate(threaded):
        for a, b in zip(got, serial[n % 6]):
            np.testing.assert_array_equal(a, b)

# --- compiled collision kernel ----------------------------------------------


@contextmanager
def _numpy_engine():
    """Force the numpy collision engine (the kill switch) for a block."""
    old = os.environ.get(ckernels.DISABLE_ENV)
    os.environ[ckernels.DISABLE_ENV] = "1"
    try:
        yield
    finally:
        if old is None:
            os.environ.pop(ckernels.DISABLE_ENV, None)
        else:
            os.environ[ckernels.DISABLE_ENV] = old


def _occupied(dists):
    out = {}
    for sp, d in dists.items():
        present = d > 1e-12
        first = np.argmax(present[:, ::-1], axis=1)
        out[sp] = np.where(present.any(axis=1), d.shape[1] - first, 0)
    return out


def _coal_run(dists, t=280.0, dt=5.0, p=700.0, occupied=True):
    """One in-place collision step at uniform (or per-point) t and p."""
    npts = next(iter(dists.values())).shape[0]
    return coal_bott_step(
        dists,
        np.broadcast_to(np.asarray(t, dtype=float), (npts,)).copy(),
        np.broadcast_to(np.asarray(p, dtype=float), (npts,)).copy(),
        dt,
        get_tables(),
        INTERACTIONS,
        occupied=_occupied(dists) if occupied else None,
        on_demand=True,
    )


def _both_engines(dists, **kw):
    """Point-scaled difference of the compiled and numpy engines.

    A grid point's collisions move number between its species, so the
    rounding of every bin is relative to the point's largest bin: each
    difference is divided by the largest magnitude of its point (all
    species, before or after the step). A row the limiter drains to
    rounding residue (~1e-18 of a value ~30), or a product row that
    only receives cancellation residue, is thus compared at the size
    of the point it came from. Returns ``(difference, compiled dists)``.
    """
    comp = {sp: d.copy() for sp, d in dists.items()}
    ref = {sp: d.copy() for sp, d in dists.items()}
    assert _coal_run(comp, **kw).engine == "compiled"
    with _numpy_engine():
        assert _coal_run(ref, **kw).engine == "numpy"
    scale = np.zeros(next(iter(dists.values())).shape[0])
    for sp in Species:
        scale = np.maximum(scale, np.abs(dists[sp]).max(axis=1))
        scale = np.maximum(scale, np.abs(ref[sp]).max(axis=1))
    scale = np.where(scale > 0, scale, 1.0)[:, None]
    worst = max(
        float((np.abs(comp[sp] - ref[sp]) / scale).max(initial=0.0))
        for sp in Species
    )
    return worst, comp


def _random_state(npts, seed, boost=1.0, regime="mixed"):
    """Random spectra, occupancies and thermal regimes per point."""
    rng = np.random.default_rng(seed)
    dists = {sp: np.zeros((npts, NKR)) for sp in Species}
    for sp in Species:
        present = rng.random(npts) < (0.9 if sp is Species.LIQUID else 0.5)
        lo = rng.integers(0, 12, npts)
        hi = lo + rng.integers(1, NKR - 8, npts)
        for n in np.flatnonzero(present):
            dists[sp][n, lo[n] : min(hi[n], NKR)] = boost * rng.uniform(
                0.0, 3.0, min(hi[n], NKR) - lo[n]
            )
    # Temperatures straddle every gate: warm, T_0 - 5, T_0 - 10.
    warm = rng.uniform(T_0 + 1.0, T_0 + 15.0, npts)
    cold = rng.uniform(T_0 - 25.0, T_0 - 1.0, npts)
    t = {"warm": warm, "cold": cold}.get(
        regime, np.where(rng.random(npts) < 0.5, warm, cold)
    )
    p = rng.uniform(450.0, 1000.0, npts)
    return dists, t, p


def test_coal_kernel_is_ir_emitted_and_serial():
    """coal_bott_new is generated from loop IR, with vector lane loops
    and no parallel region (rank threads/processes own the cores). Every
    vector lane loop runs its 8 lanes as one vector (``simdlen(8)``)."""
    src = ckernels.C_SOURCE
    assert "void coal_bott_new(" in src
    assert "#pragma omp parallel" not in src
    body = src[src.index("void coal_bott_new(") :]
    body = body[: body.index("\n}\n")]
    assert "double A[64][8];" in body
    lines = [line.strip() for line in body.splitlines()]
    simd = [
        (pragma, loop) for pragma, loop in zip(lines, lines[1:])
        if pragma.startswith("#pragma omp simd")
    ]
    assert len(simd) >= 20
    assert all(
        pragma == "#pragma omp simd simdlen(8)"
        and loop.startswith("for (long lane = 0; lane < 8;")
        for pragma, loop in simd
    ), simd


class TestCompiledCoal:
    def test_matches_numpy_warm_rain(self):
        dev, _ = _both_engines(make_liquid_dists(24, seed=3))
        assert dev <= 1e-12

    def test_matches_numpy_mixed_phase(self):
        rng = np.random.default_rng(4)
        a = {sp: np.zeros((16, NKR)) for sp in Species}
        for sp in (Species.LIQUID, Species.SNOW, Species.GRAUPEL,
                   Species.ICE_PLA):
            a[sp][:, 4:20] = rng.uniform(0.0, 2.0, (16, 16))
        dev, _ = _both_engines(a, t=258.0)
        assert dev <= 1e-12

    def test_matches_numpy_when_limiter_binds(self):
        # 100x concentrations at a large dt force the positivity
        # limiter in nearly every interaction.
        a = make_liquid_dists(12, seed=9, lo_bin=10, hi_bin=25)
        a[Species.LIQUID] *= 100.0
        dev, comp = _both_engines(a, dt=60.0)
        assert dev <= 1e-12
        assert (comp[Species.LIQUID] >= 0).all()

    def test_mass_conserved(self):
        dists = make_liquid_dists(20, seed=2)
        before = total_mass(dists)
        assert _coal_run(dists).engine == "compiled"
        assert total_mass(dists) == pytest.approx(before, rel=1e-10)

    def test_empty_state_short_circuits(self):
        dists = {sp: np.zeros((8, NKR)) for sp in Species}
        stats = _coal_run(dists)
        assert stats.pair_entries == 0
        assert total_mass(dists) == 0.0

    def test_packed_rows_match_contiguous_rows(self):
        """The sweep's packed gather (every species a column slice at
        row stride 7 * nkr) gives the contiguous arrays' bits."""
        dists, t, p = _random_state(29, seed=13, boost=30.0)
        packed = np.concatenate([dists[sp] for sp in SPLIST], axis=1)
        columns = species_columns(packed)
        assert _coal_run(columns, t=t, p=p).engine == "compiled"
        assert _coal_run(dists, t=t, p=p).engine == "compiled"
        for sp in SPLIST:
            np.testing.assert_array_equal(columns[sp], dists[sp])

    def test_float32_stays_on_numpy(self):
        dists = make_liquid_dists(6, seed=1)
        stats = coal_bott_step(
            dists, np.full(6, 280.0), np.full(6, 700.0), 5.0, get_tables(),
            INTERACTIONS, dtype=np.float32,
        )
        assert stats.engine == "numpy"

    def test_kill_switch_falls_back_to_numpy(self):
        dists, t, p = _random_state(40, seed=21, boost=30.0)
        dev, _ = _both_engines(dists, t=t, p=p, dt=20.0)
        assert dev <= 1e-12

    @pytest.mark.parametrize(
        "case",
        [
            ({Species.LIQUID: (5, 18, 5.0, 0)}, 285.0, 750.0),
            (
                {Species.LIQUID: (4, 12, 3.0, 1), Species.SNOW: (8, 16, 1.0, 1),
                 Species.GRAUPEL: (10, 20, 0.5, 1)},
                260.0,
                550.0,
            ),
            ({sp: (3, 25, 0.5, 2) for sp in Species}, 250.0, 500.0),
        ],
        ids=["warm", "mixed", "cold"],
    )
    def test_matches_scalar_reference(self, case):
        spec, t, p = case
        point = {sp: np.zeros(NKR) for sp in Species}
        for sp, (lo, hi, amp, seed) in spec.items():
            point[sp][lo:hi] = np.random.default_rng(seed).uniform(0, amp, hi - lo)
        ref = coal_bott_reference_point(point, t, p, 5.0, get_tables(), INTERACTIONS)
        vec = {sp: d[None, :].copy() for sp, d in point.items()}
        assert _coal_run(vec, t=t, p=p, occupied=False).engine == "compiled"
        for sp in Species:
            np.testing.assert_allclose(
                vec[sp][0], ref[sp], rtol=1e-9, atol=1e-18, err_msg=str(sp)
            )


class TestCompiledCoalProperties:
    @given(
        npts=st.integers(1, 40),
        seed=st.integers(0, 10_000),
        regime=st.sampled_from(["warm", "cold", "mixed"]),
        boost=st.sampled_from([1.0, 30.0, 300.0]),
        dt=st.floats(0.5, 60.0),
        occupied=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_numpy_sparse_engine(
        self, npts, seed, regime, boost, dt, occupied
    ):
        dists, t, p = _random_state(npts, seed, boost, regime)
        dev, _ = _both_engines(dists, t=t, p=p, dt=dt, occupied=occupied)
        assert dev <= 1e-12

    @given(
        sizes=st.lists(st.integers(0, 21), min_size=1, max_size=5),
        seed=st.integers(0, 10_000),
        boost=st.sampled_from([1.0, 100.0]),
    )
    @settings(max_examples=20, deadline=None)
    def test_member_call_equals_solo_calls_bitwise(self, sizes, seed, boost):
        npts = sum(sizes)
        dists, t, p = _random_state(max(npts, 1), seed, boost)
        dists = {sp: d[:npts].copy() for sp, d in dists.items()}
        t, p = t[:npts].copy(), p[:npts].copy()
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        segments = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]

        batched = {sp: d.copy() for sp, d in dists.items()}
        stats = coal_bott_step_members(
            batched, t, p, 5.0, get_tables(), INTERACTIONS, segments,
            occupied=_occupied(batched), on_demand=True,
        )
        for m, (a, b) in enumerate(segments):
            solo = {sp: d[a:b].copy() for sp, d in dists.items()}
            want = _coal_run(solo, t=t[a:b], p=p[a:b])
            got = stats[m]
            assert (got.pair_entries, got.kernel_entries) == (
                want.pair_entries, want.kernel_entries,
            )
            for sp in Species:
                np.testing.assert_array_equal(batched[sp][a:b], solo[sp])
        if npts:
            assert {s.engine for s in stats} == {"compiled"}

    def test_concurrent_calls_match_serial_calls(self):
        """Thread ranks call the kernel concurrently with the GIL
        released: no call may see another's scratch."""
        states = [_random_state(37, seed=s, boost=50.0) for s in range(6)]

        def run(state):
            dists, t, p = state
            out = {sp: d.copy() for sp, d in dists.items()}
            _coal_run(out, t=t, p=p, dt=30.0)
            return out

        serial = [run(s) for s in states]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(run, states * 3, timeout=300))
        finally:
            sys.setswitchinterval(interval)
        for n, got in enumerate(threaded):
            for sp in Species:
                np.testing.assert_array_equal(got[sp], serial[n % 6][sp])


def test_kernel_refuses_overlapping_segments():
    """Segments compact their points in place: overlap is refused
    before any pointer reaches C."""
    lib = ckernels.load_kernels()
    if lib is None:
        pytest.skip(ckernels.load_error)
    npts, nix = 4, len(INTERACTIONS)
    dists = [np.zeros((npts, NKR)) for _ in Species]
    zeros = np.zeros((len(dists), npts))
    with pytest.raises(ValueError, match="malformed"):
        ckernels.coal_bott_new(
            lib, dists, np.arange(npts), zeros, zeros.astype(np.int64),
            np.zeros((nix, npts), dtype=np.uint8), np.zeros(npts),
            np.zeros((nix, NKR, NKR)), np.zeros((nix, NKR, NKR)),
            np.zeros((NKR, NKR)), np.zeros((NKR, NKR)),
            np.zeros((nix, 4), dtype=np.int64),
            np.array([[0, 3], [2, 4]], dtype=np.int64), 5.0, 1e-8,
        )


def _compiled_kernels():
    """The compiled physics kernels, or a skip."""
    lib = ckernels.load_kernels()
    if lib is None:
        pytest.skip(f"compiled kernels unavailable: {ckernels.load_error}")
    return lib


class _NoC:
    """A stand-in library: any kernel call means a pointer reached C."""

    def __getattr__(self, name):
        raise AssertionError(f"{name} reached C")


def _called_subset(sizes, seed, boost=30.0):
    """Packed rows of 1-3 member segments, a random called subset of
    them (``rows``, strictly increasing) and the called points' member
    segments, temperatures, pressures and occupancies."""
    nrows = sum(sizes)
    dists, t, p = _random_state(max(nrows, 1), seed, boost)
    packed = np.concatenate([dists[sp][:nrows] for sp in SPLIST], axis=1)
    rng = np.random.default_rng(seed + 1)
    rows = np.flatnonzero(rng.random(nrows) < rng.uniform(0.2, 1.0))
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    los = np.searchsorted(rows, bounds[:-1])
    his = np.searchsorted(rows, bounds[1:])
    segments = [(int(a), int(b)) for a, b in zip(los, his)]
    return packed, rows, segments, t[rows], p[rows]


class TestRowKernels:
    """The sweep's packed row gather/scatter and row statistics."""

    @pytest.fixture(autouse=True)
    def _lib(self):
        self.lib = ckernels.load_kernels()
        if self.lib is None:
            pytest.skip(ckernels.load_error)

    @staticmethod
    def _edge_rows(npts, seed, pad=0):
        """Packed ``(npts, 7 * nkr)`` rows at row stride ``7 * nkr + pad``
        whose species are all-zero, sub-``N_EPS`` tails above occupied
        bins, exactly ``N_EPS``, top-bin-only, or dense."""
        rng = np.random.default_rng(seed)
        buf = np.full((npts, len(SPLIST) * NKR + pad), np.nan)
        rows = buf[:, : len(SPLIST) * NKR]
        rows[...] = 0.0
        sp_rows = rows.reshape(npts, len(SPLIST), NKR)
        for p in range(npts):
            for s in range(len(SPLIST)):
                kind = rng.integers(0, 6)
                lo = int(rng.integers(0, NKR))
                hi = int(rng.integers(lo + 1, NKR + 1))
                scale = 10.0 ** rng.uniform(-6, 4)
                if kind == 1:
                    sp_rows[p, s, lo:hi] = rng.uniform(0, 1, hi - lo) * scale
                elif kind == 2:
                    sp_rows[p, s, lo:hi] = rng.uniform(0, 1, hi - lo) * scale
                    sp_rows[p, s, hi:] = rng.uniform(0, N_EPS, NKR - hi)
                elif kind == 3:
                    sp_rows[p, s, lo:hi] = N_EPS
                elif kind == 4:
                    sp_rows[p, s, NKR - 1] = rng.uniform(0, 1) * scale
                elif kind == 5:
                    sp_rows[p, s] = rng.uniform(0, 1, NKR) * scale
        if npts:
            rows[0] = 0.0  # one all-zero row
        return rows

    @settings(max_examples=40, deadline=None)
    @given(npts=st.integers(0, 40), seed=st.integers(0, 10_000),
           pad=st.sampled_from([0, 5]))
    def test_row_stats_match_numpy(self, npts, seed, pad):
        rows = self._edge_rows(npts, seed, pad)
        sums, occ = ckernels.row_stats(self.lib, rows, len(SPLIST), N_EPS)
        np.testing.assert_array_equal(occ, _packed_occupied(rows))
        # The kernel's order exactly: each species from 0.0, bins ascending.
        species = _species_axis(np.ascontiguousarray(rows))
        serial = np.zeros(species.shape[:2])
        for b in range(NKR):
            serial += species[:, :, b]
        assert np.array_equal(sums, serial)
        # Against numpy's pairwise rows: the a priori bound of the two
        # orders on non-negative bins, (nkr - 1 + log2 nkr) ulps of the
        # sum. Typical differences are below 1e-15 relative, but about
        # 6 in 100,000 random sums exceed it (the largest seen: 1.4e-15).
        want = _species_axis(np.ascontiguousarray(rows)).sum(axis=2)
        bound = (NKR + np.log2(NKR)) * np.finfo(float).eps / 2
        assert np.all(np.abs(sums - want) <= bound * np.abs(want))

    def test_row_stats_concurrent_calls_match_serial_calls(self):
        batches = [self._edge_rows(300, seed) for seed in range(6)]

        def run(rows):
            return ckernels.row_stats(self.lib, rows, len(SPLIST), N_EPS)

        serial = [run(b) for b in batches]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(run, batches * 3, timeout=300))
        finally:
            sys.setswitchinterval(interval)
        for n, (sums, occ) in enumerate(threaded):
            assert np.array_equal(sums, serial[n % 6][0])
            assert np.array_equal(occ, serial[n % 6][1])

    def test_row_stats_refuse_a_partial_species(self):
        with pytest.raises(ValueError):
            ckernels.row_stats(_NoC(), np.zeros((3, 2 * NKR + 1)), 2, N_EPS)

    @settings(max_examples=25, deadline=None)
    @given(shape=st.tuples(*(st.integers(1, 5) for _ in range(4))),
           nsp=st.integers(1, 7), nkr=st.integers(1, 4),
           seed=st.integers(0, 10_000))
    def test_gather_and_scatter_match_the_fancy_index(self, shape, nsp, nkr, seed):
        """On a strided view of a larger block, as the sweep uses them:
        the gather equals ``view[cells]``, and the scatter writes exactly
        ``view[cells] = rows``, touching nothing else of the block, and
        exactly the bits of the species each row holds into the cells'
        occupancy bytes, touching no other byte."""
        rng = np.random.default_rng(seed)
        width = nsp * nkr
        block = rng.random((*(n + 2 for n in shape), width + 3))
        view = block[:, 1:-1, :-2, 2:, 1 : width + 1]
        field = rng.integers(0, 256, block.shape[:-1], dtype=np.uint8)
        occ = field[:, 1:-1, :-2, 2:]
        cells = np.nonzero(rng.random(view.shape[:-1]) < 0.5)
        got = ckernels.gather_rows(self.lib, view, cells)
        assert got.flags.c_contiguous
        np.testing.assert_array_equal(got, view[cells])
        present = rng.random((len(got), nsp, 1)) < 0.5
        new = (rng.random((len(got), nsp, nkr)) * present).reshape(got.shape)
        want = block.copy()
        want[:, 1:-1, :-2, 2:, 1 : width + 1][cells] = new
        bits = field.copy()
        bits[:, 1:-1, :-2, 2:][cells] = (
            present[..., 0] << np.arange(nsp)
        ).sum(axis=1)
        assert ckernels.scatter_rows(self.lib, view, cells, new, occ, nsp)
        np.testing.assert_array_equal(block, want)
        np.testing.assert_array_equal(field, bits)

    def test_cells_outside_the_view_are_refused(self):
        view = np.zeros((2, 3, 4, 5))[:, :, :, 1:]
        occ = np.zeros((2, 3, 4), dtype=np.uint8)
        inside = (np.array([1]), np.array([2]), np.array([3]))
        for bad in (
            (np.array([2]), inside[1], inside[2]),
            (inside[0], np.array([-1]), inside[2]),
            inside[:2],
            (inside[0], inside[1], np.array([0, 1])),
        ):
            with pytest.raises(ValueError):
                ckernels.gather_rows(_NoC(), view, bad)
            with pytest.raises(ValueError):
                ckernels.scatter_rows(_NoC(), view, bad, np.zeros((1, 4)), occ, 2)
        for rows, nsp in ((np.zeros((1, 3)), 1), (np.zeros((1, 4)), 3)):
            with pytest.raises(ValueError):
                ckernels.scatter_rows(_NoC(), view, inside, rows, occ, nsp)
        # An occupancy field that does not fit the view: the numpy path.
        assert not ckernels.scatter_rows(
            _NoC(), view, inside, np.zeros((1, 4)), occ[:, :, :3], 2
        )


class TestCoalRows:
    """``coal_bott_step_members(..., rows=)`` selects the called rows
    of a packed gather in place, bitwise as the gathered-copy call."""

    @pytest.mark.parametrize("engine", ["compiled", "numpy"])
    @settings(max_examples=20, deadline=None)
    @given(
        sizes=st.lists(st.integers(0, 17), min_size=1, max_size=3),
        seed=st.integers(0, 10_000),
    )
    def test_rows_equal_the_gathered_copy_bitwise(self, engine, sizes, seed):
        packed, rows, segments, t, p = _called_subset(sizes, seed)
        occupied = {
            sp: occ
            for sp, occ in zip(SPLIST, _packed_occupied(packed[rows]).T)
        }
        kw = dict(occupied=occupied, on_demand=True)
        in_place = packed.copy()
        copied = packed.copy()
        ctx = _numpy_engine() if engine == "numpy" else nullcontext()
        with ctx:
            got = coal_bott_step_members(
                species_columns(in_place), t, p, 5.0, get_tables(),
                INTERACTIONS, segments, rows=rows, **kw,
            )
            gathered = copied[rows]
            want = coal_bott_step_members(
                species_columns(gathered), t, p, 5.0, get_tables(),
                INTERACTIONS, segments, **kw,
            )
            copied[rows] = gathered
        np.testing.assert_array_equal(in_place, copied)
        for a, b in zip(got, want):
            assert (a.pair_entries, a.kernel_entries, a.engine) == (
                b.pair_entries, b.kernel_entries, b.engine,
            )
        if len(rows):
            assert {s.engine for s in got} == {engine}

    @pytest.mark.parametrize(
        "bad",
        [[3, 1, 5], [1, 1, 5], [-1, 2, 5], [1, 2, 9], [0, 1]],
        ids=["unsorted", "repeated", "negative", "past-the-end", "short"],
    )
    def test_malformed_rows_are_refused_before_c(self, bad, monkeypatch):
        packed, _, _, _, _ = _called_subset([9], seed=3)
        t, p = np.full(3, 280.0), np.full(3, 700.0)
        rows = np.asarray(bad, dtype=np.int64)
        monkeypatch.setattr(ckernels, "load_kernels", lambda: _NoC())
        with pytest.raises(ValueError, match="rows"):
            coal_bott_step(
                species_columns(packed), t, p, 5.0, get_tables(),
                INTERACTIONS, rows=rows,
            )
        npts, nix = 3, len(INTERACTIONS)
        zeros = np.zeros((len(SPLIST), npts))
        with pytest.raises(ValueError, match="malformed"):
            ckernels.coal_bott_new(
                _NoC(), list(species_columns(packed).values()), rows,
                zeros, zeros.astype(np.int64),
                np.zeros((nix, npts), dtype=np.uint8), np.zeros(npts),
                np.zeros((nix, NKR, NKR)), np.zeros((nix, NKR, NKR)),
                np.zeros((NKR, NKR)), np.zeros((NKR, NKR)),
                np.zeros((nix, 4), dtype=np.int64),
                np.array([[0, npts]], dtype=np.int64), 5.0, 1e-8,
            )
