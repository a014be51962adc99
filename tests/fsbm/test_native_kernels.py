"""Compiled physics kernels vs their numpy references.

The contract of :mod:`repro.fsbm.ckernels` (see its module docstring):
the fused sedimentation sweep and the KO-remap scatter are **bit
identical** to the numpy paths; the ``coal_bott_new`` collision kernel
agrees with the numpy sparse engine to 1e-12 per row (only the order of
its dot products differs) and is bitwise independent of how points are
grouped into calls; every compiled path degrades to numpy under
``REPRO_DISABLE_CPHYS``.
"""

import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import T_0
from repro.fsbm import ckernels
from repro.fsbm.coal_bott import coal_bott_step, coal_bott_step_members
from repro.fsbm.collision_kernels import get_tables
from repro.fsbm.reference import coal_bott_reference_point
from repro.fsbm.condensation import _remap_spectrum
from repro.fsbm.sedimentation import _courant_tables, sedimentation_step
from repro.fsbm.species import INTERACTIONS, Species, species_bins
from repro.fsbm.state import MicroState
from tests.conftest import make_liquid_dists, total_mass

NKR = 33
SPLIST = list(Species)


def test_kernels_compile_in_ci():
    """The compiled path must actually be exercised by this suite."""
    assert ckernels.load_kernels() is not None, ckernels.load_error


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


# --- condensation KO-remap ---------------------------------------------------


class TestRemapScatter:
    def _workload(self, npts=32, seed=11):
        grid = species_bins()[Species.LIQUID]
        rng = np.random.default_rng(seed)
        n = rng.uniform(0.0, 3.0, (npts, NKR))
        factor = rng.uniform(0.45, 2.2, (npts, 1))
        return grid, n, grid.masses[None, :] * factor

    def test_native_bitwise_matches_bincount(self, monkeypatch):
        grid, n, new_mass = self._workload()
        n_nat, e_nat = _remap_spectrum(n, new_mass, grid)
        with monkeypatch.context() as mp:
            mp.setenv(ckernels.DISABLE_ENV, "1")
            n_ref, e_ref = _remap_spectrum(n, new_mass, grid)
        np.testing.assert_array_equal(n_nat, n_ref)
        np.testing.assert_array_equal(e_nat, e_ref)
        assert e_nat.sum() > 0  # the 0.45x tail does evaporate particles

    def test_evaporation_boundary_is_strict(self, monkeypatch):
        """The evaporation cut is ``new_mass < 0.5 * x[0]``: a particle
        exactly at half the smallest bin mass survives; one ULP below
        evaporates."""
        grid = species_bins()[Species.LIQUID]
        n = np.ones((2, NKR))
        new_mass = np.tile(grid.masses, (2, 1))
        boundary = 0.5 * grid.masses[0]
        new_mass[0, 0] = boundary  # exactly at the cut: survives
        new_mass[1, 0] = np.nextafter(boundary, 0.0)  # below: evaporates
        for native in (True, False):
            with monkeypatch.context() as mp:
                if not native:
                    mp.setenv(ckernels.DISABLE_ENV, "1")
                n_new, evap = _remap_spectrum(n, new_mass, grid)
            assert evap[0] == 0.0
            assert evap[1] == 1.0
            # The surviving boundary particle deposits in the lowest bin
            # (clipped onto the ladder), the evaporated one nowhere.
            assert n_new[0].sum() == pytest.approx(n[0].sum(), rel=1e-12)
            assert n_new[1].sum() == pytest.approx(
                n[1].sum() - 1.0, rel=1e-12
            )

    def test_disable_env_matches_native_results(self, monkeypatch):
        grid, n, new_mass = self._workload(seed=5)
        n_nat, e_nat = _remap_spectrum(n, new_mass, grid)
        monkeypatch.setenv(ckernels.DISABLE_ENV, "1")
        n_off, e_off = _remap_spectrum(n, new_mass, grid)
        np.testing.assert_array_equal(n_nat, n_off)
        np.testing.assert_array_equal(e_nat, e_off)


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
    and no parallel region (rank threads/processes own the cores)."""
    src = ckernels.C_SOURCE
    assert "void coal_bott_new(" in src
    assert "#pragma omp parallel" not in src
    body = src[src.index("void coal_bott_new(") :]
    assert "#pragma omp simd" in body
    assert "double A[64][8];" in body


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
            lib, dists, zeros, zeros.astype(np.int64),
            np.zeros((nix, npts), dtype=np.uint8), np.zeros(npts),
            np.zeros((nix, NKR, NKR)), np.zeros((nix, NKR, NKR)),
            np.zeros((NKR, NKR)), np.zeros((NKR, NKR)),
            np.zeros((nix, 4), dtype=np.int64),
            np.array([[0, 3], [2, 4]], dtype=np.int64), 5.0, 1e-8,
        )
