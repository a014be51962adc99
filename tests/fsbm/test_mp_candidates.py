"""The microphysics candidate scan and the sedimentation early-out.

The compiled ``mp_candidates`` scan (:mod:`repro.fsbm.ckernels`) marks
a superset of the cells the microphysics predicate selects, without
``exp``; ``step_members`` then evaluates the numpy predicate on the
marked cells only. The guarantees under test:

* the marks contain the predicate's mask, and the mask filtered from
  them is the full-patch mask bit for bit, on inputs that probe every
  edge of the bound (the table's ends and nodes, the freezing cutoff,
  the ``0.5 p`` clamp, ``qv`` a rounding away from ``0.98 q_s``,
  condensate at ``N_EPS``, non-finite values, a member-broadcast ``p``);
* ``saturation_mixing_ratio`` of a gather equals the full arrays at
  those cells bit for bit, which the filtering depends on;
* a sedimentation call whose occupancy field is clear returns zero
  stats at once, exactly what the sweep would have returned;
* a run with the scan forced off equals one with it on, bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import T_FREEZE_CUTOFF
from repro.core.cache import get_cache
from repro.core.clock import SimClock
from repro.core.costmodel import CpuCostModel
from repro.fsbm import ckernels, fast_sbm
from repro.fsbm.fast_sbm import FastSBM, _mp_cells, _mp_predicate, step_members
from repro.fsbm.sedimentation import sedimentation_step_members
from repro.fsbm.species import Species
from repro.fsbm.state import ALL_OCCUPIED, N_EPS, MicroState
from repro.fsbm.thermo import (
    saturation_mixing_ratio,
    saturation_vapor_pressure_water,
)
from repro.hardware.specs import EPYC_MILAN
from repro.optim.stages import Stage
from repro.wrf.model import WrfModel
from repro.wrf.namelist import conus12km_namelist


@pytest.fixture(scope="module")
def lib():
    lib = ckernels.load_kernels()
    if lib is None:
        pytest.skip(f"physics kernels unavailable: {ckernels.load_error}")
    return lib


def _neighbours(x: float) -> st.SearchStrategy[float]:
    """``x`` and its two float neighbours."""
    return st.sampled_from(
        [float(np.nextafter(x, -np.inf)), float(x), float(np.nextafter(x, np.inf))]
    )


TABLE_TOP = ckernels.ES_TABLE_T0 + len(ckernels.ES_TABLE) - 1

TEMPERATURES = st.one_of(
    st.floats(140.0, 360.0),
    # The table's nodes, its ends included.
    st.integers(int(ckernels.ES_TABLE_T0), int(TABLE_TOP)).flatmap(
        lambda n: _neighbours(float(n))
    ),
    _neighbours(T_FREEZE_CUTOFF),
    st.sampled_from([np.nan, np.inf, -np.inf, 0.0, 1.0e4]),
)

#: A pressure: a plain one, a special value, or ``("clamp", f)``, which
#: puts ``p`` at ``f`` times twice the cell's saturation vapor pressure,
#: on either side of the ``es > 0.5 p`` clamp.
PRESSURES = st.one_of(
    st.floats(10.0, 1100.0),
    st.sampled_from([0.0, -0.0, -300.0, np.nan, np.inf, 5e-324, 1e-300]),
    st.tuples(st.just("clamp"), st.floats(0.25, 4.0)),
)

#: A vapor mixing ratio: a plain one, a special value, or ``("near",
#: d)``, ``0.98 q_s`` of the cell times ``1 + d`` with ``|d| <= 1e-12``.
VAPOR = st.one_of(
    st.floats(0.0, 0.05),
    st.sampled_from([0.0, np.nan, np.inf]),
    st.tuples(st.just("near"), st.floats(-1e-12, 1e-12)),
    st.just(("near", 0.0)),
)

CONDENSATE = st.one_of(
    _neighbours(N_EPS),
    st.floats(0.0, 1e-11),
    st.sampled_from([0.0, 1.0e-6, np.nan]),
)


@st.composite
def patches(draw):
    """Member-stacked ``(t, p, qv, cond)`` views shaped like the model's:
    ``t`` and ``qv`` planes of one block with a halo, ``cond`` a view
    with a halo, ``p`` broadcast over the members (stride 0)."""
    nm = draw(st.integers(1, 3))
    ni, nk = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    nj = draw(st.integers(1, 40))  # the vector loop and its tail
    shape = (nm, ni, nk, nj)
    cells = int(np.prod(shape))

    def field(strategy, n):
        return draw(st.lists(strategy, min_size=n, max_size=n))

    block = np.full((nm, ni + 1, 3, nk + 2, nj + 2), np.nan)
    t = block[:, 1:, 0, 1:-1, 1:-1]
    qv = block[:, 1:, 1, 1:-1, 1:-1]
    t[...] = np.reshape(field(TEMPERATURES, cells), shape)
    with np.errstate(all="ignore"):
        es = saturation_vapor_pressure_water(t[0])
        p3 = np.array([
            2.0 * e * v[1] if isinstance(v, tuple) else v
            for e, v in zip(es.ravel(), field(PRESSURES, cells // nm))
        ]).reshape(shape[1:])
        p = np.broadcast_to(p3[None], shape)
        qs = saturation_mixing_ratio(t, p)
        qv[...] = np.reshape([
            0.98 * q * (1.0 + v[1]) if isinstance(v, tuple) else v
            for q, v in zip(qs.ravel(), field(VAPOR, cells))
        ], shape)
    cond_block = np.full((nm, ni + 2, nk + 2, nj + 2), np.nan)
    cond = cond_block[:, 1:-1, 1:-1, 1:-1]
    cond[...] = np.reshape(field(CONDENSATE, cells), shape)
    return t, p, qv, cond


class TestCandidateScan:
    @settings(max_examples=150, deadline=None)
    @given(patch=patches())
    def test_marks_contain_the_predicate_and_filter_to_it(self, lib, patch):
        t, p, qv, cond = patch
        nm = t.shape[0]
        with np.errstate(all="ignore"):
            exact = _mp_predicate(t, p, qv, cond)
            marks, counts = ckernels.mp_candidates(lib, t, p, qv, cond)
            cells, per_member, candidates, engine = _mp_cells(t, p, qv, cond)
        assert marks.shape == exact.shape and marks.dtype == np.uint8
        assert not (exact & (marks == 0)).any(), "a selected cell is unmarked"
        np.testing.assert_array_equal(
            counts, (marks != 0).reshape(nm, -1).sum(axis=1)
        )
        assert engine == "compiled"
        np.testing.assert_array_equal(candidates, counts)
        np.testing.assert_array_equal(
            per_member, exact.reshape(nm, -1).sum(axis=1)
        )
        filtered = np.zeros_like(exact)
        if cells:
            filtered[cells] = True
            for got, want in zip(cells, np.nonzero(exact), strict=True):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(filtered, exact)

    def test_off_table_and_bad_pressure_cells_are_marked(self, lib):
        t = np.array([360.0, np.inf, 280.0, 280.0, 280.0, 193.0, np.nan, -np.inf])
        p = np.array([800.0, 800.0, 0.0, -5.0, np.nan, np.nan, np.nan, np.nan])
        zeros = np.zeros_like(t)
        marks, counts = ckernels.mp_candidates(
            lib, *(a.reshape(1, 1, 1, -1) for a in (t, p, zeros, zeros))
        )
        # Marked whenever the predicate's own t test holds.
        np.testing.assert_array_equal(marks.ravel(), t > T_FREEZE_CUTOFF)
        assert counts.tolist() == [5]

    def test_dry_cells_are_not_marked(self, lib):
        # Across the table, cells at 80 % of saturation stay unmarked:
        # the 1 K nodes bound q_s within 15 % at the coldest cells.
        t = np.linspace(T_FREEZE_CUTOFF + 0.01, TABLE_TOP - 0.01, 4001)
        p = np.linspace(100.0, 1050.0, t.size)
        qv = 0.8 * saturation_mixing_ratio(t, p)
        shaped = [a.reshape(1, 1, 1, -1) for a in (t, p, qv, np.zeros_like(t))]
        marks, counts = ckernels.mp_candidates(lib, *shaped)
        assert counts.tolist() == [0] and not marks.any()
        # ... while any condensate above N_EPS marks them all.
        shaped[3] = np.full_like(shaped[3], np.nextafter(N_EPS, 1.0))
        assert ckernels.mp_candidates(lib, *shaped)[1].tolist() == [t.size]

    def test_unsupported_layouts_fall_back(self, lib):
        a = np.full((1, 2, 2, 4), 280.0)
        strided = a[..., ::2]
        assert ckernels.mp_candidates(lib, *[strided] * 4) is None
        assert ckernels.mp_candidates(lib, a[0], a[0], a[0], a[0]) is None
        assert ckernels.mp_candidates(lib, a, a, a, a.astype(np.float32)) is None


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_gathered_saturation_equals_the_full_arrays(data):
    """A cell's ``saturation_mixing_ratio`` does not depend on which
    other cells share the call: the gather of any cells, tails of 1-17
    included, equals the full (strided, broadcast) arrays there."""
    nm, ni, nk = (data.draw(st.integers(1, n)) for n in (2, 3, 3))
    nj = data.draw(st.integers(1, 40))
    shape = (nm, ni, nk, nj)
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    block = rng.uniform(150.0, 350.0, (nm, ni, 3, nk, nj + 3))
    t = block[:, :, 0, :, 1:-2]
    p = np.broadcast_to(rng.uniform(5.0, 1100.0, (1, ni, nk, nj)), shape)
    cells = t.size
    count = data.draw(
        st.one_of(st.integers(1, min(17, cells)), st.integers(1, cells))
    )
    flat = np.sort(rng.choice(cells, size=count, replace=False))
    idx = np.unravel_index(flat, shape)
    full = saturation_mixing_ratio(t, p)
    sub = saturation_mixing_ratio(t[idx], p[idx])
    np.testing.assert_array_equal(sub.view(np.uint64), full[idx].view(np.uint64))


# --- sedimentation ------------------------------------------------------------


def _sed_counters() -> tuple[int, int]:
    info = get_cache("fsbm.sed_courant").info()
    return info.hits, info.misses


def _clear_step(occupancy_value: int, shape=(3, 5, 4)):
    """One ``step_members`` call on a patch with no hydrometeor and no
    microphysics cell, whose occupancy field reads ``occupancy_value``
    everywhere; returns what it left behind."""
    ni, nk, nj = shape
    state = MicroState(shape=shape)
    bins = np.zeros((1, ni, nk, nj, len(Species) * state.nkr))
    temperature = np.broadcast_to(
        np.linspace(290.0, 230.0, nk)[None, :, None], shape
    ).copy()
    pressure = np.broadcast_to(
        np.linspace(950.0, 400.0, nk)[None, :, None], shape
    ).copy()
    qv = 0.5 * saturation_mixing_ratio(temperature, pressure)
    occupancy = np.full((1, *shape), occupancy_value, dtype=np.uint8)
    clock = SimClock()
    sbm = FastSBM(Stage.BASELINE, 5.0, clock, CpuCostModel(cpu=EPYC_MILAN))
    before = _sed_counters()
    (stats,) = step_members(
        [sbm], [state], bins, state.ccn[None], state.precip[None],
        temperature[None], pressure[None], qv[None],
        np.full((1, *shape), 1.0e-3), np.zeros((1, *shape)), occupancy,
        50_000.0, pressure.mean(axis=(0, 2)),
    )
    after = _sed_counters()
    lookups = (after[0] - before[0], after[1] - before[1])
    return stats, bins, state.precip, occupancy, clock.state(), lookups


class TestSedimentationEarlyOut:
    def test_a_clear_field_returns_zero_stats_and_touches_nothing(self):
        nm, ni, nk, nj, nkr = 2, 3, 4, 5, 33
        dists = {sp: np.zeros((nm, ni, nk, nj, nkr)) for sp in Species}
        precip = np.zeros((nm, ni, nj))
        occupancy = np.zeros((nm, ni, nk, nj), dtype=np.uint8)
        hits, misses = _sed_counters()
        stats = sedimentation_step_members(
            dists, precip, np.linspace(1000.0, 400.0, nk), 50_000.0, 5.0,
            occupancy,
        )
        assert [s.cell_bins for s in stats] == [0.0, 0.0]
        assert not any(d.any() for d in dists.values())
        assert not precip.any() and not occupancy.any()
        # The table lookup still ran, once.
        now = _sed_counters()
        assert now[0] + now[1] == hits + misses + 1

    def test_equals_the_sweep_over_an_empty_field(self):
        # All bits set on all-zero bins: the sweep runs and finds
        # nothing. All bits clear: the early-out. Same results, stats,
        # clock buckets and table lookups.
        _clear_step(ALL_OCCUPIED)  # builds the column's tables
        swept = _clear_step(ALL_OCCUPIED)
        skipped = _clear_step(0)
        assert swept[0].mp_points == skipped[0].mp_points == 0
        assert swept[0].sed == skipped[0].sed
        assert swept[0].sed.cell_bins == 0.0
        for a, b in zip(swept[1:3], skipped[1:3]):
            np.testing.assert_array_equal(a, b)
        assert not skipped[3].any()
        assert swept[4] == skipped[4]
        assert swept[5] == skipped[5] == (1, 0)


# --- the model, with the scan forced off ---------------------------------------

#: Case overrides under which no cell ever holds a hydrometeor.
CLEAR_SKY = (
    ("bubbles_per_1e4_cells", 0.0),
    ("bubble_dtheta", 0.0),
    ("moisture_boost", 1.0),
    ("cloud_threshold", 1.0e9),
)

LAYOUTS = {
    "1 thread rank": dict(num_ranks=1),
    "2 thread ranks": dict(num_ranks=2),
    "2 process ranks": dict(num_ranks=2, use_process_ranks=True),
    "2 members": dict(num_ranks=2, members=2),
}


def _run(case: str, layout: str) -> dict:
    kw = dict(LAYOUTS[layout], scale=0.05, seed=23)
    members = kw.get("members", 1)
    if case == "clear":
        kw["member_deltas"] = (CLEAR_SKY,) * members
    model = WrfModel(conus12km_namelist(**kw))
    try:
        results = model.run_members(num_steps=3)
        return dict(
            frames=[model.gather_output(m) for m in range(members)],
            mp_points=[
                [[s.mp_points for s in t.sbm_stats] for t in r.step_timings]
                for r in results
            ],
            engines={
                s.scan_engine
                for r in results
                for t in r.step_timings
                for s in t.sbm_stats
            },
            clocks=[[c.state() for c in row] for row in model.member_clocks],
        )
    finally:
        model.close()


@pytest.mark.parametrize("layout", list(LAYOUTS))
@pytest.mark.parametrize("case", ["storm", "clear"])
def test_the_scan_changes_no_bit(case, layout, lib, monkeypatch):
    scanned = _run(case, layout)
    with monkeypatch.context() as mp:
        mp.setattr(fast_sbm, "_mp_candidates", lambda *args: None)
        full = _run(case, layout)
    assert scanned["engines"] == {"compiled"}
    assert full["engines"] == {"numpy"}
    assert scanned["mp_points"] == full["mp_points"]
    if case == "storm":
        assert sum(map(sum, scanned["mp_points"][0])) > 0
    else:
        assert sum(map(sum, scanned["mp_points"][0])) == 0
    for got, want in zip(scanned["frames"], full["frames"], strict=True):
        assert got.keys() == want.keys()
        for name in want:  # RAINNC among them
            np.testing.assert_array_equal(got[name], want[name], err_msg=name)
    assert scanned["clocks"] == full["clocks"]
