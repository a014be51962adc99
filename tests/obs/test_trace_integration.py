"""Tracing against the live model: all three execution modes.

The guarantees under test:

* tracing records the same logical spans whether ranks run serially
  (a GPU stage), on the thread pool, or as worker processes (fork) —
  worker spans cross the command pipe and merge onto the driver's
  timeline;
* a worker failing through its containment path still flushes its
  buffered spans with the error reply;
* tracing never touches the numerics or the simulated clocks — runs
  with tracing on and off are bit-identical, and the exact-equality
  process-rank bar holds with tracing on;
* the tier-1 smoke: trace two steps at two process ranks, export, and
  run the structural validator over the emitted file.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.constants import CONUS12KM_DT
from repro.errors import ProcPoolError
from repro.fsbm import ckernels
from repro.grid.decomposition import decompose_domain
from repro.obs import export, metrics, tracer
from repro.wrf.model import WrfModel
from repro.wrf.namelist import conus12km_namelist

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Span names every execution mode must record for a stepped model.
RANK_STAGE_SPANS = {"physics", "transport", "halo_exchange"}


def _load_trace_check():
    spec = importlib.util.spec_from_file_location(
        "trace_check", REPO_ROOT / "scripts" / "trace_check.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(autouse=True)
def _clean_tracer():
    tracer.configure(enabled=False, rank=tracer.DRIVER_RANK, clear=True)
    yield
    tracer.configure(enabled=False, rank=tracer.DRIVER_RANK, clear=True)


def _traced_run(num_steps: int = 2, **overrides):
    nl = conus12km_namelist(scale=0.05, num_ranks=2, trace=True, **overrides)
    model = WrfModel(nl)
    try:
        model.run(num_steps=num_steps)
    finally:
        model.close()
    return tracer.drain()


class TestModesRecordSameSpans:
    def _names_by_rank(self, events):
        out: dict[int, set] = {}
        for e in events:
            if e.ph == "X":
                out.setdefault(e.rank, set()).add(e.name)
        return out

    def test_serial_mode(self):
        # GPU-stage ranks share the simulated GPU pool, so they step
        # one after another on the driver thread.
        from repro.core.env import PAPER_ENV
        from repro.optim.stages import Stage

        events = _traced_run(
            stage=Stage.OFFLOAD_COLLAPSE3, num_gpus=1, env=PAPER_ENV
        )
        by_rank = self._names_by_rank(events)
        for rank in (0, 1):
            assert RANK_STAGE_SPANS <= by_rank[rank]
        assert "solve_em" in by_rank[tracer.DRIVER_RANK]

    def test_thread_mode(self):
        events = _traced_run(use_process_ranks=False)
        by_rank = self._names_by_rank(events)
        for rank in (0, 1):
            assert RANK_STAGE_SPANS <= by_rank[rank]

    def test_process_mode_ships_worker_spans(self):
        events = _traced_run(use_process_ranks=True)
        by_rank = self._names_by_rank(events)
        for rank in (0, 1):
            assert RANK_STAGE_SPANS <= by_rank[rank], by_rank
        # Worker spans merge onto the driver's monotonic timeline and
        # nest inside the driver's solve_em window.
        solve = [
            e for e in events
            if e.name == "solve_em" and e.rank == tracer.DRIVER_RANK
        ]
        assert len(solve) == 2
        t0 = min(e.ts for e in solve)
        t1 = max(e.ts + e.dur for e in solve)
        for e in events:
            if e.ph == "X" and e.rank in (0, 1):
                assert t0 <= e.ts and e.ts + e.dur <= t1

    def test_process_mode_emits_cache_counters(self):
        events = _traced_run(use_process_ranks=True)
        counters = {e.name for e in events if e.ph == "C"}
        assert any(name.startswith("cache/") for name in counters)

    def test_work_attrs_support_roofline_annotation(self):
        events = _traced_run(use_process_ranks=True)
        n = metrics.annotate(events)
        assert n > 0
        transports = [e for e in events if e.name == "transport"]
        assert transports
        for e in transports:
            assert e.attrs["flops"] > 0 and e.attrs["bytes"] > 0
            assert "roofline_pct" in e.attrs and "gb_s" in e.attrs
        halos = [e for e in events if e.name == "halo_exchange"]
        assert halos and all("bw_pct" in e.attrs for e in halos)


class TestHistorySpan:
    def test_records_frame_and_file_bytes(self, tmp_path):
        events = _traced_run(
            use_process_ranks=True,
            history_interval=CONUS12KM_DT,
            history_path=str(tmp_path),
        )
        spans = [e for e in events if e.name == "history_io"]
        files = sorted(tmp_path.glob("wrfout_d01_*.npz"))
        assert len(spans) == len(files) == 2
        for span, path in zip(spans, files):
            assert span.attrs["file_bytes"] == path.stat().st_size
            # Stored uncompressed: the file is the frame plus headers.
            assert span.attrs["bytes"] < span.attrs["file_bytes"]


    def test_forced_final_frame_is_written_and_charged_once(self, tmp_path):
        """Two steps with a frame due at step 2 (2 process ranks): a
        forced final frame returns that frame without writing, tracing
        or charging it again — one file, one span, and the I/O clocks
        of a run that forces nothing."""
        from repro.core.clock import TimeBucket

        runs = {}
        for final in (False, True):
            out = tmp_path / f"final{int(final)}"
            nl = conus12km_namelist(
                scale=0.05, num_ranks=2, seed=19, use_process_ranks=True,
                history_interval=2 * CONUS12KM_DT, history_path=str(out),
                trace=True,
            )
            model = WrfModel(nl)
            try:
                result = model.run(num_steps=2, final_history=final)
                frame = model.gather_output()
            finally:
                model.close()
            spans = [e for e in tracer.drain() if e.name == "history_io"]
            files = sorted(p.name for p in out.iterdir())
            runs[final] = result, frame, files, len(spans)
        plain, _, files, nspans = runs[False]
        forced, frame, forced_files, forced_spans = runs[True]
        assert files == forced_files == ["wrfout_d01_000002.npz"]
        assert nspans == forced_spans == 1
        io = [c.bucket(TimeBucket.IO) for c in plain.rank_clocks]
        assert io[0] > 0
        assert [c.bucket(TimeBucket.IO) for c in forced.rank_clocks] == io
        assert plain.history == []
        (last,) = forced.history
        assert last.keys() == frame.keys()
        for name, value in frame.items():
            assert np.array_equal(last[name], value), name


def _wall(events) -> int:
    spans = [e for e in events if e.ph == "X"]
    return max(e.ts + e.dur for e in spans) - min(e.ts for e in spans)


class TestSelfTimesAddUp:
    def test_serial_self_times_fit_the_wall(self):
        """One rank steps on the driver's thread, inside solve_em: the
        rank's spans are solve_em's children, so the self times add up
        to at most the wall time instead of counting it twice."""
        nl = conus12km_namelist(scale=0.02, num_ranks=1, trace=True)
        model = WrfModel(nl)
        try:
            model.run(num_steps=3)
        finally:
            model.close()
        events = tracer.drain()
        agg = export.self_times(events)
        total = sum(a["self_ns"] for a in agg.values())
        assert total <= _wall(events) * 1.001
        assert agg["solve_em"]["self_ns"] < 0.5 * agg["solve_em"]["total_ns"]

    def test_process_ranks_keep_worker_spans_apart(self):
        """Worker spans are credited to their ranks, stamped with their
        own pid, and never nest under the driver's spans."""
        events = [e for e in _traced_run(use_process_ranks=True) if e.ph == "X"]
        driver = {e.pid for e in events if e.name == "solve_em"}
        assert len(driver) == 1
        by_rank = {e.rank: e.pid for e in events if e.name == "physics"}
        assert sorted(by_rank) == [0, 1]
        assert len(set(by_rank.values()) | driver) == 3
        alone = export.self_times([e for e in events if e.pid in driver])
        assert export.self_times(events)["solve_em"] == alone["solve_em"]
        for rank, pid in by_rank.items():
            own = [e for e in events if e.pid == pid]
            assert {e.rank for e in own} == {rank}
            total = sum(a["self_ns"] for a in export.self_times(own).values())
            assert total <= _wall(own) * 1.001


class TestCoalEngineAttr:
    """The physics span names the engines that actually ran the
    collisions, the condensation and the freezing/melting."""

    def _engines(self, members: int) -> set:
        from repro.wrf.ensemble import EnsembleModel

        nl = conus12km_namelist(
            scale=0.05, num_ranks=2, trace=True, members=members,
            use_process_ranks=False,
        )
        model = (EnsembleModel if members > 1 else WrfModel)(nl)
        try:
            model.run(num_steps=1)
        finally:
            model.close()
        events = tracer.drain()
        spans = [e for e in events if e.ph == "X" and e.name == "physics"]
        assert any(e.attrs.get("coal_points") for e in spans), "no collisions"
        return {
            e.attrs[f"{layer}_engine"]
            for e in spans
            if e.attrs.get("coal_points")
            for layer in ("coal", "cond", "freeze")
        }

    @pytest.mark.parametrize("members", [1, 2])
    def test_compiled_when_kernels_load(self, members):
        if ckernels.load_kernels() is None:
            pytest.skip(f"physics kernels unavailable: {ckernels.load_error}")
        assert self._engines(members=members) == {"compiled"}

    @pytest.mark.parametrize("members", [1, 2])
    def test_numpy_under_kill_switch(self, monkeypatch, members):
        monkeypatch.setenv(ckernels.DISABLE_ENV, "1")
        assert self._engines(members=members) == {"numpy"}


#: Case overrides under which no cell ever holds a hydrometeor.
CLEAR_SKY = (
    ("bubbles_per_1e4_cells", 0.0),
    ("bubble_dtheta", 0.0),
    ("moisture_boost", 1.0),
    ("cloud_threshold", 1.0e9),
)


class TestCandidateScanAttrs:
    """The physics span counts the cells the candidate scan passed to
    the exact predicate, and names the path that chose them."""

    def _physics(self, **overrides) -> list:
        events = _traced_run(**overrides)
        spans = [e for e in events if e.ph == "X" and e.name == "physics"]
        assert len(spans) == 4  # 2 ranks x 2 steps
        return spans

    def test_compiled_scan_passes_a_superset_of_the_points(self):
        if ckernels.load_kernels() is None:
            pytest.skip(f"physics kernels unavailable: {ckernels.load_error}")
        spans = self._physics()
        assert {e.attrs["scan_engine"] for e in spans} == {"compiled"}
        assert all(
            e.attrs["mp_candidates"] >= e.attrs["mp_points"] for e in spans
        )
        assert sum(e.attrs["mp_points"] for e in spans) > 0

    def test_a_clear_sky_scan_passes_nothing(self):
        if ckernels.load_kernels() is None:
            pytest.skip(f"physics kernels unavailable: {ckernels.load_error}")
        for e in self._physics(member_deltas=(CLEAR_SKY,)):
            assert e.attrs["scan_engine"] == "compiled"
            assert e.attrs["mp_candidates"] == e.attrs["mp_points"] == 0

    def test_the_kill_switch_predicate_sees_every_cell(self, monkeypatch):
        monkeypatch.setenv(ckernels.DISABLE_ENV, "1")
        domain = conus12km_namelist(scale=0.05).domain
        owned = {p.num_points for p in decompose_domain(domain, 2).patches}
        spans = self._physics()
        assert {e.attrs["scan_engine"] for e in spans} == {"numpy"}
        assert {e.attrs["mp_candidates"] for e in spans} == owned


class TestHaloAndTransportSpans:
    """The halo span says what it moved beside what it counts, and the
    halo and transport spans name the engine that ran."""

    def _spans(self, **overrides) -> dict[str, list]:
        events = _traced_run(member_deltas=(CLEAR_SKY,), **overrides)
        return {
            name: [e for e in events if e.ph == "X" and e.name == name]
            for name in ("halo_exchange", "transport")
        }

    @pytest.mark.parametrize("use_process_ranks", [False, True])
    def test_a_clear_sky_halo_moves_less_than_it_counts(self, use_process_ranks):
        from repro.wrf import cstencil

        if cstencil.load_stencil() is None:
            pytest.skip(f"stencil unavailable: {cstencil.load_error}")
        spans = self._spans(use_process_ranks=use_process_ranks)
        assert len(spans["halo_exchange"]) == 4  # 2 ranks x 2 steps
        for e in spans["halo_exchange"]:
            assert e.attrs["engine"] == "compiled"
            # Only the state planes: no bin.
            cells = e.attrs["occupancy_bytes"]
            assert e.attrs["moved_bytes"] == cells * 3 * 8
            assert e.attrs["moved_bytes"] < e.attrs["bytes"]
            assert e.attrs["bytes"] == cells * 234 * 8
        assert {e.attrs["engine"] for e in spans["transport"]} == {"compiled"}

    def test_the_numpy_halo_moves_what_it_counts(self, monkeypatch):
        from repro.wrf import cstencil

        monkeypatch.setenv(cstencil.DISABLE_ENV, "1")
        spans = self._spans(use_process_ranks=False)
        assert spans["halo_exchange"]
        for e in spans["halo_exchange"]:
            assert e.attrs["engine"] == "numpy"
            assert e.attrs["moved_bytes"] == e.attrs["bytes"]
        assert {e.attrs["engine"] for e in spans["transport"]} == {"numpy"}


class TestTracingIsInert:
    def _run(self, trace: bool, **overrides):
        nl = conus12km_namelist(
            scale=0.05, num_ranks=2, seed=17, trace=trace, **overrides
        )
        model = WrfModel(nl)
        try:
            model.run(num_steps=2)
            output = model.gather_output()
            clocks = [c.state() for c in model.clocks]
            elapsed = model.scheduler.elapsed
        finally:
            model.close()
        tracer.configure(enabled=False, clear=True)
        return output, clocks, elapsed

    @pytest.mark.parametrize("use_process_ranks", [False, True])
    def test_clocks_and_fields_bit_identical(self, use_process_ranks):
        import numpy as np

        off = self._run(False, use_process_ranks=use_process_ranks)
        on = self._run(True, use_process_ranks=use_process_ranks)
        for name in off[0]:
            np.testing.assert_array_equal(on[0][name], off[0][name], err_msg=name)
        assert on[1] == off[1]  # every bucket, every region, no tolerance
        assert on[2] == off[2]

    def test_process_equals_threads_with_tracing_on(self):
        import numpy as np

        threads = self._run(True, use_process_ranks=False)
        procs = self._run(True, use_process_ranks=True)
        for name in threads[0]:
            np.testing.assert_array_equal(
                procs[0][name], threads[0][name], err_msg=name
            )
        assert procs[1] == threads[1]
        assert procs[2] == threads[2]


class TestCrashedWorkerSpans:
    def test_containment_path_flushes_worker_spans(self):
        nl = conus12km_namelist(
            scale=0.05, num_ranks=2, trace=True, use_process_ranks=True
        )
        model = WrfModel(nl)
        try:
            model.step()
            pre = {e.rank for e in tracer.events() if e.ph == "X"}
            assert {0, 1} <= pre  # step spans arrived with the replies
            tracer.clear()
            with pytest.raises(ProcPoolError, match="induced worker error"):
                model._pool.induce_error(0)
            # The error reply carried whatever rank 0 had buffered
            # since the last drain (at least its re-armed state is
            # merged without raising); the pool itself is torn down.
            assert model._pool._closed
        finally:
            model.close()

    def test_error_reply_carries_buffered_spans(self):
        # Drive the pool directly: step once (drains), then record
        # nothing driver-side and induce the failure — the spans from
        # the failing command window must still arrive.
        from repro.wrf import procpool

        nl = conus12km_namelist(
            scale=0.05, num_ranks=2, trace=True, use_process_ranks=True
        )
        model = WrfModel(nl)
        try:
            model.step()
            tracer.clear()
            # Make the worker buffer spans it has not shipped yet:
            # charge_io replies drain, so run a step and throw away the
            # driver copy, then fail the next command.
            model.step()
            stepped = [e for e in tracer.events() if e.rank in (0, 1)]
            assert stepped  # shipped with the ok replies
            with pytest.raises(ProcPoolError):
                model._pool.induce_error(1)
        finally:
            model.close()


class TestTier1TraceSmoke:
    def test_two_steps_two_ranks_validates(self, tmp_path):
        events = _traced_run(num_steps=2, use_process_ranks=True)
        metrics.annotate(events)
        trace_path = export.write_trace(events, tmp_path / "trace.json")

        trace_check = _load_trace_check()
        code, messages = trace_check.check_file(trace_path, min_ranks=2)
        assert code == 0, messages

        payload = json.loads(trace_path.read_text())
        names = {
            d["name"] for d in payload["traceEvents"] if d["ph"] == "B"
        }
        assert RANK_STAGE_SPANS <= names
        counter_names = {
            d["name"] for d in payload["traceEvents"] if d["ph"] == "C"
        }
        assert any(n.startswith("cache/") for n in counter_names)
        # Roofline attrs survive export on the work-carrying spans.
        annotated = [
            d
            for d in payload["traceEvents"]
            if d["ph"] == "B" and "roofline_pct" in d.get("args", {})
        ]
        assert annotated
