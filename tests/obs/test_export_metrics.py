"""Perfetto export, self-time aggregation, roofline annotation.

Synthetic event streams with known timings drive the exporter and the
metrics annotator; the emitted ``traceEvents`` are additionally run
through the structural validator that ``scripts/trace_check.py`` wraps.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.core.cache import get_cache
from repro.obs import export, metrics, tracer
from repro.obs.tracer import Event

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load_trace_check():
    spec = importlib.util.spec_from_file_location(
        "trace_check", REPO_ROOT / "scripts" / "trace_check.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


trace_check = _load_trace_check()


def span(name, rank, ts, dur, tid=1, attrs=None, cat="model", pid=100):
    return Event(name, cat, "X", rank, tid, ts, dur, attrs, pid)


class TestTraceEvents:
    def test_nested_spans_emit_balanced_lifo_pairs(self):
        evs = [
            span("outer", 0, 1000, 900),
            span("inner", 0, 1100, 300),
            span("inner2", 0, 1500, 200),
        ]
        out = export.to_trace_events(evs)
        assert trace_check.validate_events(out) == []
        seq = [(d["ph"], d["name"]) for d in out if d["ph"] in "BE"]
        assert seq == [
            ("B", "outer"),
            ("B", "inner"),
            ("E", "inner"),
            ("B", "inner2"),
            ("E", "inner2"),
            ("E", "outer"),
        ]

    def test_zero_duration_and_tied_timestamps_stay_balanced(self):
        evs = [
            span("p", 0, 100, 50),
            span("z1", 0, 100, 0),
            span("z2", 0, 100, 0),
            span("tail", 0, 150, 0),
        ]
        assert trace_check.validate_events(export.to_trace_events(evs)) == []

    def test_engine_attr_takes_the_known_engines_only(self):
        ok = [
            span(name, 0, 100 * n, 50, attrs={"engine": engine})
            for n, (name, engine) in enumerate(
                (("transport", "compiled"), ("halo_exchange", "numpy"),
                 ("halo_exchange", "none"))
            )
        ]
        assert trace_check.validate_events(export.to_trace_events(ok)) == []
        bad = [span("transport", 0, 0, 50, attrs={"engine": "gpu"})]
        errors = trace_check.validate_events(export.to_trace_events(bad))
        assert len(errors) == 1 and "engine" in errors[0]

    def test_every_engine_suffixed_attr_takes_the_known_engines_only(self):
        layers = ("coal_engine", "cond_engine", "freeze_engine", "scan_engine")
        ok = [
            span("physics", 0, 0, 50, attrs={
                **dict(zip(layers, ("compiled", "numpy", "none", "compiled"))),
                "mp_candidates": 0,
            })
        ]
        assert trace_check.validate_events(export.to_trace_events(ok)) == []
        for attr in layers:
            bad = [span("physics", 0, 0, 50, attrs={attr: "device"})]
            errors = trace_check.validate_events(export.to_trace_events(bad))
            assert len(errors) == 1 and attr in errors[0], attr

    def test_ranks_map_to_pids_with_metadata(self):
        evs = [
            span("a", 0, 0, 10),
            span("b", 1, 5, 10),
            span("drv", tracer.DRIVER_RANK, 0, 20),
        ]
        out = export.to_trace_events(evs)
        meta = {
            d["pid"]: d["args"]["name"]
            for d in out
            if d["ph"] == "M" and d["name"] == "process_name"
        }
        assert meta == {0: "rank 0", 1: "rank 1", export.DRIVER_PID: "driver"}
        assert trace_check.validate_events(out) == []

    def test_counters_and_instants_pass_through(self):
        evs = [
            Event("cache/x", "counter", "C", 0, 1, 10, 0, {"hits": 2}),
            Event("mark", "jit", "I", 0, 1, 20, 0, None),
        ]
        out = export.to_trace_events(evs)
        assert trace_check.validate_events(out) == []
        phases = {d["ph"] for d in out if d["ph"] != "M"}
        assert phases == {"C", "i"}

    def test_write_trace_and_jsonl(self, tmp_path):
        evs = [span("a", 0, 0, 10, attrs={"bytes": 4})]
        tp = export.write_trace(evs, tmp_path / "t.json")
        payload = json.loads(tp.read_text())
        assert payload["traceEvents"]
        jp = export.write_jsonl(evs, tmp_path / "t.jsonl")
        (line,) = jp.read_text().splitlines()
        rec = json.loads(line)
        assert rec["name"] == "a" and rec["attrs"] == {"bytes": 4}

    def test_threads_renumber_per_pid(self):
        evs = [
            span("a", 0, 0, 5, tid=123456),
            span("b", 0, 10, 5, tid=789012),
            span("c", 1, 0, 5, tid=123456),
        ]
        out = export.to_trace_events(evs)
        tids = {
            (d["pid"], d["name"]): d["tid"] for d in out if d["ph"] == "B"
        }
        assert tids[(0, "a")] == 1 and tids[(0, "b")] == 2
        assert tids[(1, "c")] == 1


class TestSelfTimes:
    def test_self_excludes_direct_children(self):
        evs = [
            span("outer", 0, 0, 100),
            span("child", 0, 10, 30),
            span("child", 0, 50, 20),
        ]
        agg = export.self_times(evs)
        assert agg["outer"]["total_ns"] == 100
        assert agg["outer"]["self_ns"] == 50
        assert agg["child"] == {"count": 2, "total_ns": 50, "self_ns": 50}

    def test_spans_on_one_thread_nest_across_ranks(self):
        # One thread of one process is one timeline, whatever rank a
        # span is credited to: a serial run steps rank 0 inside the
        # driver's (rank -1) solve_em.
        evs = [span("a", -1, 0, 100), span("b", 0, 10, 30)]
        agg = export.self_times(evs)
        assert agg["a"]["self_ns"] == 70
        assert agg["b"]["self_ns"] == 30

    def test_tracks_do_not_cross_processes(self):
        # A forked worker's main thread can carry the driver's thread
        # ident: the process id keeps their timelines apart.
        evs = [span("a", -1, 0, 100, pid=100), span("b", 0, 10, 30, pid=101)]
        agg = export.self_times(evs)
        assert agg["a"]["self_ns"] == 100
        assert agg["b"]["self_ns"] == 30

    def test_events_round_trip_with_their_pid(self):
        e = span("a", 0, 0, 1, pid=4242)
        assert Event.from_tuple(e.to_tuple()).pid == 4242

    def test_table_renders_top_n(self):
        evs = [span("hot", 0, 0, 100), span("cold", 0, 200, 10)]
        table = export.self_time_table(evs, top=1)
        assert "hot" in table and "cold" not in table

    def test_table_handles_empty(self):
        assert "no spans" in export.self_time_table([])


class TestMetrics:
    def test_annotate_derives_rates_and_roofline_pct(self):
        # 1 GB + 2 GFLOP in 1 s => 1 GB/s, 2 GFLOP/s, ai = 2.
        e = span("k", 0, 0, 1_000_000_000, attrs={"bytes": 1e9, "flops": 2e9})
        n = metrics.annotate([e])
        assert n == 1
        assert e.attrs["gb_s"] == pytest.approx(1.0, rel=1e-3)
        assert e.attrs["gflop_s"] == pytest.approx(2.0, rel=1e-3)
        assert e.attrs["ai"] == pytest.approx(2.0, rel=1e-3)
        model = metrics.host_roofline()
        ceiling = model.ceiling(2.0, "fp64")
        assert e.attrs["roofline_pct"] == pytest.approx(
            100.0 * 2e9 / ceiling, rel=1e-2
        )
        assert "host-nominal" in e.attrs["roofline_model"]

    def test_bandwidth_only_span_gets_bw_pct(self):
        e = span("halo", 0, 0, 1_000_000, attrs={"bytes": 1e6})
        metrics.annotate([e])
        assert e.attrs["gb_s"] == pytest.approx(1.0, rel=1e-3)
        assert "bw_pct" in e.attrs and "roofline_pct" not in e.attrs

    def test_annotate_skips_worklless_and_zero_duration(self):
        evs = [
            span("plain", 0, 0, 10),
            span("zero", 0, 0, 0, attrs={"bytes": 10}),
            Event("c", "counter", "C", 0, 1, 0, 0, {"v": 1}),
        ]
        assert metrics.annotate(evs) == 0

    def test_host_nominal_spec_scales_cpu(self):
        spec = metrics.host_nominal_spec()
        assert spec.peak_flops_fp32 == 2.0 * spec.peak_flops_fp64
        assert spec.dram_bandwidth > 0

    def test_cache_counters_emitted_when_enabled(self):
        tracer.configure(enabled=True, clear=True)
        try:
            cache = get_cache("obs.test_cache")
            cache.get_or_build("k", lambda: 1)
            n = metrics.emit_cache_counters(rank=0)
            assert n >= 1
            names = {e.name for e in tracer.events() if e.ph == "C"}
            assert "cache/obs.test_cache" in names
        finally:
            tracer.configure(enabled=False, clear=True)

    def test_cache_counters_noop_when_disabled(self):
        tracer.configure(enabled=False, clear=True)
        assert metrics.emit_cache_counters() == 0
        assert tracer.events() == []


class TestTraceCheckScript:
    def _write(self, tmp_path, events):
        p = tmp_path / "trace.json"
        p.write_text(json.dumps({"traceEvents": events}))
        return p

    def test_valid_trace_exits_0(self, tmp_path):
        evs = [span("a", 0, 0, 10), span("b", 1, 0, 10)]
        p = self._write(tmp_path, export.to_trace_events(evs))
        code, msgs = trace_check.check_file(p, min_ranks=2)
        assert code == 0, msgs

    def test_unbalanced_trace_exits_2(self, tmp_path):
        events = [
            {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
             "args": {"name": "rank 0"}},
            {"name": "open", "ph": "B", "ts": 1.0, "pid": 0, "tid": 1},
        ]
        code, msgs = trace_check.check_file(self._write(tmp_path, events))
        assert code == 2
        assert any("never closed" in m for m in msgs)

    def test_mismatched_names_exit_2(self, tmp_path):
        events = [
            {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
             "args": {"name": "rank 0"}},
            {"name": "a", "ph": "B", "ts": 1.0, "pid": 0, "tid": 1},
            {"name": "b", "ph": "E", "ts": 2.0, "pid": 0, "tid": 1},
        ]
        code, msgs = trace_check.check_file(self._write(tmp_path, events))
        assert code == 2
        assert any("LIFO" in m for m in msgs)

    def test_backwards_ts_exit_2(self, tmp_path):
        events = [
            {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
             "args": {"name": "rank 0"}},
            {"name": "a", "ph": "B", "ts": 5.0, "pid": 0, "tid": 1},
            {"name": "a", "ph": "E", "ts": 2.0, "pid": 0, "tid": 1},
        ]
        code, msgs = trace_check.check_file(self._write(tmp_path, events))
        assert code == 2
        assert any("backwards" in m for m in msgs)

    def test_undeclared_pid_exit_2(self, tmp_path):
        events = [
            {"name": "a", "ph": "B", "ts": 1.0, "pid": 7, "tid": 1},
            {"name": "a", "ph": "E", "ts": 2.0, "pid": 7, "tid": 1},
        ]
        code, msgs = trace_check.check_file(self._write(tmp_path, events))
        assert code == 2
        assert any("process_name" in m for m in msgs)

    def test_missing_file_exits_1(self, tmp_path):
        code, _ = trace_check.check_file(tmp_path / "nope.json")
        assert code == 1

    def test_cli_end_to_end(self, tmp_path):
        import subprocess

        evs = [span("a", 0, 0, 10)]
        p = self._write(tmp_path, export.to_trace_events(evs))
        proc = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "scripts" / "trace_check.py"),
                str(p),
                "--min-ranks",
                "1",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "OK" in proc.stdout
