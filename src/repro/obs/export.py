"""Trace export: Chrome/Perfetto ``trace_event`` JSON, JSONL, self-time.

The span tracer records flat :class:`~repro.obs.tracer.Event` objects;
this module turns them into

* a Chrome/Perfetto-loadable trace (``{"traceEvents": [...]}`` with
  balanced ``B``/``E`` duration events, ``C`` counters, and process/
  thread metadata — open the file at https://ui.perfetto.dev), one
  Perfetto "process" per model rank plus one for the driver;
* a flat JSONL event log (one JSON object per line, ns timestamps) for
  ad-hoc analysis with standard tools;
* a top-N *self-time* text table (total minus time in child spans),
  the wall-clock analog of the simulated gprof report.

Rank → pid/tid mapping: Perfetto groups tracks by integer pid, so rank
``r`` exports as ``pid == r`` and driver-side events (rank ``-1``) as
``pid == DRIVER_PID``; raw thread idents are renumbered 1..k per pid in
order of first appearance so timelines stay readable.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Iterable

from repro.obs.tracer import DRIVER_RANK, Event

#: Perfetto pid used for driver-side (rank -1) events.
DRIVER_PID = 9999


def pid_for_rank(rank: int) -> int:
    """The Perfetto pid one tracer rank maps to."""
    return DRIVER_PID if rank < 0 else rank


def _process_name(pid: int) -> str:
    return "driver" if pid == DRIVER_PID else f"rank {pid}"


def _tid_map(events: list[Event]) -> dict[tuple[int, int], int]:
    """Renumber raw thread idents to small per-pid tids (1-based)."""
    mapping: dict[tuple[int, int], int] = {}
    nxt: dict[int, int] = defaultdict(lambda: 1)
    for e in sorted(events, key=lambda e: e.ts):
        key = (pid_for_rank(e.rank), e.tid)
        if key not in mapping:
            mapping[key] = nxt[key[0]]
            nxt[key[0]] += 1
    return mapping


def _span_args(e: Event) -> dict:
    return {} if not e.attrs else dict(e.attrs)


def to_trace_events(events: Iterable[Event]) -> list[dict]:
    """Chrome ``trace_event`` dicts (metadata + sorted B/E/C/I events).

    Span events are emitted as balanced ``B``/``E`` pairs per
    ``(pid, tid)`` — spans recorded by context managers nest properly
    per thread, and the stack-based emission below preserves that
    nesting even for zero-duration spans sharing a timestamp. ``ts``
    is microseconds from the earliest event (Perfetto's native unit).
    """
    evs = list(events)
    if not evs:
        return []
    origin = min(e.ts for e in evs)
    tids = _tid_map(evs)

    def us(ts_ns: int) -> float:
        return (ts_ns - origin) / 1000.0

    out: list[dict] = []
    pids = sorted({pid_for_rank(e.rank) for e in evs})
    for pid in pids:
        out.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": _process_name(pid)},
            }
        )
        out.append(
            {
                "name": "process_sort_index",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"sort_index": pid},
            }
        )

    # Group spans per (pid, tid); other phases pass through directly.
    groups: dict[tuple[int, int], list[Event]] = defaultdict(list)
    timed: list[dict] = []
    for e in evs:
        pid, tid = pid_for_rank(e.rank), tids[(pid_for_rank(e.rank), e.tid)]
        if e.ph == "X":
            groups[(pid, tid)].append(e)
        elif e.ph == "C":
            timed.append(
                {
                    "name": e.name,
                    "ph": "C",
                    "ts": us(e.ts),
                    "pid": pid,
                    "tid": tid,
                    "args": _span_args(e),
                }
            )
        else:  # instant
            timed.append(
                {
                    "name": e.name,
                    "cat": e.cat,
                    "ph": "i",
                    "s": "t",
                    "ts": us(e.ts),
                    "pid": pid,
                    "tid": tid,
                    "args": _span_args(e),
                }
            )

    for (pid, tid), spans in groups.items():
        # Sort children after parents: earlier start first, longer
        # duration first on ties (the parent of a zero-gap child).
        spans.sort(key=lambda e: (e.ts, -e.dur))
        stack: list[Event] = []

        def emit_end(s: Event) -> None:
            timed.append(
                {
                    "name": s.name,
                    "ph": "E",
                    "ts": us(s.ts + s.dur),
                    "pid": pid,
                    "tid": tid,
                }
            )

        for s in spans:
            while stack and stack[-1].ts + stack[-1].dur <= s.ts:
                emit_end(stack.pop())
            timed.append(
                {
                    "name": s.name,
                    "cat": s.cat,
                    "ph": "B",
                    "ts": us(s.ts),
                    "pid": pid,
                    "tid": tid,
                    "args": _span_args(s),
                }
            )
            stack.append(s)
        while stack:
            emit_end(stack.pop())

    # Stable sort keeps each group's internally consistent B/E order
    # while interleaving groups onto one global timeline.
    timed.sort(key=lambda d: d["ts"])
    return out + timed


def write_trace(events: Iterable[Event], path: str | Path) -> Path:
    """Write a Perfetto-loadable ``trace.json``; returns the path."""
    path = Path(path)
    payload = {
        "traceEvents": to_trace_events(events),
        "displayTimeUnit": "ms",
    }
    path.write_text(json.dumps(payload) + "\n")
    return path


def write_jsonl(events: Iterable[Event], path: str | Path) -> Path:
    """Write the flat event log (one JSON object per line, ns units)."""
    path = Path(path)
    with path.open("w") as fh:
        for e in events:
            fh.write(
                json.dumps(
                    {
                        "name": e.name,
                        "cat": e.cat,
                        "ph": e.ph,
                        "rank": e.rank,
                        "pid": e.pid,
                        "tid": e.tid,
                        "ts_ns": e.ts,
                        "dur_ns": e.dur,
                        "attrs": e.attrs or {},
                    }
                )
                + "\n"
            )
    return path


def self_times(events: Iterable[Event]) -> dict[str, dict]:
    """Aggregate span totals and self-times by span name.

    Self-time is a span's duration minus the duration of its direct
    children, reconstructed per OS thread — ``(pid, tid)`` — from the
    timestamps (context-manager spans nest properly per thread). A
    span nests under its parent on the same thread whatever rank it is
    credited to: a serial run's rank spans sit inside the driver's
    ``solve_em``, whose self time excludes them. The process id keeps
    forked rank workers apart from the driver, since a worker's main
    thread can carry the driver's thread ident. Returns
    ``{name: {count, total_ns, self_ns}}``.
    """
    groups: dict[tuple[int, int], list[Event]] = defaultdict(list)
    for e in events:
        if e.ph == "X":
            groups[(e.pid, e.tid)].append(e)

    agg: dict[str, dict] = defaultdict(
        lambda: {"count": 0, "total_ns": 0, "self_ns": 0}
    )
    for spans in groups.values():
        spans.sort(key=lambda e: (e.ts, -e.dur))
        stack: list[tuple[Event, int]] = []  # (span, child time so far)

        def close(entry: tuple[Event, int]) -> None:
            s, child_ns = entry
            a = agg[s.name]
            a["count"] += 1
            a["total_ns"] += s.dur
            a["self_ns"] += max(0, s.dur - child_ns)
            if stack:
                parent, acc = stack[-1]
                stack[-1] = (parent, acc + s.dur)

        for s in spans:
            while stack and stack[-1][0].ts + stack[-1][0].dur <= s.ts:
                close(stack.pop())
            stack.append((s, 0))
        while stack:
            close(stack.pop())
    return dict(agg)


def self_time_table(events: Iterable[Event], top: int = 12) -> str:
    """The top-N self-time text table (wall-clock gprof analog)."""
    evs = list(events)
    agg = self_times(evs)
    if not agg:
        return "no spans recorded (is tracing enabled?)"
    wall_ns = max(
        (e.ts + e.dur for e in evs if e.ph == "X"), default=0
    ) - min((e.ts for e in evs if e.ph == "X"), default=0)
    rows = sorted(agg.items(), key=lambda kv: kv[1]["self_ns"], reverse=True)
    lines = [
        f"{'span':<28} {'count':>6} {'total ms':>10} {'self ms':>10} {'self %':>7}"
    ]
    for name, a in rows[:top]:
        pct = 100.0 * a["self_ns"] / wall_ns if wall_ns else 0.0
        lines.append(
            f"{name:<28} {a['count']:>6} {a['total_ns'] / 1e6:>10.3f} "
            f"{a['self_ns'] / 1e6:>10.3f} {pct:>6.1f}%"
        )
    return "\n".join(lines)


def rank_ids(events: Iterable[Event]) -> list[int]:
    """Sorted ranks present in a trace (driver rank included as -1)."""
    return sorted({e.rank for e in events})


__all__ = [
    "DRIVER_PID",
    "DRIVER_RANK",
    "pid_for_rank",
    "to_trace_events",
    "write_trace",
    "write_jsonl",
    "self_times",
    "self_time_table",
    "rank_ids",
]
