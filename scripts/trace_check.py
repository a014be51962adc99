#!/usr/bin/env python3
"""Structural validator for exported Chrome/Perfetto traces.

Checks that a ``trace.json`` written by :mod:`repro.obs.export` (the
``repro trace`` CLI, ``repro bench --trace``) is something Perfetto
will actually load and that its event stream is internally consistent:

* the file parses and has a ``traceEvents`` list;
* every ``B`` (begin) has a matching ``E`` (end) on the same
  ``(pid, tid)`` track, closed in LIFO order with matching names —
  i.e. spans nest properly and none are left open;
* timestamps are monotonically non-decreasing per ``(pid, tid)`` track
  (the exporter emits a globally time-sorted stream, so out-of-order
  events mean a merge bug);
* every event's ``pid`` is declared by a ``process_name`` metadata
  record (rank timelines the UI would otherwise show as bare numbers);
* counter (``C``) events carry numeric series values;
* ensemble attrs are well-formed: a span's ``member`` arg (which
  member a per-member span belongs to, e.g. ``history_io``) must be a
  non-negative integer, and ``members`` (how many members a batched
  span covered, e.g. ``solve_em``/``physics``/``transport``) must be a
  positive integer.
* a span's ``engine`` arg and every ``*_engine`` arg (which path ran
  a layer, e.g. ``transport``'s ``engine``, or ``physics``'s
  ``coal_engine`` and ``scan_engine``) is one of :data:`ENGINES`.

Exit codes (the ``bench_gate``/``codee verify`` contract):

* 0 — trace is structurally valid
* 1 — could not check (missing file, unparseable JSON, bad arguments)
* 2 — structural violations found (each printed)

Usage::

    python -m repro trace examples/trace_smoke.json -o trace.json
    python scripts/trace_check.py trace.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


#: The values a span's ``engine`` and ``*_engine`` args may take: the
#: compiled kernel ran, its numpy fallback ran, or the layer had
#: nothing to do.
ENGINES = ("compiled", "numpy", "none")


def validate_events(events: list[dict]) -> list[str]:
    """Every structural violation in a ``traceEvents`` list."""
    errors: list[str] = []
    declared_pids: set[int] = set()
    used_pids: set[int] = set()
    stacks: dict[tuple[int, int], list[dict]] = {}
    last_ts: dict[tuple[int, int], float] = {}

    for i, e in enumerate(events):
        ph = e.get("ph")
        if ph is None or "pid" not in e:
            errors.append(f"event {i}: missing ph/pid: {e}")
            continue
        pid = e["pid"]
        if ph == "M":
            if e.get("name") == "process_name":
                declared_pids.add(pid)
            continue
        used_pids.add(pid)
        key = (pid, e.get("tid", 0))
        ts = e.get("ts")
        if not isinstance(ts, (int, float)):
            errors.append(f"event {i}: non-numeric ts {ts!r}")
            continue
        if ts < last_ts.get(key, float("-inf")):
            errors.append(
                f"event {i}: ts {ts} goes backwards on track {key} "
                f"(previous {last_ts[key]})"
            )
        last_ts[key] = ts
        if ph == "B":
            args_ = e.get("args", {})
            member = args_.get("member")
            if member is not None and not (
                isinstance(member, int)
                and not isinstance(member, bool)
                and member >= 0
            ):
                errors.append(
                    f"event {i}: span {e.get('name')!r} has non-integer "
                    f"or negative member attr {member!r}"
                )
            members = args_.get("members")
            if members is not None and not (
                isinstance(members, int)
                and not isinstance(members, bool)
                and members >= 1
            ):
                errors.append(
                    f"event {i}: span {e.get('name')!r} has invalid "
                    f"members attr {members!r} (want int >= 1)"
                )
            for attr, engine in args_.items():
                if (attr == "engine" or attr.endswith("_engine")) and (
                    engine not in ENGINES
                ):
                    errors.append(
                        f"event {i}: span {e.get('name')!r} has {attr} attr "
                        f"{engine!r} (want one of {', '.join(ENGINES)})"
                    )
            stacks.setdefault(key, []).append(e)
        elif ph == "E":
            stack = stacks.get(key, [])
            if not stack:
                errors.append(
                    f"event {i}: E {e.get('name')!r} on track {key} "
                    "without an open B"
                )
            else:
                b = stack.pop()
                if b.get("name") != e.get("name"):
                    errors.append(
                        f"event {i}: E {e.get('name')!r} closes "
                        f"B {b.get('name')!r} on track {key} "
                        "(spans must close LIFO)"
                    )
        elif ph == "C":
            args_ = e.get("args", {})
            if not args_ or not all(
                isinstance(v, (int, float)) for v in args_.values()
            ):
                errors.append(
                    f"event {i}: counter {e.get('name')!r} has "
                    f"non-numeric series {args_!r}"
                )
        elif ph not in ("i", "I"):
            errors.append(f"event {i}: unknown phase {ph!r}")

    for key, stack in stacks.items():
        for b in stack:
            errors.append(
                f"track {key}: B {b.get('name')!r} at ts {b.get('ts')} "
                "never closed"
            )
    for pid in sorted(used_pids - declared_pids):
        errors.append(f"pid {pid} has events but no process_name metadata")
    return errors


def check_file(
    path: Path, min_ranks: int = 0, min_members: int = 0
) -> tuple[int, list[str]]:
    """Validate one trace file; returns ``(exit_code, messages)``."""
    if not path.exists():
        return 1, [f"no such file: {path}"]
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return 1, [f"unreadable trace {path}: {exc}"]
    events = payload.get("traceEvents")
    if not isinstance(events, list) or not events:
        return 1, [f"{path}: no traceEvents list"]

    errors = validate_events(events)

    # Rank timelines = declared non-driver pids that carry span events.
    span_pids = {e["pid"] for e in events if e.get("ph") in ("B", "E")}
    rank_pids = sorted(p for p in span_pids if p < 9000)
    if min_ranks and len(rank_pids) < min_ranks:
        errors.append(
            f"expected >= {min_ranks} rank timelines, found "
            f"{len(rank_pids)} ({rank_pids})"
        )

    # Ensemble coverage: distinct per-member span ids seen in the trace.
    member_ids = sorted(
        {
            e["args"]["member"]
            for e in events
            if e.get("ph") == "B"
            and isinstance(e.get("args", {}).get("member"), int)
            and not isinstance(e.get("args", {}).get("member"), bool)
        }
    )
    if min_members and len(member_ids) < min_members:
        errors.append(
            f"expected per-member spans from >= {min_members} members, "
            f"found {len(member_ids)} ({member_ids})"
        )
    if errors:
        return 2, errors
    nspans = sum(1 for e in events if e.get("ph") == "B")
    member_note = (
        f", member spans from {member_ids}" if member_ids else ""
    )
    return 0, [
        f"{path}: OK — {nspans} spans, {len(rank_pids)} rank timelines "
        f"{rank_pids}, pids all declared, B/E balanced, ts monotonic"
        f"{member_note}"
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", type=Path, help="trace.json to validate")
    parser.add_argument(
        "--min-ranks",
        type=int,
        default=0,
        help="fail unless at least this many rank timelines carry spans",
    )
    parser.add_argument(
        "--min-members",
        type=int,
        default=0,
        help=(
            "fail unless per-member spans (a ``member`` arg) from at "
            "least this many distinct ensemble members appear"
        ),
    )
    args = parser.parse_args(argv)
    code, messages = check_file(
        args.trace, min_ranks=args.min_ranks, min_members=args.min_members
    )
    for m in messages:
        print(m)
    print("trace_check:", {0: "OK", 1: "SKIP", 2: "INVALID"}[code])
    return code


if __name__ == "__main__":
    raise SystemExit(main())
