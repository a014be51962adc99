#!/usr/bin/env python3
"""CI perf-regression gate over the repo's wall-clock hot kernels.

Runs the benchmark harness (``benchmarks/harness.py``) and compares the
tracked kernel medians against the committed ``BENCH_*.json`` baseline
(the most recently committed non-seed file, falling back to
``BENCH_seed.json``).

Tracked kernels (``harness.TRACKED_KERNELS``): ``coal_bott``,
``model_step_r1``, ``model_step_r4``, ``model_step_multirank`` (the
multiprocess rank engine at a fixed 2-worker workload),
``model_step_members4`` (the member-batched ensemble engine stepping 4
perturbed scenarios in one fused sweep, with interleaved sequential
solo runs for the ``speedup_vs_solo`` extra), ``transport_fused``,
``transport_members4``, ``sedimentation``, and ``cond_remap``. Gate
one in isolation with e.g.
``--kernel model_step_multirank``. ``--members N`` (repeatable) adds
informational ensemble sweep entries (``model_step_membersN``) beyond
the tracked 4-member point — sweep entries ride along in the payload
but only baseline-shared kernels gate.

Exit codes (the ``codee verify`` contract):

* 0 — no tracked kernel slower than baseline by more than the threshold
* 1 — gate could not run (no baseline, bad arguments)
* 2 — at least one tracked kernel regressed

Usage::

    python scripts/bench_gate.py --quick            # fast CI smoke gate
    python scripts/bench_gate.py                    # full workloads
    python scripts/bench_gate.py --current out.json # gate a saved payload
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
for p in (REPO_ROOT, REPO_ROOT / "src"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

from benchmarks import harness  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small workloads")
    parser.add_argument(
        "--threshold",
        type=float,
        default=harness.DEFAULT_THRESHOLD,
        help="relative slowdown that fails the gate (default 0.15)",
    )
    parser.add_argument(
        "--baseline", type=Path, help="explicit baseline JSON (default: committed)"
    )
    parser.add_argument(
        "--current",
        type=Path,
        help="gate a previously collected payload instead of re-running",
    )
    parser.add_argument(
        "--kernel",
        action="append",
        help="collect/gate only this kernel (repeatable); tracked "
        "kernels absent from the collection are simply not gated",
    )
    parser.add_argument(
        "--members",
        action="append",
        type=int,
        help="also run the member-batched ensemble bench at this member "
        "count (repeatable); sweep entries are informational unless the "
        "baseline tracks them",
    )
    args = parser.parse_args(argv)

    baseline_path = args.baseline or harness.find_baseline()
    if baseline_path is None or not Path(baseline_path).exists():
        print("bench_gate: no BENCH_*.json baseline to compare against")
        return 1
    baseline = harness.load_payload(baseline_path)

    if args.current is not None:
        if not args.current.exists():
            print(f"bench_gate: no such payload {args.current}")
            return 1
        current = harness.load_payload(args.current)
    else:
        current = harness.collect(
            quick=args.quick,
            kernels=args.kernel or None,
            members=args.members or None,
        )

    print(f"baseline: {baseline_path} (rev {baseline.get('revision')})")
    print(f"current : rev {current.get('revision')}")
    findings = harness.compare_payloads(current, baseline, threshold=args.threshold)
    if not findings:
        print("bench_gate: no tracked kernels shared with the baseline")
        return 1
    for f in findings:
        print(f.render(args.threshold))
    code = harness.gate_exit_code(findings)
    print("bench_gate:", "OK" if code == 0 else "REGRESSION")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
