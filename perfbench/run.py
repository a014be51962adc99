"""The forecast benchmark: one command, every metric by name and unit.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload storm --seed 1 --seconds 20 --trace 0

Each run times several fixed-length forecasts of one workload (see
``workloads.py``), spread over a few fresh child interpreters
(``forecast.py``) that run under a watchdog. ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` runs every
forecast twice, traced with the layer probes and untraced, and reports
the per-layer metrics and the self-time table instead. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
human-readable report and the run manifest.

``--record-references`` rewrites the reference frames of the named
seeds (``checks.NAMED_SEEDS``) for the workload instead of measuring.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import NAMED_SEEDS  # noqa: E402
from probes import TABLE_ORDER  # noqa: E402
from workloads import (  # noqa: E402
    DT_SECONDS,
    THREADS_PER_RANK,
    WORKLOADS,
    Workload,
    nproc,
    split,
)

#: Scratch space for specs, results, logs, history and hang dumps.
WORK_DIR = ROOT / ".perfbench_work"

#: A run ends within this many seconds (a building first run: BUILD_BUDGET_S).
RUN_BUDGET_S = 170.0
BUILD_BUDGET_S = 850.0

#: Per-step tail percentiles, highest first; the tail is the highest one
#: that leaves at least TAIL_BEYOND samples above it.
TAIL_LADDER = (99, 95, 90, 75, 50)
TAIL_BEYOND = 10

#: The traced run's layer self-times must cover the step wall time to
#: within this share (the rest is driver code outside every layer).
SELF_TIME_TOLERANCE = 0.10

#: Cache hit ratios reported by the traced run.
CACHES = ("fsbm.coal_operators", "fsbm.pair_split", "fsbm.sed_courant")


class ChildFailure(Exception):
    """A child interpreter crashed, hung, or wrote no result."""


def child_env(wl: Workload) -> dict[str, str]:
    env = dict(os.environ)
    threads = str(THREADS_PER_RANK)
    env.update(
        OMP_NUM_THREADS=threads,
        OPENBLAS_NUM_THREADS=threads,
        PYTHONPATH=str(ROOT / "src"),
        TMPDIR=str(WORK_DIR),
        PYTHONDONTWRITEBYTECODE="1",
    )
    return env


def shm_names() -> set[str]:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except OSError:
        return set()


def run_child(spec: dict, env: dict, timeout: float, tag: str) -> dict:
    """Run ``forecast.py`` on one spec under a watchdog.

    On timeout the child's process group gets SIGUSR1 (its
    ``faulthandler`` dumps every thread's stack, workers included) and
    then SIGKILL; the dump is kept under ``hangs/``, shared-memory
    segments it created are unlinked, and ``ChildFailure`` is raised.
    """
    spec_path = WORK_DIR / f"{tag}.spec.json"
    result_path = WORK_DIR / f"{tag}.result.json"
    log_path = WORK_DIR / f"{tag}.log"
    spec = dict(spec, work_dir=str(WORK_DIR), dump_path=str(WORK_DIR / f"{tag}.dump"))
    spec_path.write_text(json.dumps(spec))
    result_path.unlink(missing_ok=True)
    shm_before = shm_names()
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "forecast.py"), str(spec_path), str(result_path)],
            env=env,
            cwd=ROOT,
            stdout=log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            _kill_group(proc, dump=True)
            for name in shm_names() - shm_before:
                Path("/dev/shm", name).unlink(missing_ok=True)
            hangs = WORK_DIR / "hangs"
            hangs.mkdir(exist_ok=True)
            kept = hangs / f"{tag}-{int(time.time())}.dump"
            shutil.copy(WORK_DIR / f"{tag}.dump", kept)
            raise ChildFailure(f"{tag}: no result after {timeout:.0f} s; stacks in {kept}")
        finally:
            # Workers are daemonic children of the child: reap the group.
            _kill_group(proc, dump=False)
    if code != 0 or not result_path.exists():
        tail = log_path.read_text()[-2000:]
        raise ChildFailure(f"{tag}: exit code {code}\n{tail}")
    return json.loads(result_path.read_text())


def _kill_group(proc, dump: bool) -> None:
    """Kill the child's process group; first ask for a stack dump."""
    try:
        if dump:
            os.killpg(proc.pid, signal.SIGUSR1)
            time.sleep(1.0)
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


# --- aggregation --------------------------------------------------------------


def tail_percentile(n: int) -> int | None:
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= TAIL_BEYOND:
            return p
    return None


def sim_speed(records: list[dict], wl: Workload) -> float:
    steps = sum(len(r["step_s"]) for r in records)
    wall = sum(sum(r["step_s"]) for r in records)
    return steps * DT_SECONDS * wl.members / wall


def end_to_end(good: list[dict], fresh_setups: list[float], wl: Workload, out) -> dict:
    steps_ms = [1e3 * s for r in good for s in r["step_s"]]
    p = tail_percentile(len(steps_ms)) or 50
    m = {
        "sim_speed": (sim_speed(good, wl), "sim_s/s"),
        "step_p50_ms": (statistics.median(steps_ms), "ms"),
        "step_tail_ms": (
            statistics.quantiles(steps_ms, n=100, method="inclusive")[int(p) - 1],
            "ms",
        ),
        "setup_s": (statistics.median(fresh_setups), "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in good), "MB"),
    }
    for name, (value, unit) in m.items():
        print(f"{name:<14} {value:12.4f} {unit}", file=out)
    print(
        f"  step_tail_ms is p{p:g} of {len(steps_ms)} timed steps; "
        f"setup_s is the median of {len(fresh_setups)} fresh set-ups",
        file=out,
    )
    return m


def per_layer(
    traced: list[dict], plain: list[dict], warm: list[dict], wl: Workload, out
) -> dict:
    """Per-step layer means over the traced forecasts, set-up layer means
    over the traced warm-up forecasts, plus the self-time table."""
    tot: dict[str, float] = {}
    for r in traced:
        for k, v in r["layers"].items():
            tot[k] = tot.get(k, 0.0) + v
    setup: dict[str, float] = {}
    for r in warm:
        for k, v in r["setup"].items():
            setup[k] = setup.get(k, 0.0) + v
    n = max(1.0, tot.get("steps", 0.0))
    nf = len(warm)

    def per_step_ms(key: str) -> float:
        return tot.get(key, 0.0) / n / 1e6

    def per_ns(amount_key: str, time_key: str) -> float:
        """Amount per nanosecond busy: flop/ns is GFLOP/s, B/ns is GB/s."""
        ns = tot.get(time_key, 0.0)
        return tot.get(amount_key, 0.0) / ns if ns else 0.0

    wall_ms = per_step_ms("wall_ns")
    overhead = 100.0 * (1.0 - sim_speed(traced, wl) / sim_speed(plain, wl))
    m = {
        "coal.busy_ms": (per_step_ms("busy.coal"), "ms"),
        "coal.points": (tot.get("coal.points", 0.0) / n, "count"),
        "coal.pair_entries": (tot.get("coal.pair_entries", 0.0) / n, "count"),
        "coal.gflop_s": (per_ns("coal.flops", "busy.coal"), "GFLOP/s"),
        "cond.busy_ms": (per_step_ms("busy.cond"), "ms"),
        "cond.points": (tot.get("cond.points", 0.0) / n, "count"),
        "nucl.busy_ms": (per_step_ms("busy.nucl"), "ms"),
        "freeze.busy_ms": (per_step_ms("busy.freeze"), "ms"),
        "sed.busy_ms": (per_step_ms("busy.sed"), "ms"),
        "sed.cell_bins": (tot.get("sed.cell_bins", 0.0) / n, "count"),
        "sed.gb_s": (per_ns("sed.bytes", "busy.sed"), "GB/s"),
        "physics.busy_ms": (per_step_ms("busy.physics"), "ms"),
        "physics.self_ms": (per_step_ms("self.physics"), "ms"),
        "physics.mp_points": (tot.get("physics.mp_points", 0.0) / n, "count"),
        "transport.busy_ms": (per_step_ms("busy.transport"), "ms"),
        "transport.gb_s": (per_ns("transport.bytes", "busy.transport"), "GB/s"),
        "halo.busy_ms": (per_step_ms("busy.halo"), "ms"),
        "halo.bytes": (tot.get("halo.bytes", 0.0) / n, "B"),
        "halo.segments": (tot.get("halo.segments", 0.0) / n, "count"),
        "procpool.sync_ms": (per_step_ms("self.procpool"), "ms"),
        "procpool.imbalance": (tot.get("procpool.imbalance_ratio", 0.0) / n, "ratio"),
        "procpool.start_s": (setup.get("pool_start_ns", 0.0) / nf / 1e9, "s"),
        "history.busy_ms": (per_step_ms("busy.history"), "ms"),
        "history.bytes": (tot.get("history.bytes", 0.0) / n, "B"),
        "members.physics_ms": (per_step_ms("members.physics_ns"), "ms"),
        "members.coal_ms": (per_step_ms("members.coal_ns"), "ms"),
        "members.transport_ms": (per_step_ms("members.transport_ns"), "ms"),
        "cjit.load_ms": (setup.get("cjit_load_ns", 0.0) / nf / 1e6, "ms"),
        "cjit.compiles": (setup.get("cjit_compiles", 0.0), "count"),
        "setup.case_ms": (setup.get("case_ns", 0.0) / nf / 1e6, "ms"),
        "step.wall_ms": (wall_ms, "ms"),
        "step.unattributed_ms": (per_step_ms("self.unattributed"), "ms"),
        "trace.overhead_pct": (overhead, "%"),
    }
    for name in CACHES:
        hits = sum(r["caches"].get(name, [0, 0])[0] for r in traced)
        misses = sum(r["caches"].get(name, [0, 0])[1] for r in traced)
        ratio = hits / (hits + misses) if hits + misses else 0.0
        m[f"cache.{name}.hit_ratio"] = (ratio, "ratio")

    print(f"self time per step, traced ({int(n)} steps, {wall_ms:.2f} ms wall):", file=out)
    rows = [r for r in TABLE_ORDER if f"self.{r}" in tot]
    covered = 0.0
    for layer in rows:
        ms = per_step_ms(f"self.{layer}")
        covered += ms
        print(f"  {layer:<13} {ms:10.3f} ms  {100.0 * ms / wall_ms:6.1f} %", file=out)
    unattributed = per_step_ms("self.unattributed") / wall_ms if wall_ms else 1.0
    verdict = "ok" if unattributed <= SELF_TIME_TOLERANCE else "FAIL"
    print(
        f"  sum {covered:.3f} ms of {wall_ms:.3f} ms wall; time outside every "
        f"layer {100.0 * unattributed:.1f} % (tolerance "
        f"{100.0 * SELF_TIME_TOLERANCE:.0f} %): {verdict}",
        file=out,
    )
    print(f"trace.overhead_pct {overhead:.2f} (sim_speed traced vs untraced)", file=out)
    for name, (value, unit) in m.items():
        print(f"{name:<38} {value:14.4f} {unit}", file=out)
    return m


def git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


# --- the run ------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-references", action="store_true")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "wrf" / "model.py").exists():
        print(f"perfbench: no model sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    # A terminated run still reaps its current child's process group
    # (run_child's finally) instead of orphaning it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    WORK_DIR.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload]
    env = child_env(wl)
    out = sys.stdout

    # Build (or just load) the compiled kernels first, so every timed
    # set-up finds the on-disk JIT cache warm.
    try:
        prep = run_child({"workload": wl.name, "prepare": True}, env, BUILD_BUDGET_S, "prepare")
    except ChildFailure as err:
        print(f"perfbench: preparing the kernels failed: {err}", file=sys.stderr)
        return 3
    deadline = time.monotonic() + RUN_BUDGET_S - min(
        RUN_BUDGET_S / 2, time.monotonic() - started
    )

    if args.record_references:
        for seed in NAMED_SEEDS:
            spec = {"workload": wl.name, "inputs": wl.forecast_inputs(seed, 1),
                    "trace": False, "record": True}
            result = run_child(spec, env, deadline - time.monotonic(), f"record-{seed}")
            errors = [f.get("error") or f["problems"] for f in result["forecasts"]]
            print(f"recorded {wl.name} seed {seed}: {errors}")
        return 0

    timed = wl.forecasts(args.seconds, bool(args.trace))
    children = min(wl.children, timed)
    inputs = wl.forecast_inputs(args.seed, children + timed)
    chunks = [
        [w, *t] for w, t in zip(inputs[:children], split(inputs[children:], children))
    ]
    records: list[dict] = []
    attempted = failed = 0
    for n, chunk in enumerate(chunks):
        spec = {"workload": wl.name, "inputs": chunk, "trace": bool(args.trace)}
        try:
            result = run_child(spec, env, deadline - time.monotonic(), f"{wl.name}-{n}")
        except ChildFailure as err:
            print(f"perfbench: {err}", file=sys.stderr)
            lost = 1 + (len(chunk) - 1) * (2 if args.trace else 1)
            attempted += lost
            failed += lost
            continue
        for rec in result["forecasts"]:
            attempted += 1
            bad = rec.get("error") or rec.get("problems")
            if bad:
                failed += 1
                print(f"perfbench: forecast {rec['input']} failed: {bad}", file=sys.stderr)
            else:
                records.append(rec)

    info = dict(prep["manifest"])
    info.update(
        git_rev=git_rev(),
        nproc=nproc(),
        OMP_NUM_THREADS=env["OMP_NUM_THREADS"],
        OPENBLAS_NUM_THREADS=env["OPENBLAS_NUM_THREADS"],
        workload=wl.name,
        seed=args.seed,
        forecasts=len(inputs),
        references_checked=sum(1 for r in records if r.get("reference_checked")),
    )
    print("manifest " + json.dumps(info, sort_keys=True), file=out)
    print(f"attempted {attempted} forecasts, failed {failed} "
          f"(fail_frac {failed / max(1, attempted):.3f})", file=out)

    warm = [r for r in records if r["warmup"]]
    timed_recs = [r for r in records if not r["warmup"]]
    traced = [r for r in timed_recs if r["traced"]]
    plain = [r for r in timed_recs if not r["traced"]]
    metrics: dict = {}
    if args.trace and traced and plain and warm:
        metrics = per_layer(traced, plain, warm, wl, out)
    elif not args.trace and plain and warm:
        metrics = end_to_end(plain, [r["setup_s"] for r in warm], wl, out)
    else:
        failed = max(failed, 1)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
