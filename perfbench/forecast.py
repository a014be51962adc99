"""One benchmark child interpreter: set up, time and check forecasts.

``run.py`` starts this script once per group of forecasts, in a fresh
interpreter with the workload's thread settings in its environment::

    python3 perfbench/forecast.py SPEC.json RESULT.json

``SPEC.json`` names the workload, the forecast inputs, and whether to
trace.
Every forecast builds its model, takes its first step (the set-up
time), gathers a frame, takes the timed steps, gathers the final frame,
checks the frames and closes the model. A forecast that raises or fails
its check is recorded as failed and the next one still runs. With
``"prepare": true`` the script only loads the compiled kernels, which
builds them on a fresh checkout. With ``"record": true`` it writes the
reference frames of the named seeds instead of checking them.
"""

from __future__ import annotations

import faulthandler
import json
import os
import shutil
import signal
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import probes  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


def child_pids() -> list[int]:
    """This process's live child processes (the rank workers)."""
    pids = []
    for path in Path("/proc/self/task").glob("*/children"):
        pids += [int(p) for p in path.read_text().split()]
    return pids


def vm_hwm_kb(pid: int | str = "self") -> int:
    """Peak resident set of a process [kB] (``VmHWM``), 0 if gone."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def build_model(wl: Workload, inp: dict, history_dir: str | None, trace: bool):
    from repro.optim.stages import Stage
    from repro.wrf.ensemble import EnsembleModel
    from repro.wrf.model import WrfModel
    from repro.wrf.namelist import conus12km_namelist

    nl = conus12km_namelist(
        scale=wl.scale,
        stage=Stage.LOOKUP,
        trace=trace,
        **wl.namelist_kwargs(inp, history_dir),
    )
    return (EnsembleModel if wl.members > 1 else WrfModel)(nl)


def gather(model, members: int) -> list[dict]:
    if members > 1:
        return [model.gather_output(m) for m in range(members)]
    return [model.gather_output()]


def history_frames(history_dir: str | None) -> list[dict]:
    """The history frames a forecast wrote, oldest first."""
    if history_dir is None:
        return []
    from repro.wrf.io import read_wrfout

    paths = sorted(Path(history_dir).glob("wrfout_d01_*.npz"))
    return [read_wrfout(p)[0] for p in paths]


def run_forecast(wl: Workload, inp: dict, work: Path, traced: bool, record: bool) -> dict:
    """Set up, step, check and close one forecast; returns its record."""
    from repro.core.cache import cache_stats
    from repro.obs import tracer
    from repro.wrf import procpool

    history_dir = None
    if wl.history_every:
        history_dir = str(work / f"history-{os.getpid()}-{inp['name']}-{int(traced)}")
    tracer.configure(enabled=False, clear=True)
    out: dict = {"input": inp["name"], "traced": traced}
    model = None
    try:
        t0 = time.perf_counter()
        model = build_model(wl, inp, history_dir, traced)
        model.step()
        out["setup_s"] = time.perf_counter() - t0
        first = gather(model, wl.members)
        if traced:
            setup_events = tracer.drain()
            out["setup"] = probes.setup_totals(setup_events)
        cache0 = cache_stats()
        steps = []
        for _ in range(wl.timed_steps):
            with tracer.span("bench.step", rank=tracer.DRIVER_RANK):
                t = time.perf_counter()
                model.step()
                steps.append(time.perf_counter() - t)
        cache1 = cache_stats()
        out["step_s"] = steps
        workers = child_pids()
        if traced:
            procs = wl.use_process_ranks and bool(workers)
            segments = sum(
                len(model.halo_plan.segments_to(r)) for r in range(wl.num_ranks)
            )
            step_events = tracer.drain()
            out["layers"] = probes.step_totals(
                step_events, wl.num_ranks, procs, segments
            )
            if procs:
                out["caches"] = probes.counter_deltas(setup_events, step_events)
            else:
                out["caches"] = {
                    name: [
                        info.hits - getattr(cache0.get(name), "hits", 0),
                        info.misses - getattr(cache0.get(name), "misses", 0),
                    ]
                    for name, info in cache1.items()
                }
        final = gather(model, wl.members)
        worker_kb = sum(vm_hwm_kb(pid) for pid in workers)
        out["rss_mb"] = (vm_hwm_kb() + worker_kb) / 1024.0
        history = history_frames(history_dir)
    except Exception:
        out["error"] = traceback.format_exc()
        return out
    finally:
        if model is not None:
            model.close()
        tracer.configure(enabled=False, clear=True)
        if history_dir is not None:
            shutil.rmtree(history_dir, ignore_errors=True)
    leaked = procpool.leaked_segments()
    problems = [f"leaked shared segments: {leaked}"] if leaked else []
    per_member = [[f, g] for f, g in zip(first, final)]
    per_member[0][1:1] = history
    out["history_frames"] = len(history)
    for m, frames in enumerate(per_member):
        problems += [f"member {m}: {p}" for p in checks.invariant_problems(frames)]
    ref = checks.reference_path(wl.name, inp["name"])
    if record:
        checks.save_reference(ref, final)
    elif ref.exists():
        problems += checks.reference_problems(final, checks.load_reference(ref))
        out["reference_checked"] = True
    out["problems"] = problems
    return out


def manifest() -> dict:
    """What actually ran: kernels, kill switches, start method, versions."""
    import numpy as np

    from repro.fsbm import ckernels
    from repro.wrf import cstencil

    info = {
        "stencil_compiled": cstencil.load_stencil() is not None,
        "physics_kernels_compiled": ckernels.load_kernels() is not None,
        "kill_switches": sorted(k for k in os.environ if k.startswith("REPRO_DISABLE_") and os.environ[k]),
        "procpool_start": os.environ.get("REPRO_PROCPOOL_START", "") or "fork",
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }
    import scipy

    info["scipy"] = scipy.__version__
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        info["blas"] = "unknown"
    return info


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text())
    result_path = Path(argv[1])
    work = Path(spec["work_dir"])
    # A watchdog that finds this interpreter hung sends SIGUSR1 first:
    # every thread's stack lands in the dump file before the kill.
    dump = open(spec["dump_path"], "w")
    faulthandler.register(signal.SIGUSR1, file=dump, all_threads=True)
    wl = WORKLOADS[spec["workload"]]
    record = spec.get("record", False)
    result: dict = {"forecasts": []}
    forecasts = result["forecasts"]

    def forecast(inp: dict, traced: bool, warmup: bool = False) -> None:
        if traced:
            with probes.installed():
                rec = run_forecast(wl, inp, work, True, False)
        else:
            rec = run_forecast(wl, inp, work, False, record)
        rec["warmup"] = warmup
        forecasts.append(rec)

    if not spec.get("prepare"):
        # The first forecast sets up in a fresh interpreter (the set-up
        # sample) and fills the process's lazy caches; only the later
        # forecasts' steps are timed. A traced run times each later
        # forecast traced and untraced, alternating which goes first.
        warm, *timed = spec["inputs"]
        forecast(warm, traced=spec["trace"], warmup=True)
        for n, inp in enumerate(timed):
            if spec["trace"]:
                forecast(inp, traced=n % 2 == 0)
                forecast(inp, traced=n % 2 == 1)
            else:
                forecast(inp, traced=False)
    result["manifest"] = manifest()
    result_path.write_text(json.dumps(result))
    dump.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
