"""Tests of the forecast benchmark (run: ``pytest perfbench/tests``)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from conftest import BENCH, ROOT

import checks
import forecast
import probes
from workloads import WORKLOADS

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, workload: str, trace: int, seconds: float = 0.5):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def smoke_runs():
    """One very short run of every workload, untraced and traced."""
    return {
        (w, trace): run_bench(ROOT, w, trace) for w in WORKLOADS for trace in (0, 1)
    }


def test_declared_workloads_exist():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_prints_declared_metrics(smoke_runs, workload, trace):
    proc = smoke_runs[(workload, trace)]
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    key = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in DECLARED[key]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared
    assert "manifest " in proc.stdout
    manifest = json.loads(proc.stdout.split("manifest ", 1)[1].splitlines()[0])
    assert manifest["stencil_compiled"] and manifest["physics_kernels_compiled"]


def test_traced_runs_contrast_as_designed(smoke_runs):
    def metrics(workload):
        out = smoke_runs[(workload, 1)].stdout.strip().splitlines()[-1]
        return {k: v["value"] for k, v in json.loads(out)["metrics"].items()}

    storm, clear, members = (metrics(w) for w in WORKLOADS)
    assert clear["coal.busy_ms"] == 0.0 and clear["physics.mp_points"] == 0.0
    assert clear["transport.busy_ms"] == max(
        clear[k] for k in clear if k.endswith("busy_ms")
    )
    assert clear["history.bytes"] > 0 and clear["halo.bytes"] > 0
    assert storm["coal.busy_ms"] > 0 and storm["cond.busy_ms"] > 0
    assert members["members.coal_ms"] > 0
    assert members["members.physics_ms"] > 0
    assert members["cjit.compiles"] == 0


def test_same_seed_gives_identical_counts(tmp_path):
    wl = WORKLOADS["storm"]
    inp = wl.forecast_inputs(7, 1)[0]
    counts = []
    for _ in range(2):
        with probes.installed():
            rec = forecast.run_forecast(wl, inp, tmp_path, traced=True, record=False)
        assert not rec.get("error") and not rec["problems"], rec
        layers = rec["layers"]
        counts.append((layers["physics.mp_points"], layers["coal.pair_entries"]))
    assert counts[0] == counts[1]
    assert counts[0][0] > 0 and counts[0][1] > 0


def test_reference_check_tolerates_reordering_and_catches_dropped_physics(
    tmp_path, monkeypatch
):
    wl = WORKLOADS["storm"]
    inp = wl.forecast_inputs(checks.NAMED_SEEDS[0], 1)[0]
    reference = checks.load_reference(checks.reference_path(wl.name, inp["name"]))

    model = forecast.build_model(wl, inp, None, trace=False)
    try:
        for _ in range(wl.steps):
            model.step()
        final = forecast.gather(model, wl.members)
    finally:
        model.close()
    assert checks.reference_problems(final, reference) == []
    # A summation reordered at 1e-12 relative still passes ...
    nudged = [{k: a * (1.0 + 1e-12) for k, a in f.items()} for f in final]
    assert checks.reference_problems(nudged, reference) == []

    # ... while a forecast without collisions fails.
    import repro.fsbm.fast_sbm as fast_sbm
    from repro.fsbm.coal_bott import CoalWorkStats

    monkeypatch.setattr(fast_sbm, "coal_bott_step", lambda *a, **k: CoalWorkStats())
    model = forecast.build_model(wl, inp, None, trace=False)
    try:
        for _ in range(wl.steps):
            model.step()
        dropped = forecast.gather(model, wl.members)
    finally:
        model.close()
    assert checks.reference_problems(dropped, reference)


def test_invariants_flag_bad_frames():
    good = {"T": np.ones((2, 2, 2)), "QCLOUD_TOTAL": np.zeros((2, 2, 2)),
            "RAINNC": np.ones((2, 2))}
    assert checks.invariant_problems([good, good]) == []
    nan = dict(good, T=np.full((2, 2, 2), np.nan))
    negative = dict(good, QCLOUD_TOTAL=-np.ones((2, 2, 2)))
    drained = dict(good, RAINNC=np.zeros((2, 2)))
    for bad in (nan, negative, drained):
        assert checks.invariant_problems([good, bad])


def test_refuses_to_run_without_model_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(tmp_path, "storm", 0, seconds=1)
    assert proc.returncode != 0
    assert proc.stdout == ""
