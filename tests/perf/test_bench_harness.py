"""The wall-clock benchmark harness and its regression gate.

These run in tier-1 (they live under ``tests/``) and are additionally
selectable alone with ``pytest -m bench_quick``. They use tiny
workloads — the full benchmark runs through ``repro bench`` /
``scripts/bench_gate.py``.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

from benchmarks import harness

pytestmark = pytest.mark.bench_quick


def _quick_gate_skip_reason() -> str | None:
    """Why the live wall-clock quick gates can't run meaningfully here.

    The gate subprocess times real kernels against the committed
    baseline; on a single-core host it time-slices against the test
    runner itself, and on a saturated host against everything else —
    either way the measurement is noise, not a regression signal. The
    honest outcome is a skip with this reason, not a threshold widened
    until noise passes.
    """
    ncpu = os.cpu_count() or 1
    if ncpu < 2:
        return (
            "wall-clock quick gate needs a dedicated core "
            f"(os.cpu_count() == {ncpu}; the gate subprocess would "
            "time-slice against the suite)"
        )
    try:
        load1 = os.getloadavg()[0]
    except (OSError, AttributeError):  # pragma: no cover - exotic hosts
        return None
    if load1 >= ncpu - 0.5:
        return (
            f"host is saturated (1-min load {load1:.1f} on {ncpu} "
            "cores); wall-clock gating would measure contention"
        )
    return None


@pytest.fixture(scope="module")
def coal_bench():
    return harness.bench_coal_bott("default", npts=64, reps=2)


class TestHarness:
    def test_coal_bott_bench_payload(self, coal_bench):
        assert coal_bench.name == "coal_bott"
        assert 0 < coal_bench.min_s <= coal_bench.median_s <= coal_bench.max_s
        assert coal_bench.extra["pair_entries"] > 0
        assert coal_bench.extra["mode_supported"] is True

    def test_sparse_and_dense_modes_supported(self):
        sparse = harness.bench_coal_bott("sparse", npts=64, reps=1)
        dense = harness.bench_coal_bott("dense", npts=64, reps=1)
        assert sparse.extra["mode_supported"] and dense.extra["mode_supported"]
        # Same workload, same scalar-code work stats on both engines.
        assert sparse.extra["pair_entries"] == dense.extra["pair_entries"]

    def test_seed_baseline_is_committed(self):
        seed = harness.REPO_ROOT / "BENCH_seed.json"
        assert seed.exists()
        payload = harness.load_payload(seed)
        assert payload["schema"] == harness.SCHEMA
        # Kernels tracked since the seed; tracked kernels added later
        # (e.g. transport_fused) appear only in newer baselines.
        for name in ("coal_bott", "model_step_r1", "model_step_r4"):
            assert name in payload["kernels"], name

    def test_current_baseline_tracks_all_kernels(self):
        baseline = harness.find_baseline()
        assert baseline is not None
        payload = harness.load_payload(baseline)
        for name in harness.TRACKED_KERNELS:
            assert name in payload["kernels"], name

    def test_payload_header_records_host(self):
        # Header only: name a kernel that doesn't exist so no benches
        # run, but the BENCH header is still assembled.
        payload = harness.collect(quick=True, kernels=["__header_only__"])
        assert payload["kernels"] == {}
        assert payload["cpu_count"] == os.cpu_count()
        assert isinstance(payload["hostname"], str) and payload["hostname"]
        assert payload["revision"]

    def test_find_baseline_prefers_non_seed(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "REPO_ROOT", tmp_path)
        (tmp_path / "BENCH_seed.json").write_text("{}")
        assert harness.find_baseline().name == "BENCH_seed.json"
        (tmp_path / "BENCH_abc123.json").write_text("{}")
        assert harness.find_baseline().name == "BENCH_abc123.json"

    def test_find_baseline_orders_by_commit_time(self, tmp_path, monkeypatch):
        """A fresh checkout gives every baseline the same mtime; the
        newest committed one must still win (here it sorts last, so a
        tie broken by name would pick the older file)."""
        if shutil.which("git") is None:
            pytest.skip("git is not installed")
        monkeypatch.setattr(harness, "REPO_ROOT", tmp_path)

        def git(*args: str, date: str = "") -> None:
            env = dict(os.environ, GIT_AUTHOR_DATE=date, GIT_COMMITTER_DATE=date)
            subprocess.run(
                ["git", "-c", "user.name=bench", "-c", "user.email=bench@test",
                 "-c", "commit.gpgsign=false", *args],
                cwd=tmp_path, env=env, check=True, capture_output=True,
            )

        git("init", "-q")
        for name, date in (
            ("BENCH_aaa.json", "2020-01-01T00:00:00+0000"),
            ("BENCH_bbb.json", "2021-01-01T00:00:00+0000"),
        ):
            (tmp_path / name).write_text("{}")
            git("add", name)
            git("commit", "-q", "-m", name, date=date)
        for path in tmp_path.glob("BENCH_*.json"):
            os.utime(path, (1.0e9, 1.0e9))
        assert harness.find_baseline().name == "BENCH_bbb.json"


def _payload_from(bench: harness.KernelBench, name: str) -> dict:
    return {
        "schema": harness.SCHEMA,
        "revision": "test",
        "quick": True,
        "config": {},
        "kernels": {name: bench.to_json()},
    }


class TestGate:
    """Exit-code contract: 0 = ok, 2 = regression (mirrors codee verify)."""

    def test_identical_payloads_pass(self, coal_bench):
        payload = _payload_from(coal_bench, "coal_bott")
        findings = harness.compare_payloads(payload, payload)
        assert findings and not any(f.regressed for f in findings)
        assert harness.gate_exit_code(findings) == 0

    def test_injected_2x_slowdown_fails(self, coal_bench):
        baseline = _payload_from(coal_bench, "coal_bott")
        slowed = copy.deepcopy(baseline)
        slowed["kernels"]["coal_bott"]["median_s"] *= 2.0
        findings = harness.compare_payloads(slowed, baseline)
        assert any(f.regressed for f in findings)
        assert harness.gate_exit_code(findings) == 2
        # ... and a speedup is not a regression.
        assert harness.gate_exit_code(
            harness.compare_payloads(baseline, slowed)
        ) == 0

    def test_slowdown_inside_threshold_passes(self, coal_bench):
        baseline = _payload_from(coal_bench, "coal_bott")
        slowed = copy.deepcopy(baseline)
        slowed["kernels"]["coal_bott"]["median_s"] *= 1.10  # below 15%
        assert harness.gate_exit_code(
            harness.compare_payloads(slowed, baseline)
        ) == 0

    def test_untracked_kernels_are_ignored(self, coal_bench):
        baseline = _payload_from(coal_bench, "coal_bott")
        slowed = copy.deepcopy(baseline)
        slowed["kernels"]["coal_bott_dense"] = copy.deepcopy(
            slowed["kernels"]["coal_bott"]
        )
        slowed["kernels"]["coal_bott_dense"]["median_s"] *= 10.0
        assert harness.gate_exit_code(
            harness.compare_payloads(slowed, baseline)
        ) == 0


class TestGateScript:
    """scripts/bench_gate.py end to end on saved payloads."""

    def _run(self, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, str(harness.REPO_ROOT / "scripts" / "bench_gate.py"), *args],
            capture_output=True,
            text=True,
        )

    def test_exit_2_on_injected_slowdown(self, tmp_path, coal_bench):
        baseline = _payload_from(coal_bench, "coal_bott")
        slowed = copy.deepcopy(baseline)
        slowed["kernels"]["coal_bott"]["median_s"] *= 2.0
        base_p = tmp_path / "BENCH_base.json"
        cur_p = tmp_path / "current.json"
        base_p.write_text(json.dumps(baseline))
        cur_p.write_text(json.dumps(slowed))
        proc = self._run("--baseline", str(base_p), "--current", str(cur_p))
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "REGRESSION" in proc.stdout

    def test_exit_0_when_clean(self, tmp_path, coal_bench):
        baseline = _payload_from(coal_bench, "coal_bott")
        base_p = tmp_path / "BENCH_base.json"
        cur_p = tmp_path / "current.json"
        base_p.write_text(json.dumps(baseline))
        cur_p.write_text(json.dumps(baseline))
        proc = self._run("--baseline", str(base_p), "--current", str(cur_p))
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_exit_1_without_baseline(self, tmp_path):
        proc = self._run(
            "--baseline", str(tmp_path / "missing.json"),
            "--current", str(tmp_path / "missing2.json"),
        )
        assert proc.returncode == 1


class TestTransportBench:
    def test_fused_payload(self):
        b = harness.bench_transport("fused", shape=(6, 5, 4), reps=2)
        assert b.name == "transport_fused"
        assert b.extra["nscalars"] == 234
        assert b.extra["flops"] > 0
        assert b.extra["min_traffic_bytes"] == 2 * b.extra["superblock_bytes"]
        assert 0 < b.min_s <= b.median_s <= b.max_s

    def test_per_field_payload(self):
        b = harness.bench_transport("per_field", shape=(6, 5, 4), reps=2)
        assert b.name == "transport_per_field"
        assert b.extra["mode"] == "per_field"


class TestPhysicsBenches:
    """Payload sanity for the PR-5 tracked kernels (tiny workloads)."""

    def test_sedimentation_payload(self):
        b = harness.bench_sedimentation(shape=(4, 8, 3), reps=1)
        assert b.name == "sedimentation"
        assert b.extra["cell_bins"] > 0
        assert b.extra["flops"] > 0
        assert isinstance(b.extra["compiled"], bool)

    def test_cond_remap_payload(self):
        b = harness.bench_cond_remap(npts=64, reps=1)
        assert b.name == "cond_remap"
        assert b.extra["npts"] == 64
        assert isinstance(b.extra["compiled"], bool)


class TestLiveQuickGate:
    """The wired-in CI gate: a fused-transport regression >15% against
    the committed baseline fails tier-1 the same way ``codee verify``
    failures do (exit 2 -> assertion failure here)."""

    def test_transport_quick_gate_is_clean(self):
        reason = _quick_gate_skip_reason()
        if reason:
            pytest.skip(reason)
        # With contended hosts skipped above, the moderate headroom
        # below covers scheduler jitter only; losing the compiled
        # stencil to the numpy fallback is a >2x regression, well past
        # this gate either way.
        proc = subprocess.run(
            [
                sys.executable,
                str(harness.REPO_ROOT / "scripts" / "bench_gate.py"),
                "--quick",
                "--kernel",
                "transport_fused",
                "--threshold",
                "0.3",
            ],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "transport_fused" in proc.stdout

    def test_multirank_quick_gate_is_clean(self):
        reason = _quick_gate_skip_reason()
        if reason:
            pytest.skip(reason)
        baseline = harness.load_payload(harness.find_baseline())
        if "model_step_multirank" not in baseline["kernels"]:
            pytest.skip("committed baseline predates the multirank kernel")
        # Scheduler-jitter headroom only (contended hosts skip above);
        # the real protection is a broken process path (crash -> exit 2
        # with a ProcPoolError traceback, or silent fallback to
        # threads, which the smoke test below catches via the payload
        # flag).
        proc = subprocess.run(
            [
                sys.executable,
                str(harness.REPO_ROOT / "scripts" / "bench_gate.py"),
                "--quick",
                "--kernel",
                "model_step_multirank",
                "--threshold",
                "0.3",
            ],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "model_step_multirank" in proc.stdout


class TestMultirankBench:
    """Two-worker process-mode smoke step (tier-1, bench_quick)."""

    def test_two_worker_smoke(self):
        b = harness.bench_model_step_multirank(workers=2, reps=1)
        assert b.name == "model_step_multirank"
        assert b.extra["workers"] == 2
        assert b.extra["process_ranks"] is True
        assert b.extra["cpu_count"] >= 1
        assert 0 < b.min_s <= b.median_s <= b.max_s

    def test_rank_scaling_records_speedup(self):
        results = harness.bench_rank_scaling(
            worker_counts=(1, 2), scale=0.05, reps=1
        )
        names = [r.name for r in results]
        assert names == ["rank_scaling_w1", "rank_scaling_w2"]
        assert results[0].extra["speedup_vs_w1"] == 1.0
        assert results[1].extra["speedup_vs_w1"] > 0

    def test_sedimentation_quick_gate_is_clean(self):
        reason = _quick_gate_skip_reason()
        if reason:
            pytest.skip(reason)
        baseline = harness.load_payload(harness.find_baseline())
        if "sedimentation" not in baseline["kernels"]:
            pytest.skip("committed baseline predates the sedimentation kernel")
        # Scheduler-jitter headroom only (contended hosts skip above);
        # losing the compiled path to the numpy fallback is a >2x
        # regression, well past this gate.
        proc = subprocess.run(
            [
                sys.executable,
                str(harness.REPO_ROOT / "scripts" / "bench_gate.py"),
                "--quick",
                "--kernel",
                "sedimentation",
                "--threshold",
                "0.3",
            ],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "sedimentation" in proc.stdout


class TestEnsembleBench:
    """Member-batched ensemble bench payloads and the PR-10 quick gate."""

    def test_members_payload(self):
        b = harness.bench_model_step_members(members=2, scale=0.02, reps=1)
        assert b.name == "model_step_members2"
        assert b.extra["members"] == 2
        assert b.extra["per_member_ms"] > 0
        assert b.extra["solo_per_member_ms"] > 0
        assert b.extra["speedup_vs_solo"] > 0
        assert 0 < b.min_s <= b.median_s <= b.max_s

    def test_transport_members_payload(self):
        b = harness.bench_transport_members(
            members=2, shape=(6, 5, 4), reps=2
        )
        assert b.name == "transport_members2"
        assert b.extra["members"] == 2
        assert b.extra["ir_kernel"] == "advect_stage"
        assert b.extra["speedup_vs_solo"] > 0
        assert 0 < b.min_s <= b.median_s <= b.max_s

    def test_members_quick_gate_is_clean(self):
        reason = _quick_gate_skip_reason()
        if reason:
            pytest.skip(reason)
        baseline = harness.load_payload(harness.find_baseline())
        if "model_step_members4" not in baseline["kernels"]:
            pytest.skip(
                "committed baseline predates the member-batched kernel"
            )
        # Scheduler-jitter headroom only (contended hosts skip above).
        proc = subprocess.run(
            [
                sys.executable,
                str(harness.REPO_ROOT / "scripts" / "bench_gate.py"),
                "--quick",
                "--kernel",
                "model_step_members4",
                "--threshold",
                "0.3",
            ],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "model_step_members4" in proc.stdout
