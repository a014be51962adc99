"""Lifecycle of the multiprocess rank pool and its shared blocks.

Failure containment is the contract under test: a worker crash or a
driven-after-close pool must raise :class:`~repro.errors.ProcPoolError`
*after* tearing everything down — workers dead, blocks released — and
a driver whose whole process group is killed must leave no worker and
nothing in ``/dev/shm`` behind. Forking workers must stay safe after
the parent process has run compiled kernels itself.
"""

from __future__ import annotations

import multiprocessing
import os
import select
import signal
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest

import repro
from repro.codee import loopir
from repro.codee.loopir import Loop, walk_ir_stmts
from repro.constants import CONUS12KM_DT
from repro.core.cache import cache_stats
from repro.errors import ConfigurationError, ProcPoolError
from repro.grid.decomposition import decompose_domain
from repro.wrf import procpool
from repro.wrf.namelist import conus12km_namelist


def _namelist(num_ranks: int = 2):
    return conus12km_namelist(
        scale=0.05, num_ranks=num_ranks, use_process_ranks=True
    )


def _pool(num_ranks: int = 2, timeout: float = 30.0):
    nl = _namelist(num_ranks)
    decomp = decompose_domain(nl.domain, nl.num_ranks)
    return procpool.ProcRankPool(nl, decomp, timeout=timeout)


def _rss_shmem_bytes() -> int | None:
    """This process's resident shared memory (``RssShmem`` in
    ``/proc/self/status``), or None where it is not reported."""
    try:
        status = Path("/proc/self/status").read_text()
    except OSError:
        return None
    for line in status.splitlines():
        if line.startswith("RssShmem:"):
            return int(line.split()[1]) * 1024
    return None


def _src_env(**extra) -> dict:
    """The environment of a child interpreter that imports this tree."""
    src = str(Path(repro.__file__).resolve().parents[1])
    return dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ),
        **extra,
    )


class TestPoolLifecycle:
    def test_close_joins_workers_and_releases_blocks(self):
        pool = _pool()
        mappings = [weakref.ref(b.base) for b in pool.blocks]
        assert len(mappings) == 2
        pool.step()
        pool.close()
        for proc in pool._procs:
            assert not proc.is_alive()
        # Nothing in the driver maps the blocks any more.
        assert [m() for m in mappings] == [None, None]
        assert procpool.leaked_segments() == []

    def test_double_close_is_a_noop(self):
        pool = _pool()
        pool.close()
        pool.close()
        assert pool.blocks == []

    def test_step_after_close_raises(self):
        pool = _pool()
        pool.close()
        with pytest.raises(ProcPoolError, match="closed"):
            pool.step()

    def test_closed_model_raises_the_pools_error(self):
        """After close() the workers, and the rank state they owned, are
        gone: reading fields or stepping says so, in the pool's words."""
        from repro.wrf.model import WrfModel

        model = WrfModel(_namelist())
        model.step()
        model.close()
        with pytest.raises(ProcPoolError, match="pool is closed"):
            model.gather_output()
        with pytest.raises(ProcPoolError, match="pool is closed"):
            model.step()

    def test_worker_crash_mid_step_raises_and_tears_down(self):
        pool = _pool(timeout=15.0)
        mappings = [weakref.ref(b.base) for b in pool.blocks]
        pool.crash(0)
        with pytest.raises(ProcPoolError):
            pool.step()
        # The failure tore the whole pool down: every worker dead,
        # every block released.
        for proc in pool._procs:
            assert not proc.is_alive()
        assert [m() for m in mappings] == [None, None]
        pool.close()  # still a no-op afterwards


class TestWorkersOwnTheState:
    def test_driver_builds_no_rank_state(self):
        """The workers build and own every rank's state; the driver
        keeps none and reads fields through ``gather_output``."""
        from repro.wrf.model import WrfModel

        model = WrfModel(_namelist())
        try:
            assert model._pool is not None
            assert model.ranks == model.fields == model.workspaces == []
            model.step()
            dom = model.namelist.domain
            assert model.gather_output()["T"].shape == (dom.nx, dom.nz, dom.ny)
        finally:
            model.close()

    @pytest.mark.skipif(
        _rss_shmem_bytes() is None, reason="RssShmem is not reported here"
    )
    def test_driver_never_faults_in_the_blocks(self, tmp_path):
        """Output and history go through the pool's shared frame only.

        Reading one field out of a rank block touches every page of it
        (the 234 scalars of a cell share a page), so a driver that read
        the blocks would hold at least one block's bytes as shared
        resident memory; the frame is a few percent of a block.
        """
        from repro.wrf.model import WrfModel

        nl = conus12km_namelist(
            scale=0.05, num_ranks=2, use_process_ranks=True,
            history_interval=CONUS12KM_DT, history_path=str(tmp_path),
        )
        before = _rss_shmem_bytes()
        model = WrfModel(nl)
        try:
            model.step()  # the history write falls due after the step
            model.gather_output()
            grown = _rss_shmem_bytes() - before
            block = model._pool.blocks[0].nbytes
        finally:
            model.close()
        assert [p.name for p in tmp_path.iterdir()] == ["wrfout_d01_000001.npz"]
        assert grown < block / 4, (grown, block)


class TestPoolTimeout:
    @pytest.mark.parametrize("raw", ["12O", "nan", "0", "-5"])
    def test_bad_timeout_is_refused_before_any_fork(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_PROCPOOL_TIMEOUT", raw)
        nl = _namelist()
        decomp = decompose_domain(nl.domain, nl.num_ranks)
        with pytest.raises(ConfigurationError, match="REPRO_PROCPOOL_TIMEOUT"):
            procpool.ProcRankPool(nl, decomp)
        assert multiprocessing.active_children() == []

    def test_unset_and_valid_timeouts(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROCPOOL_TIMEOUT", raising=False)
        assert procpool._pool_timeout() == procpool.DEFAULT_TIMEOUT
        monkeypatch.setenv("REPRO_PROCPOOL_TIMEOUT", "2.5")
        assert procpool._pool_timeout() == 2.5


#: Builds a 2-process-rank model, steps it once, reports its pid and
#: its workers' pids, then waits to be killed.
_STEP_AND_WAIT = """
import os, sys
from repro.wrf.model import WrfModel
from repro.wrf.namelist import conus12km_namelist

model = WrfModel(
    conus12km_namelist(scale=0.05, num_ranks=2, use_process_ranks=True)
)
model.step()
print(os.getpid(), *(p.pid for p in model._pool._procs), flush=True)
sys.stdin.read()
"""


def _children(pid: int) -> set[int]:
    """Live (not zombie) processes whose parent is ``pid``."""
    out = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if int(ppid) == pid and state != "Z":
            out.add(int(entry))
    return out


def _alive(pid: int) -> bool:
    """Whether ``pid`` still runs (a zombie has released its memory)."""
    try:
        stat = Path("/proc", str(pid), "stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _shm_entries() -> set[str]:
    return set(os.listdir("/dev/shm"))


def _read_line(proc: subprocess.Popen, timeout: float) -> str:
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    return proc.stdout.readline() if ready else ""


class TestLeakProtection:
    @pytest.mark.skipif(
        not (Path("/proc/self/stat").exists() and Path("/dev/shm").is_dir()),
        reason="needs Linux /proc and /dev/shm",
    )
    @pytest.mark.parametrize(
        "sig", [signal.SIGKILL, signal.SIGTERM], ids=["SIGKILL", "SIGTERM"]
    )
    def test_killed_process_group_leaves_nothing_behind(self, sig):
        """The driver's only children are its rank workers (no resource
        tracker), and killing the driver's whole process group — the
        benchmark watchdog's SIGKILL, or a SIGTERM — leaves no worker
        running and no new entry in ``/dev/shm``."""
        before = _shm_entries()
        proc = subprocess.Popen(
            [sys.executable, "-c", _STEP_AND_WAIT],
            env=_src_env(REPRO_PROCPOOL_TIMEOUT="30"),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            line = _read_line(proc, timeout=240.0)
            assert line, "the child did not step its model"
            driver, *workers = map(int, line.split())
            assert len(workers) == 2
            children = _children(driver)
            os.killpg(proc.pid, sig)
            proc.wait(timeout=30)
            deadline = time.monotonic() + 30.0
            while any(map(_alive, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_alive, workers))
            assert _shm_entries() - before == set()
            assert children == set(workers)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait(timeout=30)
            proc.stdin.close()
            proc.stdout.close()
            proc.stderr.close()
            # Leaked named segments cost memory until removed.
            for name in _shm_entries() - before:
                if name.startswith("psm_"):
                    Path("/dev/shm", name).unlink(missing_ok=True)

    def test_segment_cache_footprint_registered(self):
        pool = _pool()
        try:
            info = cache_stats()[procpool.SEGMENT_CACHE]
            assert info.currsize == 2
            assert info.nbytes == sum(b.nbytes for b in pool.blocks) > 0
        finally:
            pool.close()
        assert cache_stats()[procpool.SEGMENT_CACHE].currsize == 0


#: Steps a 1-rank in-process model, then a 2-process-rank model, in one
#: interpreter. An OpenMP thread pool started by the first model's
#: kernels would not survive the fork of the second model's workers.
_STEP_THEN_FORK = """
from repro.wrf.model import WrfModel
from repro.wrf.namelist import conus12km_namelist

serial = WrfModel(conus12km_namelist(scale=0.05, num_ranks=1))
serial.step()
serial.close()
forked = WrfModel(
    conus12km_namelist(scale=0.05, num_ranks=2, use_process_ranks=True)
)
try:
    assert forked._pool is not None
    forked.step()
finally:
    forked.close()
print("both models stepped")
"""


class TestForkSafety:
    def test_process_ranks_fork_after_an_in_process_step(self):
        proc = subprocess.run(
            [sys.executable, "-c", _STEP_THEN_FORK],
            env=_src_env(OMP_NUM_THREADS="2", REPRO_PROCPOOL_TIMEOUT="30"),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "both models stepped" in proc.stdout

    def test_no_production_kernel_has_a_parallel_loop(self):
        gated = loopir.gate_kernels()
        assert {
            "advect_stage", "condensate", "sed_sweep", "onecond",
            "freeze_melt", "gather_rows", "scatter_rows", "row_stats",
            "coal_bott_new",
        } <= set(gated)
        for name, spec in gated.items():
            kernel = spec.final_kernel()
            parallel = [
                s.var for s in walk_ir_stmts(kernel.body)
                if isinstance(s, Loop) and s.parallel
            ]
            assert not parallel, f"{name} opens a parallel region"
