"""Shared-memory lifecycle of the multiprocess rank pool.

Failure containment is the contract under test: a worker crash or a
driven-after-close pool must raise :class:`~repro.errors.ProcPoolError`
*after* tearing everything down — workers dead, every shared segment
unlinked — and a driver that dies between create and unlink must still
be covered by the atexit reaper. Forking workers must stay safe after
the parent process has run compiled kernels itself.
"""

from __future__ import annotations

import os
import subprocess
import sys
from multiprocessing.shared_memory import SharedMemory
from pathlib import Path

import pytest

import repro
from repro.codee import loopir
from repro.codee.loopir import Loop, walk_ir_stmts
from repro.errors import ProcPoolError
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


def _segments_gone(names):
    for name in names:
        with pytest.raises(FileNotFoundError):
            SharedMemory(name=name)


class TestPoolLifecycle:
    def test_close_unlinks_segments(self):
        pool = _pool()
        names = list(pool.blocks.names)
        assert names
        assert set(names) <= set(procpool.leaked_segments())
        pool.step()
        pool.close()
        assert not (set(names) & set(procpool.leaked_segments()))
        _segments_gone(names)

    def test_double_close_and_double_unlink_are_noops(self):
        pool = _pool()
        pool.close()
        pool.close()
        pool.blocks.unlink()
        pool.blocks.unlink()

    def test_step_after_close_raises(self):
        pool = _pool()
        pool.close()
        with pytest.raises(ProcPoolError, match="closed"):
            pool.step()

    def test_worker_crash_mid_step_raises_and_tears_down(self):
        pool = _pool(timeout=15.0)
        names = list(pool.blocks.names)
        pool.crash(0)
        with pytest.raises(ProcPoolError):
            pool.step()
        # The failure tore the whole pool down: every worker dead,
        # every segment unlinked, nothing left for the reaper.
        for proc in pool._procs:
            assert not proc.is_alive()
        assert not (set(names) & set(procpool.leaked_segments()))
        _segments_gone(names)
        pool.close()  # still a no-op afterwards


class TestLeakProtection:
    def test_leaked_segments_are_tracked_and_reaped(self):
        nl = _namelist()
        decomp = decompose_domain(nl.domain, nl.num_ranks)
        blocks = procpool.SharedSuperblocks(decomp, nscalars=4)
        names = list(blocks.names)
        try:
            assert set(names) <= set(procpool.leaked_segments())
            # Simulate a driver that died before unlink: the atexit
            # reaper (invoked directly here) must destroy the segments.
            procpool._reap_leaked()
            assert not (set(names) & set(procpool.leaked_segments()))
            _segments_gone(names)
        finally:
            blocks.unlink()  # after the reap this must stay a no-op

    def test_segment_cache_footprint_registered(self):
        pool = _pool()
        try:
            from repro.core.cache import cache_stats

            info = cache_stats()[procpool.SEGMENT_CACHE]
            assert info.currsize == 2
            assert info.nbytes > 0
        finally:
            pool.close()
        from repro.core.cache import cache_stats

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
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(
            os.environ,
            OMP_NUM_THREADS="2",
            REPRO_PROCPOOL_TIMEOUT="30",
            PYTHONPATH=os.pathsep.join(
                p for p in (src, os.environ.get("PYTHONPATH")) if p
            ),
        )
        proc = subprocess.run(
            [sys.executable, "-c", _STEP_THEN_FORK],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "both models stepped" in proc.stdout

    def test_no_production_kernel_has_a_parallel_loop(self):
        for name, spec in loopir.gate_kernels().items():
            kernel = spec.final_kernel()
            parallel = [
                s.var for s in walk_ir_stmts(kernel.body)
                if isinstance(s, Loop) and s.parallel
            ]
            assert not parallel, f"{name} opens a parallel region"
