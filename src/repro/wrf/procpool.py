"""True multiprocess rank execution over shared-memory superblocks.

The in-process rank threads of :mod:`repro.wrf.model` time-slice one
interpreter: numpy releases the GIL in the hot kernels, but the pure-
Python glue between them serializes, so host wall-clock barely improves
past two ranks. This module promotes ranks to real OS processes:

* each rank's member-stacked transport superblock lives in a
  ``multiprocessing.shared_memory`` segment created (and later
  unlinked) by the driver — one ``(members, ni, nk, nj, nscalar)``
  float64 block per rank, registered with the
  ``"wrf.shared_superblocks"`` :class:`~repro.core.cache.CountingCache`
  so its footprint is observable like every other pinned buffer;
* each rank is a persistent worker process (forked before any
  heavyweight driver state exists) that builds its own fields, FSBM
  drivers, and authoritative clocks (one
  :class:`~repro.core.clock.SimClock` per member), binds its resident
  fields directly into its shared segment, and then steps all its
  members in lockstep with its peers;
* the per-step halo exchange is the pull half of the
  :class:`~repro.grid.halo.HaloExchangePlan` executed as direct strided
  copies between neighboring ranks' shared blocks — no serialization,
  no driver round-trip — barriered before (all owners done with
  physics) and after (all halos filled);
* the driver talks to workers over one command pipe per rank
  (``step`` / ``charge_io`` / ``gather`` / ``close``; the last two
  name a member) and mirrors each worker's clock totals wholesale
  after every command, so scheduler charges, profilers, and history
  I/O see simulated time bit-identical to in-process ranks.

Bit-exactness: workers run the *same* module-level per-rank stage
functions as in-process ranks (physics, halo exchange, halo-MPI
charging, transport), in the same per-rank order, against
deterministically reconstructed cost models — so both the numerics and
every per-clock float accumulation sequence are identical across
execution modes.

Failure containment: any worker crash, timeout, or protocol error
tears down the whole pool — remaining workers are terminated and every
shared segment is unlinked — before :class:`~repro.errors.ProcPoolError`
reaches the caller. Segments that somehow survive (e.g. the driver was
SIGKILLed between create and unlink) are reaped by an ``atexit`` hook,
and ``REPRO_DISABLE_PROCPOOL=1`` disables the pool entirely (the model
falls back to in-process ranks).
"""

from __future__ import annotations

import atexit
import math
import os
import time
import traceback
from contextlib import ExitStack
from multiprocessing import get_context
from multiprocessing.shared_memory import SharedMemory
from threading import BrokenBarrierError

import numpy as np

from repro.core.cache import get_cache
from repro.core.clock import SimClock, TimeBucket
from repro.errors import ProcPoolError
from repro.fsbm import ckernels
from repro.fsbm.collision_kernels import get_tables
from repro.grid.decomposition import Decomposition
from repro.grid.halo import build_halo_plan
from repro.obs import metrics, tracer
from repro.wrf import cstencil

# The benchmark's layer probes patch the case builder under this
# module's name as well; workers build it through repro.wrf.model.
from repro.wrf.model import build_rank_fields  # noqa: F401
from repro.wrf.model import (
    build_rank_state,
    charge_halos_rank,
    cost_models,
    exchange_halos_rank,
    physics_rank,
    rank_output_frame,
    transport_rank,
)
from repro.wrf.namelist import Namelist
from repro.wrf.state import superblock_scalar_count

#: Default seconds a pool waits on a worker reply or a halo barrier
#: before declaring the step dead (``REPRO_PROCPOOL_TIMEOUT`` overrides).
DEFAULT_TIMEOUT = 120.0

#: Cache registering the live shared segments (value = SharedMemory, so
#: ``cache_stats()`` reports the pool's /dev/shm footprint in bytes).
SEGMENT_CACHE = "wrf.shared_superblocks"


def procpool_disabled() -> str | None:
    """Why process ranks are disabled in this environment, or ``None``.

    ``REPRO_DISABLE_PROCPOOL`` is the kill switch: any non-empty value
    makes every model fall back to in-process ranks (numerics and
    simulated time are identical either way).
    """
    if os.environ.get("REPRO_DISABLE_PROCPOOL", ""):
        return "REPRO_DISABLE_PROCPOOL is set"
    return None


def _pool_timeout() -> float:
    raw = os.environ.get("REPRO_PROCPOOL_TIMEOUT", "")
    try:
        return float(raw) if raw else DEFAULT_TIMEOUT
    except ValueError:
        return DEFAULT_TIMEOUT


# --- leak protection ---------------------------------------------------------
#
# Every segment the driver creates is recorded here until it is
# unlinked. Normal teardown (pool.close(), or any pool failure) empties
# the registry; the atexit hook is the last line of defense for drivers
# that die between create and unlink, so a crashed run never strands
# blocks in /dev/shm.

_live_segments: dict[str, SharedMemory] = {}


def leaked_segments() -> list[str]:
    """Names of shared segments created but not yet unlinked."""
    return sorted(_live_segments)


def _reap_leaked() -> None:
    """Unlink every still-live segment (atexit; also test-invokable)."""
    for name in list(_live_segments):
        shm = _live_segments.pop(name)
        get_cache(SEGMENT_CACHE).discard(name)
        try:
            shm.close()
        except BufferError:
            pass  # live numpy views keep the mapping; unlink still works
        try:
            shm.unlink()
        except FileNotFoundError:
            pass


atexit.register(_reap_leaked)


class SharedSuperblocks:
    """Driver-owned pool of per-rank shared-memory superblock segments.

    One float64 ``(members, ni, nk, nj, nscalar)`` segment per rank,
    created at construction and destroyed by :meth:`unlink`
    (idempotent — double unlink and unlink-after-reap are no-ops).
    Workers attach by name and only ever ``close()`` their mapping; the
    driver is the sole owner of segment lifetime.
    """

    def __init__(
        self,
        decomposition: Decomposition,
        nscalars: int,
        dtype=np.float64,
        members: int = 1,
    ):
        self.nscalars = nscalars
        self.members = members
        self.dtype = np.dtype(dtype)
        self.names: list[str] = []
        self._shms: list[SharedMemory] = []
        self._views: list[np.ndarray] = []
        cache = get_cache(SEGMENT_CACHE, sizeof=lambda shm: shm.size)
        try:
            for patch in decomposition.patches:
                shape = (members, *patch.shape, nscalars)
                size = math.prod(shape) * self.dtype.itemsize
                shm = SharedMemory(create=True, size=size)
                self._shms.append(shm)
                self.names.append(shm.name)
                _live_segments[shm.name] = shm
                cache.get_or_build(shm.name, lambda s=shm: s)
                view = np.ndarray(shape, dtype=self.dtype, buffer=shm.buf)
                view[...] = 0.0
                self._views.append(view)
        except Exception:
            self.unlink()
            raise

    def view(self, rank: int) -> np.ndarray:
        """The driver-side numpy view over one rank's segment."""
        return self._views[rank]

    def unlink(self) -> None:
        """Destroy every segment (idempotent)."""
        cache = get_cache(SEGMENT_CACHE)
        self._views = []
        shms, self._shms = self._shms, []
        self.names = []
        for shm in shms:
            _live_segments.pop(shm.name, None)
            cache.discard(shm.name)
            try:
                shm.close()
            except BufferError:
                # Model fields may still view the block; the mapping
                # stays valid until they are garbage collected, and
                # unlink below removes the name regardless.
                pass
            try:
                shm.unlink()
            except FileNotFoundError:
                pass


def _preload_compiled(namelist: Namelist) -> None:
    """Build the compiled kernels and lookup tables before forking.

    Workers inherit the loaded shared objects and warm caches through
    fork instead of racing to compile them (the cjit build is atomic,
    so a race is safe — just slow).
    """
    cstencil.load_stencil()
    ckernels.load_kernels()
    get_tables()


# --- worker side -------------------------------------------------------------


class _RankContext:
    """Everything one worker process owns for its rank's members.

    The rank's shared segment holds the stacked ``(N, ni, nk, nj,
    nscalar)`` block, all members step together through the shared
    stage functions, and the gather/charge commands name one member.
    """

    def __init__(
        self,
        rank: int,
        namelist: Namelist,
        decomposition: Decomposition,
        seg_names: list[str],
        nscalars: int,
        barrier,
        timeout: float,
    ):
        self.rank = rank
        self.namelist = namelist
        self.barrier = barrier
        self.timeout = timeout
        self.num_ranks = namelist.num_ranks
        # Re-arm the tracer for this process: clear fork-inherited
        # driver events, stamp this rank on everything recorded here.
        tracer.configure_worker(rank, trace=namelist.trace)
        self.clocks = [SimClock() for _ in range(namelist.members)]
        self.comm_cost, self.cpu_cost = cost_models(namelist)
        self.plan = build_halo_plan(decomposition)
        # Attach (never create, never unlink) every rank's segment: the
        # pull-model exchange reads neighbors' owned boxes directly.
        self._shms = [SharedMemory(name=n) for n in seg_names]
        self.blocks = [
            np.ndarray(
                (namelist.members, *patch.shape, nscalars),
                dtype=np.float64,
                buffer=shm.buf,
            )
            for patch, shm in zip(decomposition.patches, self._shms)
        ]
        self.state = build_rank_state(
            namelist,
            rank,
            decomposition.patches[rank],
            self.blocks[rank],
            self.clocks,
            self.cpu_cost,
        )

    def step(self):
        """One step of every member on this rank; peers step concurrently.

        Identical stage sequence (and so identical per-clock charge
        order) to in-process ranks: physics, halo MPI charges,
        transport. The two barriers bracket the shared-memory exchange:
        the first guarantees every owner finished writing its owned box
        before anyone pulls, the second that every halo is filled before
        anyone's transport starts mutating its block.
        """
        with ExitStack() as stack:
            for clock in self.clocks:
                stack.enter_context(clock.region("solve_em"))
            stats = physics_rank(self.namelist, self.state)
            self.barrier.wait(self.timeout)
            exchange_halos_rank(self.plan, self.rank, self.blocks)
            charge_halos_rank(
                self.plan, self.comm_cost, self.state, self.num_ranks
            )
            self.barrier.wait(self.timeout)
            transport_rank(self.namelist, self.cpu_cost, self.state)
        # Per-step cache snapshots ride the trace as counter tracks
        # (no-op while tracing is off).
        metrics.emit_cache_counters(self.rank)
        return [(st, *clock.state()) for st, clock in zip(stats, self.clocks)]

    def charge_io(self, charges: list[float], member: int):
        """Apply one member's ordered I/O charges; return its totals."""
        clock = self.clocks[member]
        for seconds in charges:
            clock.advance(TimeBucket.IO, seconds)
        return clock.state()

    def gather(self, member: int) -> dict[str, np.ndarray]:
        """One member's owned output frame."""
        return rank_output_frame(self.state.fields[member])

    def close(self) -> None:
        for shm in self._shms:
            try:
                shm.close()
            except BufferError:  # views die with the process anyway
                pass


def _worker_main(
    rank: int,
    namelist: Namelist,
    decomposition: Decomposition,
    seg_names: list[str],
    nscalars: int,
    barrier,
    conn,
    timeout: float,
) -> None:
    """Worker process entry: build rank state, then serve commands.

    Replies are ``("ok", payload, spans)`` or
    ``("error", traceback_text, spans)`` — every reply piggybacks the
    worker's drained tracer events (the empty list while tracing is
    off), so rank-local spans reach the driver on the same pipe and
    cadence as the clock mirror, and the containment path flushes a
    failing worker's spans with its traceback. Any error (including a
    broken halo barrier when a peer died) is fatal to the worker — the
    driver treats it as a pool failure and tears everything down.
    """
    ctx = None
    try:
        ctx = _RankContext(
            rank, namelist, decomposition, seg_names, nscalars, barrier, timeout
        )
        conn.send(("ready", rank, tracer.drain_state()))
        while True:
            cmd = conn.recv()
            op = cmd[0]
            if op == "close":
                conn.send(("ok", None, tracer.drain_state()))
                break
            if op == "crash":  # test hook: die without cleanup
                os._exit(1)
            if op == "raise":  # test hook: fail through containment
                raise RuntimeError(f"rank {rank}: induced worker error")
            if op == "step":
                conn.send(("ok", ctx.step(), tracer.drain_state()))
            elif op == "charge_io":
                conn.send(
                    ("ok", ctx.charge_io(*cmd[1:]), tracer.drain_state())
                )
            elif op == "gather":
                conn.send(("ok", ctx.gather(*cmd[1:]), tracer.drain_state()))
            else:
                conn.send(("error", f"unknown command {op!r}", []))
                break
    except (EOFError, KeyboardInterrupt):
        pass  # driver went away; exit quietly
    except BrokenBarrierError:
        _try_send(
            conn,
            (
                "error",
                f"rank {rank}: halo barrier broken (peer died or timed out)",
                tracer.drain_state(),
            ),
        )
    except BaseException:
        _try_send(conn, ("error", traceback.format_exc(), tracer.drain_state()))
    finally:
        if ctx is not None:
            ctx.close()
        conn.close()


def _try_send(conn, payload) -> None:
    try:
        conn.send(payload)
    except OSError:
        pass


# --- driver side -------------------------------------------------------------


class ProcRankPool:
    """Persistent worker processes, one per rank, stepped in lockstep.

    Created by :class:`~repro.wrf.model.WrfModel` when
    ``namelist.use_process_ranks`` holds (CPU stages only). Fork happens
    at construction — before the driver builds its own heavyweight
    state — so workers start lean and inherit the preloaded compiled
    kernels and lookup tables.
    """

    def __init__(
        self,
        namelist: Namelist,
        decomposition: Decomposition,
        timeout: float | None = None,
    ):
        self.namelist = namelist
        self.num_ranks = namelist.num_ranks
        self.timeout = _pool_timeout() if timeout is None else float(timeout)
        self._closed = False
        self._procs: list = []
        self._conns: list = []
        nscalars = superblock_scalar_count()
        _preload_compiled(namelist)
        self.blocks = SharedSuperblocks(
            decomposition, nscalars, members=namelist.members
        )
        start = os.environ.get("REPRO_PROCPOOL_START", "") or "fork"
        ctx = get_context(start)
        self._barrier = ctx.Barrier(self.num_ranks)
        try:
            for rank in range(self.num_ranks):
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main,
                    args=(
                        rank,
                        namelist,
                        decomposition,
                        self.blocks.names,
                        nscalars,
                        self._barrier,
                        child_conn,
                        self.timeout,
                    ),
                    name=f"wrf-rank-{rank}",
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self._procs.append(proc)
                self._conns.append(parent_conn)
            # Workers build their rank state concurrently; wait for all.
            for rank in range(self.num_ranks):
                reply = self._recv(rank)
                if reply[0] != "ready":
                    raise ProcPoolError(
                        f"rank {rank} worker sent {reply[0]!r} during startup"
                    )
        except Exception:
            self._teardown()
            raise

    # -- plumbing --

    def block_view(self, rank: int) -> np.ndarray:
        """Driver-side live view over one rank's shared superblock."""
        return self.blocks.view(rank)

    def _recv(self, rank: int):
        """One reply from one worker, with liveness + timeout checks."""
        conn, proc = self._conns[rank], self._procs[rank]
        deadline = time.monotonic() + self.timeout
        while not conn.poll(0.05):
            if not proc.is_alive():
                raise ProcPoolError(
                    f"rank {rank} worker died (exit code {proc.exitcode})"
                )
            if time.monotonic() > deadline:
                raise ProcPoolError(
                    f"rank {rank} worker unresponsive after "
                    f"{self.timeout:.0f}s"
                )
        try:
            reply = conn.recv()
        except EOFError:
            raise ProcPoolError(
                f"rank {rank} worker died mid-reply "
                f"(exit code {proc.exitcode})"
            ) from None
        # Every reply piggybacks the worker's drained spans; adopt them
        # before any error propagates so a failing worker's trace
        # survives the teardown.
        if len(reply) > 2 and reply[2]:
            tracer.ingest(reply[2])
        if reply[0] == "error":
            raise ProcPoolError(f"rank {rank} worker failed:\n{reply[1]}")
        return reply

    def _command(self, payloads: list) -> list:
        """Broadcast one command per rank; collect replies in rank order.

        Any failure — dead worker, timeout, error reply, broken pipe —
        tears the whole pool down (workers terminated, segments
        unlinked) before the :class:`ProcPoolError` propagates.
        """
        if self._closed:
            raise ProcPoolError("pool is closed")
        try:
            for conn, payload in zip(self._conns, payloads):
                conn.send(payload)
            return [self._recv(rank) for rank in range(self.num_ranks)]
        except (ProcPoolError, OSError) as err:
            self._teardown()
            if isinstance(err, ProcPoolError):
                raise
            raise ProcPoolError(f"pool command failed: {err}") from err

    # -- commands --

    def step(self) -> list:
        """Step every rank once; returns per rank a per-member list of
        ``(SbmStepStats, clock_buckets, clock_regions)``."""
        replies = self._command([("step",)] * self.num_ranks)
        return [r[1] for r in replies]

    def charge_io(self, charges: list[list[float]], member: int = 0) -> list:
        """Apply per-rank ordered I/O charges on one member's worker
        clocks; returns every rank's updated ``(buckets, regions)``
        totals."""
        replies = self._command(
            [("charge_io", charges[r], member) for r in range(self.num_ranks)]
        )
        return [r[1] for r in replies]

    def gather(self, member: int = 0) -> list[dict[str, np.ndarray]]:
        """One member's owned-region output frame from every rank, in
        rank order."""
        replies = self._command([("gather", member)] * self.num_ranks)
        return [r[1] for r in replies]

    def crash(self, rank: int) -> None:
        """Test hook: make one worker exit hard mid-protocol."""
        self._conns[rank].send(("crash",))

    def induce_error(self, rank: int) -> None:
        """Test hook: make one worker fail through its containment path.

        Unlike :meth:`crash` (``os._exit``, nothing flushed), the
        worker raises inside its command loop, so the error reply
        carries its buffered trace spans back before the pool tears
        down.
        """
        self._conns[rank].send(("raise",))
        try:
            self._recv(rank)  # error reply: spans ingested, then raises
        except ProcPoolError:
            self._teardown()
            raise

    # -- lifecycle --

    def close(self) -> None:
        """Orderly shutdown: drain workers, join, unlink segments.

        Idempotent; also safe after a failure already tore the pool
        down.
        """
        if self._closed:
            self.blocks.unlink()  # double-close/unlink stays a no-op
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("close",))
            except OSError:
                pass
        self._join_and_unlink(grace=5.0)

    def _teardown(self) -> None:
        """Failure-path shutdown: terminate everything, unlink segments."""
        self._closed = True
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        self._join_and_unlink(grace=5.0)

    def _join_and_unlink(self, grace: float) -> None:
        for proc in self._procs:
            proc.join(timeout=grace)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=grace)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        self.blocks.unlink()
