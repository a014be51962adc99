"""True multiprocess rank execution over shared rank blocks.

The in-process rank threads of :mod:`repro.wrf.model` time-slice one
interpreter: numpy releases the GIL in the hot kernels, but the pure-
Python glue between them serializes, so host wall-clock barely improves
past two ranks. This module promotes ranks to real OS processes:

* each rank's storage is an anonymous shared mapping
  (``mmap.mmap(-1, nbytes)``: ``MAP_SHARED | MAP_ANONYMOUS``,
  zero-filled) that the pool creates before it forks — one float64
  array per rank holding its member-stacked planar state block
  ``(members, ni, 3, nk, nj)`` and its bins block ``(members, ni, nk,
  nj, nbins)`` one after the other (:func:`repro.wrf.state.rank_blocks`),
  registered with the ``"wrf.shared_superblocks"``
  :class:`~repro.core.cache.CountingCache` so its footprint is
  observable like every other pinned buffer, and beside it, made the
  same way, the rank's ``(members, ni, nk, nj)`` uint8 occupancy
  field. The workers inherit every rank's blocks and field through
  fork (``Process(args=...)``, which the fork context does not
  pickle): nothing has a name, nothing is attached or
  unlinked, no resource-tracker process runs, and the kernel frees the
  pages when the last process that maps them exits — a killed process
  group strands nothing;
* one domain-wide output frame (``T``, ``QVAPOR``, ``W``,
  ``QCLOUD_TOTAL``, ``RAINNC``; :func:`repro.wrf.model.output_frame`)
  is mapped the same way. The ``gather`` command makes each worker
  write one member's owned cells into it
  (:func:`repro.wrf.model.rank_output_frame`, as in-process ranks do),
  and the replies carry no arrays. The frame is the only shared memory
  the driver reads: it never touches a rank's blocks, whose pages it
  would otherwise fault in;
* each rank is a persistent worker process (forked before any
  heavyweight driver state exists) that builds and owns its rank's
  state: its fields bound directly into its blocks, FSBM drivers, and
  authoritative clocks (one :class:`~repro.core.clock.SimClock` per
  member). It steps all its members in lockstep with its peers;
* the per-step halo exchange is the pull half of the
  :class:`~repro.grid.halo.HaloExchangePlan` executed as direct strided
  copies between neighboring ranks' shared blocks and occupancy fields
  — no serialization,
  no driver round-trip — barriered before (all owners done with
  physics) and after (all halos filled);
* the driver talks to workers over one command pipe per rank
  (``step`` / ``charge_io`` / ``gather`` / ``close``; ``charge_io``
  and ``gather`` name a member) and mirrors each worker's clock totals
  wholesale after every command, so scheduler charges, profilers, and
  history I/O see simulated time bit-identical to in-process ranks.
  The driver builds no rank state of its own: it keeps the mirror
  clocks, the schedulers and the halo plan, and reads fields from the
  output frame that ``gather`` fills.

Bit-exactness: workers run the *same* module-level per-rank stage
functions as in-process ranks (physics, halo exchange, halo-MPI
charging, transport), in the same per-rank order, against
deterministically reconstructed cost models — so both the numerics and
every per-clock float accumulation sequence are identical across
execution modes.

Fork safety: workers are always forked. No compiled kernel starts a
thread (:func:`repro.codee.transform.plan_host`, built with
``-fopenmp-simd``), so a parent process that has already stepped
in-process ranks holds no OpenMP thread pool a child could deadlock
on.

Failure containment: any worker crash, timeout, or protocol error
tears down the whole pool — remaining workers are terminated and
joined, and the driver drops its mappings — before
:class:`~repro.errors.ProcPoolError` reaches the caller.
"""

from __future__ import annotations

import math
import mmap
import os
import time
import traceback
from contextlib import ExitStack
from multiprocessing import get_context
from threading import BrokenBarrierError

import numpy as np

from repro.core.cache import get_cache
from repro.core.clock import SimClock, TimeBucket
from repro.errors import ConfigurationError, ProcPoolError
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
    RankBlocks,
    build_rank_state,
    charge_halos_rank,
    cost_models,
    exchange_halos_rank,
    output_frame,
    physics_rank,
    rank_halo,
    rank_output_frame,
    transport_rank,
)
from repro.wrf.namelist import Namelist
from repro.wrf.state import rank_blocks

#: Default seconds a pool waits on a worker reply or a halo barrier
#: before declaring the step dead (``REPRO_PROCPOOL_TIMEOUT`` overrides).
DEFAULT_TIMEOUT = 120.0

#: Cache registering the live shared blocks (value = the block, so
#: ``cache_stats()`` reports the pool's shared footprint in bytes).
SEGMENT_CACHE = "wrf.shared_superblocks"


def _pool_timeout() -> float:
    """``REPRO_PROCPOOL_TIMEOUT`` in seconds, or :data:`DEFAULT_TIMEOUT`.

    Anything but a finite positive number is refused: a typo must not
    quietly become the default, ``nan`` would make every deadline test
    false (a hung worker waited on forever), and zero or less would
    fail every start-up as unresponsive.
    """
    raw = os.environ.get("REPRO_PROCPOOL_TIMEOUT", "")
    if not raw:
        return DEFAULT_TIMEOUT
    try:
        seconds = float(raw)
    except ValueError:
        seconds = math.nan
    if not (math.isfinite(seconds) and seconds > 0.0):
        raise ConfigurationError(
            f"REPRO_PROCPOOL_TIMEOUT={raw!r}: expected a finite positive "
            "number of seconds"
        )
    return seconds


def leaked_segments() -> list[str]:
    """Always empty: the blocks are anonymous, so none can outlive the
    processes that map them (kept for the benchmark's post-run check)."""
    return []


def _shared_array(shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """A zero-filled array in its own anonymous shared mapping.

    The array views an ``mmap.mmap(-1, nbytes)`` and keeps it alive;
    processes forked afterwards share the pages, and each process
    unmaps them when its last view goes (or it exits).
    """
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    return np.ndarray(shape, dtype=dtype, buffer=mmap.mmap(-1, nbytes))


def _preload_compiled() -> None:
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

    ``blocks`` holds every rank's shared state and bins blocks and
    occupancy field (:class:`~repro.wrf.model.RankBlocks`), inherited
    through fork; this rank's state lives in ``blocks[rank]``, all
    members step together through the shared stage functions, and the
    gather/charge commands name one member. ``frame`` is the pool's
    shared domain-wide output frame, into which ``gather`` writes this
    rank's owned cells.
    """

    def __init__(
        self,
        rank: int,
        namelist: Namelist,
        decomposition: Decomposition,
        blocks: list[RankBlocks],
        frame: dict[str, np.ndarray],
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
        self.frame = frame
        self.state = build_rank_state(
            namelist,
            rank,
            decomposition.patches[rank],
            blocks[rank],
            self.clocks,
            self.cpu_cost,
        )
        # The pull-model exchange reads neighbors' owned boxes directly.
        self.halo = rank_halo(self.plan, rank, blocks, self.state.scalar_bits)

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
            exchange_halos_rank(self.halo)
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

    def gather(self, member: int) -> None:
        """Write one member's owned cells into the shared frame."""
        rank_output_frame(self.state, member, self.frame)


def _worker_main(
    rank: int,
    namelist: Namelist,
    decomposition: Decomposition,
    blocks: list[RankBlocks],
    frame: dict[str, np.ndarray],
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
    try:
        ctx = _RankContext(
            rank, namelist, decomposition, blocks, frame, barrier, timeout,
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
    ``namelist.use_process_ranks`` holds (CPU stages only). The shared
    blocks are mapped and the workers forked at construction, so workers
    start lean and inherit the blocks, the preloaded compiled kernels
    and the lookup tables. ``blocks`` keeps the driver's view of each
    rank's storage (the footprint: its state and bins blocks, one
    mapping per rank) and ``occupancy`` of its occupancy field, and
    ``frame`` the shared output frame, until the workers are joined.
    The driver reads only ``frame``.
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
        _preload_compiled()
        # Per rank, its storage (both blocks) and, beside it, its
        # occupancy field.
        nm = namelist.members
        self.blocks = []
        self.occupancy = []
        rank_views = []
        for patch in decomposition.patches:
            storage, state, bins = rank_blocks(nm, patch.shape, _shared_array)
            occupancy = _shared_array((nm, *patch.shape), np.uint8)
            self.blocks.append(storage)
            self.occupancy.append(occupancy)
            rank_views.append(RankBlocks(state, bins, occupancy))
        # One member's domain-wide output frame, which ``gather`` fills.
        self.frame = output_frame(namelist.domain, _shared_array)
        cache = get_cache(SEGMENT_CACHE, sizeof=lambda block: block.nbytes)
        for rank, block in enumerate(self.blocks):
            cache.get_or_build((id(self), rank), lambda b=block: b)
        ctx = get_context("fork")
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
                        rank_views,
                        self.frame,
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
        tears the whole pool down (workers terminated and joined,
        blocks released) before the :class:`ProcPoolError` propagates.
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

    def gather(self, member: int = 0) -> dict[str, np.ndarray]:
        """Fill the shared frame with one member's output; return it.

        Every worker writes its owned cells and replies without arrays.
        The frame is the pool's: the next ``gather`` overwrites it.
        """
        self._command([("gather", member)] * self.num_ranks)
        return self.frame

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
        """Orderly shutdown: drain workers, join, release the blocks.

        Idempotent; also safe after a failure already tore the pool
        down.
        """
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("close",))
            except OSError:
                pass
        self._join_and_release(grace=5.0)

    def _teardown(self) -> None:
        """Failure-path shutdown: terminate everything, release blocks."""
        self._closed = True
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        self._join_and_release(grace=5.0)

    def _join_and_release(self, grace: float) -> None:
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
        # The workers are gone; dropping the driver's views unmaps the
        # blocks here, which frees them.
        cache = get_cache(SEGMENT_CACHE)
        for rank in range(len(self.blocks)):
            cache.discard((id(self), rank))
        self.blocks = []
        self.occupancy = []
        self.frame = {}
