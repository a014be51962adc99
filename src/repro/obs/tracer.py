"""Low-overhead wall-clock span tracer.

One process-wide ring buffer of finished events, fed by ``with
span(...)`` context managers stamped from ``time.monotonic_ns()``
(CLOCK_MONOTONIC — one clock domain shared by every process on the
host, so per-rank worker timestamps merge onto a single timeline
without skew correction).

Off by default. Tracing turns on via the ``REPRO_TRACE`` environment
variable (checked at import), ``namelist.trace``, or :func:`enable`.
While disabled the hot path allocates nothing: :func:`span` returns a
shared no-op context-manager singleton before touching any argument,
so instrumented code pays one function call, one attribute read, and
one identity test per span. Call sites that want to attach attributes
use the returned span::

    with span("transport", rank=rank) as sp:
        do_work()
        if sp is not None:          # tracing is on
            sp.set(bytes=nbytes, flops=nflops)

so attribute dicts are only built when tracing is live.

Thread-safety: events land in a ``collections.deque`` (appends are
atomic under the GIL), each stamped with its recording thread's id;
per-rank batched execution on the model's thread pool needs no extra
locking. Ring buffering (``maxlen``) means a forgotten long trace
degrades to "keeps the newest N events" instead of unbounded memory.

Worker processes (``repro.wrf.procpool``) record into their own copy
of this module (inherited via fork, re-armed by
:func:`configure_worker`) and ship finished events to the driver with
every command reply; see :func:`drain_state` / :func:`ingest`.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from typing import Iterable

#: Environment switch: any non-empty value turns tracing on at import.
ENABLE_ENV = "REPRO_TRACE"

#: Environment override for the ring-buffer capacity (events).
CAPACITY_ENV = "REPRO_TRACE_CAPACITY"

#: Default ring-buffer capacity (events). At ~10 spans per model step
#: per rank this holds hours of tracing; the ring drops oldest first.
DEFAULT_CAPACITY = 65536

#: Rank recorded for events not owned by any model rank (driver-side
#: orchestration: halo copies in serial mode, history I/O, JIT builds).
DRIVER_RANK = -1

#: The recording process, stamped on every event (refreshed in forked
#: children, which would otherwise stamp their parent's).
_pid = os.getpid()


def _refresh_pid() -> None:
    global _pid
    _pid = os.getpid()


os.register_at_fork(after_in_child=_refresh_pid)


def _env_capacity() -> int:
    raw = os.environ.get(CAPACITY_ENV, "")
    try:
        n = int(raw) if raw else DEFAULT_CAPACITY
    except ValueError:
        return DEFAULT_CAPACITY
    return max(1, n)


class Event:
    """One finished trace event.

    ``ph`` follows the Chrome ``trace_event`` phase vocabulary for the
    subset we record: ``"X"`` complete span (``ts``/``dur`` in ns),
    ``"C"`` counter (``attrs`` holds the series values), ``"I"``
    instant.
    """

    __slots__ = ("name", "cat", "ph", "rank", "tid", "ts", "dur", "attrs", "pid")

    def __init__(
        self,
        name: str,
        cat: str,
        ph: str,
        rank: int,
        tid: int,
        ts: int,
        dur: int,
        attrs: dict | None,
        pid: int = 0,
    ):
        self.name = name
        self.cat = cat
        self.ph = ph
        self.rank = rank
        self.tid = tid
        self.ts = ts
        self.dur = dur
        self.attrs = attrs
        #: The recording process. ``tid`` is a thread ident, unique only
        #: within one process: a forked worker's main thread can carry
        #: the driver's.
        self.pid = pid

    def to_tuple(self) -> tuple:
        """Pickle-friendly form for shipping over the procpool pipes."""
        return (
            self.name, self.cat, self.ph, self.rank,
            self.tid, self.ts, self.dur, self.attrs, self.pid,
        )

    @classmethod
    def from_tuple(cls, t: tuple) -> "Event":
        return cls(*t)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Event({self.name!r}, ph={self.ph}, rank={self.rank}, "
            f"ts={self.ts}, dur={self.dur})"
        )


class _NoopSpan:
    """The disabled-path context manager: a shared, stateless singleton."""

    __slots__ = ()

    def __enter__(self):
        return None  # `as sp` binds None => call sites skip attribute work

    def __exit__(self, exc_type, exc, tb):
        return False


_NOOP_SPAN = _NoopSpan()


class _Span:
    """A live span: stamps entry/exit and appends the finished event."""

    __slots__ = ("name", "cat", "rank", "attrs", "_ts")

    def __init__(self, name: str, cat: str, rank: int, attrs: dict | None):
        self.name = name
        self.cat = cat
        self.rank = rank
        self.attrs = attrs
        self._ts = 0

    def set(self, **attrs) -> None:
        """Attach (or update) attributes on the span."""
        if self.attrs is None:
            self.attrs = attrs
        else:
            self.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        self._ts = time.monotonic_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        ts = self._ts
        _events.append(
            Event(
                self.name,
                self.cat,
                "X",
                self.rank,
                threading.get_ident(),
                ts,
                time.monotonic_ns() - ts,
                self.attrs,
                _pid,
            )
        )
        return False


class _RankScope:
    """Sets the thread-local rank spans default to inside the block."""

    __slots__ = ("rank", "_prev")

    def __init__(self, rank: int):
        self.rank = rank
        self._prev = None

    def __enter__(self) -> "_RankScope":
        self._prev = getattr(_tls, "rank", None)
        _tls.rank = self.rank
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._prev is None:
            del _tls.rank
        else:
            _tls.rank = self._prev
        return False


# --- module state ------------------------------------------------------------

_enabled: bool = bool(os.environ.get(ENABLE_ENV, ""))
_default_rank: int = DRIVER_RANK
_events: deque = deque(maxlen=_env_capacity())
_tls = threading.local()


def enabled() -> bool:
    """Whether spans are currently being recorded."""
    return _enabled


def enable() -> None:
    """Turn tracing on (idempotent)."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn tracing off (idempotent; buffered events stay drainable)."""
    global _enabled
    _enabled = False


def configure(
    enabled: bool | None = None,
    rank: int | None = None,
    capacity: int | None = None,
    clear: bool = False,
) -> None:
    """Adjust tracer state in one call (tests, CLI, worker startup)."""
    global _enabled, _default_rank, _events
    if capacity is not None and capacity != _events.maxlen:
        _events = deque(_events, maxlen=max(1, capacity))
    if clear:
        _events.clear()
    if rank is not None:
        _default_rank = rank
    if enabled is not None:
        _enabled = enabled


def configure_worker(rank: int, trace: bool | None = None) -> None:
    """Re-arm the tracer inside a freshly started rank worker.

    Fork inherits the driver's buffered events — cleared here so the
    worker ships only its own spans — and ``spawn`` workers start with
    a fresh module where only ``REPRO_TRACE`` survives, so the
    namelist's ``trace`` flag is applied explicitly.
    """
    configure(rank=rank, clear=True)
    if trace:
        enable()


def default_rank() -> int:
    """The rank stamped on spans that don't pass one explicitly."""
    return _default_rank


def current_rank() -> int:
    """The rank spans record right now (thread scope, else default)."""
    rank = getattr(_tls, "rank", None)
    return _default_rank if rank is None else rank


def rank_scope(rank: int):
    """Attribute spans recorded in this thread's block to ``rank``.

    Used by the model's serial/thread rank batching so instrumented
    code deeper in the per-rank stages (the FSBM physics) needn't
    thread a rank argument through; worker processes instead set the
    module default via :func:`configure_worker`. No-op while disabled.
    """
    if not _enabled:
        return _NOOP_SPAN
    return _RankScope(rank)


def span(
    name: str,
    rank: int | None = None,
    cat: str = "model",
    attrs: dict | None = None,
):
    """A context manager timing the enclosed block (no-op when disabled).

    The disabled path allocates nothing and returns a shared singleton
    whose ``__enter__`` yields ``None`` — so ``with span(...) as sp:``
    call sites can guard attribute construction on ``sp is not None``.
    """
    if not _enabled:
        return _NOOP_SPAN
    if rank is None:
        rank = getattr(_tls, "rank", None)
        if rank is None:
            rank = _default_rank
    return _Span(name, cat, rank, attrs)


def instant(
    name: str,
    rank: int | None = None,
    cat: str = "model",
    attrs: dict | None = None,
) -> None:
    """Record a zero-duration marker event."""
    if not _enabled:
        return
    _events.append(
        Event(
            name,
            cat,
            "I",
            current_rank() if rank is None else rank,
            threading.get_ident(),
            time.monotonic_ns(),
            0,
            attrs,
            _pid,
        )
    )


def counter(name: str, values: dict, rank: int | None = None) -> None:
    """Record a counter sample (one Perfetto counter track per name).

    ``values`` maps series name to a number, e.g.
    ``counter("cache/fsbm.pair_split", {"hits": 10, "misses": 2})``.
    """
    if not _enabled:
        return
    _events.append(
        Event(
            name,
            "counter",
            "C",
            current_rank() if rank is None else rank,
            threading.get_ident(),
            time.monotonic_ns(),
            0,
            dict(values),
            _pid,
        )
    )


def events() -> list[Event]:
    """A snapshot of the buffered events (oldest first), not drained."""
    return list(_events)


def drain() -> list[Event]:
    """Remove and return every buffered event (oldest first)."""
    out = []
    try:
        while True:
            out.append(_events.popleft())
    except IndexError:
        pass
    return out


def clear() -> None:
    """Drop all buffered events."""
    _events.clear()


def drain_state() -> list[tuple]:
    """Drain as pickle-friendly tuples (worker -> driver shipping)."""
    return [e.to_tuple() for e in drain()]


def ingest(state: Iterable[tuple]) -> int:
    """Adopt events shipped from another process; returns the count.

    Timestamps are CLOCK_MONOTONIC, shared across processes on the
    host, so ingested events interleave correctly with local ones.
    """
    n = 0
    for t in state:
        _events.append(Event.from_tuple(t))
        n += 1
    return n
