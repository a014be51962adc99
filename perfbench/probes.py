"""Per-layer probes for the traced run, and the self-time analysis.

The probes wrap the public entry points of each physics layer from the
outside: the module attribute the caller looks up is replaced with a
wrapper that records a :mod:`repro.obs.tracer` span (name ``bench.*``)
around the call, carrying the call's work counts. Because the records
are ordinary tracer spans, process-rank workers forked after
:func:`installed` ship them back to the driver with their own
``physics``/``transport``/``halo_exchange`` spans. Under a start method
other than ``fork`` the workers never see the wrappers; their
sub-physics layers then read 0, while the spans ``repro.obs`` records
itself still arrive (the manifest names the start method).
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager

#: Span name -> layer. Anything else inside a step counts as "other".
LAYER_OF = {
    "bench.coal": "coal",
    "bench.cond": "cond",
    "bench.nucl": "nucl",
    "bench.freeze": "freeze",
    "bench.sed": "sed",
    "physics": "physics",
    "pack": "pack",
    "transport": "transport",
    "advect_euler": "advect",
    "advect_rk3": "advect",
    "advect_euler_members": "advect",
    "advect_rk3_members": "advect",
    "halo_exchange": "halo",
    "history_io": "history",
    "bench.pool_step": "procpool",
    "bench.step": "step",
    "solve_em": "step",
}

#: Layers in the order the self-time table lists them.
TABLE_ORDER = (
    "physics", "nucl", "cond", "freeze", "coal", "sed", "pack", "halo",
    "transport", "advect", "history", "imbalance", "procpool", "other",
    "unattributed",
)


def _total(out, attr: str) -> float:
    """One stats attribute, summed when the call returns a member list."""
    if isinstance(out, list):
        return float(sum(getattr(s, attr) for s in out))
    return float(getattr(out, attr))


def _coal_attrs(args, out) -> dict:
    return dict(
        points=len(args[1]),
        pair_entries=_total(out, "pair_entries"),
        flops=_total(out, "flops"),
        members=isinstance(out, list),
    )


def _cond_attrs(args, out) -> dict:
    return dict(points=_total(out, "points"))


def _sed_attrs(args, out) -> dict:
    return dict(
        cell_bins=_total(out, "cell_bins"),
        bytes=_total(out, "bytes_moved"),
    )


#: (module, attribute, span name, attrs from (args, result)). Entries
#: naming a class method give ``Class.method`` as the attribute.
PROBES = (
    ("repro.fsbm.fast_sbm", "coal_bott_step", "bench.coal", _coal_attrs),
    ("repro.fsbm.fast_sbm", "coal_bott_step_members", "bench.coal", _coal_attrs),
    ("repro.fsbm.fast_sbm", "onecond1", "bench.cond", _cond_attrs),
    ("repro.fsbm.fast_sbm", "onecond2", "bench.cond", _cond_attrs),
    ("repro.fsbm.fast_sbm", "onecond1_members", "bench.cond", _cond_attrs),
    ("repro.fsbm.fast_sbm", "onecond2_members", "bench.cond", _cond_attrs),
    ("repro.fsbm.fast_sbm", "jernucl01_ks", "bench.nucl", None),
    ("repro.fsbm.fast_sbm", "freezing_melting_step", "bench.freeze", None),
    ("repro.fsbm.fast_sbm", "sedimentation_step", "bench.sed", _sed_attrs),
    ("repro.fsbm.fast_sbm", "sedimentation_step_members", "bench.sed", _sed_attrs),
    ("repro.wrf.model", "build_rank_fields", "bench.case", None),
    ("repro.wrf.procpool", "build_rank_fields", "bench.case", None),
    ("repro.wrf.ensemble", "build_rank_fields", "bench.case", None),
    ("repro.wrf.procpool", "ProcRankPool.step", "bench.pool_step", None),
    ("repro.wrf.procpool", "ProcRankPool.__init__", "bench.pool_start", None),
)


def _wrap(fn, name: str, attrs_fn):
    from repro.obs import tracer

    @functools.wraps(fn)
    def probe(*args, **kwargs):
        with tracer.span(name, cat="perfbench") as sp:
            out = fn(*args, **kwargs)
            if sp is not None and attrs_fn is not None:
                sp.set(**attrs_fn(args, out))
        return out

    return probe


@contextmanager
def installed():
    """Install every probe; restore the original attributes on exit."""
    saved = []
    try:
        for module_name, attr, span_name, attrs_fn in PROBES:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            saved.append((owner, leaf, original))
            setattr(owner, leaf, _wrap(original, span_name, attrs_fn))
        yield
    finally:
        for owner, leaf, original in reversed(saved):
            setattr(owner, leaf, original)


# --- analysis -----------------------------------------------------------------

#: Layers a rank's worker (or an in-process rank) spends its step in.
RANK_TOP = ("physics", "pack", "halo", "transport")


def _lane(ev, procs: bool):
    # Forked workers keep the driver's main-thread ident, so worker
    # spans are told apart by rank; in-process ranks share the driver's
    # thread and nest under its step spans.
    if procs and ev.rank >= 0:
        return ("rank", ev.rank)
    return ("tid", ev.tid)


def self_times(spans, procs: bool) -> dict[int, float]:
    """Self time [ns] of every complete span, keyed by ``id(span)``.

    A span's self time is its duration minus the part its direct
    children cover; children are the spans of the same lane that start
    inside it.
    """
    lanes: dict = {}
    for ev in spans:
        lanes.setdefault(_lane(ev, procs), []).append(ev)
    out: dict[int, float] = {}
    for lane in lanes.values():
        lane.sort(key=lambda e: (e.ts, -e.dur))
        stack: list = []
        child_ns: dict[int, float] = {}
        for ev in lane:
            while stack and stack[-1].ts + stack[-1].dur <= ev.ts:
                stack.pop()
            if stack:
                parent = id(stack[-1])
                child_ns[parent] = child_ns.get(parent, 0.0) + ev.dur
            stack.append(ev)
        for ev in lane:
            out[id(ev)] = ev.dur - child_ns.get(id(ev), 0.0)
    return out


def _attr(ev, key: str, default=0.0):
    return (ev.attrs or {}).get(key, default)


def setup_totals(events) -> dict[str, float]:
    """Set-up layer figures from the events recorded up to step 1's end."""
    out = {"cjit_load_ns": 0.0, "cjit_compiles": 0, "case_ns": 0.0,
           "pool_start_ns": 0.0}
    for ev in events:
        if ev.ph != "X":
            continue
        if ev.name == "cjit.load":
            out["cjit_load_ns"] += ev.dur
        elif ev.name == "cjit.compile":
            out["cjit_compiles"] += 1
        elif ev.name == "bench.case":
            out["case_ns"] += ev.dur
        elif ev.name == "bench.pool_start":
            out["pool_start_ns"] += ev.dur
    return out


def step_totals(events, num_ranks: int, procs: bool, halo_segments: int) -> dict:
    """Per-layer totals over the timed steps of one traced forecast.

    Each timed step is a driver-side ``bench.step`` span; every span
    starting inside it belongs to that step. Times are in ns, summed
    over steps and averaged over ranks; counts are domain totals summed
    over steps. ``self.<layer>`` rows add up to the summed step wall.
    """
    spans = [e for e in events if e.ph == "X"]
    selfs = self_times(spans, procs)
    steps = sorted((e for e in spans if e.name == "bench.step"), key=lambda e: e.ts)
    t: dict[str, float] = {"steps": len(steps), "wall_ns": 0.0}

    def add(key: str, value: float) -> None:
        t[key] = t.get(key, 0.0) + value

    for st in steps:
        lo, hi = st.ts, st.ts + st.dur
        inside = [e for e in spans if lo <= e.ts < hi and e is not st]
        add("wall_ns", st.dur)
        attributed = 0.0
        for ev in inside:
            layer = LAYER_OF.get(ev.name, "other")
            if layer == "step":
                continue
            on_worker = procs and ev.rank >= 0
            share = 1.0 / num_ranks if on_worker else 1.0
            add(f"busy.{layer}", ev.dur * share)
            if not on_worker:
                attributed += selfs[id(ev)]
            if ev.name == "bench.pool_step":
                # The driver waits out the slowest worker: split the
                # wait into mean worker time, imbalance and sync.
                busy = rank_busy_of(inside, num_ranks)
                slowest, mean = max(busy), sum(busy) / num_ranks
                add("self.procpool", ev.dur - slowest)
                add("self.imbalance", slowest - mean)
                add("procpool.imbalance_ratio", slowest / mean if mean else 1.0)
            else:
                add(f"self.{layer}", selfs[id(ev)] * share)
            if ev.name == "bench.coal":
                add("coal.points", _attr(ev, "points"))
                add("coal.pair_entries", _attr(ev, "pair_entries"))
                add("coal.flops", _attr(ev, "flops"))
                if _attr(ev, "members", False):
                    add("members.coal_ns", ev.dur * share)
            elif ev.name == "bench.cond":
                add("cond.points", _attr(ev, "points"))
            elif ev.name == "bench.sed":
                add("sed.cell_bins", _attr(ev, "cell_bins"))
                add("sed.bytes", _attr(ev, "bytes"))
            elif ev.name == "physics":
                add("physics.mp_points", _attr(ev, "mp_points"))
                if _attr(ev, "members", 0):
                    add("members.physics_ns", ev.dur * share)
            elif ev.name == "transport":
                add("transport.bytes", _attr(ev, "bytes"))
                if _attr(ev, "members", 0):
                    add("members.transport_ns", ev.dur * share)
            elif ev.name == "halo_exchange":
                add("halo.bytes", _attr(ev, "bytes"))
            elif ev.name == "history_io":
                add("history.bytes", _attr(ev, "bytes"))
        add("halo.segments", halo_segments)
        add("self.unattributed", st.dur - attributed)
    return t


def rank_busy_of(spans, num_ranks: int) -> list[float]:
    """Each worker rank's time in its top-level layers [ns]."""
    busy = [0.0] * num_ranks
    for ev in spans:
        if 0 <= ev.rank < num_ranks and LAYER_OF.get(ev.name) in RANK_TOP:
            busy[ev.rank] += ev.dur
    return busy


def counter_deltas(before, after) -> dict[str, list[int]]:
    """Cache ``[hits, misses]`` gained between two event batches, summed
    over ranks, from the per-step ``cache/<name>`` counters workers emit."""

    def last(events) -> dict:
        seen = {}
        for ev in events:
            if ev.ph == "C" and ev.name.startswith("cache/"):
                seen[(ev.rank, ev.name[len("cache/"):])] = ev.attrs
        return seen

    base = last(before)
    out: dict[str, list[int]] = {}
    for key, vals in last(after).items():
        b = base.get(key, {"hits": 0, "misses": 0})
        hits, misses = out.get(key[1], [0, 0])
        out[key[1]] = [
            hits + vals["hits"] - b["hits"],
            misses + vals["misses"] - b["misses"],
        ]
    return out
