"""Wall-clock benchmark harness for the repo's *executed* hot paths.

Everything else under ``benchmarks/`` times the paper's *simulated*
seconds (Tables III-V etc.); this module times the real Python/numpy
kernels the reproduction itself spends wall-clock in, so the repo's own
performance is checkable:

* ``coal_bott`` — one :func:`repro.fsbm.coal_bott.coal_bott_step` call
  on a realistic mixed-phase state (the repo's hot loop, mirroring the
  paper's ``coal_bott_new``);
* ``model_step_rN`` — one full :meth:`repro.wrf.model.WrfModel.step`
  of a plain (one-member) run at N ranks (physics + halo exchange +
  transport);
* ``model_step_multirank`` — the same full step with ranks as real
  worker processes (``use_process_ranks``: shared-memory superblocks,
  pull-model halo exchange), at a fixed 2-worker workload so quick and
  full gate runs compare like with like;
* ``rank_scaling_wN`` — the strong-scaling sweep of the multiprocess
  engine (``repro bench --workers N ...``), informational: fixed
  CONUS-like domain split across 1/2/4/8 workers with ``cpu_count``
  and ``speedup_vs_w1`` recorded per entry;
* ``model_step_membersN`` / ``transport_membersN`` — the member axis:
  N perturbed scenarios stepped in one fused sweep over a
  ``(N, ni, nk, nj, nscalar)`` superblock, compared against N
  separate one-member runs (``per_member_ms``, ``speedup_vs_solo`` in
  the extras). ``model_step_members4`` and ``transport_members4`` are
  gated; ``repro bench --members N`` adds informational sweep entries
  at other member counts;
* ``transport_fused`` / ``transport_per_field`` — the scalar-advection
  engine in isolation on a fixed-size 234-scalar superblock: the
  model's one-member path (the fused kernel on the resident block)
  against the per-field reference loop, at the same shape in quick and
  full mode so the numbers stay comparable;
* ``sedimentation`` / ``cond_remap`` — the native physics layer: the
  fused compiled sedimentation sweep and the compiled condensation
  KO-remap scatter, each at fixed workload shapes in quick
  and full mode. (``coal_bott`` runs the compiled collision kernel
  whenever the physics kernels load.)

Since PR 6 the compiled transport stencil and fsbm kernels are emitted
from the loop IR (``repro.codee.loopir`` → ``cgen``) rather than
handwritten; ``transport_fused``, ``sedimentation`` and ``cond_remap``
therefore gate the IR-emitted C, and their payload ``extra`` records
the generating IR kernel (``ir_kernel``) and whether it is registered.
Gate them individually with ``scripts/bench_gate.py --kernel
transport_fused --kernel sedimentation``.

``collect`` produces a JSON-serializable payload with per-kernel median
seconds and work stats; ``compare_payloads`` implements the regression
gate used by ``scripts/bench_gate.py`` and ``repro bench --gate``.

Usage::

    PYTHONPATH=src python -m repro bench --quick          # smoke run
    PYTHONPATH=src python -m repro bench --rev seed       # write BENCH_seed.json
    PYTHONPATH=src python -m repro bench --gate           # compare vs baseline

Baselines are committed at the repo root as ``BENCH_<rev>.json``;
``BENCH_seed.json`` is the pre-optimization state and stays fixed, the
newest ``BENCH_<rev>.json`` is the gate's reference. Refresh a baseline
by re-running ``repro bench`` on a quiet machine and committing the new
file.
"""

from __future__ import annotations

import json
import os
import socket
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Kernels the regression gate tracks (others are informational).
TRACKED_KERNELS = (
    "coal_bott",
    "model_step_r1",
    "model_step_r4",
    "model_step_multirank",
    "model_step_members4",
    "transport_fused",
    "transport_members4",
    "sedimentation",
    "cond_remap",
)

#: Relative slowdown above which the gate fails (0.15 == 15%).
DEFAULT_THRESHOLD = 0.15

#: Schema version of the BENCH_*.json payload.
SCHEMA = 1

REPO_ROOT = Path(__file__).resolve().parents[1]


@dataclass
class KernelBench:
    """Timing result for one benchmarked kernel."""

    name: str
    median_s: float
    mean_s: float
    min_s: float
    max_s: float
    reps: int
    #: Work stats / configuration details carried into the JSON.
    extra: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "median_s": self.median_s,
            "mean_s": self.mean_s,
            "min_s": self.min_s,
            "max_s": self.max_s,
            "reps": self.reps,
            "extra": self.extra,
        }


def _summarize(name: str, samples: list[float], extra: dict) -> KernelBench:
    return KernelBench(
        name=name,
        median_s=statistics.median(samples),
        mean_s=statistics.fmean(samples),
        min_s=min(samples),
        max_s=max(samples),
        reps=len(samples),
        extra=extra,
    )


def _ir_registered(name: str) -> bool:
    """Whether the loop-IR registry knows this kernel (False on code
    that predates the IR layer, so payloads stay comparable)."""
    try:
        from repro.codee import loopir
    except ImportError:
        return False
    return name in loopir.registered_kernels()


# --- workloads ---------------------------------------------------------------


def make_coal_state(
    npts: int = 1024, nkr: int = 33, seed: int = 2024
) -> tuple[dict, np.ndarray, np.ndarray]:
    """A realistic mixed-phase collision workload.

    Warm points carry liquid across the mid bins; cold points add snow,
    graupel and plate ice so the ice-phase interactions fire too —
    about the bin occupancy a convective CONUS column produces.
    """
    from repro.fsbm.species import Species

    rng = np.random.default_rng(seed)
    dists = {sp: np.zeros((npts, nkr)) for sp in Species}
    dists[Species.LIQUID][:, 3:22] = rng.uniform(0.0, 4.0, (npts, 19))
    cold = np.arange(npts) % 2 == 1
    ncold = int(cold.sum())
    dists[Species.SNOW][cold, 6:20] = rng.uniform(0.0, 1.5, (ncold, 14))
    dists[Species.GRAUPEL][cold, 8:18] = rng.uniform(0.0, 1.0, (ncold, 10))
    dists[Species.ICE_PLA][cold, 4:14] = rng.uniform(0.0, 0.8, (ncold, 10))
    temperature = np.where(cold, 258.0, 283.0) + rng.uniform(-3.0, 3.0, npts)
    pressure_mb = rng.uniform(520.0, 980.0, npts)
    return dists, temperature, pressure_mb


def _occupied_counts(dists: dict) -> dict:
    from repro.fsbm.state import N_EPS

    out = {}
    for sp, d in dists.items():
        present = d > N_EPS
        rev = present[:, ::-1]
        first = np.argmax(rev, axis=1)
        out[sp] = np.where(present.any(axis=1), d.shape[1] - first, 0)
    return out


def bench_coal_bott(
    npts: int = 1024,
    reps: int = 7,
    dt: float = 5.0,
    seed: int = 2024,
) -> KernelBench:
    """Time one collision step on the engine the model runs."""
    from repro.fsbm.coal_bott import coal_bott_step
    from repro.fsbm.collision_kernels import get_tables
    from repro.fsbm.species import INTERACTIONS

    dists, temperature, pressure_mb = make_coal_state(npts=npts, seed=seed)
    occupied = _occupied_counts(dists)
    tables = get_tables()

    stats_holder = {}

    def run_once() -> float:
        work = {sp: d.copy() for sp, d in dists.items()}
        t0 = time.perf_counter()
        stats = coal_bott_step(
            work, temperature, pressure_mb, dt, tables, INTERACTIONS,
            occupied=occupied, on_demand=True,
        )
        elapsed = time.perf_counter() - t0
        stats_holder["stats"] = stats
        return elapsed

    run_once()  # warmup: builds tables/split caches outside the timing
    samples = [run_once() for _ in range(reps)]
    stats = stats_holder["stats"]
    return _summarize(
        "coal_bott",
        samples,
        extra={
            "npts": npts,
            "pair_entries": stats.pair_entries,
            "kernel_entries": stats.kernel_entries,
            "interactions_used": stats.interactions_used,
            "flops": stats.flops,
        },
    )


def bench_model_step(
    num_ranks: int,
    scale: float = 0.08,
    reps: int = 5,
    seed: int = 2024,
) -> KernelBench:
    """Time full ``WrfModel.step`` calls at one rank count.

    One warmup step builds all lazy tables; each subsequent step is one
    timing sample (the state evolves, but per-step cost is stable at
    these sizes).
    """
    from repro.optim.stages import Stage
    from repro.wrf.model import WrfModel
    from repro.wrf.namelist import conus12km_namelist

    nl = conus12km_namelist(
        scale=scale, num_ranks=num_ranks, stage=Stage.LOOKUP, seed=seed
    )
    model = WrfModel(nl)
    try:
        model.step()  # warmup
        samples = []
        for _ in range(reps):
            t0 = time.perf_counter()
            model.step()
            samples.append(time.perf_counter() - t0)
    finally:
        model.close()
    return _summarize(
        f"model_step_r{num_ranks}",
        samples,
        extra={
            "num_ranks": num_ranks,
            "scale": scale,
            # Always (ni, nk, nj) — DomainSpec has no `extents` attr, and
            # the old hasattr fallback would have emitted a different
            # axis order if one were ever added.
            "grid": [nl.domain.nx, nl.domain.nz, nl.domain.ny],
        },
    )


def bench_model_step_multirank(
    workers: int = 2,
    scale: float = 0.05,
    reps: int = 3,
    seed: int = 2024,
    name: str | None = None,
) -> KernelBench:
    """Time full steps with ranks as real worker processes.

    Exercises the multiprocess rank engine (``use_process_ranks``):
    shared-memory superblocks, pull-model halo exchange, command-pipe
    lockstep. The workload shape and rep count are fixed regardless of
    ``--quick`` so quick and full gate runs compare like with like. On
    code that predates the engine the model falls back to thread
    batching, and ``process_ranks`` in the extras records which path
    actually ran.
    """
    import os

    from repro.optim.stages import Stage
    from repro.wrf.model import WrfModel
    from repro.wrf.namelist import conus12km_namelist

    kw: dict = dict(
        num_ranks=workers, stage=Stage.LOOKUP, seed=seed
    )
    try:
        nl = conus12km_namelist(scale=scale, use_process_ranks=True, **kw)
    except TypeError:  # code predating process ranks: thread fallback
        nl = conus12km_namelist(scale=scale, **kw)

    model = WrfModel(nl)
    used_procs = getattr(model, "_pool", None) is not None
    try:
        model.step()  # warmup: worker startup cost stays out of samples
        samples = []
        for _ in range(reps):
            t0 = time.perf_counter()
            model.step()
            samples.append(time.perf_counter() - t0)
    finally:
        model.close()
    return _summarize(
        name or "model_step_multirank",
        samples,
        extra={
            "workers": workers,
            "scale": scale,
            "grid": [nl.domain.nx, nl.domain.nz, nl.domain.ny],
            "process_ranks": used_procs,
            "cpu_count": os.cpu_count(),
        },
    )


def _member_deltas(members: int) -> tuple:
    """Distinct-but-cheap scenario deltas: member 0 is the control run,
    member m>0 perturbs the warm-bubble amplitude and RNG stream so the
    batched sweep sees genuinely divergent states."""
    out = [()]
    for m in range(1, members):
        out.append(
            (("bubble_dtheta", 3.0 + 0.25 * m), ("seed_offset", m))
        )
    return tuple(out)


def bench_model_step_members(
    members: int = 4,
    scale: float = 0.05,
    reps: int = 3,
    seed: int = 2024,
    name: str | None = None,
) -> KernelBench:
    """Time N-member steps against N separate one-member runs.

    One ``EnsembleModel`` holds ``members`` perturbed scenarios in a
    single ``(N, ni, nk, nj, nscalar)`` superblock and steps them in one
    fused sweep; the reference is the same scenarios run one after
    another as ``members=1`` ``WrfModel`` instances. Extras record
    ``per_member_ms`` for both and ``speedup_vs_solo`` (the N-member
    step vs the summed one-member steps) — the amortization the member
    axis buys from shared tables, one transport kernel invocation, and
    one pass over the step machinery. The workload is fixed regardless
    of ``--quick`` so quick and full gate runs compare like with like.
    """
    from repro.optim.stages import Stage
    from repro.wrf.ensemble import EnsembleModel
    from repro.wrf.model import WrfModel
    from repro.wrf.namelist import conus12km_namelist, member_namelist

    nl = conus12km_namelist(
        scale=scale,
        num_ranks=1,
        stage=Stage.LOOKUP,
        seed=seed,
        members=members,
        member_deltas=_member_deltas(members),
    )

    ens = EnsembleModel(nl)
    solos = [WrfModel(member_namelist(nl, m)) for m in range(members)]
    try:
        # Interleave batched and solo reps: on a shared host, frequency
        # and cache state drift over seconds, so timing one path first
        # and the other after biases whichever ran during the quieter
        # window. Alternating reps exposes both paths to the same drift.
        ens.step()  # warmup: tables, compiled kernels, workspaces
        for solo in solos:
            solo.step()
        samples = []
        solo_totals = []
        for _ in range(reps):
            t0 = time.perf_counter()
            ens.step()
            samples.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            for solo in solos:
                solo.step()
            solo_totals.append(time.perf_counter() - t0)
    finally:
        ens.close()
        for solo in solos:
            solo.close()
    solo_total = statistics.median(solo_totals)

    bench = _summarize(name or f"model_step_members{members}", samples, {})
    bench.extra = {
        "members": members,
        "scale": scale,
        "grid": [nl.domain.nx, nl.domain.nz, nl.domain.ny],
        "per_member_ms": bench.median_s / members * 1e3,
        "solo_per_member_ms": solo_total / members * 1e3,
        "solo_total_s": solo_total,
        "speedup_vs_solo": (
            solo_total / bench.median_s
            if bench.median_s > 0
            else float("inf")
        ),
    }
    return bench


def bench_transport_members(
    members: int = 4,
    shape: tuple[int, int, int] = (36, 50, 26),
    reps: int = 5,
    seed: int = 2024,
    name: str | None = None,
) -> KernelBench:
    """Time the advection kernel on a member stack against a member loop.

    One stacked ``(N, ni, nk, nj, nscalar)`` superblock advected by one
    ``fused_euler_advect`` call (the members' rows folded into the
    compiled stencil's row loop) versus the same work issued as ``N``
    one-member calls. Fixed shape regardless of ``--quick``.
    """
    from repro.fsbm.species import Species
    from repro.wrf.dynamics import (
        FLOPS_PER_CELL_TEND,
        FLOPS_PER_CELL_UPDATE,
        WindSplit,
    )
    from repro.wrf.transport import (
        ScalarLayout,
        fused_euler_advect,
        get_workspace,
    )

    nkr = 33
    ni, nk, nj = shape
    rng = np.random.default_rng(seed)
    layout = ScalarLayout(
        entries=(
            ("t", 1),
            ("qv", 1),
            ("w", 1),
            *((f"bin_{sp.value}", nkr) for sp in Species),
        )
    )
    ns = layout.nscalars
    slices = layout.slices()
    block = np.zeros((members, *shape, ns))
    block[..., slices["t"]] = rng.uniform(
        230.0, 300.0, (members, *shape, 1)
    )
    block[..., slices["qv"]] = rng.uniform(
        0.0, 0.02, (members, *shape, 1)
    )
    block[..., slices["w"]] = rng.uniform(
        -8.0, 8.0, (members, *shape, 1)
    )
    for sp in Species:
        block[..., slices[f"bin_{sp.value}"]] = rng.uniform(
            0.0, 2.0, (members, *shape, nkr)
        )
    u = rng.uniform(-20.0, 20.0, (members, *shape))
    v = rng.uniform(-20.0, 20.0, (members, *shape))
    w = np.ascontiguousarray(block[..., slices["w"].start])
    dt = 30.0
    clip_slices = layout.clip_slices(no_clip=("t", "w"))
    split = WindSplit.build(u, v, w, 12000.0, 500.0)
    member_splits = [
        WindSplit.build(u[m : m + 1], v[m : m + 1], w[m : m + 1], 12000.0, 500.0)
        for m in range(members)
    ]
    ws = get_workspace(
        (members, *shape), ns, owner="bench_transport_members"
    )
    member_ws = get_workspace(
        (1, *shape), ns, owner="bench_transport_members_solo"
    )

    batched_block = block.copy()
    solo_block = block.copy()

    def run_batched() -> float:
        t0 = time.perf_counter()
        result = fused_euler_advect(batched_block, split, dt, ws, clip_slices)
        if result is not batched_block:
            batched_block[...] = result
        return time.perf_counter() - t0

    def run_solo() -> float:
        t0 = time.perf_counter()
        for m in range(members):
            one = solo_block[m : m + 1]
            result = fused_euler_advect(
                one, member_splits[m], dt, member_ws, clip_slices
            )
            if result is not one:
                one[...] = result
        return time.perf_counter() - t0

    run_batched()  # warmup: compiled stencil, workspace pools
    run_solo()
    samples = [run_batched() for _ in range(reps)]
    solo_samples = [run_solo() for _ in range(reps)]
    solo_median = statistics.median(solo_samples)

    from repro.wrf.cstencil import load_stencil

    cell_scalars = float(members * ni * nk * nj * ns)
    bench = _summarize(name or f"transport_members{members}", samples, {})
    bench.extra = {
        "members": members,
        "shape": list(shape),
        "nscalars": ns,
        "compiled_stencil": load_stencil() is not None,
        "ir_kernel": "advect_stage",
        "ir_registered": _ir_registered("advect_stage"),
        "per_member_ms": bench.median_s / members * 1e3,
        "solo_per_member_ms": solo_median / members * 1e3,
        "speedup_vs_solo": (
            solo_median / bench.median_s
            if bench.median_s > 0
            else float("inf")
        ),
        "flops": cell_scalars
        * (FLOPS_PER_CELL_TEND + FLOPS_PER_CELL_UPDATE),
        "superblock_bytes": int(cell_scalars * 8),
    }
    return bench


def bench_rank_scaling(
    worker_counts: tuple[int, ...] = (1, 2, 4, 8),
    scale: float = 0.12,
    reps: int = 3,
    seed: int = 2024,
) -> list[KernelBench]:
    """Strong-scaling sweep of the multiprocess rank engine.

    One ``rank_scaling_wN`` entry per worker count at a fixed
    CONUS-like domain (``scale=0.12`` ~ 51x36x50, split across
    workers), so the per-step medians measure strong scaling: same
    global work, more processes. Counts above ``os.cpu_count()``
    deliberately probe the contention regime — every entry records
    ``cpu_count`` and ``speedup_vs_w1`` so the numbers are honest about
    the host they ran on. Informational (not gated): wall-clock scaling
    is host-dependent.
    """
    results = [
        bench_model_step_multirank(
            workers=n,
            scale=scale,
            reps=reps,
            seed=seed,
            name=f"rank_scaling_w{n}",
        )
        for n in worker_counts
    ]
    base = results[0].median_s if results else 0.0
    for r in results:
        r.extra["speedup_vs_w1"] = (
            base / r.median_s if r.median_s > 0 else float("inf")
        )
    return results


def bench_transport(
    mode: str = "fused",
    shape: tuple[int, int, int] = (36, 50, 26),
    reps: int = 5,
    seed: int = 2024,
) -> KernelBench:
    """Time the scalar-transport engine in isolation at a fixed shape.

    ``mode="fused"`` measures what the model's one-member path pays —
    one fused Euler advection of the resident ``(1, ni, nk, nj, 234)``
    superblock and the copy back into it — while ``mode="per_field"``
    measures the reference loop (one ``rk_scalar_tend`` + update per
    field). The shape is fixed regardless of ``--quick`` so quick and
    full runs of the gate compare like with like.
    """
    from repro.fsbm.species import Species
    from repro.wrf.dynamics import (
        FLOPS_PER_CELL_TEND,
        FLOPS_PER_CELL_UPDATE,
        WindSplit,
        rk_scalar_tend,
    )
    from repro.wrf.transport import (
        ScalarLayout,
        fused_euler_advect,
        get_workspace,
    )

    nkr = 33
    ni, nk, nj = shape
    rng = np.random.default_rng(seed)
    layout = ScalarLayout(
        entries=(
            ("t", 1),
            ("qv", 1),
            ("w", 1),
            *((f"bin_{sp.value}", nkr) for sp in Species),
        )
    )
    fields = {
        "t": rng.uniform(230.0, 300.0, shape),
        "qv": rng.uniform(0.0, 0.02, shape),
        "w": rng.uniform(-8.0, 8.0, shape),
    }
    for sp in Species:
        fields[f"bin_{sp.value}"] = rng.uniform(0.0, 2.0, (*shape, nkr))
    u = rng.uniform(-20.0, 20.0, shape)
    v = rng.uniform(-20.0, 20.0, shape)
    split = WindSplit.build(u, v, fields["w"], 12000.0, 500.0)
    # The model's resident layout: a one-member stack of every field.
    block = np.empty((1, *shape, layout.nscalars))
    for name, sl in layout.slices().items():
        block[0, ..., sl] = fields[name].reshape(*shape, -1)
    stacked = WindSplit(
        pos=tuple(p[None] for p in split.pos),
        neg=tuple(n[None] for n in split.neg),
    )
    dt = 30.0
    ws = get_workspace((1, *shape), layout.nscalars, owner="bench_transport")
    clip_slices = layout.clip_slices(no_clip=("t", "w"))

    def run_once() -> float:
        if mode == "fused":
            t0 = time.perf_counter()
            result = fused_euler_advect(block, stacked, dt, ws, clip_slices)
            if result is not block:
                block[...] = result
            return time.perf_counter() - t0
        t0 = time.perf_counter()
        for name, arr in fields.items():
            tend = rk_scalar_tend(arr, split)
            arr += dt * tend
            if name != "t" and name != "w":
                np.maximum(arr, 0.0, out=arr)
        return time.perf_counter() - t0

    run_once()  # warmup: workspace pools, compiled stencil, caches
    samples = [run_once() for _ in range(reps)]
    cell_scalars = float(ni * nk * nj * layout.nscalars)
    from repro.wrf.cstencil import load_stencil

    return _summarize(
        f"transport_{mode}",
        samples,
        extra={
            "shape": list(shape),
            "nscalars": layout.nscalars,
            "mode": mode,
            "compiled_stencil": load_stencil() is not None,
            "ir_kernel": "advect_stage",
            "ir_registered": _ir_registered("advect_stage"),
            # One Euler stage of donor-cell tendency + update.
            "flops": cell_scalars
            * (FLOPS_PER_CELL_TEND + FLOPS_PER_CELL_UPDATE),
            "superblock_bytes": int(cell_scalars * 8),
            "min_traffic_bytes": int(cell_scalars * 8 * 2),  # 1R + 1W
        },
    )


def bench_sedimentation(
    shape: tuple[int, int, int] = (16, 50, 12),
    reps: int = 7,
    dt: float = 5.0,
    seed: int = 2024,
) -> KernelBench:
    """Time one full-state sedimentation step at a fixed shape.

    Every species is seeded so the sweep has no absent-species
    shortcuts; the shape is fixed regardless of ``--quick`` so quick
    and full gate runs compare like with like. Records whether the
    compiled ``sed_sweep`` kernel (vs the numpy fallback) ran.
    """
    from repro.fsbm import ckernels
    from repro.fsbm.sedimentation import sedimentation_step
    from repro.fsbm.species import Species
    from repro.fsbm.state import MicroState
    from repro.wrf.state import base_state_column

    rng = np.random.default_rng(seed)
    state = MicroState(shape=shape)
    nkr = state.nkr
    for sp in Species:
        occ = rng.uniform(size=(*shape, nkr)) > 0.5
        state.dists[sp][...] = np.where(
            occ, rng.uniform(0.0, 2.0, (*shape, nkr)), 0.0
        )
    base = base_state_column(shape[1], 500.0)
    p_levels = base["pressure_mb"]
    dz_cm = 500.0 * 100.0

    stats_holder = {}

    def run_once() -> float:
        work = state.copy()
        t0 = time.perf_counter()
        stats_holder["stats"] = sedimentation_step(work, p_levels, dz_cm, dt)
        return time.perf_counter() - t0

    run_once()  # warmup: courant cache, compiled kernel
    samples = [run_once() for _ in range(reps)]
    stats = stats_holder["stats"]
    return _summarize(
        "sedimentation",
        samples,
        extra={
            "shape": list(shape),
            "nkr": nkr,
            "compiled": ckernels.load_kernels() is not None,
            "ir_kernel": "sed_sweep",
            "ir_registered": _ir_registered("sed_sweep"),
            "cell_bins": stats.cell_bins,
            "flops": stats.flops,
        },
    )


def bench_cond_remap(
    npts: int = 2048,
    reps: int = 7,
    seed: int = 2024,
) -> KernelBench:
    """Time the condensation KO-remap at a fixed point count.

    Perturbs a seeded liquid spectrum by a smooth growth increment and
    times ``_remap_spectrum`` (compiled scatter by default, two-pass
    ``bincount`` fallback under the kill switches). Fixed ``npts``
    regardless of ``--quick``.
    """
    from repro.fsbm import ckernels
    from repro.fsbm.condensation import _remap_spectrum
    from repro.fsbm.species import Species, species_bins

    grid = species_bins()[Species.LIQUID]
    nkr = grid.masses.shape[0]
    rng = np.random.default_rng(seed)
    n = np.where(
        rng.uniform(size=(npts, nkr)) > 0.4,
        rng.uniform(0.0, 3.0, (npts, nkr)),
        0.0,
    )
    # Mixed growth/evaporation perturbation, a few points off-ladder.
    factor = rng.uniform(0.45, 2.2, (npts, 1))
    new_mass = grid.masses[None, :] * factor

    def run_once() -> float:
        t0 = time.perf_counter()
        _remap_spectrum(n, new_mass, grid)
        return time.perf_counter() - t0

    run_once()  # warmup
    samples = [run_once() for _ in range(reps)]
    return _summarize(
        "cond_remap",
        samples,
        extra={
            "npts": npts,
            "nkr": nkr,
            "compiled": ckernels.load_kernels() is not None,
            "ir_kernel": "remap_scatter",
            "ir_registered": _ir_registered("remap_scatter"),
        },
    )


# --- collection --------------------------------------------------------------


def git_revision(short: bool = True) -> str:
    """Current git revision, or ``"local"`` outside a repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short" if short else "HEAD", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "local"


def collect(
    quick: bool = False,
    kernels: list[str] | None = None,
    workers: list[int] | None = None,
    members: list[int] | None = None,
) -> dict:
    """Run the benchmark suite and return the BENCH payload.

    ``workers`` adds a strong-scaling sweep of the multiprocess rank
    engine at those worker counts (``repro bench --workers N``); the
    sweep is expensive and host-dependent, so it only runs when asked
    for explicitly (or when ``kernels`` names ``rank_scaling``).
    ``members`` likewise adds an ensemble-batching sweep: one
    ``model_step_membersN`` entry per requested member count, each with
    ``per_member_ms`` and ``speedup_vs_solo`` in its extras.
    """
    npts = 256 if quick else 1024
    reps = 3 if quick else 7
    model_reps = 2 if quick else 5
    scale = 0.05 if quick else 0.08

    results: list[KernelBench] = []
    wanted = set(kernels) if kernels else None

    def want(name: str) -> bool:
        return wanted is None or name in wanted

    if want("coal_bott"):
        results.append(bench_coal_bott(npts=npts, reps=reps))
    for ranks in (1, 4):
        name = f"model_step_r{ranks}"
        if want(name):
            results.append(
                bench_model_step(ranks, scale=scale, reps=model_reps)
            )
    for mode in ("fused", "per_field"):
        name = f"transport_{mode}"
        if want(name):
            results.append(bench_transport(mode, reps=reps))
    if want("model_step_multirank"):
        results.append(bench_model_step_multirank())
    ran_members: set[int] = set()
    if want("model_step_members4"):
        results.append(bench_model_step_members(4, reps=model_reps))
        ran_members.add(4)
    if want("transport_members4"):
        results.append(bench_transport_members(4, reps=reps))
    if members:
        for n in members:
            if n in ran_members:
                continue
            results.append(bench_model_step_members(n, reps=model_reps))
            ran_members.add(n)
    if want("sedimentation"):
        results.append(bench_sedimentation(reps=reps))
    if want("cond_remap"):
        results.append(bench_cond_remap(reps=reps))
    if workers or (wanted is not None and "rank_scaling" in wanted):
        results.extend(
            bench_rank_scaling(
                worker_counts=tuple(workers) if workers else (1, 2, 4, 8),
                scale=0.08 if quick else 0.12,
                reps=2 if quick else 3,
            )
        )

    return {
        "schema": SCHEMA,
        "revision": git_revision(),
        "hostname": socket.gethostname(),
        "cpu_count": os.cpu_count(),
        "quick": quick,
        "config": {"npts": npts, "reps": reps, "scale": scale},
        "kernels": {r.name: r.to_json() for r in results},
    }


def write_payload(payload: dict, path: Path | str) -> Path:
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_payload(path: Path | str) -> dict:
    return json.loads(Path(path).read_text())


def default_output_path(rev: str | None = None) -> Path:
    return REPO_ROOT / f"BENCH_{rev or git_revision()}.json"


def _recorded_at(path: Path) -> float:
    """When a baseline was recorded: its last commit, else its mtime.

    A fresh checkout gives every file the same mtime, so commit time is
    the only order that survives cloning; files outside git (or not yet
    committed) fall back to their mtime.
    """
    try:
        out = subprocess.run(
            ["git", "log", "-1", "--format=%ct", "--", path.name],
            cwd=path.parent,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        out = ""
    return float(out) if out else path.stat().st_mtime


def find_baseline(exclude: Path | None = None) -> Path | None:
    """The committed baseline to gate against.

    Prefers the most recently recorded non-seed ``BENCH_*.json`` at the
    repo root (see :func:`_recorded_at`) and falls back to
    ``BENCH_seed.json``.
    """
    candidates = [
        p
        for p in sorted(REPO_ROOT.glob("BENCH_*.json"))
        if exclude is None or p.resolve() != Path(exclude).resolve()
    ]
    if not candidates:
        return None
    non_seed = [p for p in candidates if p.name != "BENCH_seed.json"]
    if non_seed:
        return max(non_seed, key=_recorded_at)
    return candidates[0]


# --- the gate ----------------------------------------------------------------


@dataclass
class GateFinding:
    """One tracked kernel's current-vs-baseline comparison."""

    kernel: str
    baseline_s: float
    current_s: float
    regressed: bool

    @property
    def ratio(self) -> float:
        if self.baseline_s == 0:
            return float("inf")
        return self.current_s / self.baseline_s

    def render(self, threshold: float) -> str:
        tag = "REGRESSED" if self.regressed else "ok"
        return (
            f"{self.kernel:<20} baseline {self.baseline_s * 1e3:9.3f} ms   "
            f"current {self.current_s * 1e3:9.3f} ms   "
            f"x{self.ratio:5.2f}  [{tag}, gate at x{1 + threshold:.2f}]"
        )


def compare_payloads(
    current: dict,
    baseline: dict,
    threshold: float = DEFAULT_THRESHOLD,
    kernels: tuple[str, ...] = TRACKED_KERNELS,
) -> list[GateFinding]:
    """Compare tracked kernel medians; only shared kernels are gated."""
    findings: list[GateFinding] = []
    for name in kernels:
        cur = current.get("kernels", {}).get(name)
        base = baseline.get("kernels", {}).get(name)
        if cur is None or base is None:
            continue
        findings.append(
            GateFinding(
                kernel=name,
                baseline_s=float(base["median_s"]),
                current_s=float(cur["median_s"]),
                regressed=float(cur["median_s"])
                > float(base["median_s"]) * (1.0 + threshold),
            )
        )
    return findings


def gate_exit_code(findings: list[GateFinding]) -> int:
    """0 = no tracked kernel regressed, 2 = at least one did."""
    return 2 if any(f.regressed for f in findings) else 0
