"""The WRF model driver: ranks, members, time loop, transport, physics.

One :class:`WrfModel` owns the whole simulated job: the decomposition,
one resident member-stacked superblock + FSBM drivers per rank, the
per-(member, rank) clocks, devices for offloaded stages, and the BSP
step scheduler. ``namelist.members`` ensemble members step together —
each rank holds one ``(N, ni, nk, nj, nscalar)`` block, and a plain run
is ``N = 1`` — through the same kernels, and member ``m`` of an
``N``-member run is bit-identical to a one-member run of that member
(:func:`repro.wrf.namelist.member_namelist`).

Within a step, the per-rank CPU stages (physics, transport) are
independent between halo exchanges and run on a thread pool whenever
a CPU stage has two or more in-process ranks; GPU stages run ranks
sequentially because they contend for the shared simulated GPU pool.
Either way the *simulated* times overlap per the scheduler's rules and
the per-rank charges are identical.

Numerics note (documented substitution): transport integrates donor-
cell upwind with a single Euler stage, while the *cost* charged to
``rk_scalar_tend`` / ``rk_update_scalar`` is WRF's full three-stage RK3
over every advected scalar (233 of them with 7 species x 33 bins) plus
the acoustic-substep halo traffic — the loops the paper's Table I
profiles.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

from repro.core.clock import SimClock, TimeBucket
from repro.core.costmodel import CpuCostModel
from repro.core.engine import OffloadEngine
from repro.obs import tracer
from repro.fsbm.fast_sbm import FastSBM, SbmStepStats, step_members
from repro.fsbm.species import Species
from repro.fsbm.state import MicroState
from repro.grid.decomposition import Decomposition, decompose_domain
from repro.grid.halo import HaloExchangePlan, build_halo_plan
from repro.grid.indexing import owned_slice
from repro.hardware.specs import EPYC_MILAN, PERLMUTTER_CPU_NODE
from repro.mpi.costmodel import CommCostModel
from repro.mpi.gpu_sharing import GpuPool
from repro.mpi.scheduler import RankStepCharge, StepScheduler
from repro.wrf.cases import conus12km_case
from repro.wrf.dynamics import (
    DynWorkStats,
    FLOPS_PER_CELL_TEND,
    FLOPS_PER_CELL_UPDATE,
    RK3_FRACTIONS,
    WindSplit,
    buoyancy_w_update,
)
from repro.wrf.namelist import Namelist, member_namelist
from repro.wrf.state import WrfFields, superblock_scalar_count
from repro.wrf.transport import (
    TransportWorkspace,
    fused_euler_advect,
    fused_rk3_advect,
    get_workspace,
)

#: Acoustic substeps per RK3 stage in WRF's split-explicit solver —
#: only their halo traffic is charged (we have no pressure solver).
ACOUSTIC_SUBSTEPS = 6

#: Fields exchanged per acoustic substep (u, v, w, t, p').
ACOUSTIC_FIELDS = 5

#: History write bandwidth to scratch [B/s] (serial netCDF through the
#: I/O rank, well below raw filesystem speed).
IO_BANDWIDTH = 0.5e9


# --- per-rank state and stage functions --------------------------------------
#
# Each stage below touches exactly one rank's state, so the same code
# runs in both execution modes: in-process ranks (serial or on the
# thread pool) and persistent worker processes (repro.wrf.procpool).
# Keeping them module-level (not methods) is what lets the process
# workers reuse them verbatim — the bit-exactness of the multiprocess
# path against in-process ranks rests on both running these exact
# functions in the same per-rank order.


def cost_models(namelist: Namelist) -> tuple[CommCostModel, CpuCostModel]:
    """The (comm, cpu) cost models one namelist implies.

    Deterministic in the namelist alone, so driver and worker
    processes construct bit-identical models independently.
    """
    if namelist.stage.uses_gpu:
        ranks_per_node = min(namelist.num_ranks, 4 * 4)  # 4 GPUs, <=4 ranks each
        cpu = EPYC_MILAN
    else:
        ranks_per_node = min(namelist.num_ranks, PERLMUTTER_CPU_NODE.cpu.cores)
        cpu = PERLMUTTER_CPU_NODE.cpu
    comm_cost = CommCostModel(ranks_per_node=ranks_per_node)
    active_cores = min(namelist.num_ranks, ranks_per_node)
    cpu_cost = CpuCostModel(
        cpu=cpu,
        active_cores_on_socket=active_cores,
        threads=namelist.numtiles,
    )
    return comm_cost, cpu_cost


def build_rank_fields(
    namelist: Namelist, rank: int, patch, member: int = 0
) -> WrfFields:
    """Construct one rank's initial fields (deterministic per seed).

    ``member`` selects which ensemble member's perturbed scenario to
    build (``namelist.member_deltas``); the default — member 0 of a
    delta-free namelist — is the unperturbed base case, bit-identical
    to what this function always built.
    """
    from repro.wrf.cases import member_case_config
    from repro.wrf.namelist import deltas_for_member

    cfg, seed_offset = member_case_config(deltas_for_member(namelist, member))
    return conus12km_case(
        namelist.domain,
        patch,
        namelist.domain.dz,
        seed=namelist.seed + seed_offset,
        cfg=cfg,
    )


def build_rank_sbm(
    namelist: Namelist,
    clock: SimClock,
    cpu_cost: CpuCostModel,
    engine: OffloadEngine | None = None,
) -> FastSBM:
    """Construct one rank's FSBM driver with the namelist's switches."""
    return FastSBM(
        stage=namelist.stage,
        dt=namelist.dt,
        clock=clock,
        cpu_cost=cpu_cost,
        engine=engine,
        precision=namelist.device_precision,
        offload_condensation=namelist.offload_condensation,
    )


@dataclass
class RankState:
    """One rank's ensemble members, resident in one stacked superblock.

    The stacked ``block`` is the only storage for the advected scalars;
    each member's :class:`~repro.wrf.state.WrfFields` is bound into its
    ``block[m]`` slab, so the per-member views a one-member run would
    see are exactly the slab's columns. Non-advected per-member arrays
    (winds, CCN, precip) live in member-stacked side arrays with the
    member fields rebound as views, which is what lets transport build
    one stacked :class:`~repro.wrf.dynamics.WindSplit` and microphysics
    gather all members with one mask. The ``*_o`` arrays are the
    owned-region (halo-free) views the physics sweep works on.
    """

    rank: int
    block: np.ndarray
    fields: list[WrfFields]
    clocks: list[SimClock]
    sbms: list[FastSBM]
    workspace: TransportWorkspace
    u: np.ndarray
    v: np.ndarray
    states: list[MicroState]
    dists_o: dict[Species, np.ndarray]
    t_o: np.ndarray
    qv_o: np.ndarray
    ccn_o: np.ndarray
    precip_o: np.ndarray
    p_o: np.ndarray
    rho_o: np.ndarray
    #: The base-state pressure column the members share (sedimentation
    #: fall speeds), computed once.
    pressure_levels: np.ndarray
    w_start: int
    clip_slices: tuple


def build_rank_state(
    namelist: Namelist,
    rank: int,
    patch,
    block: np.ndarray,
    clocks: list[SimClock],
    cpu_cost: CpuCostModel,
    engine: OffloadEngine | None = None,
) -> RankState:
    """Construct one rank's member-stacked state inside ``block``.

    ``block`` is the rank's ``(N, ni, nk, nj, nscalar)`` superblock
    (driver-allocated, or a view over the rank's shared-memory segment
    under process ranks) and ``clocks[m]`` member ``m``'s clock. Member
    ``m``'s fields are built from its perturbed case and bound into
    ``block[m]``.
    """
    nm = namelist.members
    shape = patch.shape
    fields: list[WrfFields] = []
    u = np.empty((nm, *shape))
    v = np.empty((nm, *shape))
    ccn = np.empty((nm, *shape))
    precip = np.empty((nm, shape[0], shape[2]))
    for m in range(nm):
        f = build_rank_fields(namelist, rank, patch, member=m)
        f.bind_block(buffer=block[m])
        # Rebind the non-advected per-member arrays as views into the
        # member-stacked side arrays (values unchanged — plain copies).
        u[m] = f.u
        f.u = u[m]
        v[m] = f.v
        f.v = v[m]
        ccn[m] = f.micro.ccn
        f.micro.ccn = ccn[m]
        precip[m] = f.micro.precip
        f.micro.precip = precip[m]
        fields.append(f)
    sl = owned_slice(patch)
    every = (slice(None), *sl)
    slices = fields[0].layout.slices()
    p_one = fields[0].pressure_mb[sl]
    rho_one = fields[0].rho[sl]
    return RankState(
        rank=rank,
        block=block,
        fields=fields,
        clocks=clocks,
        sbms=[build_rank_sbm(namelist, clock, cpu_cost, engine) for clock in clocks],
        workspace=get_workspace(
            (nm, *shape), fields[0].scalar_count(), fields[0].t.dtype, owner=rank
        ),
        u=u,
        v=v,
        states=[f.micro.view(sl) for f in fields],
        dists_o={
            sp: block[(*every, slices[f"bin_{sp.value}"])] for sp in Species
        },
        t_o=block[(*every, slices["t"].start)],
        qv_o=block[(*every, slices["qv"].start)],
        ccn_o=ccn[every],
        precip_o=precip[:, sl[0], sl[2]],
        p_o=np.broadcast_to(p_one[None], (nm, *p_one.shape)),
        rho_o=np.broadcast_to(rho_one[None], (nm, *rho_one.shape)),
        pressure_levels=p_one.mean(axis=(0, 2)),
        w_start=slices["w"].start,
        clip_slices=fields[0].layout.clip_slices(no_clip=("t", "w")),
    )


def physics_rank(namelist: Namelist, rs: RankState) -> list[SbmStepStats]:
    """Run every member's microphysics on one rank's *owned* cells.

    Halo cells are excluded — WRF's physics run on tiles inside the
    patch; halos are refreshed by the exchange afterwards.
    """
    with tracer.span("physics", cat="physics") as sp:
        stats = step_members(
            rs.sbms,
            rs.states,
            rs.dists_o,
            rs.ccn_o,
            rs.precip_o,
            rs.t_o,
            rs.p_o,
            rs.qv_o,
            rs.rho_o,
            namelist.domain.dz * 100.0,
            rs.pressure_levels,
        )
        if sp is not None:
            sp.set(
                members=len(stats),
                mp_points=sum(s.mp_points for s in stats),
                coal_points=sum(s.coal_points for s in stats),
                # One call serves every member, so they agree; "none"
                # if no member collided.
                coal_engine=next(
                    (s.coal.engine for s in stats if s.coal.engine != "none"),
                    "none",
                ),
            )
    return stats


def exchange_halos_rank(
    plan: HaloExchangePlan, rank: int, blocks: list[np.ndarray]
) -> None:
    """Fill one rank's halos from its neighbors' owned cells.

    ``blocks[r]`` is rank ``r``'s stacked ``(N, ni, nk, nj, nscalar)``
    superblock; each incoming segment is one strided copy that moves
    every member and every scalar at once. Halo writes are disjoint
    (owned regions partition the domain, so each halo point has exactly
    one source) and reads touch only owned regions, so ranks may pull
    concurrently — between two barriers in the worker processes — and
    the result never depends on the order.
    """
    patches = plan.decomposition.patches
    incoming = plan.segments_to(rank)
    dst = blocks[rank]
    with tracer.span("halo_exchange", cat="mpi") as sp:
        for seg in incoming:
            src_sl = seg.src_slices(patches[seg.src])
            dst_sl = seg.dst_slices(patches[rank])
            dst[(slice(None), *dst_sl)] = blocks[seg.src][(slice(None), *src_sl)]
        if sp is not None:
            nm, *_, nscalars = dst.shape
            sp.set(
                bytes=nm
                * sum(s.num_points * nscalars * dst.itemsize for s in incoming),
                segments=len(incoming),
                members=nm,
            )


def charge_halos_rank(
    plan: HaloExchangePlan,
    comm_cost: CommCostModel,
    rs: RankState,
    num_ranks: int,
) -> None:
    """Charge each member's MPI time on one rank for a full halo refresh.

    Per member clock: walks the plan in global segment order charging
    every segment the rank participates in (either end pays the p2p
    time for all of the block's scalars), then the acoustic-substep
    traffic WRF's split-explicit solver would add plus per-step sync
    noise. The per-clock advance sequence is identical whether the
    driver charges all ranks in one pass (thread path) or each worker
    process charges only itself, so the accumulated floats are
    bit-equal across execution modes.
    """
    nscalars = rs.block.shape[-1]
    itemsize = rs.block.itemsize
    for clock in rs.clocks:
        for seg in plan.segments:
            if seg.src != rs.rank and seg.dst != rs.rank:
                continue
            nbytes = seg.num_points * nscalars * itemsize
            t = comm_cost.p2p_time(seg.src, seg.dst, nbytes)
            clock.advance(TimeBucket.MPI, t)
        # Acoustic-substep halo traffic and per-step sync noise
        # (charged, not simulated).
        noise = comm_cost.step_sync_noise(num_ranks)
        per_exchange = sum(
            comm_cost.p2p_time(s.src, s.dst, s.num_points * 4)
            for s in plan.segments_from(rs.rank)
        )
        n_exchanges = len(RK3_FRACTIONS) * ACOUSTIC_SUBSTEPS * ACOUSTIC_FIELDS
        clock.advance(TimeBucket.MPI, per_exchange * n_exchanges + noise)


def transport_charges(
    namelist: Namelist,
    cpu_cost: CpuCostModel,
    fields: WrfFields,
    clock: SimClock,
) -> DynWorkStats:
    """Charge the CPU-path RK3 scalar-loop cost for one rank's patch."""
    ni, nk, nj = fields.shape
    cells = ni * nk * nj
    nscalars = fields.scalar_count()
    work = DynWorkStats(
        cell_scalar_stages=float(cells * nscalars * len(RK3_FRACTIONS))
    )
    with clock.region("rk_scalar_tend"):
        clock.advance(
            TimeBucket.CPU_COMPUTE,
            cpu_cost.time(
                work.tend_flops,
                work.tend_bytes,
                iterations=int(work.cell_scalar_stages),
            ),
        )
    with clock.region("rk_update_scalar"):
        clock.advance(
            TimeBucket.CPU_COMPUTE,
            cpu_cost.time(work.update_flops, work.update_bytes),
        )
    return work


def transport_numerics(namelist: Namelist, rs: RankState) -> None:
    """Advect every member's scalars; apply the buoyancy updates.

    Numerics: one donor-cell sweep of the whole stacked block — single
    Euler stage (default) or full RK3 (``use_rk3_numerics``) — over one
    stacked wind decomposition, hoisted out of the scalar loop. Both
    are elementwise in the member axis, so member ``m``'s result is
    bitwise a one-member sweep's. The trailing buoyancy update stays
    per member: it contracts each member's packed bins (a BLAS call,
    which must not see other members' rows).

    The span mirrors the ``rk_scalar_tend``/``rk_update_scalar`` clock
    regions' work under one measured name; ``flops`` counts the stages
    actually executed (tendency + update per cell-scalar) and ``bytes``
    the superblock's minimum traffic (one read + one write per stage).
    """
    block = rs.block
    dt = namelist.dt
    with tracer.span("transport", cat="transport") as sp:
        # The freshly exchanged w halo lives in the block; advect with
        # that wind.
        split = WindSplit.build(
            rs.u, rs.v, block[..., rs.w_start],
            namelist.domain.dx, namelist.domain.dz,
        )
        advect = fused_rk3_advect if namelist.use_rk3_numerics else fused_euler_advect
        result = advect(block, split, dt, rs.workspace, rs.clip_slices)
        if result is not block:
            # One block-to-block copy (the numpy fallback already
            # advected the block in place).
            block[...] = result
        for f in rs.fields:
            condensate = f.micro.total_condensate_mass()
            buoyancy_w_update(f.w, f.t, f.t_base_col, condensate, f.rho, dt)
        if sp is not None:
            cell_scalars = float(block.size)
            stages = len(RK3_FRACTIONS) if namelist.use_rk3_numerics else 1
            sp.set(
                flops=cell_scalars
                * stages
                * (FLOPS_PER_CELL_TEND + FLOPS_PER_CELL_UPDATE),
                bytes=2.0 * stages * cell_scalars * block.itemsize,
                members=block.shape[0],
            )


def transport_rank(
    namelist: Namelist, cpu_cost: CpuCostModel, rs: RankState
) -> None:
    """Charge each member's CPU-path RK3 cost, then run the numerics."""
    for f, clock in zip(rs.fields, rs.clocks):
        transport_charges(namelist, cpu_cost, f, clock)
    transport_numerics(namelist, rs)


def rank_output_frame(fields: WrfFields) -> dict[str, np.ndarray]:
    """One rank's owned contribution to the domain-wide output frame.

    Contiguous copies, so worker processes can ship frames over the
    command pipe without dragging whole memory-extent arrays along.
    """
    f = fields
    patch = f.patch
    precip_owned = f.micro.precip[
        patch.i.to_slice(patch.im.start), patch.j.to_slice(patch.jm.start)
    ]
    return {
        "T": np.ascontiguousarray(f.owned(f.t)),
        "QVAPOR": np.ascontiguousarray(f.owned(f.qv)),
        "W": np.ascontiguousarray(f.owned(f.w)),
        "QCLOUD_TOTAL": np.ascontiguousarray(
            f.owned(f.micro.total_condensate_mass())
        ),
        "RAINNC": np.ascontiguousarray(precip_owned),
    }


@dataclass
class StepTiming:
    """Timing of one committed model step."""

    step: int
    elapsed: float
    charges: list[RankStepCharge]
    sbm_stats: list[SbmStepStats]


@dataclass
class RunResult:
    """Everything a completed run exposes to experiments and profilers."""

    namelist: Namelist
    decomposition: Decomposition
    steps_run: int
    elapsed: float
    step_timings: list[StepTiming]
    rank_clocks: list[SimClock]
    scheduler: StepScheduler
    kernel_records: list[list]
    history: list[dict[str, np.ndarray]]

    @property
    def per_step_elapsed(self) -> float:
        """Mean simulated seconds per model step."""
        return self.elapsed / max(1, self.steps_run)

    def projected_total(self, run_seconds: float | None = None) -> float:
        """Elapsed time scaled to the full run length (paper: 600 s)."""
        seconds = run_seconds or self.namelist.run_seconds
        steps = max(1, round(seconds / self.namelist.dt))
        return self.per_step_elapsed * steps

    def region_seconds(self, region: str) -> float:
        """Simulated seconds charged to a clock region, summed over ranks."""
        return sum(c.region_total(region) for c in self.rank_clocks)

    def rank_region_seconds(self, region: str, rank: int) -> float:
        """One rank's seconds in a region (the Nsight-Systems view)."""
        return self.rank_clocks[rank].region_total(region)

    def coal_loop_seconds(self) -> float:
        """Per-step seconds of the isolated collision loop (max over ranks)."""
        per_rank = [c.region_total("coal_bott_new") for c in self.rank_clocks]
        return max(per_rank) / max(1, self.steps_run)


class WrfModel:
    """A configured, runnable WRF job of ``namelist.members`` members.

    ``clocks``, ``fields``, ``workspaces`` and ``scheduler`` are member
    0's, per rank — a plain run's only member; ``member_clocks[m]`` and
    ``schedulers[m]`` hold every member's. :meth:`step` and :meth:`run`
    report member 0; :class:`repro.wrf.ensemble.EnsembleModel` is the
    view that returns every member's.
    """

    def __init__(self, namelist: Namelist):
        self.namelist = namelist
        nm = namelist.members
        num_ranks = namelist.num_ranks
        if namelist.trace:
            # Before the worker fork below, so driver-side spans from
            # construction (JIT builds, cache warms) are captured too.
            tracer.enable()
        self.decomposition = decompose_domain(namelist.domain, num_ranks)
        self.halo_plan: HaloExchangePlan = build_halo_plan(self.decomposition)
        #: ``member_clocks[m][rank]`` — one authoritative clock per
        #: (member, rank).
        self.member_clocks = [
            [SimClock() for _ in range(num_ranks)] for _ in range(nm)
        ]
        self.clocks = self.member_clocks[0]
        self.comm_cost, self.cpu_cost = cost_models(namelist)

        # Multiprocess rank execution: forked before any heavyweight
        # driver-side state exists, so workers stay lean. GPU stages
        # stay in process (ranks contend for the shared simulated GPU
        # pool).
        self._pool = None
        if namelist.use_process_ranks and not namelist.stage.uses_gpu:
            from repro.wrf import procpool

            self._pool = procpool.ProcRankPool(namelist, self.decomposition)

        self.gpu_pool: GpuPool | None = None
        self.engines: list[OffloadEngine | None] = [None] * num_ranks
        if namelist.stage.uses_gpu:
            self.gpu_pool = GpuPool(num_gpus=namelist.num_gpus)
            devices = self.gpu_pool.bind(num_ranks)
            dev_dtype = np.dtype(
                np.float32 if namelist.device_precision == "fp32" else np.float64
            )
            self.engines = [
                OffloadEngine(
                    device=dev,
                    env=namelist.env,
                    clock=clk,
                    device_dtype=dev_dtype,
                )
                for dev, clk in zip(devices, self.clocks)
            ]
        self.schedulers = [
            StepScheduler(nranks=num_ranks, gpu_pool=self.gpu_pool)
            for _ in range(nm)
        ]
        self.scheduler = self.schedulers[0]

        # Resident fields: the advected scalars of every member live in
        # one persistent per-rank superblock (the host analog of keeping
        # data mapped on the device between kernels). Under process
        # ranks the block is the rank's shared-memory segment, so the
        # driver's views stay live mirrors of worker state.
        nscalars = superblock_scalar_count()
        self.ranks: list[RankState] = []
        for rank, patch in enumerate(self.decomposition.patches):
            if self._pool is not None:
                block = self._pool.block_view(rank)
            else:
                block = np.empty((nm, *patch.shape, nscalars))
            self.ranks.append(
                build_rank_state(
                    namelist,
                    rank,
                    patch,
                    block,
                    [row[rank] for row in self.member_clocks],
                    self.cpu_cost,
                    self.engines[rank],
                )
            )
        self.fields: list[WrfFields] = [rs.fields[0] for rs in self.ranks]
        # Transport workspaces: preallocated once per rank (the host
        # analog of `target enter data map(alloc:)`), keyed by (shape,
        # nscalars, dtype, rank) so concurrent ranks never share
        # buffers while same-shaped models reuse them.
        self.workspaces: list[TransportWorkspace] = [
            rs.workspace for rs in self.ranks
        ]
        # In-process ranks share nothing mutable within a stage (fields,
        # FSBM drivers and clocks are per rank, and the precompute
        # caches are thread-safe), so two or more of them run on a
        # thread pool between the halo-exchange barriers. GPU stages
        # stay serial: ranks contend for the shared GpuPool.
        self._executor: ThreadPoolExecutor | None = None
        if self._pool is None and num_ranks > 1 and not namelist.stage.uses_gpu:
            self._executor = ThreadPoolExecutor(
                max_workers=min(num_ranks, os.cpu_count() or 1),
                thread_name_prefix="rank",
            )

        self.steps_done = 0
        self._sim_time = 0.0
        self._last_history = 0.0

    # --- pieces of one step ------------------------------------------------------

    def _physics(self, rank: int) -> list[SbmStepStats]:
        """One rank's microphysics, inside its tracer scope (the same
        stage function the worker processes run)."""
        with tracer.rank_scope(rank):
            return physics_rank(self.namelist, self.ranks[rank])

    def _exchange_halos(self) -> None:
        """Refresh every member's halos; charge MPI per (member, rank).

        Copies run per destination rank, attributing each rank's halo
        fill to its own trace timeline exactly like the worker
        processes' pull loops; each rank's clocks are then charged the
        p2p time of the segments it takes part in plus the acoustic-
        substep traffic WRF's split-explicit solver would add.
        """
        blocks = [rs.block for rs in self.ranks]
        for rank in range(self.namelist.num_ranks):
            with tracer.rank_scope(rank):
                exchange_halos_rank(self.halo_plan, rank, blocks)
        for rs in self.ranks:
            charge_halos_rank(
                self.halo_plan, self.comm_cost, rs, self.namelist.num_ranks
            )

    def _transport(self, rank: int) -> None:
        """Advect all scalars on one rank's patch; charge RK3 cost."""
        rs = self.ranks[rank]
        with tracer.rank_scope(rank):
            if self.namelist.offload_advection:
                self._transport_offloaded(rank)
                transport_numerics(self.namelist, rs)
            else:
                transport_rank(self.namelist, self.cpu_cost, rs)

    def _transport_offloaded(self, rank: int) -> None:
        """Offload the RK3 scalar loops (the Sec. VIII 'next target').

        Charge only (a GPU stage: one member): the numerics run on the
        host path as usual. Advection is regular and coalesced: one
        thread per cell sweeping all scalars — high occupancy,
        bandwidth-bound, no automatic arrays. The bin fields already
        live on the device (mapped once by ``target enter data``), so
        only winds move per step.
        """
        from repro.core.directives import (
            Map,
            MapType,
            TargetTeamsDistributeParallelDo,
        )
        from repro.core.kernel import Kernel, KernelResources
        from repro.hardware.memory import AccessPattern, TrafficComponent

        engine = self.engines[rank]
        assert engine is not None
        f = self.fields[rank]
        ni, nk, nj = f.shape
        work = DynWorkStats(
            cell_scalar_stages=float(
                ni * nk * nj * f.scalar_count() * len(RK3_FRACTIONS)
            )
        )
        resources = KernelResources(
            registers_per_thread=48,
            automatic_array_bytes=0,
            working_set_per_thread=64.0,
            flops=work.tend_flops + work.update_flops,
            traffic=(
                TrafficComponent(
                    name="scalars",
                    pattern=AccessPattern.GLOBAL_COALESCED,
                    read_bytes=work.tend_bytes,
                    write_bytes=work.update_bytes,
                ),
            ),
            active_iterations=ni * nk * nj,
            compute_efficiency=0.25,  # regular stencil, decent ILP
        )
        kernel = Kernel(
            name="rk_scalar_tend_loop",
            loop_extents=(nj, nk, ni),
            resources=resources,
            body=None,  # numerics run on the host path as usual
        )
        directive = TargetTeamsDistributeParallelDo(
            collapse=3, maps=(Map(MapType.TO, ("u", "v", "w")),)
        )
        with self.clocks[rank].region("rk_scalar_tend"):
            engine.launch(
                kernel,
                directive,
                to_arrays={"u": f.u, "v": f.v, "w": f.w},
            )

    def _charge_io(self, member: int, charges: list[list[float]]) -> None:
        """Apply one member's per-rank ordered I/O charges.

        ``charges[rank]`` is the ordered list of seconds to advance that
        rank's ``IO`` bucket by. Under process ranks the workers own the
        clocks, so the charges ship over the command pipe, each worker
        applies its list in order, and the driver mirrors re-adopt the
        totals — the per-clock advance sequence (and therefore the float
        accumulation) is identical to applying them locally.
        """
        clocks = self.member_clocks[member]
        if self._pool is not None:
            states = self._pool.charge_io(charges, member)
            for clock, state in zip(clocks, states):
                clock.restore(*state)
            return
        for clock, rank_charges in zip(clocks, charges):
            for seconds in rank_charges:
                clock.advance(TimeBucket.IO, seconds)

    def _maybe_history(
        self, force: bool = False
    ) -> list[dict[str, np.ndarray]] | None:
        """Write every member's history if due; charges per-member I/O.

        Files are ``wrfout_d01_<step>``, with a ``_mem<m>`` suffix when
        the run has more than one member.
        """
        interval = self.namelist.history_interval
        due = force or (
            interval > 0.0 and self._sim_time - self._last_history >= interval
        )
        if not due:
            return None
        self._last_history = self._sim_time
        nm = self.namelist.members
        num_ranks = self.namelist.num_ranks
        frames: list[dict[str, np.ndarray]] = []
        for m in range(nm):
            with tracer.span("history_io", cat="io") as sp:
                frame = self.gather_output(m)
                if self.namelist.history_path is not None:
                    from repro.wrf.io import write_wrfout

                    name = f"wrfout_d01_{self.steps_done:06d}"
                    attrs = {
                        "title": "repro CONUS-12km",
                        "sim_seconds": self._sim_time,
                        "stage": self.namelist.stage.value,
                        "dx": self.namelist.domain.dx,
                    }
                    if nm > 1:
                        name += f"_mem{m:02d}"
                        attrs["member"] = m
                    write_wrfout(
                        f"{self.namelist.history_path}/{name}", frame, attrs=attrs
                    )
                nbytes = sum(a.nbytes for a in frame.values())
                if sp is not None:
                    sp.set(
                        bytes=nbytes,
                        on_disk=self.namelist.history_path is not None,
                        member=m,
                    )
            # Patches funnel to rank 0, which writes.
            local = int(nbytes / num_ranks)
            charges = [
                [self.comm_cost.p2p_time(rank, 0, local)]
                for rank in range(num_ranks)
            ]
            charges[0].append(nbytes / IO_BANDWIDTH)
            self._charge_io(m, charges)
            frames.append(frame)
        return frames

    def gather_output(self, member: int = 0) -> dict[str, np.ndarray]:
        """Assemble one member's domain-wide output fields."""
        dom = self.namelist.domain
        out = {
            "T": np.zeros((dom.nx, dom.nz, dom.ny)),
            "QVAPOR": np.zeros((dom.nx, dom.nz, dom.ny)),
            "W": np.zeros((dom.nx, dom.nz, dom.ny)),
            "QCLOUD_TOTAL": np.zeros((dom.nx, dom.nz, dom.ny)),
            "RAINNC": np.zeros((dom.nx, dom.ny)),
        }
        if self._pool is not None:
            # Workers own the authoritative state (precip accumulates in
            # their address space); they ship owned-region frames back.
            frames = self._pool.gather(member)
        else:
            frames = [rank_output_frame(rs.fields[member]) for rs in self.ranks]
        for patch, frame in zip(self.decomposition.patches, frames):
            sl = (
                patch.i.to_slice(1),
                patch.k.to_slice(1),
                patch.j.to_slice(1),
            )
            for name in ("T", "QVAPOR", "W", "QCLOUD_TOTAL"):
                out[name][sl] = frame[name]
            out["RAINNC"][patch.i.to_slice(1), patch.j.to_slice(1)] = frame[
                "RAINNC"
            ]
        return out

    # --- the loop -------------------------------------------------------------

    def _run_ranks(self, stage_fn) -> list:
        """Apply a per-rank stage to every rank, on the thread pool if any.

        Results come back in rank order either way, and each stage call
        touches only its own rank's state, so serial and pooled
        execution are interchangeable.
        """
        ranks = range(self.namelist.num_ranks)
        if self._executor is None:
            return [stage_fn(rank) for rank in ranks]
        return list(self._executor.map(stage_fn, ranks))

    def step_members(self) -> list[StepTiming]:
        """Advance every member by one model step; per-member timings."""
        nm = self.namelist.members
        before = [[c.snapshot() for c in row] for row in self.member_clocks]
        with tracer.span("solve_em", attrs=None) as sp:
            if sp is not None:
                sp.set(step=self.steps_done + 1, members=nm)
            if self._pool is not None:
                sbm_stats = self._step_procs()
            else:
                with ExitStack() as stack:
                    for row in self.member_clocks:
                        for clock in row:
                            stack.enter_context(clock.region("solve_em"))
                    by_rank = self._run_ranks(self._physics)
                    self._exchange_halos()
                    self._run_ranks(self._transport)
                sbm_stats = [[stats[m] for stats in by_rank] for m in range(nm)]
        self._sim_time += self.namelist.dt
        self.steps_done += 1
        self._maybe_history()

        timings: list[StepTiming] = []
        for m in range(nm):
            after = [c.snapshot() for c in self.member_clocks[m]]
            charges = [
                RankStepCharge.from_clock_delta(b, a)
                for b, a in zip(before[m], after)
            ]
            timings.append(
                StepTiming(
                    step=self.steps_done,
                    elapsed=self.schedulers[m].commit_step(charges),
                    charges=charges,
                    sbm_stats=sbm_stats[m],
                )
            )
        return timings

    def step(self) -> StepTiming:
        """Advance the whole job by one model step (member 0's timing)."""
        return self.step_members()[0]

    def _step_procs(self) -> list[list[SbmStepStats]]:
        """One step across the worker processes (the multiprocess path).

        Each worker runs the identical per-rank stage sequence
        (physics, pull-model halo exchange through the shared
        superblocks, transport) under its authoritative clocks, then
        ships back every member's step stats and clock totals; the
        driver-side mirror clocks adopt the totals verbatim, so every
        downstream consumer (scheduler charges, profilers, history I/O)
        sees bit-identical simulated time.
        """
        assert self._pool is not None
        sbm_stats: list[list[SbmStepStats]] = [
            [] for _ in range(self.namelist.members)
        ]
        for rank, payloads in enumerate(self._pool.step()):
            for m, (stats, buckets, regions) in enumerate(payloads):
                self.member_clocks[m][rank].restore(buckets, regions)
                sbm_stats[m].append(stats)
        return sbm_stats

    def run_members(
        self, num_steps: int | None = None, final_history: bool = False
    ) -> list[RunResult]:
        """Run ``num_steps`` (default: the namelist's full count); one
        :class:`RunResult` per member."""
        steps = num_steps if num_steps is not None else self.namelist.num_steps
        nm = self.namelist.members
        timings: list[list[StepTiming]] = [[] for _ in range(nm)]
        histories: list[list[dict[str, np.ndarray]]] = [[] for _ in range(nm)]
        for _ in range(steps):
            for m, timing in enumerate(self.step_members()):
                timings[m].append(timing)
        if final_history:
            for m, frame in enumerate(self._maybe_history(force=True) or ()):
                histories[m].append(frame)
        return [
            RunResult(
                namelist=(
                    member_namelist(self.namelist, m) if nm > 1 else self.namelist
                ),
                decomposition=self.decomposition,
                steps_run=steps,
                elapsed=self.schedulers[m].elapsed,
                step_timings=timings[m],
                rank_clocks=self.member_clocks[m],
                scheduler=self.schedulers[m],
                kernel_records=[
                    e.records if e is not None else [] for e in self.engines
                ],
                history=histories[m],
            )
            for m in range(nm)
        ]

    def run(
        self, num_steps: int | None = None, final_history: bool = False
    ) -> RunResult:
        """Run ``num_steps`` (default: the namelist's full count);
        member 0's result."""
        return self.run_members(num_steps, final_history)[0]

    def close(self) -> None:
        """Release device contexts, the rank executor, and the worker pool."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        for e in self.engines:
            if e is not None:
                e.close()
