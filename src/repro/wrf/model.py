"""The WRF model driver: ranks, members, time loop, transport, physics.

One :class:`WrfModel` owns the whole simulated job: the decomposition,
two resident member-stacked blocks + FSBM drivers per rank (held by
the worker processes under process ranks), the per-(member, rank)
clocks, devices for offloaded stages, and the BSP step scheduler.
``namelist.members`` ensemble members step together — each rank holds
one planar ``(N, ni, 3, nk, nj)`` state block (t, qv, w) and one
``(N, ni, nk, nj, nbins)`` bins block, and a plain run is ``N = 1`` —
through the same kernels, and member ``m`` of an ``N``-member run is
bit-identical to a one-member run of that member
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
from typing import NamedTuple

import numpy as np

from repro.core.clock import SimClock, TimeBucket
from repro.core.costmodel import CpuCostModel
from repro.core.engine import OffloadEngine
from repro.errors import ProcPoolError
from repro.obs import tracer
from repro.fsbm.fast_sbm import FastSBM, SbmStepStats, step_members
from repro.fsbm.state import ALL_OCCUPIED, MicroState
from repro.grid.decomposition import Decomposition, decompose_domain
from repro.grid.domain import DomainSpec
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
    Winds,
)
from repro.wrf import cstencil
from repro.wrf.namelist import Namelist, member_namelist
from repro.wrf.state import WrfFields, rank_blocks
from repro.wrf.transport import (
    STATE_FIELDS,
    Advection,
    TransportWorkspace,
    blas_condensate,
    get_workspace,
    sum_condensate,
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


class RankBlocks(NamedTuple):
    """One rank's resident storage, as the halo exchange reads it: the
    planar ``(N, ni, 3, nk, nj)`` state block, the ``(N, ni, nk, nj,
    nbins)`` bins block and the ``(N, ni, nk, nj)`` uint8 occupancy
    field."""

    state: np.ndarray
    bins: np.ndarray
    occupancy: np.ndarray


@dataclass
class RankState:
    """One rank's ensemble members, resident in two stacked blocks.

    The stacked ``state`` (t, qv and w, each field's ``(k, j)`` planes
    contiguous) and ``bins`` blocks are the only storage for the
    advected scalars; each member's :class:`~repro.wrf.state.WrfFields`
    is bound into its ``state[m]`` and ``bins[m]`` slabs, so the
    per-member views a one-member run would see are exactly the slabs'
    planes and columns. Non-advected per-member arrays (winds, CCN,
    precip) live in member-stacked side arrays with the member fields
    rebound as views, which is what lets transport advect every member
    in one sweep and microphysics gather all members with one mask. The
    ``*_o`` arrays are the owned-region (halo-free) views the physics
    sweep works on.

    ``condensate`` is every cell's condensate mass, kept current with
    the bins: filled once here, then written by each transport sweep
    (:func:`transport_numerics`). The physics predicate and the output
    frames read it, so no step re-reads the bins for it.

    ``occupancy`` holds one byte per cell: bit ``sp`` clear promises
    that every bin of species ``sp`` (``Species`` order) in that cell
    is an exact zero, and a set bit promises nothing. The build fills
    it with the condensate; then the transport sweep (from the values
    it stores), the physics scatter (from the rows it writes back),
    sedimentation (for the cells it deposits into) and the halo
    exchange (with the bins) keep it so, and the transport and
    sedimentation kernels skip the species it marks empty.
    """

    rank: int
    state: np.ndarray
    bins: np.ndarray
    fields: list[WrfFields]
    clocks: list[SimClock]
    sbms: list[FastSBM]
    workspace: TransportWorkspace
    states: list[MicroState]
    #: Every species' bins, packed ``(nm, ni, nk, nj, nsp * nkr)``.
    bins_o: np.ndarray
    t_o: np.ndarray
    qv_o: np.ndarray
    ccn_o: np.ndarray
    precip_o: np.ndarray
    p_o: np.ndarray
    rho_o: np.ndarray
    #: The base-state pressure column of the owned levels, which the
    #: members share (sedimentation fall speeds): the same bits on every
    #: rank of every decomposition.
    pressure_levels: np.ndarray
    #: Each cell's condensate ``(N, ni, nk, nj)`` (memory extents) and
    #: its owned view.
    condensate: np.ndarray
    condensate_o: np.ndarray
    #: Which occupancy bit describes each bin
    #: (:meth:`~repro.wrf.transport.ScalarLayout.masks`).
    scalar_bits: tuple[np.ndarray, np.ndarray]
    #: Each cell's occupancy bits ``(N, ni, nk, nj)`` uint8 (memory
    #: extents) and its owned view.
    occupancy: np.ndarray
    occupancy_o: np.ndarray
    #: The transport stage of both blocks (advection, then buoyancy),
    #: its compiled calls built once
    #: (:class:`~repro.wrf.transport.Advection`).
    advection: Advection


def build_rank_state(
    namelist: Namelist,
    rank: int,
    patch,
    blocks: RankBlocks,
    clocks: list[SimClock],
    cpu_cost: CpuCostModel,
    engine: OffloadEngine | None = None,
) -> RankState:
    """Construct one rank's member-stacked state inside ``blocks``.

    ``blocks`` holds the rank's state and bins blocks and its occupancy
    field (driver-allocated, or the rank's shared mappings inside its
    worker process under process ranks), and ``clocks[m]`` member
    ``m``'s clock. Member ``m``'s fields are built from its perturbed
    case and bound into ``blocks.state[m]`` and ``blocks.bins[m]``.
    """
    nm = namelist.members
    shape = patch.shape
    state, bins, occupancy = blocks
    fields: list[WrfFields] = []
    u = np.empty((nm, *shape))
    v = np.empty((nm, *shape))
    ccn = np.empty((nm, *shape))
    precip = np.empty((nm, shape[0], shape[2]))
    for m in range(nm):
        f = build_rank_fields(namelist, rank, patch, member=m)
        f.bind_block(state[m], bins[m])
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
    planes = {name: state[:, :, q] for q, name in enumerate(STATE_FIELDS)}
    p_one = fields[0].pressure_mb[sl]
    rho_one = fields[0].rho[sl]
    scalar_masses = fields[0].micro.packed_masses
    # Summed as the transport sweep sums it, so the first step's
    # predicate sees what every later one does; the bits in the same
    # read (the numpy fallback sets them all).
    bits = fields[0].layout.masks()
    condensate = np.empty((nm, *shape))
    if not sum_condensate(bins, scalar_masses, bits, condensate, occupancy):
        blas_condensate(bins, scalar_masses, condensate)
        occupancy[...] = ALL_OCCUPIED
    workspace = get_workspace(
        (nm, *shape), fields[0].scalar_count(), fields[0].t.dtype, owner=rank
    )
    return RankState(
        rank=rank,
        state=state,
        bins=bins,
        fields=fields,
        clocks=clocks,
        sbms=[build_rank_sbm(namelist, clock, cpu_cost, engine) for clock in clocks],
        workspace=workspace,
        states=[f.micro.view(sl) for f in fields],
        bins_o=bins[every],
        t_o=planes["t"][every],
        qv_o=planes["qv"][every],
        ccn_o=ccn[every],
        precip_o=precip[:, sl[0], sl[2]],
        p_o=np.broadcast_to(p_one[None], (nm, *p_one.shape)),
        rho_o=np.broadcast_to(rho_one[None], (nm, *rho_one.shape)),
        pressure_levels=fields[0].p_mb_col[sl[1]],
        condensate=condensate,
        condensate_o=condensate[every],
        scalar_bits=bits,
        occupancy=occupancy,
        occupancy_o=occupancy[every],
        # The members share the base-state columns.
        advection=Advection(
            state, bins, Winds(u, v, namelist.domain.dx, namelist.domain.dz),
            namelist.dt, workspace, fields[0].layout.floors(), scalar_masses,
            bits, condensate, occupancy, fields[0].t_base_col,
            fields[0].rho_col, rk3=namelist.use_rk3_numerics,
        ),
    )


def _engine(works) -> str:
    """The engine a layer's work stats name: the first that ran one."""
    return next((w.engine for w in works if w.engine != "none"), "none")


def physics_rank(namelist: Namelist, rs: RankState) -> list[SbmStepStats]:
    """Run every member's microphysics on one rank's *owned* cells.

    Halo cells are excluded — WRF's physics run on tiles inside the
    patch; halos are refreshed by the exchange afterwards.
    """
    with tracer.span("physics", cat="physics") as sp:
        stats = step_members(
            rs.sbms,
            rs.states,
            rs.bins_o,
            rs.ccn_o,
            rs.precip_o,
            rs.t_o,
            rs.p_o,
            rs.qv_o,
            rs.rho_o,
            rs.condensate_o,
            rs.occupancy_o,
            namelist.domain.dz * 100.0,
            rs.pressure_levels,
        )
        if sp is not None:
            sp.set(
                members=len(stats),
                mp_points=sum(s.mp_points for s in stats),
                mp_candidates=sum(s.mp_candidates for s in stats),
                scan_engine=stats[0].scan_engine,
                coal_points=sum(s.coal_points for s in stats),
                # One call serves every member, so they agree; "none"
                # if no member ran the layer.
                coal_engine=_engine(s.coal for s in stats),
                cond_engine=_engine(s.cond for s in stats),
                freeze_engine=_engine(s.freeze for s in stats),
            )
    return stats


@dataclass
class RankHalo:
    """One rank's incoming halo segments, resolved once.

    ``boxes`` holds, per segment, the boxes it copies from and into:
    ``(src state, dst state, src bins, dst bins, src bits, dst bits)``,
    views into the ranks' :class:`RankBlocks`, which never move.
    ``pulls`` holds each segment's compiled pull arguments
    (:func:`repro.wrf.cstencil.halo_pull_args`), the last of them the
    per-row counts of the bins a pull wrote.
    """

    members: int
    boxes: list[tuple[np.ndarray, ...]]
    pulls: list[tuple]


def rank_halo(
    plan: HaloExchangePlan,
    rank: int,
    blocks: list[RankBlocks],
    masks: tuple[np.ndarray, np.ndarray],
) -> RankHalo:
    """``rank``'s incoming segments of ``plan``, as boxes of ``blocks``
    (every rank's, ``blocks[r]`` rank ``r``'s), each moving every
    member at once; ``masks`` is the bins layout's ``(smask, glo)``
    (:attr:`RankState.scalar_bits`)."""
    patches = plan.decomposition.patches
    dst = blocks[rank]
    boxes = []
    for seg in plan.segments_to(rank):
        src = blocks[seg.src]
        i, k, j = seg.src_slices(patches[seg.src])
        di, dk, dj = seg.dst_slices(patches[rank])
        boxes.append((
            src.state[:, i, :, k, j], dst.state[:, di, :, dk, dj],
            src.bins[:, i, k, j], dst.bins[:, di, dk, dj],
            src.occupancy[:, i, k, j], dst.occupancy[:, di, dk, dj],
        ))
    pulls = [cstencil.halo_pull_args(*box[2:], masks) for box in boxes]
    return RankHalo(dst.bins.shape[0], boxes, pulls)


def exchange_halos_rank(halo: RankHalo) -> None:
    """Fill one rank's halos from its neighbors' owned cells.

    Each incoming segment copies its state planes in one strided copy,
    then its bins and occupancy bytes in one compiled pull
    (:func:`repro.wrf.cstencil.build_halo_pull_ir`): a cell's species
    move only where the source bit is set, and those only the old
    destination bit marks are zero-filled, so a halo cell's bins equal
    its source's and its bits describe them. Without the compiled
    stencil the bins and the bits go in strided copies of the whole
    box. Halo writes are disjoint (owned regions partition the domain,
    so each halo point has exactly one source) and reads touch only
    owned regions, so ranks may pull concurrently — between two
    barriers in the worker processes — and the result never depends on
    the order.

    The span's ``bytes`` counts the full exchange, every scalar of
    every halo cell, as the MPI charges do (:func:`charge_halos_rank`);
    ``moved_bytes`` the scalars written: the state planes and the bins
    copied or zero-filled (so it equals ``bytes`` when every bin moves).
    ``occupancy_bytes`` counts the bits, which always move. ``engine``
    names the path that moved the bins (``"none"`` without segments).
    """
    lib = cstencil.load_stencil()
    with tracer.span("halo_exchange", cat="mpi") as sp:
        for (ss, ds, sb, db, so, do), pull in zip(halo.boxes, halo.pulls):
            ds[...] = ss
            if lib is None:
                db[...] = sb
                do[...] = so
            else:
                lib.halo_pull(*pull)
        if sp is not None:
            state, bins, cells = (
                sum(box[q].size for box in halo.boxes) for q in (0, 2, 4)
            )
            moved = bins if lib is None else sum(
                int(pull[-1].sum()) for pull in halo.pulls
            )
            itemsize = np.dtype(np.float64).itemsize  # both blocks' scalars
            sp.set(
                bytes=(state + bins) * itemsize,
                moved_bytes=(state + moved) * itemsize,
                occupancy_bytes=cells,
                segments=len(halo.boxes),
                members=halo.members,
                engine="none" if not halo.boxes
                else "numpy" if lib is None else "compiled",
            )


def _cell_scalars(state: np.ndarray, bins: np.ndarray) -> int:
    """The scalars of one cell across both blocks (234)."""
    return state.shape[2] + bins.shape[-1]


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
    nscalars = _cell_scalars(rs.state, rs.bins)
    itemsize = rs.bins.itemsize
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

    Numerics: the rank's :class:`~repro.wrf.transport.Advection` runs
    one donor-cell step of both stacked blocks in place — single Euler
    stage (default) or full RK3 (``use_rk3_numerics``) — then the
    buoyancy update of every member's w: compiled end to end when the
    stencil library loads (its calls built once with the rank, each
    sweep splitting its cells' winds as it goes), in numpy otherwise.
    Both are elementwise in the member axis, so member ``m``'s result is
    bitwise a one-member run's. The compiled sweep writes each cell's
    condensate into ``rs.condensate``, summed from the cell's own bins
    in a fixed order, and its bits into ``rs.occupancy``, skipping every
    species the bits mark empty across a cell's stencil. The condensate
    feeds the buoyancy update, the next step's physics predicate and
    the output frames: no block copy and no second read of the block,
    and it does not depend on BLAS call shapes, the member count or the
    decomposition. The numpy fallback sweeps every species, sets every
    bit and contracts each member's bins instead (a BLAS call per
    member, which must not see other members' rows).

    The span mirrors the ``rk_scalar_tend``/``rk_update_scalar`` clock
    regions' work under one measured name; ``flops`` counts the stages
    executed over both blocks (tendency + update per cell-scalar)
    and ``bytes`` the blocks' minimum traffic (one read + one write per
    stage), whatever the sweep skipped, so its rate compares with a
    full sweep's. ``swept`` and ``skipped`` count the (cell, species)
    pairs the stages computed and skipped, and ``engine`` names the
    sweep that ran (``"compiled"`` or ``"numpy"``).
    """
    with tracer.span("transport", cat="transport") as sp:
        swept = rs.advection.run(cstencil.load_stencil())
        if sp is not None:
            cell_scalars = float(rs.state.size + rs.bins.size)
            stages = len(RK3_FRACTIONS) if namelist.use_rk3_numerics else 1
            pairs = rs.occupancy.size * (len(rs.scalar_bits[1]) - 1)
            done = pairs if swept is None else int(swept.sum())
            sp.set(
                flops=cell_scalars
                * stages
                * (FLOPS_PER_CELL_TEND + FLOPS_PER_CELL_UPDATE),
                bytes=2.0 * stages * cell_scalars * rs.bins.itemsize,
                swept=stages * done,
                skipped=stages * (pairs - done),
                members=rs.bins.shape[0],
                engine="numpy" if swept is None else "compiled",
            )


def transport_rank(
    namelist: Namelist, cpu_cost: CpuCostModel, rs: RankState
) -> None:
    """Charge each member's CPU-path RK3 cost, then run the numerics."""
    for f, clock in zip(rs.fields, rs.clocks):
        transport_charges(namelist, cpu_cost, f, clock)
    transport_numerics(namelist, rs)


def output_frame(domain: DomainSpec, alloc=np.zeros) -> dict[str, np.ndarray]:
    """A domain-wide output frame: ``T``, ``QVAPOR``, ``W`` and
    ``QCLOUD_TOTAL`` over ``(nx, nz, ny)``, ``RAINNC`` over ``(nx, ny)``.

    ``alloc(shape)`` makes each zeroed float64 field (the process-rank
    pool passes its shared-mapping allocator).
    """
    cube = (domain.nx, domain.nz, domain.ny)
    return {
        "T": alloc(cube),
        "QVAPOR": alloc(cube),
        "W": alloc(cube),
        "QCLOUD_TOTAL": alloc(cube),
        "RAINNC": alloc((domain.nx, domain.ny)),
    }


def rank_output_frame(
    rs: RankState, member: int, out: dict[str, np.ndarray]
) -> None:
    """Write one rank's owned cells of member ``member`` into the
    domain-wide frame ``out`` (see :func:`output_frame`).

    The ranks' owned boxes tile the domain, so once every rank has
    written, every cell of ``out`` holds the member's current state.
    ``QCLOUD_TOTAL`` is the rank's condensate field.
    """
    f = rs.fields[member]
    patch = f.patch
    i, k, j = patch.i.to_slice(1), patch.k.to_slice(1), patch.j.to_slice(1)
    out["T"][i, k, j] = f.owned(f.t)
    out["QVAPOR"][i, k, j] = f.owned(f.qv)
    out["W"][i, k, j] = f.owned(f.w)
    out["QCLOUD_TOTAL"][i, k, j] = rs.condensate_o[member]
    out["RAINNC"][i, j] = f.micro.precip[
        patch.i.to_slice(patch.im.start), patch.j.to_slice(patch.jm.start)
    ]


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

    Under process ranks (:mod:`repro.wrf.procpool`) the worker processes
    own the rank state: ``ranks``, ``fields`` and ``workspaces`` are
    empty, the clocks are mirrors of the workers' clocks, and
    :meth:`gather_output` is the way to read fields.
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
        # two persistent per-rank blocks (the host analog of keeping
        # data mapped on the device between kernels). Under process
        # ranks the workers build and own every rank's state in their
        # shared storage, so the driver holds none.
        self.ranks: list[RankState] = []
        if self._pool is None:
            for rank, patch in enumerate(self.decomposition.patches):
                _, state, bins = rank_blocks(nm, patch.shape)
                occupancy = np.empty((nm, *patch.shape), dtype=np.uint8)
                self.ranks.append(
                    build_rank_state(
                        namelist,
                        rank,
                        patch,
                        RankBlocks(state, bins, occupancy),
                        [row[rank] for row in self.member_clocks],
                        self.cpu_cost,
                        self.engines[rank],
                    )
                )
        #: Every rank's incoming halo segments, as the in-process exchange
        #: reads them.
        blocks = [
            RankBlocks(rs.state, rs.bins, rs.occupancy) for rs in self.ranks
        ]
        self._halos = [
            rank_halo(self.halo_plan, rs.rank, blocks, rs.scalar_bits)
            for rs in self.ranks
        ]
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
        #: The step whose frames the last history write produced.
        self._history_step: int | None = None
        #: Whether close() stopped a worker pool, which took the rank
        #: state with it.
        self._pool_closed = False

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
        for rank in range(self.namelist.num_ranks):
            with tracer.rank_scope(rank):
                exchange_halos_rank(self._halos[rank])
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
        the run has more than one member. A forced call right after a
        step that wrote its history returns that step's frames without
        writing or charging them again.
        """
        nm = self.namelist.members
        if force and self._history_step == self.steps_done:
            return [self.gather_output(m) for m in range(nm)]
        interval = self.namelist.history_interval
        due = force or (
            interval > 0.0 and self._sim_time - self._last_history >= interval
        )
        if not due:
            return None
        self._last_history = self._sim_time
        self._history_step = self.steps_done
        num_ranks = self.namelist.num_ranks
        frames: list[dict[str, np.ndarray]] = []
        for m in range(nm):
            with tracer.span("history_io", cat="io") as sp:
                frame = self.gather_output(m)
                file_bytes = 0
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
                    path = write_wrfout(
                        f"{self.namelist.history_path}/{name}", frame, attrs=attrs
                    )
                    file_bytes = path.stat().st_size
                # ``bytes`` is the frame in memory, which the simulated
                # I/O charges below use; ``file_bytes`` is the file.
                nbytes = sum(a.nbytes for a in frame.values())
                if sp is not None:
                    sp.set(
                        bytes=nbytes,
                        file_bytes=file_bytes,
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
        """One member's domain-wide output fields, in arrays the caller owns.

        Every rank writes its owned cells into one frame
        (:func:`rank_output_frame`). In-process ranks write into a new
        frame; worker processes write into the pool's shared frame,
        which is copied out because the next gather overwrites it.
        """
        if self._pool is not None:
            frame = self._pool.gather(member)
            return {name: field.copy() for name, field in frame.items()}
        out = output_frame(self.namelist.domain)
        self._run_ranks(
            lambda rank: rank_output_frame(self.ranks[rank], member, out)
        )
        return out

    # --- the loop -------------------------------------------------------------

    def _run_ranks(self, stage_fn) -> list:
        """Apply a per-rank stage to every rank, on the thread pool if any.

        Results come back in rank order either way, and each stage call
        touches only its own rank's state, so serial and pooled
        execution are interchangeable. After :meth:`close` has stopped
        the worker pool there is no rank state left to run on, and the
        call raises the pool's own :class:`~repro.errors.ProcPoolError`.
        """
        if self._pool_closed:
            raise ProcPoolError("pool is closed")
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
        blocks, transport) under its authoritative clocks, then
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
            self._pool_closed = True
        for e in self.engines:
            if e is not None:
                e.close()
