"""The ``fast_sbm`` driver: Listing 1's grid loops, stage by stage.

:func:`step_members` advances the microphysics of every ensemble
member of a patch by one model step in one sweep: nucleation ->
condensation (``onecond1``/``onecond2``) -> freezing/melting ->
collision–coalescence -> sedimentation. Each member has its own
:class:`FastSBM` (its clock and stage switches), and a plain run is
the one-member case (:meth:`FastSBM.step`). The collision part is
dispatched per optimization stage:

* CPU stages charge the scalar-loop work to the rank clock through the
  Milan cost model;
* offload stages fission the collision loop out (the paper's predicate
  array ``call_coal_bott_new``), move the gathered bin data through
  ``map`` clauses, and launch the kernel on the simulated A100 — in
  float32, so device results genuinely differ from host float64.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field

import numpy as np

from repro.constants import T_COAL_CUTOFF, T_FREEZE_CUTOFF, T_0
from repro.core.clock import SimClock, TimeBucket
from repro.core.costmodel import CpuCostModel
from repro.core.directives import (
    Map,
    MapType,
    TargetTeamsDistributeParallelDo,
)
from repro.core.engine import KernelRecord, OffloadEngine
from repro.core.kernel import Kernel, KernelResources, estimate_registers
from repro.errors import ConfigurationError
from repro.fsbm.coal_bott import (
    CoalSelection,
    CoalWorkStats,
    coal_bott_step,
    coal_bott_step_members,
    predict_coal_work,
)
from repro.fsbm.collision_kernels import KernelTables, get_tables
# The one-member names (``onecond1``/``onecond2``,
# ``sedimentation_step``) are wrappers over the member implementations
# this module calls; they stay importable from here, where the
# benchmark's layer probes look every physics entry point up.
from repro.fsbm.condensation import (  # noqa: F401
    CondWorkStats,
    onecond1,
    onecond1_members,
    onecond2,
    onecond2_members,
)
from repro.fsbm.freezing import FreezeWorkStats, freezing_melting_step
from repro.fsbm.nucleation import NuclWorkStats, jernucl01_ks
from repro.fsbm.sedimentation import (  # noqa: F401
    SedWorkStats,
    sedimentation_step,
    sedimentation_step_members,
)
from repro.fsbm.species import INTERACTIONS, Species
from repro.fsbm.state import MicroState, N_EPS
from repro.fsbm.thermo import saturation_mixing_ratio
from repro.fsbm.temp_arrays import (
    FRAME_SWEEPS,
    TempArrays,
    automatic_frame_bytes,
    per_point_temp_bytes,
)
from repro.hardware.memory import AccessPattern, TrafficComponent
from repro.optim.stages import STAGE_SPECS, Stage, StageSpec


@dataclass
class SbmStepStats:
    """Per-step accounting returned by :meth:`FastSBM.step`."""

    mp_points: int = 0
    coal_points: int = 0
    coal: CoalWorkStats = field(default_factory=CoalWorkStats)
    cond: CondWorkStats = field(default_factory=CondWorkStats)
    nucl: NuclWorkStats = field(default_factory=NuclWorkStats)
    sed: SedWorkStats = field(default_factory=SedWorkStats)
    freeze: FreezeWorkStats = field(default_factory=FreezeWorkStats)
    coal_record: KernelRecord | None = None
    #: Simulated seconds spent in the collision part this step.
    coal_seconds: float = 0.0
    #: Simulated seconds spent in fast_sbm in total this step.
    fast_sbm_seconds: float = 0.0


class FastSBM:
    """Stage-dispatching FSBM microphysics for one rank's patch."""

    def __init__(
        self,
        stage: Stage,
        dt: float,
        clock: SimClock,
        cpu_cost: CpuCostModel,
        engine: OffloadEngine | None = None,
        tables: KernelTables | None = None,
        precision: str = "fp32",
        offload_condensation: bool = False,
        autocompare: bool = False,
    ):
        self.stage = stage
        self.spec: StageSpec = STAGE_SPECS[stage]
        self.dt = dt
        self.clock = clock
        self.cpu_cost = cpu_cost
        self.engine = engine
        self.tables = tables or get_tables()
        self.precision = precision
        #: Sec. VIII's in-progress extension: offload the loops calling
        #: the condensation routines "using a similar approach".
        self.offload_condensation = offload_condensation
        #: ``-gpu=autocompare``: shadow every offloaded collision region
        #: on the host in fp64 and record the per-step agreement.
        self.autocompare = autocompare
        self.autocompare_reports: list = []
        self.temp_arrays: TempArrays | None = None
        if stage.uses_gpu and engine is None:
            raise ConfigurationError(f"stage {stage} requires an offload engine")
        if offload_condensation and not stage.uses_gpu:
            raise ConfigurationError(
                "condensation offload requires a GPU stage"
            )

    # --- cost charging -------------------------------------------------------

    def _charge_cpu(self, flops: float, nbytes: float, iterations: int = 0) -> None:
        self.clock.advance(
            TimeBucket.CPU_COMPUTE, self.cpu_cost.time(flops, nbytes, iterations)
        )

    # --- the step -------------------------------------------------------------

    def step(
        self,
        state: MicroState,
        temperature: np.ndarray,
        pressure_mb: np.ndarray,
        qv: np.ndarray,
        rho_air: np.ndarray,
        dz_cm: float,
    ) -> SbmStepStats:
        """Advance the patch microphysics by ``dt`` (all arrays in place).

        The one-member case of :func:`step_members`; the sedimentation
        fall speeds see the patch's mean pressure per level.
        """
        (stats,) = step_members(
            [self],
            [state],
            {sp: d[None] for sp, d in state.dists.items()},
            state.ccn[None],
            state.precip[None],
            temperature[None],
            pressure_mb[None],
            qv[None],
            rho_air[None],
            dz_cm,
            pressure_mb.mean(axis=(0, 2)),
        )
        return stats

    # --- offloaded loops (one member: GPU stages) -----------------------------

    def _condensation_offloaded(
        self,
        state: MicroState,
        g_dists: dict[Species, np.ndarray],
        g_t: np.ndarray,
        g_p: np.ndarray,
        g_qv: np.ndarray,
        g_rho: np.ndarray,
        g_ccn: np.ndarray,
        warm: np.ndarray,
        species_present: dict[Species, bool],
    ) -> CondWorkStats:
        """Offload the condensation loops (the Sec. VIII extension).

        Same recipe as the collision loop: predict the work, describe
        the kernel (onecond's working arrays are modest — a handful of
        per-bin temporaries — so the frame fits even default stacks),
        launch, run the real numerics in the body.
        """
        assert self.engine is not None
        from repro.fsbm.condensation import FLOPS_PER_BIN

        npts = int(g_t.shape[0])
        ni, nk, nj = state.shape
        nkr = state.nkr
        species_active = 1 + sum(
            1
            for sp in Species
            if sp is not Species.LIQUID and (g_dists[sp].sum(axis=1) > N_EPS).any()
        )
        predicted_updates = float(npts * nkr * species_active)
        flops = predicted_updates * FLOPS_PER_BIN
        result: list[CondWorkStats] = []

        resources = KernelResources(
            registers_per_thread=estimate_registers(24, 8),
            automatic_array_bytes=8 * nkr * 4,  # growth/remap temporaries
            working_set_per_thread=float(8 * nkr * 4),
            flops=flops,
            traffic=(
                TrafficComponent(
                    name="bin-distributions",
                    pattern=AccessPattern.GLOBAL_COALESCED,
                    read_bytes=predicted_updates * 4.0,
                    write_bytes=predicted_updates * 4.0,
                ),
                TrafficComponent(
                    name="thermo-fields",
                    pattern=AccessPattern.GLOBAL_COALESCED,
                    read_bytes=npts * 4.0 * 5,
                    write_bytes=npts * 4.0 * 2,
                ),
            ),
            active_iterations=npts,
            compute_efficiency=0.10,
            precision=self.precision,
        )
        kernel = Kernel(
            name="onecond_loop",
            loop_extents=(nj, nk, ni),
            resources=resources,
            body=lambda: result.append(
                _condensation(
                    g_dists, g_t, g_p, g_qv, g_rho, g_ccn, warm, self.dt,
                    [(0, npts)], [species_present],
                )[0]
            ),
        )
        directive = TargetTeamsDistributeParallelDo(
            collapse=self.spec.collapse or 3,
            maps=(
                Map(
                    MapType.TOFROM,
                    tuple(f"fsbm_{sp.value}" for sp in Species)
                    + ("t_old", "qv", "ccn"),
                ),
            ),
        )
        to_arrays = {
            f"fsbm_{sp.value}": g_dists[sp] for sp in Species
        }
        to_arrays["t_old"] = g_t
        to_arrays["qv"] = g_qv
        to_arrays["ccn"] = g_ccn
        self.engine.launch(
            kernel,
            directive,
            to_arrays=to_arrays,
            from_names=tuple(to_arrays),
        )
        return result[0] if result else CondWorkStats()

    def _collisions_offloaded(
        self,
        state: MicroState,
        c_dists: dict[Species, np.ndarray],
        c_t: np.ndarray,
        c_p: np.ndarray,
        occupied: dict[Species, np.ndarray],
        selection: CoalSelection,
    ) -> tuple[CoalWorkStats, KernelRecord]:
        """Stage 2/3: launch the fissioned collision loop on the device."""
        assert self.engine is not None
        spec = self.spec
        ni, nk, nj = state.shape
        nkr = state.nkr

        if spec.stage is Stage.OFFLOAD_COLLAPSE3 and self.temp_arrays is None:
            self.temp_arrays = TempArrays(state.shape)
            self.temp_arrays.allocate(self.engine)

        work = predict_coal_work(
            c_dists, c_t, self.tables, INTERACTIONS, occupied, on_demand=True,
            selection=selection,
        )
        npts = int(c_t.shape[0])
        resources = self._coal_resources(work, npts, nkr)
        device_dtype = np.float32 if self.precision == "fp32" else np.float64

        def body() -> None:
            shadow = None
            if self.autocompare:
                shadow = {sp: d.copy() for sp, d in c_dists.items()}
                coal_bott_step(
                    shadow,
                    c_t,
                    c_p,
                    self.dt,
                    self.tables,
                    INTERACTIONS,
                    occupied=occupied,
                    on_demand=True,
                    dtype=np.float64,
                    selection=selection,
                )
            ran = coal_bott_step(
                c_dists,
                c_t,
                c_p,
                self.dt,
                self.tables,
                INTERACTIONS,
                occupied=occupied,
                on_demand=True,
                dtype=device_dtype,
                selection=selection,
            )
            work.engine = ran.engine
            if shadow is not None:
                from repro.core.autocompare import autocompare_region

                self.autocompare_reports.append(
                    autocompare_region(
                        "coal_bott_new_loop",
                        host_outputs={sp.value: d for sp, d in shadow.items()},
                        device_outputs={
                            sp.value: d for sp, d in c_dists.items()
                        },
                    )
                )

        kernel = Kernel(
            name="coal_bott_new_loop",
            loop_extents=(nj, nk, ni),
            resources=resources,
            body=body,
        )
        field_names = tuple(f"fsbm_{sp.value}" for sp in Species)
        directive = TargetTeamsDistributeParallelDo(
            collapse=spec.collapse,
            maps=(
                Map(MapType.TOFROM, field_names),
                Map(MapType.TO, ("t_old", "p_mb", "call_coal_bott_new")),
            ),
            private=("i", "k", "j"),
        )
        to_arrays = {
            name: c_dists[sp] for name, sp in zip(field_names, Species)
        }
        to_arrays["t_old"] = c_t
        to_arrays["p_mb"] = c_p
        to_arrays["call_coal_bott_new"] = np.ones(npts)
        record = self.engine.launch(
            kernel, directive, to_arrays=to_arrays, from_names=field_names
        )
        return work, record

    def _coal_resources(
        self, work: CoalWorkStats, npts: int, nkr: int
    ) -> KernelResources:
        """Resource descriptor for the collision kernel at this stage."""
        return coal_kernel_resources(
            self.spec, work, npts, nkr, precision=self.precision
        )


def coal_kernel_resources(
    spec: StageSpec,
    work: CoalWorkStats,
    npts: int,
    nkr: int,
    precision: str = "fp32",
) -> KernelResources:
    """Resource/traffic descriptor for one collision-loop launch.

    Shared by the live driver and the cost-projection harness so both
    price the kernel identically. ``npts`` is the number of grid points
    the predicate actually admits.
    """
    frame = automatic_frame_bytes() if spec.automatic_arrays else 0
    registers = estimate_registers(
        spec.n_scalars, spec.n_array_vars, pointer_based=spec.pointer_based
    )
    frame_traffic = float(npts) * per_point_temp_bytes() * FRAME_SWEEPS
    if spec.automatic_arrays:
        frame_pattern = AccessPattern.THREAD_SEQUENTIAL
    else:
        # Stage 3's *_temp arrays are global and grid-point strided.
        frame_pattern = AccessPattern.GLOBAL_STRIDED
    traffic = (
        TrafficComponent(
            name="work-arrays",
            pattern=frame_pattern,
            read_bytes=frame_traffic * 0.6,
            write_bytes=frame_traffic * 0.4,
        ),
        TrafficComponent(
            name="kernel-tables",
            pattern=AccessPattern.BROADCAST,
            read_bytes=work.kernel_entries * 8.0,
            write_bytes=0.0,
        ),
        TrafficComponent(
            name="bin-distributions",
            pattern=AccessPattern.GLOBAL_COALESCED,
            read_bytes=float(npts) * nkr * len(Species) * 4.0,
            write_bytes=float(npts) * nkr * len(Species) * 4.0,
        ),
    )
    return KernelResources(
        registers_per_thread=registers,
        automatic_array_bytes=frame,
        working_set_per_thread=float(per_point_temp_bytes()),
        flops=work.flops,
        traffic=traffic,
        active_iterations=npts,
        compute_efficiency=0.10,
        precision=precision,
    )


# --- the sweep -----------------------------------------------------------------
#
# One fused microphysics sweep over N members resident in one stacked
# block (N = 1 for a plain run). The batching discipline, derived from
# what is and is not bitwise row-stable on this host:
#
# * elementwise ufuncs, integer-tuple gathers/scatters in C order, and
#   per-row ``sum(axis=1)`` reductions run once over the member
#   concatenation (each member's rows come out bit-for-bit);
# * anything BLAS (`@`) and any branch whose predicate spans rows runs
#   per member (see ``coal_bott_step_members`` /
#   ``condensation._condensation_core`` for the per-phase argument);
# * the compiled C kernels (collisions, sedimentation) take every
#   member in one call with member-local segments or strides.
#
# Per-member ``SimClock`` charges replicate a one-member step's region
# keys and amounts exactly: a ``region`` context that charges nothing
# leaves no trace, so only charge placement matters.


def _occupied(dists: dict[Species, np.ndarray]) -> dict[Species, np.ndarray]:
    """Occupied-bin counts per species (row-local; any member mix)."""
    out: dict[Species, np.ndarray] = {}
    for sp, d in dists.items():
        present = d > N_EPS
        rev = present[:, ::-1]
        first = np.argmax(rev, axis=1)
        out[sp] = np.where(present.any(axis=1), d.shape[1] - first, 0)
    return out


def _condensation(
    g_dists: dict[Species, np.ndarray],
    g_t: np.ndarray,
    g_p: np.ndarray,
    g_qv: np.ndarray,
    g_rho: np.ndarray,
    g_ccn: np.ndarray,
    warm: np.ndarray,
    dt: float,
    segments: list[tuple[int, int]],
    sp_present: list[dict[Species, bool]],
) -> list[CondWorkStats]:
    """Route warm points to onecond1 and mixed-phase to onecond2.

    The warm and cold subsets are gathered over all members at once
    (``flatnonzero`` preserves the member-major order), and the onecond
    cores handle the per-member gates and BLAS splits.
    """
    totals = [CondWorkStats() for _ in segments]
    starts = [s for s, _ in segments]
    stops = [e for _, e in segments]
    for mask, routine in ((warm, onecond1_members), (~warm, onecond2_members)):
        idx = np.flatnonzero(mask)
        if idx.size == 0:
            continue
        los = np.searchsorted(idx, starts)
        his = np.searchsorted(idx, stops)
        sub_segments = [(int(lo), int(hi)) for lo, hi in zip(los, his)]
        sub = {sp: d[idx] for sp, d in g_dists.items()}
        st, sp_, sq, sr, sc = (
            g_t[idx],
            g_p[idx],
            g_qv[idx],
            g_rho[idx],
            g_ccn[idx],
        )
        part = routine(
            sub, st, sp_, sq, sr, sc, dt, sub_segments,
            species_present=sp_present,
        )
        for total, stats in zip(totals, part):
            total.merge(stats)
        for sp in g_dists:
            g_dists[sp][idx] = sub[sp]
        g_t[idx], g_qv[idx], g_ccn[idx] = st, sq, sc
    return totals


def _collisions(
    sbms: list[FastSBM],
    states: list[MicroState],
    g_dists: dict[Species, np.ndarray],
    g_t: np.ndarray,
    g_p: np.ndarray,
    segments: list[tuple[int, int]],
    stats_list: list[SbmStepStats],
) -> None:
    """coal_bott_new per the active stage, over every member's points.

    CPU stages apply every member in one call and charge the scalar-
    loop work to each member's clock; GPU stages (one member) launch
    the fissioned loop on the device, which charges the clock itself.
    """
    lead = sbms[0]
    # Per-species row sums serve both the condensate predicate and the
    # interaction selection below — row sums are row-independent, so
    # slicing them to the called points is bitwise identical to
    # CoalSelection.build on the gathered copies.
    sums = {sp: d.sum(axis=1) for sp, d in g_dists.items()}
    condensate = np.zeros(g_t.shape)
    for s_arr in sums.values():
        condensate += s_arr
    # The paper's predicate array call_coal_bott_new(i,k,j).
    call_coal = (g_t > T_COAL_CUTOFF) & (condensate > N_EPS)
    cidx = np.flatnonzero(call_coal)
    clos = np.searchsorted(cidx, [s for s, _ in segments])
    chis = np.searchsorted(cidx, [e for _, e in segments])
    coal_segments = [(int(lo), int(hi)) for lo, hi in zip(clos, chis)]
    works = None
    if cidx.size:
        c_dists = {sp: d[cidx] for sp, d in g_dists.items()}
        c_t = g_t[cidx]
        c_p = g_p[cidx]
        occupied = _occupied(c_dists)
        # One selection for the whole step: the work prediction and the
        # update (and its fp64 shadow) all test the same pre-step state.
        selection = CoalSelection(
            c_t, {sp: s_arr[cidx] for sp, s_arr in sums.items()}, {}
        )
        if not lead.stage.uses_gpu:
            args = (c_dists, c_t, c_p, lead.dt, lead.tables, INTERACTIONS)
            kwargs = dict(
                occupied=occupied,
                on_demand=lead.stage.on_demand_kernels,
                selection=selection,
            )
            if len(segments) == 1:
                # A plain run enters through the one-member name (the
                # same code), which is what callers that wrap or patch
                # ``coal_bott_step`` expect a plain run to call.
                works = [coal_bott_step(*args, **kwargs)]
            else:
                works = coal_bott_step_members(*args, coal_segments, **kwargs)
    for m, ((s, e), (lo, hi)) in enumerate(zip(segments, coal_segments)):
        if e == s:
            continue
        sbm, stats = sbms[m], stats_list[m]
        with sbm.clock.region("coal_bott_new"):
            before = sbm.clock.total
            if hi > lo:
                stats.coal_points = hi - lo
                if works is not None:
                    stats.coal = works[m]
                    sbm._charge_cpu(
                        stats.coal.flops,
                        stats.coal.bytes_moved,
                        iterations=int(stats.coal.pair_entries),
                    )
                else:
                    stats.coal, stats.coal_record = sbm._collisions_offloaded(
                        states[m], c_dists, c_t, c_p, occupied, selection
                    )
            stats.coal_seconds = sbm.clock.total - before
    if cidx.size:
        for sp in g_dists:
            g_dists[sp][cidx] = c_dists[sp]


def step_members(
    sbms: list[FastSBM],
    states: list[MicroState],
    dists_stacked: dict[Species, np.ndarray],
    ccn_stacked: np.ndarray,
    precip_stacked: np.ndarray,
    temperature: np.ndarray,
    pressure_mb: np.ndarray,
    qv: np.ndarray,
    rho_air: np.ndarray,
    dz_cm: float,
    pressure_levels: np.ndarray,
) -> list[SbmStepStats]:
    """Advance N ensemble members' microphysics in one fused sweep.

    ``sbms[m]``/``states[m]`` are member ``m``'s driver (own clock) and
    micro state; the stacked arrays are ``(nm, ...)`` member-major
    views whose slice ``[m]`` aliases that member's patch arrays (all
    updated in place). ``pressure_levels`` is the ``(nk,)`` base-state
    pressure column the members share (sedimentation fall speeds).

    Member ``m``'s fields, work stats, and clock charges are
    bit-identical to a one-member step of that member alone. GPU
    stages and condensation offload step one member: their ranks share
    the simulated GPU pool.
    """
    nm = len(sbms)
    lead = sbms[0]
    if nm > 1 and lead.stage.uses_gpu:
        raise ConfigurationError("members > 1 supports CPU stages only")
    ni, nk, nj = states[0].shape
    npatch = ni * nk * nj
    dt = lead.dt
    stats_list = [SbmStepStats() for _ in range(nm)]
    step_start = [sbm.clock.total for sbm in sbms]

    with ExitStack() as stack:
        for sbm in sbms:
            stack.enter_context(sbm.clock.region("fast_sbm"))
        # The i,k,j scan of Listing 1 (conditional tests at every cell).
        for sbm in sbms:
            sbm._charge_cpu(2.0 * npatch, 8.0 * npatch, iterations=npatch)

        # Cells the microphysics touches: warm enough, and either
        # carrying condensate or saturated enough to form some. (The
        # Fortran scans every cell — charged above — but only these do
        # real work inside the conditionals.)
        qs = saturation_mixing_ratio(temperature, pressure_mb)
        condensate = np.empty(temperature.shape)
        for m, state in enumerate(states):
            condensate[m] = state.total_condensate_mass()
        mp_mask = (temperature > T_FREEZE_CUTOFF) & (
            (condensate > N_EPS) | (qv > 0.98 * qs)
        )
        counts = mp_mask.reshape(nm, -1).sum(axis=1)
        offs = np.zeros(nm + 1, dtype=np.int64)
        np.cumsum(counts, out=offs[1:])
        segments = [(int(offs[m]), int(offs[m + 1])) for m in range(nm)]
        total_pts = int(offs[-1])
        for m in range(nm):
            stats_list[m].mp_points = int(counts[m])

        if total_pts:
            # Integer-tuple indexing: one np.nonzero, then every gather
            # and scatter fans out from the precomputed coordinate
            # arrays. On the strided superblock views this measures
            # ~1.3x faster than repeated boolean masking (which re-scans
            # the mask per field) and yields the same elements in the
            # same member-major C order.
            midx = np.nonzero(mp_mask)
            g_dists = {
                sp: dists_stacked[sp][midx] for sp in states[0].dists
            }
            g_t = temperature[midx]
            g_p = pressure_mb[midx]
            g_qv = qv[midx]
            g_rho = rho_air[midx]
            g_ccn = ccn_stacked[midx]

            # --- nucleation (jernucl01_ks, elementwise) ----------------
            jernucl01_ks(g_dists, g_t, g_p, g_qv, g_rho, g_ccn, dt)
            for m, (s, e) in enumerate(segments):
                if e == s:
                    continue
                stats_list[m].nucl = NuclWorkStats(points=e - s)
                with sbms[m].clock.region("jernucl01_ks"):
                    sbms[m]._charge_cpu(
                        stats_list[m].nucl.flops,
                        stats_list[m].nucl.bytes_moved,
                    )

            # --- condensation (onecond1 / onecond2) ---------------------
            # One cheap presence scan per species and member (post-
            # nucleation): an all-zero species contributes nothing to
            # the ice gate and can skip every per-subset occupancy probe
            # inside the condensation core, exactly.
            sp_present = [
                {sp: bool(g_dists[sp][s:e].any()) for sp in Species}
                for (s, e) in segments
            ]
            ice_present = np.zeros(total_pts, dtype=bool)
            for sp in Species:
                if sp is Species.LIQUID:
                    continue
                hot = None
                for m, (s, e) in enumerate(segments):
                    if e > s and sp_present[m][sp]:
                        if hot is None:
                            hot = g_dists[sp].sum(axis=1) > N_EPS
                        ice_present[s:e] |= hot[s:e]
            warm = (g_t > T_0 - 5.0) & ~ice_present
            if lead.offload_condensation:
                with lead.clock.region("onecond"):
                    stats_list[0].cond = lead._condensation_offloaded(
                        states[0], g_dists, g_t, g_p, g_qv, g_rho, g_ccn,
                        warm, sp_present[0],
                    )
            else:
                cond_list = _condensation(
                    g_dists, g_t, g_p, g_qv, g_rho, g_ccn, warm, dt,
                    segments, sp_present,
                )
                for m, (s, e) in enumerate(segments):
                    if e == s:
                        continue
                    stats_list[m].cond = cond_list[m]
                    with sbms[m].clock.region("onecond"):
                        sbms[m]._charge_cpu(
                            cond_list[m].flops, cond_list[m].bytes_moved
                        )

            # --- freezing / melting (cross-row gates: per member) ------
            for m, (s, e) in enumerate(segments):
                if e == s:
                    continue
                seg_dists = {sp: d[s:e] for sp, d in g_dists.items()}
                with sbms[m].clock.region("freezing"):
                    stats_list[m].freeze = freezing_melting_step(
                        seg_dists, g_t[s:e], g_rho[s:e], dt
                    )
                    sbms[m]._charge_cpu(
                        stats_list[m].freeze.flops,
                        stats_list[m].freeze.bytes_moved,
                    )

            # --- collision–coalescence (coal_bott_new) -----------------
            _collisions(sbms, states, g_dists, g_t, g_p, segments, stats_list)

            for sp in g_dists:
                dists_stacked[sp][midx] = g_dists[sp]
            temperature[midx] = g_t
            qv[midx] = g_qv
            ccn_stacked[midx] = g_ccn

        # --- sedimentation (full field, every member in one sweep) -----
        with ExitStack() as sed_stack:
            for sbm in sbms:
                sed_stack.enter_context(sbm.clock.region("sedimentation"))
            sed_list = sedimentation_step_members(
                dists_stacked, precip_stacked, pressure_levels, dz_cm, dt
            )
            for m, sbm in enumerate(sbms):
                stats_list[m].sed = sed_list[m]
                sbm._charge_cpu(sed_list[m].flops, sed_list[m].bytes_moved)

    for m, sbm in enumerate(sbms):
        stats_list[m].fast_sbm_seconds = sbm.clock.total - step_start[m]
    return stats_list
