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
from repro.fsbm import ckernels
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
from repro.fsbm.state import ALL_OCCUPIED, MicroState, N_EPS, all_occupied
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
    #: Cells the microphysics predicate was evaluated on, and the path
    #: that chose them (the compiled candidate scan, or every cell).
    mp_candidates: int = 0
    scan_engine: str = "none"
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
        fall speeds see the patch's mean pressure per level, the
        predicate the state's :meth:`MicroState.total_condensate_mass`,
        and the kernels an all-set occupancy field (nothing skipped).
        A state without a packed view (:meth:`MicroState.bind_packed`)
        steps on a packed copy of its bins, copied back afterwards.
        """
        bins = state.packed
        if bins is None:
            bins = np.concatenate([state.dists[sp] for sp in Species], axis=-1)
        (stats,) = step_members(
            [self],
            [state],
            bins[None],
            state.ccn[None],
            state.precip[None],
            temperature[None],
            pressure_mb[None],
            qv[None],
            rho_air[None],
            state.total_condensate_mass()[None],
            all_occupied((1, *state.shape)),
            dz_cm,
            pressure_mb.mean(axis=(0, 2)),
        )
        if state.packed is None:
            for sp, cols in species_columns(bins).items():
                state.dists[sp][...] = cols
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
# block (N = 1 for a plain run). The active points' bins are gathered
# once, one contiguous row copy per point of the packed all-species
# view (the compiled ``gather_rows``; a fancy index on numpy), into a
# point-major buffer in which each species is a column slice at row
# stride ``nsp * nkr``; every layer works on that buffer, collisions
# included (they select their rows of it in place), and one scatter
# writes it back. The batching discipline is that a member's rows
# never depend on the other rows of a call:
#
# * elementwise ufuncs, integer-tuple gathers/scatters in C order, and
#   row-local reductions (the compiled ``row_stats``, ``sum(axis=1)``)
#   run once over the member concatenation;
# * the compiled kernels (condensation, freezing/melting, collisions,
#   sedimentation) sum each row serially in a fixed order and take
#   every member in one call, with member-local segments where a gate
#   or a selection spans rows;
# * branches whose predicate spans rows run per member (the
#   condensation species gates, freezing's work counts), and so do the
#   numpy fallbacks' BLAS calls (the collision apply of
#   ``coal_bott_step_members``, sedimentation's precipitation dot),
#   whose rounding depends on the call's row count.
#
# Per-member ``SimClock`` charges replicate a one-member step's region
# keys and amounts exactly: a ``region`` context that charges nothing
# leaves no trace, so only charge placement matters.


def species_columns(bins: np.ndarray) -> dict[Species, np.ndarray]:
    """Every species' bins as a column slice of a packed bins array.

    ``bins`` has a trailing axis of ``nsp * nkr`` bins, species in
    :class:`Species` order; the slices are views.
    """
    nkr = bins.shape[-1] // len(Species)
    return {
        sp: bins[..., n * nkr : (n + 1) * nkr] for n, sp in enumerate(Species)
    }


def _species_axis(bins: np.ndarray) -> np.ndarray:
    """Packed ``(npts, nsp * nkr)`` rows viewed as ``(npts, nsp, nkr)``."""
    nsp = len(Species)
    return bins.reshape(bins.shape[0], nsp, bins.shape[1] // nsp)


def _occupied(bins: np.ndarray) -> np.ndarray:
    """Occupied-bin counts ``(npts, nsp)`` of packed rows (row-local):
    one past each species' highest bin above ``N_EPS``, 0 when none is."""
    present = _species_axis(bins) > N_EPS
    last = np.argmax(present[:, :, ::-1], axis=2)
    return np.where(present.any(axis=2), present.shape[2] - last, 0)


def _row_stats(bins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-species row sums and occupied-bin counts of packed rows.

    Both ``(npts, nsp)``, from one read of the rows in the compiled
    ``row_stats`` kernel, which sums each species serially in ascending
    bin order; the numpy fallback reduces ``(npts, nsp, nkr)`` and
    runs :func:`_occupied`.
    """
    lib = ckernels.load_kernels()
    if lib is not None:
        got = ckernels.row_stats(lib, bins, len(Species), N_EPS)
        if got is not None:
            return got
    return _species_axis(bins).sum(axis=2), _occupied(bins)


def _gather_rows(src: np.ndarray, cells: tuple[np.ndarray, ...]) -> np.ndarray:
    """``src[cells]``: one contiguous row per cell (``gather_rows``)."""
    lib = ckernels.load_kernels()
    if lib is not None:
        rows = ckernels.gather_rows(lib, src, cells)
        if rows is not None:
            return rows
    return src[cells]


def _scatter_rows(
    dst: np.ndarray,
    cells: tuple[np.ndarray, ...],
    rows: np.ndarray,
    occupancy: np.ndarray,
) -> None:
    """``dst[cells] = rows``, the inverse of :func:`_gather_rows`, and
    each written cell's occupancy bits: exact from the compiled
    ``scatter_rows``, all set on the numpy fallback."""
    lib = ckernels.load_kernels()
    if lib is None or not ckernels.scatter_rows(
        lib, dst, cells, rows, occupancy, len(Species)
    ):
        dst[cells] = rows
        occupancy[cells] = ALL_OCCUPIED


def _mp_predicate(
    temperature: np.ndarray,
    pressure_mb: np.ndarray,
    qv: np.ndarray,
    condensate: np.ndarray,
) -> np.ndarray:
    """The cells the microphysics touches: warm enough, and either
    carrying condensate or saturated enough to form some. Elementwise,
    so a cell's answer does not depend on the other cells given."""
    qs = saturation_mixing_ratio(temperature, pressure_mb)
    return (temperature > T_FREEZE_CUTOFF) & (
        (condensate > N_EPS) | (qv > 0.98 * qs)
    )


def _mp_candidates(
    temperature: np.ndarray,
    pressure_mb: np.ndarray,
    qv: np.ndarray,
    condensate: np.ndarray,
) -> tuple[np.ndarray, np.ndarray] | None:
    """The compiled ``mp_candidates`` scan's marks and per-member
    counts, or ``None`` (evaluate :func:`_mp_predicate` everywhere)."""
    lib = ckernels.load_kernels()
    if lib is None:
        return None
    return ckernels.mp_candidates(lib, temperature, pressure_mb, qv, condensate)


def _mp_cells(
    temperature: np.ndarray,
    pressure_mb: np.ndarray,
    qv: np.ndarray,
    condensate: np.ndarray,
) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray, str]:
    """The cells :func:`_mp_predicate` selects, in ``np.nonzero``'s
    member-major order, with each member's count of them.

    The compiled scan marks a superset of them without ``exp``, and the
    predicate runs on the marked cells only; a patch with no mark skips
    it. Returns ``(cells, counts, candidates, engine)``: ``candidates``
    counts each member's cells the predicate saw, and ``engine`` says
    which path marked them. ``cells`` is empty when ``counts`` is zero.
    """
    nm = temperature.shape[0]
    got = _mp_candidates(temperature, pressure_mb, qv, condensate)
    if got is None:
        mask = _mp_predicate(temperature, pressure_mb, qv, condensate)
        counts = mask.reshape(nm, -1).sum(axis=1)
        cells = np.nonzero(mask) if counts.any() else ()
        return cells, counts, np.full(nm, mask[0].size), "numpy"
    marks, candidates = got
    if not candidates.any():
        return (), candidates, candidates, "compiled"
    # np.nonzero's coordinates, from the fast flat search of a bool view.
    marked = np.unravel_index(np.flatnonzero(marks.view(bool)), marks.shape)
    keep = _mp_predicate(
        temperature[marked], pressure_mb[marked], qv[marked], condensate[marked]
    )
    cells = tuple(idx[keep] for idx in marked)
    return cells, np.bincount(cells[0], minlength=nm), candidates, "compiled"


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

    The warm and cold subsets are index lists over all members
    (``flatnonzero`` preserves the member-major order); the onecond
    cores grow those rows of the gathered arrays in place and handle
    the per-member gates.
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
        part = routine(
            g_dists, g_t, g_p, g_qv, g_rho, g_ccn, dt, sub_segments,
            species_present=sp_present, rows=idx,
        )
        for total, stats in zip(totals, part):
            total.merge(stats)
    return totals


def _collisions(
    sbms: list[FastSBM],
    states: list[MicroState],
    g_bins: np.ndarray,
    g_t: np.ndarray,
    g_p: np.ndarray,
    segments: list[tuple[int, int]],
    stats_list: list[SbmStepStats],
) -> None:
    """coal_bott_new per the active stage, over every member's points.

    CPU stages apply every member in one call, which selects the
    called points' rows of ``g_bins`` in place, and charge the
    scalar-loop work to each member's clock; GPU stages (one member)
    launch the fissioned loop on the device, which charges the clock
    itself, on a packed copy of the called rows (the one the ``map``
    clauses move), scattered back once.
    """
    lead = sbms[0]
    # Per-species row sums serve both the condensate predicate and the
    # interaction selection below, and the occupancy the rectangles —
    # all row-local, so slicing them to the called points is bitwise
    # identical to computing them on a copy of those rows.
    rowsums, rowocc = _row_stats(g_bins)
    sums = {sp: rowsums[:, n] for n, sp in enumerate(Species)}
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
    c_bins = None
    if cidx.size:
        c_t = g_t[cidx]
        c_p = g_p[cidx]
        occ = rowocc[cidx]
        occupied = {sp: occ[:, n] for n, sp in enumerate(Species)}
        # One selection for the whole step: the work prediction and the
        # update (and its fp64 shadow) all test the same pre-step state.
        selection = CoalSelection(
            c_t, {sp: s_arr[cidx] for sp, s_arr in sums.items()}, {}
        )
        if lead.stage.uses_gpu:
            c_bins = g_bins[cidx]
            c_dists = species_columns(c_bins)
        else:
            args = (
                species_columns(g_bins), c_t, c_p, lead.dt, lead.tables,
                INTERACTIONS,
            )
            kwargs = dict(
                occupied=occupied,
                on_demand=lead.stage.on_demand_kernels,
                selection=selection,
                rows=cidx,
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
    if c_bins is not None:
        g_bins[cidx] = c_bins


def step_members(
    sbms: list[FastSBM],
    states: list[MicroState],
    bins_stacked: np.ndarray,
    ccn_stacked: np.ndarray,
    precip_stacked: np.ndarray,
    temperature: np.ndarray,
    pressure_mb: np.ndarray,
    qv: np.ndarray,
    rho_air: np.ndarray,
    condensate: np.ndarray,
    occupancy: np.ndarray,
    dz_cm: float,
    pressure_levels: np.ndarray,
) -> list[SbmStepStats]:
    """Advance N ensemble members' microphysics in one fused sweep.

    ``sbms[m]``/``states[m]`` are member ``m``'s driver (own clock) and
    micro state; the stacked arrays are ``(nm, ...)`` member-major
    views whose slice ``[m]`` aliases that member's patch arrays (all
    updated in place). ``bins_stacked`` is the packed ``(nm, ni, nk,
    nj, nsp * nkr)`` view of every species' bins, species in
    :class:`Species` order (:func:`species_columns`). ``condensate``
    is each cell's condensate mass on entry (read only: the model
    passes the field its transport sweep summed), which decides with
    the temperature and saturation which cells the sweep visits.
    ``occupancy`` is each cell's ``(nm, ni, nk, nj)`` uint8 occupancy
    field (bit ``sp`` clear: every bin of species ``sp`` is an exact
    zero); the scatter and sedimentation keep it so, and sedimentation
    skips the species it marks empty. ``pressure_levels`` is the
    ``(nk,)`` base-state pressure column the members share
    (sedimentation fall speeds).

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

        # Cells the microphysics touches (:func:`_mp_predicate`). The
        # Fortran scans every cell — charged above — but only these do
        # real work inside the conditionals.
        midx, counts, candidates, scan_engine = _mp_cells(
            temperature, pressure_mb, qv, condensate
        )
        offs = np.zeros(nm + 1, dtype=np.int64)
        np.cumsum(counts, out=offs[1:])
        segments = [(int(offs[m]), int(offs[m + 1])) for m in range(nm)]
        total_pts = int(offs[-1])
        for m in range(nm):
            stats_list[m].mp_points = int(counts[m])
            stats_list[m].mp_candidates = int(candidates[m])
            stats_list[m].scan_engine = scan_engine

        if total_pts:
            # Integer-tuple indexing: every gather and scatter fans out
            # from the coordinate arrays, in member-major C order. The
            # bins move as one packed gather (every species of a point
            # in one contiguous run) and come back as one scatter.
            g_bins = _gather_rows(bins_stacked, midx)
            g_dists = species_columns(g_bins)
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
            # Every species' post-nucleation row sums, in one pass over
            # the packed rows. A species none of whose rows in a
            # member has a nonzero sum can pass no N_EPS gate there, so
            # the condensation core skips it for that member without
            # probing its rows; a point with an ice species above
            # N_EPS is mixed-phase.
            rowsums, _ = _row_stats(g_bins)
            sp_present = [
                dict(zip(Species, (rowsums[s:e] != 0.0).any(axis=0).tolist()))
                for (s, e) in segments
            ]
            is_ice = [sp.is_ice for sp in Species]
            ice_present = (rowsums[:, is_ice] > N_EPS).any(axis=1)
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

            # --- freezing / melting (work counts gated per member) -----
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
            _collisions(sbms, states, g_bins, g_t, g_p, segments, stats_list)

            _scatter_rows(bins_stacked, midx, g_bins, occupancy)
            temperature[midx] = g_t
            qv[midx] = g_qv
            ccn_stacked[midx] = g_ccn

        # --- sedimentation (full field, every member in one sweep) -----
        with ExitStack() as sed_stack:
            for sbm in sbms:
                sed_stack.enter_context(sbm.clock.region("sedimentation"))
            sed_list = sedimentation_step_members(
                species_columns(bins_stacked), precip_stacked,
                pressure_levels, dz_cm, dt, occupancy,
            )
            for m, sbm in enumerate(sbms):
                stats_list[m].sed = sed_list[m]
                sbm._charge_cpu(sed_list[m].flops, sed_list[m].bytes_moved)

    for m, sbm in enumerate(sbms):
        stats_list[m].fast_sbm_seconds = sbm.clock.total - step_start[m]
    return stats_list
