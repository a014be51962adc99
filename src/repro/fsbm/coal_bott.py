"""Collision–coalescence: the ``coal_bott_new`` hot loop.

Solves the stochastic collection equation on the mass-doubling grid
with a Bott/Kovetz–Olund flux remap. For each active interaction the
unordered pair-event rate

    E[i, j] = K(i, j; p) * n_A[i] * n_B[j]        (A != B)
    E[i, j] = 0.5 * K(i, j; p) * n_A[i] * n_A[j]  (A == B)

removes one particle from each source bin per event and deposits the
coalesced mass ``x_i + x_j`` on the product grid, split over two bins
so number and mass are conserved exactly. A per-bin limiter scales the
event tensor so no bin loses more than it holds.

Two engines share these semantics:

* The **compiled** engine — every float64 call while the physics
  kernels load — runs all interactions in one call of the loop-IR
  ``coal_bott_new`` kernel (:mod:`repro.fsbm.ckernels`): the
  interaction loop serial, the points in lane blocks with the loop
  over grid points innermost. A point's result depends only on its
  own row and its member segment's occupied rectangle.
* The **sparse** numpy engine (the fallback under a kill switch or
  without a compiler, the engine of the float32 device-precision
  stages, and the compiled kernel's 1e-12 oracle) never materializes
  ``E``. Because the split weights are separable from the limiter
  (``E' = Kp * (f_a a) x (f_b b)``) and every pair's destination bins
  follow the triangular structure of the mass-doubling ladder
  (``k_lo = max(i, j)`` off the diagonal, ``k_lo = i + 1`` on it, and
  ``k_hi = k_lo + 1`` wherever its weight is nonzero), the losses and
  the gain both collapse into a handful of ``(npts, na) @ (na, nb)``
  matmuls against precomputed operators that fold the split weights
  into the kernel tables. The operators are sliced to the occupied
  rectangle, so the work scales with ``na * nb`` like the scalar
  code's occupied-bin bounds.

Both rely on the triangular structure, which :func:`_pair_split`
verifies; a grid that violates it is refused. The dense pair-tensor
contraction — a direct transcription of the scalar triple loop — is
the sparse engine's oracle in the tests.

The pressure dependence of the kernel is handled with the rank-2
identity ``K(p) = K500 + w(p) * (K750 - K500)`` so per-point kernel
tables are never materialized — the same values the Fortran obtains per
point, computed once per (entry, point).

Work accounting is separate from the numerics: :func:`predict_coal_work`
counts the operations a scalar Fortran implementation performs per
stage (full 20-table ``kernals_ks`` precompute for the baseline versus
occupied-bin on-demand entries after the lookup optimization). The GPU
stages call it *before* launching so the cost model can price the
kernel; :func:`coal_bott_step` calls the same function so reported
stats always match what was charged. Both engines report identical
stats: they model the *scalar* code's work, not the vectorized form;
only ``CoalWorkStats.engine`` names the engine that ran.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import KERNEL_P_HIGH_MB, KERNEL_P_LOW_MB
from repro.core.cache import cached, get_cache
from repro.errors import ConfigurationError
from repro.fsbm import ckernels
from repro.fsbm.bins import BinGrid
from repro.fsbm.collision_kernels import FLOPS_PER_ENTRY, KernelTables, tables_token
from repro.fsbm.species import Interaction, Species

#: FLOPs per pair entry of the collection update itself (event rate,
#: limiter, two losses, two gain scatters).
FLOPS_PER_PAIR = 10.0


@dataclass(frozen=True)
class PairSplit:
    """Kovetz–Olund two-bin split of every pair mass on one grid.

    Pair ``(i, j)`` deposits number fraction ``w_lo[i, j]`` in bin
    ``k_lo[i, j]`` and ``w_hi[i, j]`` in ``k_hi[i, j]``.
    ``triangular`` records whether the destinations follow the
    mass-doubling-ladder structure both engines rely on.
    """

    k_lo: np.ndarray
    k_hi: np.ndarray
    w_lo: np.ndarray
    w_hi: np.ndarray
    triangular: bool


@cached("fsbm.pair_split", maxsize=4)
def _pair_split(nkr: int) -> PairSplit:
    """Split table for the shared ``nkr``-bin grid, structure-checked.

    On the mass-doubling ladder ``x_{k+1} = 2 x_k`` the coalesced mass
    ``x_i + x_j`` always lands between ``x_max(i,j)`` and
    ``x_max(i,j)+1`` (equal bins land exactly on ``x_{i+1}``), which
    gives the triangular destination structure both engines exploit.
    The check is cheap and cached; :func:`coal_bott_step_members`
    refuses any grid that breaks it.
    """
    grid = BinGrid(nkr=nkr)
    k_lo, k_hi, w_lo, w_hi = grid.pair_coalescence_table(grid, grid)
    ii = np.broadcast_to(np.arange(nkr)[:, None], (nkr, nkr))
    jj = np.broadcast_to(np.arange(nkr)[None, :], (nkr, nkr))
    low = ii > jj
    up = ii < jj
    nz = w_hi != 0.0
    triangular = bool(
        np.array_equal(k_lo[low], ii[low])
        and np.array_equal(k_lo[up], jj[up])
        and np.array_equal(
            np.diagonal(k_lo), np.minimum(np.arange(nkr) + 1, nkr - 1)
        )
        and not np.any(nz & ~(low | up))
        and np.array_equal(k_hi[nz], k_lo[nz] + 1)
        and not w_hi[nkr - 1, :].any()
        and not w_hi[:, nkr - 1].any()
    )
    return PairSplit(k_lo=k_lo, k_hi=k_hi, w_lo=w_lo, w_hi=w_hi, triangular=triangular)


def _build_coal_operators(
    tables: KernelTables, name: str, nkr: int, na: int, nb: int, dtype: np.dtype
) -> tuple:
    """Fold split weights into one interaction's kernel rectangle.

    Returns ``(ops_500, ops_del)`` — one operator set per pressure
    level (the delta set carries ``K750 - K500`` for the rank-2
    pressure interpolation). Each set is::

        (K^T, K, L^T, Lh^T, U, Uh, d)

    where for pair weights ``w`` and destinations of the triangular
    ladder: ``L = w_lo K`` on the strict lower triangle (gain lands in
    row bin ``i``), ``Lh = w_hi K`` there (lands in ``i + 1``), ``U`` /
    ``Uh`` the upper-triangle analogues (column bin ``j`` / ``j + 1``),
    and ``d`` the diagonal ``w_lo K`` vector (lands in
    ``min(i + 1, nkr - 1)``). Everything is sliced to the occupied
    ``(na, nb)`` rectangle and laid out contiguous for the matmuls.
    """
    ps = _pair_split(nkr)
    ii = np.arange(nkr)[:, None]
    jj = np.arange(nkr)[None, :]
    low = ii > jj
    up = ii < jj
    nd = min(na, nb)
    k500 = tables.tables_500[name]
    kdel = tables.tables_750[name] - k500

    def carve(k: np.ndarray) -> tuple:
        def cut(m: np.ndarray) -> np.ndarray:
            return np.ascontiguousarray(m[:na, :nb].astype(dtype))

        def cut_t(m: np.ndarray) -> np.ndarray:
            return np.ascontiguousarray(m[:na, :nb].T.astype(dtype))

        return (
            cut_t(k),
            cut(k),
            cut_t(np.where(low, ps.w_lo * k, 0.0)),
            cut_t(np.where(low, ps.w_hi * k, 0.0)),
            cut(np.where(up, ps.w_lo * k, 0.0)),
            cut(np.where(up, ps.w_hi * k, 0.0)),
            np.ascontiguousarray(np.diagonal(ps.w_lo * k)[:nd].astype(dtype)),
        )

    return carve(k500), carve(kdel)


def _coal_operators(
    tables: KernelTables, name: str, nkr: int, na: int, nb: int, dtype: np.dtype
) -> tuple:
    """Cached sparse operators for one (interaction, rectangle, dtype).

    Keyed on the tables' content fingerprint rather than object
    identity, so independently built but identical tables share
    entries and changed physics invalidates them.
    """
    cache = get_cache("fsbm.coal_operators", maxsize=256)
    key = (tables_token(tables), name, nkr, na, nb, dtype.str)
    return cache.get_or_build(
        key, lambda: _build_coal_operators(tables, name, nkr, na, nb, dtype)
    )


@dataclass
class CoalWorkStats:
    """Scalar-code work counts for one collision call (cost-model input)."""

    active_points: int = 0
    #: Kernel-table entries evaluated (differs between stages).
    kernel_entries: float = 0.0
    #: Pair-update entries processed by the collection loops.
    pair_entries: float = 0.0
    #: (interaction, point) pairs actually exercised, for reports.
    interactions_used: float = 0.0
    #: Engine that applied the collisions: ``"compiled"`` (the loop-IR
    #: ``coal_bott_new`` kernel), ``"numpy"``, or ``"none"`` (no call
    #: applied any; predictions also read ``"none"``).
    engine: str = "none"

    @property
    def flops(self) -> float:
        """Total FLOPs the scalar loops would execute."""
        return (
            self.kernel_entries * FLOPS_PER_ENTRY + self.pair_entries * FLOPS_PER_PAIR
        )

    @property
    def bytes_moved(self) -> float:
        """Logical bytes touched (three 4 B accesses per entry)."""
        return 4.0 * 3.0 * (self.kernel_entries + self.pair_entries)

    def merge(self, other: "CoalWorkStats") -> None:
        self.active_points += other.active_points
        self.kernel_entries += other.kernel_entries
        self.pair_entries += other.pair_entries
        self.interactions_used += other.interactions_used
        if other.engine != "none":
            self.engine = other.engine


#: Number concentration below which a species does not participate in
#: collisions at a point [cm^-3] — the scalar code's significance test.
COAL_N_MIN = 1.0e-8


def _interaction_selection(
    dists: dict[Species, np.ndarray],
    temperature: np.ndarray,
    ix: Interaction,
) -> np.ndarray:
    """Points where an interaction fires: temperature gate + presence."""
    gate = ix.active_at_array(temperature)
    has_a = dists[ix.collector].sum(axis=1) > COAL_N_MIN
    has_b = dists[ix.collected].sum(axis=1) > COAL_N_MIN
    return gate & has_a & has_b


class CoalSelection:
    """Shared per-step interaction selection state.

    The scalar code re-tests, per interaction per point, a temperature
    gate and the presence of both species. Recomputing that from the
    distributions costs two full reductions per interaction; this
    object computes the per-species sums once, caches the temperature
    gates by their ``(t_max, t_min)`` regime (several interactions
    share a regime), and serves every interaction's mask from them.

    Selection is *sequential*: earlier interactions mutate the
    distributions that later interactions test. ``coal_bott_step``
    therefore works on a :meth:`fork` whose sums it refreshes for the
    rows each interaction touched, which reproduces the scalar loop's
    cascade bit-for-bit, while :func:`predict_coal_work` keeps the
    pristine pre-step instance.
    """

    __slots__ = ("temperature", "_sums", "_gates")

    def __init__(
        self,
        temperature: np.ndarray,
        sums: dict[Species, np.ndarray],
        gates: dict[tuple, np.ndarray],
    ):
        self.temperature = temperature
        self._sums = sums
        self._gates = gates

    @classmethod
    def build(
        cls, dists: dict[Species, np.ndarray], temperature: np.ndarray
    ) -> "CoalSelection":
        """Selection state for the current distributions."""
        sums = {sp: d.sum(axis=1) for sp, d in dists.items()}
        return cls(temperature, sums, {})

    def gate(self, ix: Interaction) -> np.ndarray:
        """Temperature gate of ``ix``, cached per thermal regime."""
        key = (ix.t_max, ix.t_min)
        g = self._gates.get(key)
        if g is None:
            g = ix.active_at_array(self.temperature)
            self._gates[key] = g
        return g

    def mask(self, ix: Interaction) -> np.ndarray:
        """Points where ``ix`` fires — equals :func:`_interaction_selection`."""
        return (
            self.gate(ix)
            & (self._sums[ix.collector] > COAL_N_MIN)
            & (self._sums[ix.collected] > COAL_N_MIN)
        )

    def fork(self) -> "CoalSelection":
        """A mutable copy for the step loop.

        Sums are copied (the loop refreshes them as species mutate);
        temperature gates are shared, since temperature is constant
        over a collision step.
        """
        return CoalSelection(
            self.temperature,
            {sp: s.copy() for sp, s in self._sums.items()},
            self._gates,
        )

    def stacked_sums(self, species: list[Species]) -> np.ndarray:
        """A ``(nsp, npts)`` copy of the sums, rows in ``species`` order.

        The compiled kernel's working copy: it refreshes the rows it
        updates in place, as the numpy loop does on a :meth:`fork`.
        """
        return np.stack([self._sums[sp] for sp in species])

    def refresh(
        self,
        dists: dict[Species, np.ndarray],
        species: set[Species],
        rows: np.ndarray,
    ) -> None:
        """Recompute sums of ``species`` at ``rows`` after a mutation.

        Row sums are independent, so refreshing only the touched rows
        is bitwise identical to a full recompute.
        """
        for sp in species:
            self._sums[sp][rows] = dists[sp][rows].sum(axis=1)


def predict_coal_work(
    dists: dict[Species, np.ndarray],
    temperature: np.ndarray,
    tables: KernelTables,
    interactions: tuple[Interaction, ...],
    occupied: dict[Species, np.ndarray] | None,
    on_demand: bool,
    selection: CoalSelection | None = None,
) -> CoalWorkStats:
    """One member's work counts (see :func:`predict_coal_work_members`)."""
    return predict_coal_work_members(
        dists, temperature, tables, interactions, occupied, on_demand,
        [(0, temperature.shape[0])], selection=selection,
    )[0]


def predict_coal_work_members(
    dists: dict[Species, np.ndarray],
    temperature: np.ndarray,
    tables: KernelTables,
    interactions: tuple[Interaction, ...],
    occupied: dict[Species, np.ndarray] | None,
    on_demand: bool,
    segments: list[tuple[int, int]],
    selection: CoalSelection | None = None,
) -> list[CoalWorkStats]:
    """Count the scalar-code work one collision call performs, per member.

    Baseline: ``kernals_ks`` fills all 20 full tables at every active
    point up front. On-demand: one interpolated entry per pair the
    collection loops actually touch (bounded by occupied bins).

    ``segments[m]`` is member ``m``'s row range in the member-
    concatenated point arrays. Masks are row-local (temperature gate
    and per-row sums), so slicing the shared mask to a member's segment
    equals the mask of a one-member call on that member's rows; the
    per-member counts therefore are exactly that call's numbers.
    ``selection`` lets a caller that already built the per-step
    :class:`CoalSelection` (the collision stage predicts work and then
    runs the step on the same state) share it instead of recomputing
    every mask.
    """
    nkr = next(iter(dists.values())).shape[1]
    out = [
        CoalWorkStats(active_points=(e - s)) for (s, e) in segments
    ]
    if temperature.shape[0] == 0:
        return out
    if selection is None:
        selection = CoalSelection.build(dists, temperature)
    if not on_demand:
        for st, (s, e) in zip(out, segments):
            if e > s:
                st.kernel_entries += float(e - s) * tables.baseline_entry_count()
    for ix in interactions:
        sel = selection.mask(ix)
        for st, (s, e) in zip(out, segments):
            if e == s:
                continue
            sub = sel[s:e]
            count = int(sub.sum())
            if count == 0:
                continue
            if occupied is not None:
                occ_a = occupied[ix.collector][s:e][sub]
                occ_b = occupied[ix.collected][s:e][sub]
                touched = float((occ_a * occ_b).sum())
            else:
                touched = float(count) * nkr * nkr
            st.pair_entries += touched
            st.interactions_used += float(count)
            if on_demand:
                st.kernel_entries += touched
    return out


def _apply_sparse(
    dists: dict[Species, np.ndarray],
    ix: Interaction,
    idx: np.ndarray,
    a_full: np.ndarray,
    b_full: np.ndarray,
    na: int,
    nb: int,
    ws: np.ndarray,
    dt: float,
    dtype: np.dtype,
    tables: KernelTables,
    nkr: int,
) -> None:
    """One interaction's update via the factored sparse operators.

    Losses: with the limiter separable, the post-limit row loss is
    ``0.5^s * a' * (Kp b') * dt`` — a matvec per point, done as one
    matmul per pressure level. Gain: each pair's deposit goes to one of
    four destination families (row bin, row + 1, column bin,
    column + 1, diagonal + 1), each of which is again a matmul against
    an operator with the split weight folded in, followed by cheap
    column shifts. Nothing of size ``na * nb`` is ever materialized
    per point.
    """
    n_a = dists[ix.collector]
    n_b = dists[ix.collected]
    a = a_full[:, :na].astype(dtype)
    b = b_full[:, :nb].astype(dtype)
    ops_500, ops_del = _coal_operators(tables, ix.name, nkr, na, nb, dtype)
    k5t, k5, l5t, lh5t, u5, uh5, d5 = ops_500
    kdt, kd, ldt, lhdt, ud, uhd, dd = ops_del
    half = dtype.type(0.5) if ix.self_collection else dtype.type(1.0)
    wsc = ws[:, None]

    rs = half * a * (b @ k5t + wsc * (b @ kdt)) * dt
    if ix.self_collection:
        cs = half * a * (b @ k5 + wsc * (b @ kd)) * dt
        loss = rs + cs
        if np.all(loss <= a):
            # Limiter never binds: a' == a exactly (zero bins have zero
            # loss), so the pre-limit losses are already final.
            ap = a
            bp = a
        else:
            f = np.minimum(1.0, a / np.maximum(loss, 1e-30)).astype(dtype)
            ap = a * f
            bp = ap
            rs = half * ap * (bp @ k5t + wsc * (bp @ kdt)) * dt
            cs = half * bp * (ap @ k5 + wsc * (ap @ kd)) * dt
    else:
        cs = half * b * (a @ k5 + wsc * (a @ kd)) * dt
        if np.all(rs <= a) and np.all(cs <= b):
            ap = a
            bp = b
        else:
            f_a = np.minimum(1.0, a / np.maximum(rs, 1e-30)).astype(dtype)
            f_b = np.minimum(1.0, b / np.maximum(cs, 1e-30)).astype(dtype)
            ap = a * f_a
            bp = b * f_b
            rs = half * ap * (bp @ k5t + wsc * (bp @ kdt)) * dt
            cs = half * bp * (ap @ k5 + wsc * (ap @ kd)) * dt

    nd = min(na, nb)
    g = np.zeros((len(idx), nkr), dtype=dtype)
    g[:, :na] += ap * (bp @ l5t + wsc * (bp @ ldt))
    g[:, :nb] += bp * (ap @ u5 + wsc * (ap @ ud))
    rhi = ap * (bp @ lh5t + wsc * (bp @ lhdt))
    uhi = bp * (ap @ uh5 + wsc * (ap @ uhd))
    dig = (ap[:, :nd] * bp[:, :nd]) * (d5 + wsc * dd)
    ha = min(na, nkr - 1)
    hb = min(nb, nkr - 1)
    hd = min(nd, nkr - 1)
    g[:, 1 : ha + 1] += rhi[:, :ha]
    g[:, 1 : hb + 1] += uhi[:, :hb]
    g[:, 1 : hd + 1] += dig[:, :hd]
    if nd == nkr:
        # Top diagonal pair overflows into the top bin itself.
        g[:, nkr - 1] += dig[:, nkr - 1]
    g *= half * dt
    gain = g

    if ix.self_collection:
        a_new = a_full.copy()
        a_new[:, :na] = np.maximum(a - rs - cs, 0.0)
        if ix.product is ix.collector:
            n_a[idx] = np.maximum(a_new + gain, 0.0)
        else:
            n_a[idx] = a_new
            dists[ix.product][idx] += gain
    else:
        a_new = a_full.copy()
        b_new = b_full.copy()
        a_new[:, :na] = np.maximum(a - rs, 0.0)
        b_new[:, :nb] = np.maximum(b - cs, 0.0)
        if ix.product is ix.collector:
            n_a[idx] = a_new + gain
            n_b[idx] = b_new
        elif ix.product is ix.collected:
            n_a[idx] = a_new
            n_b[idx] = b_new + gain
        else:
            n_a[idx] = a_new
            n_b[idx] = b_new
            dists[ix.product][idx] += gain


@dataclass(frozen=True)
class CoalTableBlock:
    """Every interaction's kernel tables in the compiled kernel's layout.

    ``k500[n]`` and ``kdel[n]`` hold interaction ``n``'s full
    ``(nkr, nkr)`` 500 mb table and its ``K750 - K500`` delta (the same
    subtraction :func:`_build_coal_operators` performs); ``w_lo`` and
    ``w_hi`` are the shared split weights of :func:`_pair_split`. The
    kernel folds the weights into the entries it visits, so one block
    serves every occupied rectangle.
    """

    k500: np.ndarray
    kdel: np.ndarray
    w_lo: np.ndarray
    w_hi: np.ndarray


def _coal_table_block(
    tables: KernelTables, interactions: tuple[Interaction, ...], nkr: int
) -> CoalTableBlock:
    """The cached table block for one (tables, interaction list, grid)."""
    cache = get_cache("fsbm.coal_operators", maxsize=256)
    key = (tables_token(tables), tuple(ix.name for ix in interactions), nkr)

    def build() -> CoalTableBlock:
        ps = _pair_split(nkr)
        k500 = [tables.tables_500[ix.name][:nkr, :nkr] for ix in interactions]
        kdel = [
            (tables.tables_750[ix.name] - tables.tables_500[ix.name])[:nkr, :nkr]
            for ix in interactions
        ]
        return CoalTableBlock(
            k500=np.ascontiguousarray(np.stack(k500), dtype=np.float64),
            kdel=np.ascontiguousarray(np.stack(kdel), dtype=np.float64),
            w_lo=np.ascontiguousarray(ps.w_lo, dtype=np.float64),
            w_hi=np.ascontiguousarray(ps.w_hi, dtype=np.float64),
        )

    return cache.get_or_build(key, build)


def _apply_compiled(
    lib,
    dists: dict[Species, np.ndarray],
    selection: CoalSelection,
    interactions: tuple[Interaction, ...],
    occupied: dict[Species, np.ndarray] | None,
    w_full: np.ndarray,
    dt: float,
    tables: KernelTables,
    nkr: int,
    segments: list[tuple[int, int]],
) -> bool:
    """Every interaction through the compiled ``coal_bott_new`` kernel.

    The kernel works on a copy of the selection's sums (the
    :meth:`CoalSelection.fork` of the numpy loop), so ``selection``
    stays pristine. Returns ``False`` without touching ``dists`` when
    the kernel refuses the layout.
    """
    species = list(dists)
    slot = {sp: n for n, sp in enumerate(species)}
    npts = w_full.shape[0]
    block = _coal_table_block(tables, interactions, nkr)
    if occupied is not None:
        occ = np.stack([occupied[sp] for sp in species]).astype(np.int64)
    else:
        occ = np.full((len(species), npts), nkr, dtype=np.int64)
    gate = np.stack([selection.gate(ix) for ix in interactions]).astype(np.uint8)
    ixinfo = np.array(
        [
            (slot[ix.collector], slot[ix.collected], slot[ix.product],
             int(ix.self_collection))
            for ix in interactions
        ],
        dtype=np.int64,
    )
    return ckernels.coal_bott_new(
        lib,
        [dists[sp] for sp in species],
        selection.stacked_sums(species),
        occ,
        gate,
        np.ascontiguousarray(w_full, dtype=np.float64),
        block.k500,
        block.kdel,
        block.w_lo,
        block.w_hi,
        ixinfo,
        np.asarray(segments, dtype=np.int64).reshape(-1, 2),
        dt,
        COAL_N_MIN,
    )


def _pressure_weights(pressure_mb: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """``w(p)`` of the rank-2 identity ``K(p) = K500 + w (K750 - K500)``."""
    return (
        (np.asarray(pressure_mb) - KERNEL_P_LOW_MB)
        / (KERNEL_P_HIGH_MB - KERNEL_P_LOW_MB)
    ).astype(dtype)


def coal_bott_step(
    dists: dict[Species, np.ndarray],
    temperature: np.ndarray,
    pressure_mb: np.ndarray,
    dt: float,
    tables: KernelTables,
    interactions: tuple[Interaction, ...],
    occupied: dict[Species, np.ndarray] | None = None,
    on_demand: bool = False,
    dtype: np.dtype | type = np.float64,
    selection: CoalSelection | None = None,
) -> CoalWorkStats:
    """One member's collision step, in place (see
    :func:`coal_bott_step_members`)."""
    return coal_bott_step_members(
        dists, temperature, pressure_mb, dt, tables, interactions,
        [(0, temperature.shape[0])], occupied=occupied, on_demand=on_demand,
        dtype=dtype, selection=selection,
    )[0]


def coal_bott_step_members(
    dists: dict[Species, np.ndarray],
    temperature: np.ndarray,
    pressure_mb: np.ndarray,
    dt: float,
    tables: KernelTables,
    interactions: tuple[Interaction, ...],
    segments: list[tuple[int, int]],
    occupied: dict[Species, np.ndarray] | None = None,
    on_demand: bool = False,
    dtype: np.dtype | type = np.float64,
    selection: CoalSelection | None = None,
) -> list[CoalWorkStats]:
    """Advance all distributions by one collision step, in place.

    ``dists`` maps species to ``(npts, nkr)`` arrays, every member's
    active points concatenated member-major; ``segments[m]`` is member
    ``m``'s row range. ``dtype`` selects the arithmetic precision: the
    offloaded stages pass ``float32`` to reproduce device arithmetic,
    which is what the Sec. VII-B digit comparison measures.
    ``selection`` shares a pre-built :class:`CoalSelection` (the
    collision stage builds it once per step for both the work
    prediction and the update). Returns each member's work stats,
    which name the engine that ran.

    float64 calls run the compiled ``coal_bott_new`` kernel when it is
    available, every member in one call: ``segments`` become its member
    segments, each with its own occupied rectangle (the member's max),
    and no lane block straddles two members. A point's arithmetic
    depends only on its own row and its segment's rectangle, so each
    member's update is bit-for-bit that of a one-member call.

    Otherwise the numpy sparse engine runs. What it shares across
    members is everything row-local: the temperature-gate cache, the
    per-row sums, the interaction masks, ``flatnonzero``, the pressure
    weights, and the post-apply ``refresh``. The operator applications
    stay per member: BLAS GEMM/GEMV results for a given row depend on
    the call's total row count (kernel/blocking selection), so
    concatenating members' rows into one apply would perturb rows at
    the ulp level. Each member's apply therefore runs on exactly its
    own rows at exactly its own rectangle; members write disjoint row
    sets, so their order is immaterial. Both engines produce the same
    physics, with relative differences only at the float-associativity
    level (~1e-14 in float64).

    Both engines need the mass-doubling ladder's triangular pair
    destinations; a grid without them raises
    :class:`~repro.errors.ConfigurationError`.
    """
    npts = temperature.shape[0]
    if selection is None and npts:
        selection = CoalSelection.build(dists, temperature)
    stats = predict_coal_work_members(
        dists, temperature, tables, interactions, occupied, on_demand,
        segments, selection=selection,
    )
    if npts == 0:
        return stats

    nkr = next(iter(dists.values())).shape[1]
    if not _pair_split(nkr).triangular:
        raise ConfigurationError(
            f"the {nkr}-bin grid is off the mass-doubling ladder: its pair "
            "destinations are not triangular"
        )
    dtype = np.dtype(dtype)
    w_full = _pressure_weights(pressure_mb, dtype)
    # The float32 device-precision stages stay on numpy, as does every
    # call under a kill switch or without a compiler.
    lib = ckernels.load_kernels() if dtype == np.float64 else None
    engine = "numpy"
    if lib is not None and _apply_compiled(
        lib, dists, selection, interactions, occupied, w_full, dt, tables,
        nkr, segments,
    ):
        engine = "compiled"
    for st in stats:
        st.engine = engine
    if engine == "compiled":
        return stats

    live = selection.fork()
    starts = np.asarray([s for s, _ in segments])
    stops = np.asarray([e for _, e in segments])

    for ix in interactions:
        sel = live.mask(ix)
        if not sel.any():
            continue
        idx = np.flatnonzero(sel)
        occ_a = occupied[ix.collector] if occupied is not None else None
        occ_b = occupied[ix.collected] if occupied is not None else None
        los = np.searchsorted(idx, starts)
        his = np.searchsorted(idx, stops)

        for lo, hi in zip(los, his):
            if hi == lo:
                continue
            rows = idx[lo:hi]
            # Restrict the pair loops to occupied bins: empty bins
            # contribute exact zeros, so the result is bitwise identical
            # while the work shrinks to what the scalar code's
            # occupied-bin bounds would do.
            if occ_a is not None:
                na = max(1, int(occ_a[rows].max()))
                nb = max(1, int(occ_b[rows].max()))
            else:
                na = nb = nkr
            a_full = dists[ix.collector][rows]
            b_full = dists[ix.collected][rows]
            _apply_sparse(
                dists, ix, rows, a_full, b_full, na, nb, w_full[rows], dt,
                dtype, tables, nkr,
            )
        live.refresh(dists, {ix.collector, ix.collected, ix.product}, idx)

    return stats
