"""Fused batched scalar transport (the Sec. VIII "next target").

WRF advects every bin of every hydrometeor as its own 3D scalar — 234
of them here (7 species x 33 bins + t, qv, w) — and the per-field
Python loop in the model driver paid for that the same way the
Fortran baseline paid for ``coal_bott_new``'s automatic arrays: six
full-array temporaries per scalar per axis (two ``np.roll`` copies
plus the intermediate products), reallocated on every call.

This module is the Python analog of the paper's stage-3 transformation:

* :class:`TransportWorkspace` plays the role of the ``temp_arrays``
  module — every scratch buffer is preallocated once per
  ``(shape, nscalars, dtype)`` and reused for the life of the run, the
  host-side ``target enter data map(alloc:)``;
* the fused kernels below play the role of the fully ``collapse``d
  device loop — every scalar of every ensemble member lives in one of
  two contiguous member-stacked blocks per rank (the resident fields of
  :meth:`repro.wrf.state.WrfFields.bind_block`): t, qv and w in the
  planar ``(nm, ni, 3, nk, nj)`` state block, the way WRF stores ``t``,
  ``moist`` and ``w`` as 3D arrays of their own, and every species' bins
  in the ``(nm, ni, nk, nj, nbins)`` bins block — and all of them are
  advected in a single sweep. When the system C compiler is
  available the Euler step is one compiled pass over both blocks
  (:mod:`repro.wrf.cstencil`), its call arguments built once per rank
  (:class:`Advection`): each cell's upwind winds split on the way from
  ``u``, ``v`` and the step-start w, every value read once and written
  back in place through a two-row ring, clipped in the store, with
  each cell's condensate summed on the way into the caller's
  condensate field and its occupancy bits into the caller's occupancy
  field, and every species those bits mark empty across a cell's
  stencil skipped — otherwise the wind split and a sliced in-place
  numpy stencil run through preallocated buffers instead of rolled
  copies.

Workspaces are registered in the :mod:`repro.core.cache` registry
(cache ``"wrf.transport_workspace"``), so tests and the benchmark
harness can observe that repeated steps hit the same buffers instead
of allocating.

The arithmetic is grouped exactly as the per-field reference
(:func:`repro.wrf.dynamics.rk_scalar_tend` /
:func:`repro.wrf.dynamics.rk3_advect`), so the fused path matches the
per-field path bit-for-bit (modulo the sign of floating-point zeros).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.core.cache import get_cache
from repro.fsbm.state import ALL_OCCUPIED
from repro.obs import tracer
from repro.wrf import cstencil
from repro.wrf.dynamics import RK3_FRACTIONS, WindSplit, Winds, buoyancy_w_update


#: The fields of the planar state block, in plane order.
STATE_FIELDS = ("t", "qv", "w")
assert len(STATE_FIELDS) == cstencil.NSTATE
assert (STATE_FIELDS[cstencil.T_PLANE], STATE_FIELDS[cstencil.W_PLANE]) == ("t", "w")

#: Their floors after each update: t and w are never clamped (-inf never
#: binds), qv clamps at zero.
STATE_FLOORS = np.array([-np.inf, 0.0, -np.inf])
STATE_FLOORS.flags.writeable = False

_STATE_UNCLAMPED = np.full(len(STATE_FIELDS), -np.inf)
_STATE_UNCLAMPED.flags.writeable = False


@dataclass(frozen=True)
class ScalarLayout:
    """Packing of the binned species into the bins block's trailing axis.

    ``entries`` is an ordered ``(name, width)`` tuple, one per species:
    ``nkr`` bins in consecutive slots, so each field view keeps a
    contiguous trailing axis.
    """

    entries: tuple[tuple[str, int], ...]

    @property
    def nscalars(self) -> int:
        return sum(width for _, width in self.entries)

    @lru_cache(maxsize=None)
    def slices(self) -> dict[str, slice]:
        """Trailing-axis slice of every named field, in entry order.

        Computed once per layout (the class is frozen/hashable) and
        shared — treat the returned dict as read-only.
        """
        out: dict[str, slice] = {}
        offset = 0
        for name, width in self.entries:
            out[name] = slice(offset, offset + width)
            offset += width
        return out

    @lru_cache(maxsize=None)
    def floors(self, no_clip: tuple[str, ...] = ()) -> np.ndarray:
        """Per-scalar lower bound applied after each update (read-only).

        0.0 clamps a scalar at zero; -inf (the ``no_clip`` fields)
        never binds, since no value compares below it.
        """
        floors = np.zeros(self.nscalars)
        for name in no_clip:
            sl = self.slices().get(name)
            if sl is not None:
                floors[sl] = -np.inf
        floors.flags.writeable = False
        return floors

    @lru_cache(maxsize=None)
    def masks(self) -> tuple[np.ndarray, np.ndarray]:
        """Which occupancy bit describes each scalar, as the stencil reads it.

        ``(smask, glo)``, read-only int64: ``smask[n]`` is ``1 << b`` for
        a scalar of the ``b``-th entry (the species order), and ``glo``
        splits the scalars into one group per entry — group ``g`` holds
        ``glo[g] <= n < glo[g + 1]``.
        """
        smask = np.concatenate(
            [np.full(width, 1 << b, dtype=np.int64)
             for b, (_, width) in enumerate(self.entries)]
        )
        glo = np.cumsum([0, *(width for _, width in self.entries)])
        out = smask, glo.astype(np.int64)
        for a in out:
            a.flags.writeable = False
        return out


#: The pools :meth:`TransportWorkspace.wind_split` builds into, in
#: ``WindSplit.build``'s ``out`` order.
_WIND_POOLS = ("pos_i", "pos_k", "pos_j", "neg_i", "neg_k", "neg_j")


class TransportWorkspace:
    """Preallocated per-rank buffers for the fused transport kernels.

    The Python analog of the paper's Listing-8 ``temp_arrays`` module:
    one flat pool per buffer name, sized by the largest request and
    handed out as shaped views, so repeated steps perform zero heap
    allocations. Pools are sized by request, not rounded up to a block.
    The compiled Euler step pins only its two-row rings (:meth:`rings`:
    the values of both blocks, the evaluated guards and the new
    occupancy bits) and one ``swept`` count per cell — it splits the
    winds per cell as it sweeps — and RK3 adds the block-sized
    ``stage``/``tend`` and ``state_stage``/``state_tend`` for its first
    two stages, two occupancy fields and the unclamped floors; all of
    them are requested once, when a rank's :class:`Advection` builds its
    stage calls. The numpy fallback adds the six wind pieces of
    :meth:`wind_split`, ``tend``, the per-axis stencil pieces
    ``diff``/``hi``/``lo`` and RK3's ``phi0``/``stage``, one block after
    the other. ``allocations`` counts pool (re)allocations — a
    reuse test can assert it stays flat across steps the same way the
    paper checks ``map(alloc:)`` happens once. ``shape`` is the block's
    grid shape without the scalar axis — the model's ``(nm, ni, nk,
    nj)`` member stack.
    """

    def __init__(
        self,
        shape: tuple[int, ...],
        nscalars: int,
        dtype: np.dtype | type = np.float64,
    ):
        self.shape = tuple(int(s) for s in shape)
        self.nscalars = int(nscalars)
        self.dtype = np.dtype(dtype)
        self._pools: dict[str, np.ndarray] = {}
        self.allocations = 0

    def buffer(
        self, name: str, shape: tuple[int, ...], dtype: np.dtype | type | None = None
    ) -> np.ndarray:
        """A shaped view of the named pool (grown on a larger request).

        Contents are unspecified — callers fully overwrite the view. A
        pool grows only while the first step issues its largest request
        (the numpy stencil's per-axis pieces differ in shape); later
        steps reuse it. ``dtype`` defaults to the workspace's (the rings
        of occupancy bits and the swept counts are integers).
        """
        dtype = self.dtype if dtype is None else np.dtype(dtype)
        n = int(np.prod(shape, dtype=np.int64))
        pool = self._pools.get(name)
        if pool is None or pool.size < n or pool.dtype != dtype:
            self._pools[name] = pool = np.empty(n, dtype=dtype)
            self.allocations += 1
        return pool[:n].reshape(shape)

    def rings(self, shape: tuple[int, ...], ngroups: int) -> dict[str, np.ndarray]:
        """The rings one compiled stage of an ``(nm, ni, nk, nj, ns)``
        bins block and its state block needs
        (:func:`repro.wrf.cstencil.ring_shapes`)."""
        return {
            name: self.buffer(name, ring, dtype)
            for name, (ring, dtype) in cstencil.ring_shapes(shape, ngroups).items()
        }

    def wind_split(
        self,
        u: np.ndarray,
        v: np.ndarray,
        w: np.ndarray,
        dx: float,
        dz: float,
    ) -> WindSplit:
        """:meth:`WindSplit.build` into six of this workspace's pools:
        the numpy fallback's split (the compiled sweep splits each
        cell's winds itself).

        The same ufuncs in the same order, so the same bits; the pieces
        are valid until the next call.
        """
        out = [self.buffer(name, u.shape) for name in _WIND_POOLS]
        return WindSplit.build(u, v, w, dx, dz, out=out)

    @property
    def nbytes(self) -> int:
        """Bytes currently pinned by the allocated pools."""
        return sum(p.nbytes for p in self._pools.values())


_workspace_cache = get_cache(
    "wrf.transport_workspace",
    maxsize=16,
    sizeof=lambda ws: ws.nbytes,
)


def get_workspace(
    shape: tuple[int, ...],
    nscalars: int,
    dtype: np.dtype | type = np.float64,
    owner: int | str = 0,
) -> TransportWorkspace:
    """The registered workspace for ``(shape, nscalars, dtype, owner)``.

    ``owner`` (typically the rank index) keeps concurrently executing
    ranks on distinct buffer sets under batched rank execution;
    same-shaped models reuse each other's workspaces across
    instantiations, which is what the reuse counters observe.
    """
    key = (tuple(shape), int(nscalars), np.dtype(dtype).str, owner)
    return _workspace_cache.get_or_build(
        key, lambda: TransportWorkspace(shape, nscalars, dtype=dtype)
    )


def _axis_slice(ndim: int, axis: int, sl: slice) -> tuple[slice, ...]:
    out = [slice(None)] * ndim
    out[axis] = sl
    return tuple(out)


def fused_upwind_tend(
    block: np.ndarray,
    split: WindSplit,
    out: np.ndarray,
    ws: TransportWorkspace,
) -> np.ndarray:
    """Donor-cell tendency of a stacked scalar block, written to ``out``.

    ``block`` is ``(ni, nk, nj, nscalar)``, or a member stack of them
    (``(nm, ni, nk, nj, nscalar)`` with member-stacked winds); the wind
    decomposition broadcasts over the trailing scalar axis, so one
    sweep covers every scalar of the block — the host-side ``collapse``
    of the per-scalar loop (the state block is swept as an ``(nm, ni,
    nk, nj, 3)`` view).

    The stencil is evaluated through sliced differences into workspace
    buffers (no rolled copies): along each axis, with
    ``d[j] = s[j+1] - s[j]``, the zero-gradient-edge donor-cell
    tendency is

    * first cell:    ``-(neg * d[0])``
    * interior ``i``: ``-(pos[i] * d[i-1] + neg[i] * d[i])``
    * last cell:     ``-(pos * d[-1])``

    which reproduces the reference ``-(pos*(s-bwd) + neg*(fwd-s))``
    term-for-term (the edge terms the reference clamps to zero are
    simply never formed). Per-axis contributions are accumulated in
    the reference's axis order, so results are bitwise identical to
    the per-field path up to the sign of zeros; every operation is
    elementwise, so each member of a stack matches its own sweep.
    """
    ndim = block.ndim
    lead = ndim - 4  # the member axis, if any
    wrote = False
    for axis, (pos, neg) in enumerate(zip(split.pos, split.neg), start=lead):
        n = block.shape[axis]
        if n == 1:
            # Rolled == original under the edge clamp: zero tendency.
            continue
        pos = pos[..., None]
        neg = neg[..., None]
        hi = _axis_slice(ndim, axis, slice(1, None))
        lo = _axis_slice(ndim, axis, slice(0, n - 1))
        red_shape = tuple(
            n - 1 if ax == axis else s for ax, s in enumerate(block.shape)
        )
        d = ws.buffer("diff", red_shape)
        np.subtract(block[hi], block[lo], out=d)
        # pos-term at cells 1..n-1 and neg-term at cells 0..n-2, both
        # over the shared difference.
        p = ws.buffer("hi", red_shape)
        np.multiply(pos[hi], d, out=p)
        q = ws.buffer("lo", red_shape)
        np.multiply(neg[lo], d, out=q)
        # Combine region-wise; the diff pool is dead and hosts the sum.
        first = _axis_slice(ndim, axis, slice(0, 1))
        last = _axis_slice(ndim, axis, slice(n - 1, n))
        interior = _axis_slice(ndim, axis, slice(1, n - 1))
        red_head = _axis_slice(ndim, axis, slice(0, 1))
        red_tail = _axis_slice(ndim, axis, slice(n - 2, n - 1))
        red_lo = _axis_slice(ndim, axis, slice(0, n - 2))
        red_hi = _axis_slice(ndim, axis, slice(1, n - 1))
        if not wrote:
            np.negative(q[red_head], out=out[first])
            np.negative(p[red_tail], out=out[last])
            both = d[red_lo]
            np.add(p[red_lo], q[red_hi], out=both)
            np.negative(both, out=out[interior])
            wrote = True
        else:
            out[first] -= q[red_head]
            out[last] -= p[red_tail]
            both = d[red_lo]
            np.add(p[red_lo], q[red_hi], out=both)
            out[interior] -= both
    if not wrote:  # degenerate 1x1x1 patch: uniform field, zero tendency
        out[...] = 0.0
    return out


def _numpy_blocks(state, bins, floors):
    """Each block with its floors, as the numpy stencil sweeps them: the
    ``(nm, ni, 3, nk, nj)`` state block viewed ``(nm, ni, nk, nj, 3)``,
    the cell axes where :func:`fused_upwind_tend` expects them."""
    return ((bins, floors), (state.transpose(0, 1, 3, 4, 2), STATE_FLOORS))


class Advection:
    """One rank's transport stage, bound to its blocks once: the
    donor-cell advection of both blocks (:meth:`advect`), then the
    buoyancy update of every member's w (:meth:`run`).

    ``state`` is the planar ``(nm, ni, 3, nk, nj)`` state block (t, qv,
    w), ``bins`` the ``(nm, ni, nk, nj, ns)`` bins block and ``winds``
    the member-stacked horizontal winds and spacings
    (:class:`~repro.wrf.dynamics.Winds`); the vertical wind is the state
    block's w plane at the step's start. :meth:`advect` advances both
    blocks in place by one donor-cell step — a single Euler stage, or
    WRF-ARW's three-stage RK3 with ``rk3`` — clamping at the floors
    (:data:`STATE_FLOORS`, and ``floors`` per bin,
    :meth:`ScalarLayout.floors`), and leaves each cell's condensate
    ``sum_n bins[..., n] * mass[n]`` in ``cond`` (``(nm, ni, nk, nj)``).
    ``occ`` is the ``(nm, ni, nk, nj)`` uint8 occupancy field (bit ``sp``
    clear: every bin of species ``sp`` in that cell is an exact zero)
    and ``masks`` the layout's :meth:`ScalarLayout.masks`. ``t_base``
    and ``rho`` are the ``(nk,)`` base-state temperature and density
    columns the members share, which the buoyancy update reads with the
    new t and ``cond`` (:func:`~repro.wrf.dynamics.buoyancy_w_update`).

    The compiled calls are built and checked once, on the first
    compiled run (:func:`repro.wrf.cstencil.advect_stage_args`,
    :func:`repro.wrf.cstencil.buoyancy_args`): the blocks, winds, fields
    and workspace pools never move, so every run passes the same
    arguments. Each stage is one pass over both blocks that splits each
    cell's winds as it goes, skips every species whose bit is clear
    across the cell's 7-point stencil (those bins are zeros and stay
    zeros), computes each row from unmodified rows into the workspace's
    rings and writes it back once the next row's plane is done, and
    writes each cell's condensate in a fixed lane order into ``cond``
    and its new bits into ``occ``; no block-sized buffer is touched by
    the Euler step. RK3 sends its first two stages to workspace buffers
    and sweeps every species in every stage (it reads an all-set field:
    the intermediate stages' bits would need fields of their own); the
    last stage writes the blocks themselves through the same rings, and
    its condensate and bits are the ones left. One ``buoyancy`` call
    then updates the w plane. Member ``m`` of the result is a one-member
    run of that member, bit for bit.

    The numpy fallback (no stencil library) builds the
    :class:`~repro.wrf.dynamics.WindSplit` into the workspace's pools
    and runs :func:`fused_upwind_tend` block by block, mirroring the
    per-field ``arr += dt * rk_scalar_tend(arr, split)`` (or
    :func:`repro.wrf.dynamics.rk3_advect`); it sweeps everything, sets
    every bit of ``occ``, contracts each member's bins into ``cond``
    (:func:`blas_condensate`) and runs
    :func:`~repro.wrf.dynamics.buoyancy_w_update` per member. It is the
    compiled stage's oracle too.
    """

    def __init__(
        self,
        state: np.ndarray,
        bins: np.ndarray,
        winds: Winds,
        dt: float,
        ws: TransportWorkspace,
        floors: np.ndarray,
        mass: np.ndarray,
        masks: tuple[np.ndarray, np.ndarray],
        cond: np.ndarray,
        occ: np.ndarray,
        t_base: np.ndarray,
        rho: np.ndarray,
        rk3: bool = False,
    ):
        self.state, self.bins, self.winds, self.dt = state, bins, winds, dt
        self.ws, self.floors, self.occ, self.rk3 = ws, floors, occ, rk3
        self.mass, self.masks, self.cond = mass, masks, cond
        self.t_base, self.rho = t_base, rho
        #: The compiled stages' argument tuples and the buoyancy
        #: update's, built on the first compiled run (``None`` until
        #: then).
        self.calls: list[tuple] | None = None
        self.buoyancy: tuple | None = None

    def _build_calls(self) -> tuple[list[tuple], tuple]:
        """Every compiled stage's checked ``advect_stage`` arguments,
        with the workspace pools they need, and the ``buoyancy``
        call's."""
        state, bins, winds, ws = self.state, self.bins, self.winds, self.ws
        floors, mass, masks, cond = self.floors, self.mass, self.masks, self.cond
        occ, dt = self.occ, self.dt
        buoyancy = cstencil.buoyancy_args(state, cond, self.t_base, self.rho, dt)
        cells = bins.shape[:4]
        rings = ws.rings(bins.shape, len(masks[1]) - 1)
        self.swept = ws.buffer("swept", cells, np.int32)
        if not self.rk3:
            return [cstencil.advect_stage_args(
                state, state, state, bins, bins, bins, winds, dt,
                STATE_FLOORS, floors, mass, cond, masks, occ, occ,
                self.swept, rings,
            )], buoyancy
        # The blocks are phi0 for every stage and receive the last one.
        every = ws.buffer("occ_all", cells, np.uint8)
        every[...] = ALL_OCCUPIED
        staged = ws.buffer("occ_stage", cells, np.uint8)
        unclamped = ws.buffer("unclamped", floors.shape)
        unclamped.fill(-np.inf)
        bufs = [
            (ws.buffer(f"state_{name}", state.shape), ws.buffer(name, bins.shape))
            for name in ("stage", "tend")
        ]
        stage = (state, bins)
        calls = []
        for idx, frac in enumerate(RK3_FRACTIONS):
            last = idx == len(RK3_FRACTIONS) - 1
            out = (state, bins) if last else bufs[idx]
            calls.append(cstencil.advect_stage_args(
                stage[0], state, out[0], stage[1], bins, out[1], winds,
                dt * frac,
                STATE_FLOORS if last else _STATE_UNCLAMPED,
                floors if last else unclamped, mass, cond, masks,
                every, occ if last else staged, self.swept, rings,
            ))
            stage = out
        return calls, buoyancy

    def advect(self, lib) -> np.ndarray | None:
        """Advance both blocks one step and leave their condensate in
        ``cond`` and their bits in ``occ``, through ``lib``'s
        ``advect_stage`` (the loaded stencil library), or the numpy
        fallback when ``lib`` is ``None``.

        Returns each cell's count of swept species (a workspace view,
        valid until the next sweep), or ``None`` from the fallback.
        """
        state, bins = self.state, self.bins
        name = "advect_rk3" if self.rk3 else "advect_euler"
        with tracer.span(name, cat="kernel") as sp:
            if sp is not None:
                sp.set(
                    compiled=lib is not None,
                    nscalars=len(STATE_FIELDS) + bins.shape[-1],
                    members=bins.shape[0],
                )
            if lib is not None:
                if self.calls is None:
                    self.calls, self.buoyancy = self._build_calls()
                for args in self.calls:
                    lib.advect_stage(*args)
                return self.swept
            ws, dt = self.ws, self.dt
            u, v, dx, dz = self.winds
            split = ws.wind_split(u, v, state[:, :, cstencil.W_PLANE], dx, dz)
            for block, lower in _numpy_blocks(state, bins, self.floors):
                tend = ws.buffer("tend", block.shape)
                if not self.rk3:
                    fused_upwind_tend(block, split, tend, ws)
                    np.multiply(tend, dt, out=tend)
                    block += tend
                else:
                    phi0 = ws.buffer("phi0", block.shape)
                    phi0[...] = block
                    stage_buf = ws.buffer("stage", block.shape)
                    stage = block
                    for frac in RK3_FRACTIONS:
                        fused_upwind_tend(stage, split, tend, ws)
                        np.multiply(tend, dt * frac, out=stage_buf)
                        stage_buf += phi0
                        stage = stage_buf
                    block[...] = stage
                np.maximum(block, lower, out=block)
            self.occ[...] = ALL_OCCUPIED
            blas_condensate(bins, self.mass, self.cond)
            return None

    def run(self, lib) -> np.ndarray | None:
        """The whole transport step: :meth:`advect`, then the buoyancy
        update of every member's w from the new t and condensate (the
        ``buoyancy`` kernel, or per member in numpy). Returns what
        :meth:`advect` returns."""
        swept = self.advect(lib)
        if lib is not None:
            lib.buoyancy(*self.buoyancy)
            return swept
        state, rho = self.state, self.rho[None, :, None]
        for m in range(state.shape[0]):
            buoyancy_w_update(
                state[m, :, cstencil.W_PLANE], state[m, :, cstencil.T_PLANE],
                self.t_base, self.cond[m], rho, self.dt,
            )
        return None


def blas_condensate(bins: np.ndarray, mass: np.ndarray, cond: np.ndarray) -> None:
    """The numpy fallback's condensate: one BLAS contraction of each
    member's bins with their masses (a call must not see other members'
    rows)."""
    for m in range(bins.shape[0]):
        cond[m] = bins[m] @ mass


def sum_condensate(
    bins: np.ndarray,
    mass: np.ndarray,
    masks: tuple[np.ndarray, np.ndarray],
    cond: np.ndarray,
    occ: np.ndarray,
) -> bool:
    """Each cell's condensate and occupancy bits of the bins block, as a
    sweep writes them.

    The compiled stencil module's ``condensate`` kernel, in the lane
    order :meth:`Advection.advect` writes (shapes as there), in one
    read of the block; for a block no sweep has written yet. Returns
    ``False`` without touching ``cond`` or ``occ`` when the stencil is
    unavailable (:func:`blas_condensate` is the fallback's sum).
    """
    lib = cstencil.load_stencil()
    if lib is None:
        return False
    cstencil.condensate(lib, bins, mass, cond, masks, occ)
    return True
