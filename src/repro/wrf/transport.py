"""Fused batched scalar transport (the Sec. VIII "next target").

WRF advects every bin of every hydrometeor as its own 3D scalar — 234
of them here (7 species x 33 bins + t, qv, w) — and the per-field
Python loop in the model driver paid for that the same way the
Fortran baseline paid for ``coal_bott_new``'s automatic arrays: six
full-array temporaries per scalar per axis (two ``np.roll`` copies
plus the intermediate products), reallocated on every call.

This module is the Python analog of the paper's stage-3 transformation:

* :class:`TransportWorkspace` plays the role of the ``temp_arrays``
  module — every tendency/stage buffer is preallocated once per
  ``(shape, nscalars, dtype)`` and reused for the life of the run, the
  host-side ``target enter data map(alloc:)``;
* the fused kernels below play the role of the fully ``collapse``d
  device loop — every scalar of every ensemble member lives in one
  contiguous ``(nm, ni, nk, nj, nscalar)`` superblock per rank (the
  resident fields of :meth:`repro.wrf.state.WrfFields.bind_block`)
  and is advected in a single sweep. When the system C compiler is
  available the sweep is one truly fused loop nest
  (:mod:`repro.wrf.cstencil`): every value read once, written once, no
  temporaries — otherwise a sliced in-place numpy stencil runs through
  preallocated buffers instead of rolled copies.

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
from repro.obs import tracer
from repro.wrf import cstencil
from repro.wrf.dynamics import RK3_FRACTIONS, WindSplit

#: Buffers a full fused RK3 step needs; Euler uses fewer. ``tend``
#: accumulates the tendency, ``diff``/``hi``/``lo`` hold the numpy
#: path's per-axis stencil pieces, ``phi0``/``stage`` the RK3 stage
#: state.
WORKSPACE_BUFFERS = ("tend", "diff", "hi", "lo", "phi0", "stage")


@dataclass(frozen=True)
class ScalarLayout:
    """Packing of named scalars into the superblock's trailing axis.

    ``entries`` is an ordered ``(name, width)`` tuple — width 1 for
    plain 3D scalars, ``nkr`` for a binned species distribution, whose
    bins occupy consecutive slots so each field view keeps a
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

    def clip_slices(self, no_clip: tuple[str, ...] = ("t", "w")) -> tuple[slice, ...]:
        """Trailing-axis slices covering every clipped scalar.

        Adjacent clipped fields are merged into one slice so the
        vectorized ``np.maximum`` touches as few regions as possible
        (two for the standard layout: ``qv`` and all bins).
        """
        runs: list[list[int]] = []
        offset = 0
        for name, width in self.entries:
            if name not in no_clip:
                if runs and runs[-1][1] == offset:
                    runs[-1][1] = offset + width
                else:
                    runs.append([offset, offset + width])
            offset += width
        return tuple(slice(lo, hi) for lo, hi in runs)

    @lru_cache(maxsize=None)
    def clip_mask(self, no_clip: tuple[str, ...] = ("t", "w")) -> np.ndarray:
        """Per-scalar uint8 mask (1 = clamp at zero), for the C kernel."""
        mask = np.ones(self.nscalars, dtype=np.uint8)
        for name in no_clip:
            sl = self.slices().get(name)
            if sl is not None:
                mask[sl] = 0
        return mask


class TransportWorkspace:
    """Preallocated per-rank buffers for the fused transport kernels.

    The Python analog of the paper's Listing-8 ``temp_arrays`` module:
    one flat float pool per buffer name, allocated on first use at the
    superblock size and handed out as shaped views, so repeated steps
    perform zero heap allocations. ``allocations`` counts pool
    (re)allocations — a reuse test can assert it stays flat across
    steps the same way the paper checks ``map(alloc:)`` happens once.
    ``shape`` is the block's grid shape without the scalar axis — the
    model's ``(nm, ni, nk, nj)`` member stack.
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

    @property
    def block_elems(self) -> int:
        """Elements in one full superblock-shaped buffer."""
        n = self.nscalars
        for s in self.shape:
            n *= s
        return n

    def buffer(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """A shaped view of the named pool (allocated on first use).

        Contents are unspecified — callers fully overwrite the view.
        Requests never exceed the superblock size for this workspace's
        ``(shape, nscalars)``, so each pool is allocated exactly once.
        """
        n = int(np.prod(shape, dtype=np.int64))
        pool = self._pools.get(name)
        if pool is None or pool.size < n:
            self._pools[name] = pool = np.empty(
                max(n, self.block_elems), dtype=self.dtype
            )
            self.allocations += 1
        return pool[:n].reshape(shape)

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
    sweep covers all 234 scalars — the host-side ``collapse`` of the
    per-scalar loop.

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


def _clip(block: np.ndarray, clip_slices: tuple[slice, ...]) -> None:
    for sl in clip_slices:
        view = block[..., sl]
        np.maximum(view, 0.0, out=view)


def _mask_from_slices(
    nscalars: int, clip_slices: tuple[slice, ...]
) -> np.ndarray:
    mask = np.zeros(nscalars, dtype=np.uint8)
    for sl in clip_slices:
        mask[sl] = 1
    return mask


def fused_euler_advect(
    block: np.ndarray,
    split: WindSplit,
    dt: float,
    ws: TransportWorkspace,
    clip_slices: tuple[slice, ...] = (),
) -> np.ndarray:
    """Single-Euler-stage donor-cell update of the member stack.

    ``block`` is the ``(nm, ni, nk, nj, ns)`` superblock and ``split``
    the member-stacked ``(nm, ni, nk, nj)`` wind decomposition
    (``WindSplit.build`` is elementwise, so building it on stacked
    winds equals the per-member builds bit for bit). Mirrors the
    per-field ``arr += dt * rk_scalar_tend(arr, split)`` (then
    per-field clipping) for every packed scalar of every member at
    once, and returns the advected block. With the compiled stencil
    available the update is one fused out-of-place loop nest and the
    returned array is the workspace's ``tend`` buffer; the numpy
    fallback updates ``block`` in place and returns it.
    """
    lib = cstencil.load_stencil()
    with tracer.span("advect_euler", cat="kernel") as sp:
        if sp is not None:
            sp.set(
                compiled=lib is not None,
                nscalars=block.shape[-1],
                members=block.shape[0],
            )
        if lib is not None:
            out = ws.buffer("tend", block.shape)
            mask = _mask_from_slices(block.shape[-1], clip_slices)
            cstencil.advect_stage(
                lib, block, block, out, split.pos, split.neg, dt, mask,
                do_clip=bool(clip_slices),
            )
            return out
        tend = ws.buffer("tend", block.shape)
        fused_upwind_tend(block, split, tend, ws)
        np.multiply(tend, dt, out=tend)
        block += tend
        _clip(block, clip_slices)
        return block


def fused_rk3_advect(
    block: np.ndarray,
    split: WindSplit,
    dt: float,
    ws: TransportWorkspace,
    clip_slices: tuple[slice, ...] = (),
) -> np.ndarray:
    """WRF-ARW's three-stage RK3 update of the member stack.

    The stage recurrence ``phi* = phi0 + (dt*frac) L(stage)`` runs on
    the workspace's buffers — no per-stage allocations — with the same
    stage fractions and operation order as
    :func:`repro.wrf.dynamics.rk3_advect`, returning the advected
    block (a workspace buffer on the compiled path, ``block`` itself
    on the numpy fallback). Shapes as in :func:`fused_euler_advect`.
    """
    lib = cstencil.load_stencil()
    with tracer.span("advect_rk3", cat="kernel") as sp:
        if sp is not None:
            sp.set(
                compiled=lib is not None,
                nscalars=block.shape[-1],
                members=block.shape[0],
            )
        if lib is not None:
            # `block` stays untouched and serves as phi0; the two stage
            # outputs ping-pong between the stage/tend buffers.
            mask = _mask_from_slices(block.shape[-1], clip_slices)
            bufs = (
                ws.buffer("stage", block.shape),
                ws.buffer("tend", block.shape),
            )
            stage: np.ndarray = block
            for idx, frac in enumerate(RK3_FRACTIONS):
                out = bufs[idx % 2]
                last = idx == len(RK3_FRACTIONS) - 1
                cstencil.advect_stage(
                    lib, stage, block, out, split.pos, split.neg, dt * frac,
                    mask, do_clip=last and bool(clip_slices),
                )
                stage = out
            return stage
        phi0 = ws.buffer("phi0", block.shape)
        phi0[...] = block
        stage_buf = ws.buffer("stage", block.shape)
        tend = ws.buffer("tend", block.shape)
        stage = block
        for frac in RK3_FRACTIONS:
            fused_upwind_tend(stage, split, tend, ws)
            np.multiply(tend, dt * frac, out=stage_buf)
            stage_buf += phi0
            stage = stage_buf
        block[...] = stage
        _clip(block, clip_slices)
        return block
