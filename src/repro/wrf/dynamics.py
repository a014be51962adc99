"""RK3 scalar transport: ``rk_scalar_tend`` and ``rk_update_scalar``.

These are the second and third hotspots of the paper's Table I. The
tendencies are donor-cell (first-order upwind) flux divergences on the
collocated grid, applied to 3D scalars and, crucially, to every bin of
every hydrometeor (233 advected scalars for the 7-species, 33-bin
configuration) — which is what gives the routine its share of runtime.

A buoyancy update provides the vertical velocity: ``dw/dt = g (T' / T0
- q_cond)`` with Rayleigh drag, replacing WRF's acoustic/pressure solver
(documented substitution; the transported fields and their cost
structure are the point here).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.constants import GRAVITY

#: FLOPs per (cell, scalar, RK stage) of the donor-cell tendency.
FLOPS_PER_CELL_TEND = 11.0

#: FLOPs per (cell, scalar, RK stage) of the update.
FLOPS_PER_CELL_UPDATE = 2.0

#: RK3 stage fractions used by WRF's ARW solver.
RK3_FRACTIONS = (1.0 / 3.0, 0.5, 1.0)

#: Rayleigh drag of the buoyancy update [1/s].
DRAG = 5.0e-3

#: The buoyancy update clips w to +-W_MAX [m/s].
W_MAX = 25.0


@dataclass(frozen=True)
class WindSplit:
    """Upwind-decomposed winds, hoisted out of the per-scalar loop.

    ``pos``/``neg`` hold ``max(vel, 0)/spacing`` and ``min(vel, 0)/
    spacing`` per axis, computed once per step and reused by every
    advected scalar (233 of them), which is where the donor-cell
    tendency spends its time otherwise.
    """

    pos: tuple[np.ndarray, np.ndarray, np.ndarray]
    neg: tuple[np.ndarray, np.ndarray, np.ndarray]

    @classmethod
    def build(
        cls,
        u: np.ndarray,
        v: np.ndarray,
        w: np.ndarray,
        dx: float,
        dz: float,
        out: list[np.ndarray] | None = None,
    ) -> "WindSplit":
        """The split of winds ``u``, ``v``, ``w``; with ``out``, written
        into its six arrays (``pos`` i, k, j, then ``neg`` i, k, j) by
        the same ufuncs, so the bits are the same."""
        vels = (u, w, v)  # axis order: i, k, j
        spacings = (dx, dz, dx)
        out = out or [None] * 6
        pos = tuple(
            np.divide(np.maximum(vel, 0.0, out=o), sp, out=o)
            for vel, sp, o in zip(vels, spacings, out[:3])
        )
        neg = tuple(
            np.divide(np.minimum(vel, 0.0, out=o), sp, out=o)
            for vel, sp, o in zip(vels, spacings, out[3:])
        )
        return cls(pos=pos, neg=neg)  # type: ignore[arg-type]


class Winds(NamedTuple):
    """The winds one transport step advects with.

    The member-stacked horizontal winds ``u`` and ``v`` (``(nm, ni, nk,
    nj)``) and the grid spacings; the vertical wind is the state
    block's w plane at the step's start. The compiled stage splits them
    per cell as it sweeps (:func:`repro.wrf.cstencil.build_advect_ir`);
    the numpy fallback builds the :class:`WindSplit`.
    """

    u: np.ndarray
    v: np.ndarray
    dx: float
    dz: float


def _upwind_tend(s: np.ndarray, axis: int, pos: np.ndarray, neg: np.ndarray) -> np.ndarray:
    """Donor-cell flux divergence along one axis (zero-gradient edges)."""
    fwd = np.roll(s, -1, axis=axis)
    bwd = np.roll(s, 1, axis=axis)
    sl_first = [slice(None)] * s.ndim
    sl_last = [slice(None)] * s.ndim
    sl_first[axis] = slice(0, 1)
    sl_last[axis] = slice(-1, None)
    fwd[tuple(sl_last)] = s[tuple(sl_last)]
    bwd[tuple(sl_first)] = s[tuple(sl_first)]
    if s.ndim == 4:
        pos = pos[..., None]
        neg = neg[..., None]
    return -(pos * (s - bwd) + neg * (fwd - s))


def rk_scalar_tend(
    scalar: np.ndarray,
    u: np.ndarray | WindSplit,
    v: np.ndarray | None = None,
    w: np.ndarray | None = None,
    dx: float | None = None,
    dz: float | None = None,
) -> np.ndarray:
    """Donor-cell advective tendency of one scalar (any trailing dims).

    ``scalar`` is ``(ni, nk, nj)`` or ``(ni, nk, nj, nkr)``. Either a
    prebuilt :class:`WindSplit` or raw wind components may be passed;
    the driver prebuilds one split per step and shares it across all
    233 scalars. Zero-gradient boundaries (patch halos carry real
    neighbor data, so only true domain edges see the clamp).
    """
    if isinstance(u, WindSplit):
        split = u
    else:
        assert v is not None and w is not None and dx and dz
        split = WindSplit.build(u, v, w, dx, dz)
    tend = _upwind_tend(scalar, 0, split.pos[0], split.neg[0])  # i
    tend += _upwind_tend(scalar, 1, split.pos[1], split.neg[1])  # k
    tend += _upwind_tend(scalar, 2, split.pos[2], split.neg[2])  # j
    return tend


def rk3_advect(
    scalar: np.ndarray,
    split: WindSplit,
    dt: float,
    clip_negative: bool = False,
    workspace=None,
) -> None:
    """WRF-ARW's three-stage Runge-Kutta advection update, in place.

    ``phi* = phi0 + dt/3 L(phi0)``; ``phi** = phi0 + dt/2 L(phi*)``;
    ``phi = phi0 + dt L(phi**)`` — the exact stage fractions of
    ``RK3_FRACTIONS``. The default model driver integrates with a
    single Euler stage for speed (the *cost* charged is always the full
    RK3); ``Namelist(use_rk3_numerics=True)`` switches the numerics to
    this function.

    With a :class:`repro.wrf.transport.TransportWorkspace` passed as
    ``workspace``, the ``phi0`` snapshot and the per-stage state reuse
    the workspace's preallocated ``phi0``/``stage`` buffers instead of
    allocating fresh arrays every call; the arithmetic (and hence the
    result, bit for bit) is identical.
    """
    if workspace is None:
        phi0 = scalar.copy()
        stage = scalar
        for frac in RK3_FRACTIONS:
            tend = rk_scalar_tend(stage, split)
            stage = phi0 + (dt * frac) * tend
        scalar[...] = stage
    else:
        phi0 = workspace.buffer("phi0", scalar.shape)
        phi0[...] = scalar
        stage_buf = workspace.buffer("stage", scalar.shape)
        stage = scalar
        for frac in RK3_FRACTIONS:
            tend = rk_scalar_tend(stage, split)
            np.multiply(tend, dt * frac, out=stage_buf)
            stage_buf += phi0
            stage = stage_buf
        scalar[...] = stage
    if clip_negative:
        np.maximum(scalar, 0.0, out=scalar)


def rk_update_scalar(
    scalar: np.ndarray,
    scalar0: np.ndarray,
    tend: np.ndarray,
    dt_stage: float,
    clip_negative: bool = False,
) -> None:
    """RK stage update ``scalar = scalar0 + dt_stage * tend`` (in place)."""
    np.multiply(tend, dt_stage, out=scalar)
    scalar += scalar0
    if clip_negative:
        np.maximum(scalar, 0.0, out=scalar)


@dataclass
class DynWorkStats:
    """Work counts for one RK3 transport step on one patch."""

    cell_scalar_stages: float = 0.0

    @property
    def tend_flops(self) -> float:
        return self.cell_scalar_stages * FLOPS_PER_CELL_TEND

    @property
    def update_flops(self) -> float:
        return self.cell_scalar_stages * FLOPS_PER_CELL_UPDATE

    @property
    def tend_bytes(self) -> float:
        return self.cell_scalar_stages * 4.0 * 8.0

    @property
    def update_bytes(self) -> float:
        return self.cell_scalar_stages * 4.0 * 3.0


def buoyancy_w_update(
    w: np.ndarray,
    temperature: np.ndarray,
    t_base_col: np.ndarray,
    condensate_mass: np.ndarray,
    rho: np.ndarray,
    dt: float,
    drag: float = DRAG,
) -> None:
    """Advance vertical velocity from buoyancy and loading (in place).

    ``dw/dt = g (T'/T_base - q_cond) - drag * w``; the top and bottom
    levels are pinned to zero (rigid lid / ground). The numpy fallback
    and the oracle of the compiled update
    (:func:`repro.wrf.cstencil.build_buoyancy_ir`), which the model
    runs whenever the stencil library loads.
    """
    t_base = t_base_col[None, :, None]
    q_cond = condensate_mass / rho  # mixing ratio of condensate
    accel = GRAVITY * ((temperature - t_base) / t_base - q_cond)
    w += dt * (accel - drag * w)
    w[:, 0, :] = 0.0
    w[:, -1, :] = 0.0
    np.clip(w, -W_MAX, W_MAX, out=w)
