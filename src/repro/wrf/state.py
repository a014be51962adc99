"""Prognostic fields on one rank's patch (Registry-style).

Arrays are allocated at *memory* extents ``(ims:ime, kms:kme, jms:jme)``
— the owned patch plus halo — in i-k-j order, as WRF stores microphysics
fields. Scalar advection reads the halo; microphysics operates on the
owned interior through views.

The case builders fill each named field as its own array; the model
then moves every advected field into its member's slabs of the rank's
two resident blocks (:meth:`WrfFields.bind_block`, :func:`rank_blocks`):
t, qv and w into the planar ``(N, ni, 3, nk, nj)`` *state block*, each
field's ``(k, j)`` planes contiguous as WRF stores them, and every
species' bins into the ``(N, ni, nk, nj, nsp * nkr)`` *bins block*,
where the halo exchange and the fused transport kernels (see
:mod:`repro.wrf.transport`) see all scalars as two blocks.
:attr:`WrfFields.layout` records the bins block's trailing-axis
packing, and :meth:`advected_fields` hands out a dict built once at
construction — the entries are the live arrays, never rebuilt.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.constants import GRAVITY, NKR, R_D, T_0
from repro.errors import ConfigurationError
from repro.fsbm.species import Species
from repro.fsbm.state import MicroState
from repro.grid.domain import Patch
from repro.grid.indexing import owned_slice
from repro.wrf.transport import STATE_FIELDS, ScalarLayout


def rank_blocks(
    members: int, shape: tuple[int, int, int], alloc=np.empty, nkr: int = NKR
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One rank's storage and its two member-stacked blocks.

    ``alloc((n,))`` makes one flat float64 array of ``n`` elements (the
    process-rank pool passes its shared-mapping allocator); returned as
    ``(storage, state, bins)``, where ``state`` is the planar ``(members,
    ni, 3, nk, nj)`` state block and ``bins`` the ``(members, ni, nk, nj,
    nsp * nkr)`` bins block, C-contiguous views of ``storage`` one after
    the other: 234 scalars per cell. Sized without constructing fields,
    so the pool can map every rank's storage before any rank state
    exists.
    """
    ni, nk, nj = shape
    planes = (members, ni, len(STATE_FIELDS), nk, nj)
    bins = (members, *shape, len(Species) * nkr)
    nstate = int(np.prod(planes))
    storage = alloc((nstate + int(np.prod(bins)),))
    return (
        storage,
        storage[:nstate].reshape(planes),
        storage[nstate:].reshape(bins),
    )


def base_state_column(nz: int, dz: float) -> dict[str, np.ndarray]:
    """Hydrostatic base-state profiles on ``nz`` levels of thickness ``dz``.

    Returns ``z`` [m], ``pressure_mb``, ``temperature`` [K], ``rho``
    [g/cm^3] and a 70 %-RH-shaped ``qv`` [g/g] reference profile —
    a standard continental summer sounding shape (conditionally
    unstable below the tropopause), which is what lets warm bubbles in
    the CONUS case grow into storms.
    """
    z = (np.arange(nz) + 0.5) * dz
    t_surface = 302.0
    lapse = 6.5e-3  # K/m in the troposphere
    z_trop = 11_000.0
    t_trop = t_surface - lapse * z_trop
    temperature = np.where(z < z_trop, t_surface - lapse * z, t_trop)
    # Hydrostatic pressure by midpoint integration.
    pressure = np.empty(nz)
    p = 1000.0e2  # Pa at the surface
    for k in range(nz):
        t_mid = temperature[k]
        p = p * np.exp(-GRAVITY * dz / (R_D * t_mid))
        pressure[k] = p
    pressure_mb = pressure / 100.0
    rho_si = pressure / (R_D * temperature)  # kg/m^3
    rho_cgs = rho_si * 1.0e-3  # g/cm^3
    # Relative humidity tapering from 0.75 at the surface to dry aloft.
    from repro.fsbm.thermo import saturation_mixing_ratio

    rh = 0.75 * np.exp(-z / 4500.0) + 0.05
    qv = rh * saturation_mixing_ratio(temperature, pressure_mb)
    return {
        "z": z,
        "pressure_mb": pressure_mb,
        "temperature": temperature,
        "rho": rho_cgs,
        "qv": qv,
    }


@dataclass
class WrfFields:
    """One rank's prognostic and diagnostic fields."""

    patch: Patch
    dz: float
    #: Temperature [K], memory extents (ni_mem, nk, nj_mem).
    t: np.ndarray = field(default=None)  # type: ignore[assignment]
    #: Water-vapor mixing ratio [g/g].
    qv: np.ndarray = field(default=None)  # type: ignore[assignment]
    #: Winds [m/s] (collocated A-grid).
    u: np.ndarray = field(default=None)  # type: ignore[assignment]
    v: np.ndarray = field(default=None)  # type: ignore[assignment]
    w: np.ndarray = field(default=None)  # type: ignore[assignment]
    #: Static base state (k-profiles broadcast to 3D on demand).
    p_mb_col: np.ndarray = field(default=None)  # type: ignore[assignment]
    rho_col: np.ndarray = field(default=None)  # type: ignore[assignment]
    t_base_col: np.ndarray = field(default=None)  # type: ignore[assignment]
    #: Binned microphysics state at memory extents.
    micro: MicroState = field(default=None)  # type: ignore[assignment]
    #: Trailing-axis packing of the bins block.
    layout: ScalarLayout = field(init=False, repr=False, default=None)  # type: ignore[assignment]
    #: The state and bins slabs the advected fields live in after
    #: :meth:`bind_block` (``None`` until bound).
    state_block: np.ndarray = field(init=False, repr=False, default=None)  # type: ignore[assignment]
    bins_block: np.ndarray = field(init=False, repr=False, default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        shape = self.patch.shape
        base = base_state_column(shape[1], self.dz)
        self.p_mb_col = base["pressure_mb"]
        self.rho_col = base["rho"]
        self.t_base_col = base["temperature"]
        if self.t is None:
            self.t = np.broadcast_to(
                base["temperature"][None, :, None], shape
            ).copy()
        if self.qv is None:
            self.qv = np.broadcast_to(base["qv"][None, :, None], shape).copy()
        for name in ("u", "v", "w"):
            if getattr(self, name) is None:
                setattr(self, name, np.zeros(shape))
        if self.micro is None:
            self.micro = MicroState(shape=shape)

        self.layout = ScalarLayout(
            entries=tuple(
                (f"bin_{sp.value}", d.shape[-1])
                for sp, d in self.micro.dists.items()
            )
        )
        # Built once; the entries are the live arrays (physics mutates
        # them in place; only bind_block rebinds them, into the
        # blocks), so consumers walk this same dict instead of
        # rebuilding it per call.
        self._advected: dict[str, np.ndarray] = {
            "t": self.t,
            "qv": self.qv,
            "w": self.w,
        }
        for sp, dist in self.micro.dists.items():
            self._advected[f"bin_{sp.value}"] = dist

    def bind_block(self, state: np.ndarray, bins: np.ndarray) -> None:
        """Move the advected fields into the rank's two persistent blocks.

        ``state`` is the float64 ``(ni, 3, nk, nj)`` slab t, qv and w
        will live in (plane ``q`` is ``STATE_FIELDS[q]``) and ``bins``
        the float64 ``(ni, nk, nj, nscalar)`` slab of every species'
        bins — this member's slices of the rank's member-stacked blocks
        (:func:`rank_blocks`), themselves the rank's anonymous shared
        storage inside its worker process under process ranks. The
        current field values are copied in and ``t``/``qv``/``w``/all
        bin distributions rebound as views into them, so the fields
        *are* the blocks' planes and columns: physics writes land
        directly in transport's input (the resident-data analog of
        keeping fields mapped on the device between kernels), and
        neighboring worker processes pull halos straight out of them
        without any serialization. The bins slab is also registered
        with :meth:`MicroState.bind_packed` so moment reductions
        contract all species at once.
        """
        ni, nk, nj = self.patch.shape
        expected = {
            "state": (ni, len(STATE_FIELDS), nk, nj),
            "bins": (ni, nk, nj, self.layout.nscalars),
        }
        if self.state_block is not None:
            raise ConfigurationError("fields are already bound to their blocks")
        for name, buffer in (("state", state), ("bins", bins)):
            if buffer.shape != expected[name] or buffer.dtype != np.float64:
                raise ConfigurationError(
                    f"{name} block must be float64 {expected[name]}, got "
                    f"{buffer.dtype} {buffer.shape}"
                )
        views = {name: state[:, q] for q, name in enumerate(STATE_FIELDS)}
        views.update({name: bins[..., sl] for name, sl in self.layout.slices().items()})
        for name, arr in list(self._advected.items()):
            views[name][...] = arr
            self._advected[name] = views[name]
        self.t = self._advected["t"]
        self.qv = self._advected["qv"]
        self.w = self._advected["w"]
        for sp in self.micro.dists:
            self.micro.dists[sp] = self._advected[f"bin_{sp.value}"]
        self.micro.bind_packed(bins)
        self.state_block = state
        self.bins_block = bins

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.patch.shape

    @property
    def pressure_mb(self) -> np.ndarray:
        """Base-state pressure broadcast to the 3D memory shape."""
        return np.broadcast_to(self.p_mb_col[None, :, None], self.shape)

    @property
    def rho(self) -> np.ndarray:
        """Base-state density [g/cm^3] broadcast to 3D."""
        return np.broadcast_to(self.rho_col[None, :, None], self.shape)

    def owned(self, arr: np.ndarray) -> np.ndarray:
        """View of the owned (non-halo) region of a memory-extent array."""
        return arr[owned_slice(self.patch)]

    def advected_fields(self) -> dict[str, np.ndarray]:
        """Every scalar the RK3 transport advects (incl. all bins).

        WRF advects each bin of each hydrometeor as its own 3D scalar —
        this is why ``rk_scalar_tend`` is the second hotspot of Table I.
        The returned dict is built once at construction (the entries
        are the live per-field arrays); treat it as read-only.
        """
        return self._advected

    def scalar_count(self) -> int:
        """Number of advected 3D scalars (bins count individually)."""
        return len(STATE_FIELDS) + self.layout.nscalars
