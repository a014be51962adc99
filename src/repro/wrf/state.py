"""Prognostic fields on one rank's patch (Registry-style).

Arrays are allocated at *memory* extents ``(ims:ime, kms:kme, jms:jme)``
— the owned patch plus halo — in i-k-j order, as WRF stores microphysics
fields. Scalar advection reads the halo; microphysics operates on the
owned interior through views.

The case builders fill each named field as its own array; the model
then moves every advected field into its member's slab of the rank's
resident ``(N, ni, nk, nj, nscalar)`` *superblock*
(:meth:`WrfFields.bind_block`), where the halo exchange and the fused
transport kernels (see :mod:`repro.wrf.transport`) see all scalars as
one block. :attr:`WrfFields.layout` records the trailing-axis packing,
and :meth:`advected_fields` hands out a dict built once at construction
— the entries are the live arrays, never rebuilt.
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
from repro.wrf.transport import ScalarLayout


def superblock_scalar_count(nkr: int = NKR) -> int:
    """Scalars in one transport superblock (t, qv, w + all species bins).

    Matches ``WrfFields.layout.nscalars`` without constructing fields —
    the multiprocess rank engine sizes its shared-memory segments from
    this before any rank state exists.
    """
    return 3 + len(Species) * nkr


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
    #: Trailing-axis packing of the transport superblock.
    layout: ScalarLayout = field(init=False, repr=False, default=None)  # type: ignore[assignment]
    #: Persistent superblock slab the advected fields live in after
    #: :meth:`bind_block` (``None`` until bound).
    block: np.ndarray = field(init=False, repr=False, default=None)  # type: ignore[assignment]

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
            entries=(
                ("t", 1),
                ("qv", 1),
                ("w", 1),
                *(
                    (f"bin_{sp.value}", d.shape[-1])
                    for sp, d in self.micro.dists.items()
                ),
            )
        )
        # Built once; the entries are the live arrays (physics mutates
        # them in place; only bind_block rebinds them, into the
        # superblock), so consumers walk this same dict instead of
        # rebuilding it per call.
        self._advected: dict[str, np.ndarray] = {
            "t": self.t,
            "qv": self.qv,
            "w": self.w,
        }
        for sp, dist in self.micro.dists.items():
            self._advected[f"bin_{sp.value}"] = dist

    def bind_block(self, buffer: np.ndarray) -> np.ndarray:
        """Move the advected fields into one persistent superblock.

        ``buffer`` is the float64 ``(ni, nk, nj, nscalar)`` slab the
        fields will live in — this member's slice of the rank's
        member-stacked block, itself a view over the rank's
        ``multiprocessing.shared_memory`` segment under process ranks.
        The current field values are copied in and ``t``/``qv``/``w``/
        all bin distributions rebound as views into it, so the fields
        *are* the superblock columns: physics writes land directly in
        transport's input (the resident-data analog of keeping fields
        mapped on the device between kernels), and neighboring worker
        processes pull halos straight out of it without any
        serialization. The contiguous bin region is also registered
        with :meth:`MicroState.bind_packed` so moment reductions
        contract all species at once.
        """
        expected = (*self.patch.shape, self.layout.nscalars)
        if self.block is not None:
            raise ConfigurationError("fields are already bound to a superblock")
        if buffer.shape != expected or buffer.dtype != np.float64:
            raise ConfigurationError(
                f"superblock buffer must be float64 {expected}, got "
                f"{buffer.dtype} {buffer.shape}"
            )
        slices = self.layout.slices()
        for name, arr in list(self._advected.items()):
            sl = slices[name]
            view = buffer[..., sl.start] if arr.ndim == 3 else buffer[..., sl]
            view[...] = arr
            self._advected[name] = view
        self.t = self._advected["t"]
        self.qv = self._advected["qv"]
        self.w = self._advected["w"]
        bin_names = []
        for sp in self.micro.dists:
            name = f"bin_{sp.value}"
            self.micro.dists[sp] = self._advected[name]
            bin_names.append(name)
        start = slices[bin_names[0]].start
        stop = slices[bin_names[-1]].stop
        self.micro.bind_packed(buffer[..., start:stop])
        self.block = buffer
        return buffer

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
        return self.layout.nscalars
