"""Run configuration, in the spirit of WRF's ``namelist.input``."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.constants import (
    CONUS12KM_DT,
    CONUS12KM_DX,
    CONUS12KM_EXTENTS,
    CONUS12KM_RUN_SECONDS,
)
from repro.core.env import OffloadEnv
from repro.errors import ConfigurationError
from repro.grid.domain import DomainSpec
from repro.optim.stages import Stage


@dataclass(frozen=True)
class Namelist:
    """Everything needed to configure one WRF run."""

    domain: DomainSpec
    dt: float = CONUS12KM_DT
    run_seconds: float = CONUS12KM_RUN_SECONDS
    #: MPI ranks (``nproc_x * nproc_y``); factored automatically.
    num_ranks: int = 16
    #: OpenMP tiles per patch (threads per rank; the paper runs 1).
    numtiles: int = 1
    #: Optimization stage (code version) to run.
    stage: Stage = Stage.BASELINE
    #: GPUs available to the job (ranks round-robin onto them).
    num_gpus: int = 0
    #: Offload runtime environment (Table II).
    env: OffloadEnv = field(default_factory=OffloadEnv)
    #: Device arithmetic precision: "fp32" (WRF's default) or "fp64"
    #: (the paper's double-precision roofline points in Fig. 3).
    device_precision: str = "fp32"
    #: Also offload the condensation loops (Sec. VIII's in-progress
    #: extension). Requires a GPU stage.
    offload_condensation: bool = False
    #: Also offload the scalar-advection loops (the other "next target"
    #: of Sec. VIII). Requires a GPU stage.
    offload_advection: bool = False
    #: Integrate transport with the full three-stage RK3 (WRF's scheme)
    #: instead of the default single-Euler-stage numerics. The charged
    #: cost is RK3 either way; this flag affects only the numerics.
    use_rk3_numerics: bool = False
    #: Promote ranks to real OS processes: each rank becomes a
    #: persistent forked worker owning its patch of a shared-memory
    #: superblock pool (:mod:`repro.wrf.procpool`), stepped in lockstep
    #: over a command-pipe/barrier protocol, with halo exchange
    #: performed as strided copies directly between neighboring ranks'
    #: shared blocks. Numerics and per-rank simulated-clock charges are
    #: bit-identical to the thread-pool path (``False``); only host
    #: wall-clock changes (CPU stages actually run concurrently across
    #: cores instead of time-slicing one interpreter). Either way the
    #: ranks own the cores: no compiled kernel starts a thread of its
    #: own. GPU/offload stages stay in-process (ranks share the
    #: simulated GPU pool).
    use_process_ranks: bool = False
    #: Record wall-clock spans into the :mod:`repro.obs` tracer
    #: (physics/halo/transport per rank, JIT builds, history I/O),
    #: mirroring the SimClock region names so simulated and measured
    #: time line up. Off by default; ``REPRO_TRACE=1`` also enables it
    #: process-wide. Tracing never touches numerics or simulated
    #: clocks — the exact-equality suites pass with it on.
    trace: bool = False
    #: History write interval [s] (0 disables history).
    history_interval: float = 0.0
    #: Directory for on-disk wrfout files (None keeps frames in memory).
    history_path: str | None = None
    #: Random seed for the synthetic case (shared by all ranks).
    seed: int = 2024
    #: Ensemble members stepped together. Every run holds its members
    #: in one per-rank ``(N, ni, nk, nj, nscalar)`` superblock and
    #: sweeps them in the same kernels; ``1`` is a plain run. Member
    #: ``m`` of an ``N``-member run is bit-identical to a ``members=1``
    #: run of :func:`member_namelist`\ ``(nl, m)``. CPU stages only:
    #: ranks of a GPU stage share the simulated GPU pool.
    members: int = 1
    #: Per-member scenario perturbations: entry ``m`` is a tuple of
    #: ``(name, value)`` pairs applied to member ``m``'s synthetic case
    #: (:class:`repro.wrf.cases.CaseConfig` fields such as
    #: ``bubble_dtheta``/``moisture_boost``/``ccn_background``, or the
    #: special key ``seed_offset`` added to :attr:`seed`). Members past
    #: the end of the tuple run the unperturbed base case. Tuples (not
    #: dicts) keep the namelist hashable.
    member_deltas: tuple = ()

    def __post_init__(self) -> None:
        if self.dt <= 0 or self.run_seconds <= 0:
            raise ConfigurationError("dt and run_seconds must be positive")
        if self.num_ranks < 1:
            raise ConfigurationError("need at least one rank")
        if self.members < 1:
            raise ConfigurationError("need at least one ensemble member")
        if len(self.member_deltas) > self.members:
            raise ConfigurationError(
                f"{len(self.member_deltas)} member_deltas entries for "
                f"{self.members} members"
            )
        for deltas in self.member_deltas:
            for pair in deltas:
                if len(pair) != 2 or not isinstance(pair[0], str):
                    raise ConfigurationError(
                        "member_deltas entries must be (name, value) pairs"
                    )
        if self.stage.uses_gpu and self.num_gpus < 1:
            raise ConfigurationError(
                f"stage {self.stage.value} needs at least one GPU"
            )
        if self.device_precision not in ("fp32", "fp64"):
            raise ConfigurationError("device_precision must be fp32 or fp64")
        if (self.offload_condensation or self.offload_advection) and (
            not self.stage.uses_gpu
        ):
            raise ConfigurationError(
                "condensation/advection offload requires a GPU stage"
            )
        if self.members > 1 and self.stage.uses_gpu:
            raise ConfigurationError(
                "members > 1 supports CPU stages only (no GPU stage or "
                "offload flag)"
            )

    @property
    def num_steps(self) -> int:
        """Model steps in the run."""
        return max(1, round(self.run_seconds / self.dt))

    def with_stage(self, stage: Stage, num_gpus: int | None = None) -> "Namelist":
        """Copy with a different code version (and GPU count)."""
        gpus = self.num_gpus if num_gpus is None else num_gpus
        if stage.uses_gpu and gpus == 0:
            gpus = self.num_ranks
        return replace(self, stage=stage, num_gpus=gpus)

    def with_ranks(self, num_ranks: int, num_gpus: int | None = None) -> "Namelist":
        """Copy with a different rank/GPU layout (Sec. VII-A sweeps)."""
        return replace(
            self,
            num_ranks=num_ranks,
            num_gpus=self.num_gpus if num_gpus is None else num_gpus,
        )


def deltas_for_member(namelist: Namelist, member: int) -> tuple:
    """Member ``member``'s case perturbations (empty past the tuple)."""
    if member < 0 or member >= namelist.members:
        raise ConfigurationError(
            f"member {member} out of range for {namelist.members} members"
        )
    if member < len(namelist.member_deltas):
        return tuple(namelist.member_deltas[member])
    return ()


def member_namelist(base: Namelist, member: int) -> Namelist:
    """The solo (``members=1``) namelist equivalent to one member.

    A plain :class:`repro.wrf.model.WrfModel` run of the returned
    namelist is the bitwise reference for member ``member`` of the
    batched ensemble — same perturbed case, same switches, same
    charges.
    """
    deltas = deltas_for_member(base, member)
    return replace(
        base,
        members=1,
        member_deltas=(deltas,) if deltas else (),
    )


def conus12km_namelist(scale: float = 1.0, **overrides) -> Namelist:
    """The paper's CONUS-12km configuration, optionally shrunk.

    ``scale`` reduces the horizontal extents (see
    ``DomainSpec.scaled``); the full case is ``scale=1`` with extents
    425 x 300 x 50.
    """
    nx, ny, nz = CONUS12KM_EXTENTS
    domain = DomainSpec(nx=nx, nz=nz, ny=ny, dx=CONUS12KM_DX).scaled(scale)
    return Namelist(domain=domain, **overrides)
