"""Exception hierarchy for the reproduction.

The simulated device faults intentionally mirror the failure modes the
paper encountered on Perlmutter: a CUDA stack overflow from automatic
arrays under ``collapse(3)`` (Sec. VI-B) and a device out-of-memory when
more than 5 MPI ranks share one A100 (Sec. VII-A).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(ReproError):
    """Invalid namelist, decomposition, or engine configuration."""


class DecompositionError(ConfigurationError):
    """A domain cannot be decomposed into the requested patches/tiles."""


class DeviceError(ReproError):
    """Base class for simulated device faults."""

    #: CUDA-style error string included in the message for familiarity.
    cuda_name = "cudaErrorUnknown"


class CudaStackOverflow(DeviceError):
    """Device thread stack exhausted.

    Raised when a kernel's per-thread stack demand (dominated by Fortran
    automatic arrays) exceeds ``NV_ACC_CUDA_STACKSIZE``. This is the
    error the paper hit when applying ``collapse(3)`` to the collision
    loop while ``coal_bott_new`` still used automatic arrays.
    """

    cuda_name = "CUDA_ERROR_LAUNCH_FAILED: stack overflow"


class CudaOutOfMemory(DeviceError):
    """Device global memory exhausted.

    Raised by the device memory pool when an allocation does not fit;
    the paper saw this beyond 5 MPI ranks per GPU.
    """

    cuda_name = "CUDA_ERROR_OUT_OF_MEMORY"


class MappingError(DeviceError):
    """Host/device data mapping misuse (use-before-map, double-free)."""

    cuda_name = "CUDA_ERROR_ILLEGAL_ADDRESS"


class MpiError(ReproError):
    """Simulated MPI runtime error."""


class ProcPoolError(ReproError):
    """The multiprocess rank pool failed (worker crash, timeout, misuse).

    Raised by :mod:`repro.wrf.procpool` when a worker process dies or
    stops responding mid-step, or when the pool is driven after close.
    The pool terminates and joins every worker and drops its shared
    blocks before raising. The blocks are anonymous mappings, so even a
    killed driver leaves nothing behind in ``/dev/shm``.
    """


class CodeeError(ReproError):
    """Base class for the static-analysis front end."""


class FortranSyntaxError(CodeeError):
    """The Fortran-subset parser rejected the input."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"line {line}, col {column}: {message}"
        super().__init__(message)


class AnalysisError(CodeeError):
    """Dependence/privatization analysis could not complete."""


class RewriteError(CodeeError):
    """The autofix rewriter could not apply the requested transformation."""


class VerificationError(CodeeError):
    """``codee verify`` found correctness violations."""


class TransformError(CodeeError):
    """A loop-IR transformation was requested that the dependence
    analysis cannot prove legal (e.g. ``collapse`` deeper than the
    nest's provable parallel depth)."""


class IRVerificationError(CodeeError):
    """The IR static verifier found blocking violations in a kernel.

    Raised by ``repro.codee.cgen.build_module`` *before* any C is
    emitted or compiled: an illegal transformation never reaches the
    JIT cache.
    """

    def __init__(self, kernel_name, violations):
        self.kernel_name = kernel_name
        self.violations = list(violations)
        lines = "\n  ".join(v.render() for v in self.violations)
        super().__init__(
            f"IR kernel {kernel_name!r} failed static verification "
            f"({len(self.violations)} violation(s)):\n  {lines}"
        )


class StageVerificationError(ReproError):
    """The optimization pipeline's static verify gate rejected a stage.

    Raised before a stage *runs*: the verifier found race/mapping/
    collapse/stack violations in the stage's offload source, so the
    pipeline refuses to advance — the static equivalent of the paper
    debugging the ``collapse(3)`` launch failure at runtime (Sec. VI-B).
    """

    def __init__(self, stage, violations):
        self.stage = stage
        self.violations = list(violations)
        lines = "\n  ".join(v.render() for v in self.violations)
        super().__init__(
            f"stage {getattr(stage, 'value', stage)} failed static "
            f"verification ({len(self.violations)} violation(s)):\n  {lines}"
        )
