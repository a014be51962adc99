"""Shared native-kernel infrastructure: runtime C JIT with numpy fallback.

PR 3 introduced a runtime-compiled C stencil for the fused transport
sweep (:mod:`repro.wrf.cstencil`); this module promotes its build
machinery into shared infrastructure so the FSBM physics hot spots
(sedimentation, the condensation KO-remap, see
:mod:`repro.fsbm.ckernels`) can ride the same path. The design mirrors
the paper's stage-3 discipline:

* kernels are compiled **once** and cached on disk — a shared object
  under a ``_cbuild/`` directory next to the owning module, keyed by a
  hash of the C source and the compile flags, so rebuilds happen only
  when the kernel text changes (the build-system analog of
  ``target enter data map(alloc:)``: pay setup once, reuse forever);
* every kernel is compiled with ``-ffp-contract=off`` so no FMA
  contraction reorders the rounding — compiled paths stay bit-stable
  against their numpy references (see each module's equivalence notes);
* every kernel is compiled with ``-fopenmp-simd``, which honors the
  ``omp simd`` pragmas and nothing else: no kernel links or starts the
  OpenMP runtime, so the ranks own the cores and a forked process rank
  never inherits a thread pool;
* every failure mode — no compiler, read-only filesystem — degrades to
  ``None`` and callers take their numpy fallback; nothing outside the
  owning module needs to know which path ran.

Kill switches: ``REPRO_DISABLE_CJIT=1`` disables **every** compiled
kernel in the process; each :class:`CJitModule` may additionally name
its own switch (``REPRO_DISABLE_CSTENCIL``, ``REPRO_DISABLE_CPHYS``)
so tests and operators can force one subsystem onto numpy without
touching the others. The switches are consulted on every load call, so
setting them mid-process takes effect immediately.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import threading
from pathlib import Path
from typing import Callable

from repro.obs import tracer

#: Environment switch disabling every runtime-compiled kernel at once.
DISABLE_ALL_ENV = "REPRO_DISABLE_CJIT"

#: Default compile flags. ``-ffp-contract=off`` keeps the compiler from
#: fusing multiply-adds, which would change rounding relative to the
#: numpy references. -O3 alone never reassociates floating-point math
#: in gcc/clang; ``-fopenmp-simd`` enables the ``omp simd`` pragmas
#: without the OpenMP runtime.
DEFAULT_CFLAGS = (
    "-O3",
    "-march=native",
    "-std=c99",
    "-fPIC",
    "-shared",
    "-fopenmp-simd",
    "-ffp-contract=off",
)

#: Registered modules by name, for diagnostics (``cjit.modules()``).
_registry: dict[str, "CJitModule"] = {}


def modules() -> dict[str, "CJitModule"]:
    """Every registered JIT module by name (read-only snapshot)."""
    return dict(_registry)


def compiler_candidates() -> list[str]:
    """Compilers tried in order (``$CC`` first, then the system ones)."""
    return [c for c in (os.environ.get("CC"), "cc", "gcc", "clang") if c]


def source_tag(source: str, cflags: tuple[str, ...]) -> str:
    """Content hash keying the on-disk shared object."""
    return hashlib.sha256((source + " ".join(cflags)).encode()).hexdigest()[:16]


class CJitModule:
    """One runtime-compiled C kernel library with a numpy escape hatch.

    ``name`` doubles as the shared object's basename (``<name>_<tag>.so``
    under ``build_dir``); ``setup`` is called once on the freshly loaded
    :class:`ctypes.CDLL` to declare argument/return types. ``load``
    returns the library, or ``None`` with :attr:`load_error` explaining
    why (disabled via environment, no compiler, compile failure) —
    callers treat ``None`` as "take the numpy path".
    """

    def __init__(
        self,
        name: str,
        source: str,
        *,
        cflags: tuple[str, ...] = DEFAULT_CFLAGS,
        disable_env: str | None = None,
        build_dir: str | Path | None = None,
        setup: Callable[[ctypes.CDLL], None] | None = None,
    ):
        self.name = name
        self.source = source
        self.cflags = tuple(cflags)
        self.disable_env = disable_env
        self.build_dir = Path(build_dir) if build_dir is not None else (
            Path(__file__).resolve().parent / "_cbuild"
        )
        self._setup = setup
        self._lock = threading.Lock()
        self._lib: ctypes.CDLL | None = None
        self._attempted = False
        #: Why the library is unavailable ("" while it is loaded).
        self.load_error: str = ""
        _registry[name] = self

    @property
    def tag(self) -> str:
        return source_tag(self.source, self.cflags)

    @property
    def so_path(self) -> Path:
        return self.build_dir / f"{self.name}_{self.tag}.so"

    def disabled_reason(self) -> str | None:
        """The active kill switch, or ``None`` when enabled."""
        if os.environ.get(DISABLE_ALL_ENV):
            return f"disabled via {DISABLE_ALL_ENV}"
        if self.disable_env and os.environ.get(self.disable_env):
            return f"disabled via {self.disable_env}"
        return None

    def _compile(self) -> ctypes.CDLL:
        so_path = self.so_path
        if not so_path.exists():
            build = self.build_dir
            build.mkdir(parents=True, exist_ok=True)
            src_path = build / f"{self.name}_{self.tag}.c"
            src_path.write_text(self.source)
            last_err: Exception | None = None
            tmp_path = build / f".{self.name}_{self.tag}.{os.getpid()}.so"
            with tracer.span("cjit.compile", cat="jit") as sp:
                if sp is not None:
                    sp.set(module=self.name, tag=self.tag)
                for cc in compiler_candidates():
                    try:
                        subprocess.run(
                            [cc, *self.cflags, str(src_path), "-o", str(tmp_path)],
                            check=True,
                            capture_output=True,
                            timeout=120,
                        )
                        os.replace(tmp_path, so_path)  # atomic vs. others
                        last_err = None
                        break
                    except Exception as exc:  # noqa: BLE001 - any cc failure
                        last_err = exc
            if last_err is not None:
                raise RuntimeError(f"no working C compiler: {last_err}")
        lib = ctypes.CDLL(str(so_path))
        if self._setup is not None:
            self._setup(lib)
        return lib

    def load(self) -> ctypes.CDLL | None:
        """The compiled library, or ``None`` when unavailable.

        Compilation happens once per process (and the shared object is
        cached on disk across processes). The kill switches are checked
        on every call, so disabling a module mid-process sticks even if
        the library loaded earlier.
        """
        reason = self.disabled_reason()
        if reason is not None:
            self.load_error = reason
            return None
        with self._lock:
            if not self._attempted:
                self._attempted = True
                # The one-time build/dlopen is the only load() call worth
                # a span; the steady-state calls return the cached lib.
                with tracer.span("cjit.load", cat="jit") as sp:
                    try:
                        self._lib = self._compile()
                        self.load_error = ""
                    except Exception as exc:  # noqa: BLE001 - use numpy
                        self._lib = None
                        self.load_error = str(exc)
                    if sp is not None:
                        sp.set(
                            module=self.name,
                            ok=self._lib is not None,
                            error=self.load_error,
                        )
            return self._lib
