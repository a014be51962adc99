"""C code generation from the loop IR, through the shared JIT cache.

The final leg of the analyze → transform → verify pipeline: a
transformed :class:`~repro.codee.loopir.Kernel` becomes an OpenMP C
function compiled by `repro.core.cjit` exactly like the hand-written
kernels it replaces (same flags, same source-hash cache, same kill
switches).

Two properties the emitter guarantees:

* **Bit-identical arithmetic.** Every expression is emitted fully
  parenthesized in the IR's association order, and the shared
  ``-ffp-contract=off`` flag forbids FMA contraction — so a kernel
  defined with the reference's operation grouping produces the
  reference's bits, independent of how the addressing code around it
  is optimized. Addressing uses plain ``long`` arithmetic on the
  declared element strides; the compiler's induction-variable
  optimizations recover the hand-written kernels' hoisted row
  pointers.
* **No unverified C.** :func:`build_module` runs the IR static
  verifier (`repro.codee.irverify`) over every kernel first and
  raises :class:`~repro.errors.IRVerificationError` on any blocking
  finding — an illegal annotation is refused before a single line of
  C exists, which is the pipeline's whole point.

The ctypes ABI of every emitted function comes from the same
parameters as its C signature (:func:`ctypes_argtypes`), so nobody
keeps a hand-written twin of it.
"""

from __future__ import annotations

import ctypes
from pathlib import Path
from typing import Iterable

import numpy as np

from repro.codee import irverify
from repro.codee.loopir import (
    ArrayParam,
    Assign,
    Bin,
    Const,
    Decl,
    Expr,
    If,
    Kernel,
    Let,
    Load,
    LocalArray,
    Loop,
    ScalarParam,
    Stmt,
    Store,
    Sym,
    Un,
    Select,
)
from repro.codee.verifier import VerifierConfig
from repro.core import cjit
from repro.errors import IRVerificationError

_INDENT = "    "

#: The ctypes type of each IR element type.
_CTYPES = {
    "double": ctypes.c_double,
    "long": ctypes.c_long,
    "int": ctypes.c_int,
    "unsigned char": ctypes.c_ubyte,
}


def _lit(value: int | float) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


class _Emitter:
    """Renders one kernel; array layouts come from its parameters."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.arrays = kernel.arrays()
        self.lines: list[str] = []

    # -- expressions --------------------------------------------------------

    def expr(self, e: Expr) -> str:
        if isinstance(e, Const):
            return _lit(e.value)
        if isinstance(e, Sym):
            return e.name
        if isinstance(e, Load):
            return self.addr(e.array, e.index)
        if isinstance(e, Bin):
            return f"({self.expr(e.left)} {e.op} {self.expr(e.right)})"
        if isinstance(e, Un):
            return f"({e.op}{self.expr(e.operand)})"
        if isinstance(e, Select):
            return (
                f"({self.expr(e.cond)} ? {self.expr(e.if_true)} : "
                f"{self.expr(e.if_false)})"
            )
        raise TypeError(f"not an IR expression: {e!r}")

    def addr(self, array: str, index: tuple[Expr, ...]) -> str:
        param = self.arrays.get(array)
        if param is None:
            # Stack-local array or tile: one C subscript per dimension.
            return array + "".join(f"[{self.expr(e)}]" for e in index)
        base = param.name
        subs = index
        if param.ptr_table:
            base = f"{param.name}[{self.expr(index[0])}]"
            subs = index[1:]
        terms = []
        for elem, stride in zip(subs, param.strides, strict=True):
            if stride == Const(1):
                terms.append(self.expr(elem))
            else:
                terms.append(f"{self.expr(elem)} * {self.expr(stride)}")
        return f"{base}[{' + '.join(terms)}]"

    # -- statements ---------------------------------------------------------

    def emit(self, stmt: Stmt, depth: int) -> None:
        pad = _INDENT * depth
        if isinstance(stmt, Let):
            self.lines.append(
                f"{pad}const {stmt.ctype} {stmt.name} = {self.expr(stmt.value)};"
            )
        elif isinstance(stmt, Decl):
            init = f" = {self.expr(stmt.init)}" if stmt.init is not None else ""
            self.lines.append(f"{pad}{stmt.ctype} {stmt.name}{init};")
        elif isinstance(stmt, Assign):
            self.lines.append(f"{pad}{stmt.name} = {self.expr(stmt.value)};")
        elif isinstance(stmt, Store):
            self.lines.append(
                f"{pad}{self.addr(stmt.array, stmt.index)} {stmt.op} "
                f"{self.expr(stmt.value)};"
            )
        elif isinstance(stmt, LocalArray):
            lanes = f"[{stmt.lanes}]" if stmt.lanes else ""
            self.lines.append(f"{pad}{stmt.ctype} {stmt.name}[{stmt.size}]{lanes};")
        elif isinstance(stmt, If):
            self.lines.append(f"{pad}if ({self.expr(stmt.cond)}) {{")
            for s in stmt.body:
                self.emit(s, depth + 1)
            if stmt.orelse:
                self.lines.append(f"{pad}}} else {{")
                for s in stmt.orelse:
                    self.emit(s, depth + 1)
            self.lines.append(f"{pad}}}")
        elif isinstance(stmt, Loop):
            self.loop(stmt, depth)
        else:
            raise TypeError(f"not an IR statement: {stmt!r}")

    def loop(self, loop: Loop, depth: int) -> None:
        pad = _INDENT * depth
        if loop.parallel:
            pragma = "#pragma omp parallel for"
            if loop.collapse >= 2:
                pragma += f" collapse({loop.collapse})"
            pragma += f" schedule({loop.schedule})"
            for op, names in _grouped_reductions(loop.reductions):
                pragma += f" reduction({op}:{', '.join(names)})"
            self.lines.append(f"{pad}{pragma}")
        if loop.simd:
            simdlen = f" simdlen({loop.simdlen})" if loop.simdlen else ""
            self.lines.append(f"{pad}#pragma omp simd{simdlen}")
        self.lines.append(
            f"{pad}for (long {loop.var} = {self.expr(loop.start)}; "
            f"{loop.var} < {self.expr(loop.stop)}; {loop.var}++) {{"
        )
        for s in loop.body:
            self.emit(s, depth + 1)
        self.lines.append(f"{pad}}}")

    # -- the function -------------------------------------------------------

    def signature(self) -> str:
        parts = []
        for p in self.kernel.params:
            if isinstance(p, ScalarParam):
                parts.append(f"{p.ctype} {p.name}")
            elif isinstance(p, ArrayParam):
                if p.ptr_table:
                    parts.append(f"{p.ctype} **{p.name}")
                else:
                    const = "const " if p.intent == "in" else ""
                    restrict = "restrict " if p.restrict else ""
                    parts.append(f"{const}{p.ctype} *{restrict}{p.name}")
            else:
                raise TypeError(f"not an IR parameter: {p!r}")
        return f"void {self.kernel.name}({', '.join(parts)})"

    def render(self) -> str:
        self.lines = []
        if self.kernel.doc:
            self.lines.append("/* " + self.kernel.doc.replace("*/", "* /") + " */")
        self.lines.append(self.signature())
        self.lines.append("{")
        for stmt in self.kernel.body:
            self.emit(stmt, 1)
        self.lines.append("}")
        return "\n".join(self.lines)


def _grouped_reductions(
    reductions: tuple[tuple[str, str], ...],
) -> list[tuple[str, list[str]]]:
    groups: dict[str, list[str]] = {}
    for op, name in reductions:
        groups.setdefault(op, []).append(name)
    return [(op, sorted(names)) for op, names in sorted(groups.items())]


def emit_kernel(kernel: Kernel) -> str:
    """The C function for one (already transformed) kernel."""
    return _Emitter(kernel).render()


def emit_module(kernels: Iterable[Kernel], banner: str = "") -> str:
    """A complete translation unit for a set of kernels."""
    parts = ["#include <stddef.h>", ""]
    if banner:
        parts.insert(0, "/* " + banner.replace("*/", "* /") + " */")
    parts.extend(emit_kernel(k) + "\n" for k in kernels)
    return "\n".join(parts)


def ctypes_argtypes(kernel: Kernel) -> list:
    """The ctypes argument types of one kernel, one per parameter.

    Scalars pass by value as their ctypes type. Plain arrays pass as a
    dtype-checked :func:`numpy.ctypeslib.ndpointer` with no layout
    flag, because the kernel addresses them through its declared
    element strides. ``ptr_table`` arrays pass as pointer-to-pointer (a
    ctypes array of row pointers).
    """
    argtypes = []
    for p in kernel.params:
        ctype = _CTYPES[p.ctype]
        if isinstance(p, ScalarParam):
            argtypes.append(ctype)
        elif p.ptr_table:
            argtypes.append(ctypes.POINTER(ctypes.POINTER(ctype)))
        else:
            argtypes.append(np.ctypeslib.ndpointer(dtype=np.dtype(ctype)))
    return argtypes


def declare(lib: ctypes.CDLL, kernels: Iterable[Kernel]) -> None:
    """Set every kernel function's ``argtypes`` and ``restype``."""
    for kernel in kernels:
        fn = getattr(lib, kernel.name)
        fn.argtypes = ctypes_argtypes(kernel)
        fn.restype = None


def verify_kernels(
    kernels: Iterable[Kernel], config: VerifierConfig | None = None
) -> None:
    """Raise :class:`IRVerificationError` on any blocking finding."""
    for kernel in kernels:
        blocking = [
            v
            for v in irverify.verify_kernel(kernel, config)
            if v.severity == "error" and v.category == "correctness"
        ]
        if blocking:
            raise IRVerificationError(kernel.name, blocking)


def build_module(
    name: str,
    kernels: Iterable[Kernel],
    *,
    cflags: tuple[str, ...] = cjit.DEFAULT_CFLAGS,
    disable_env: str | None = None,
    build_dir: str | Path | None = None,
    config: VerifierConfig | None = None,
    banner: str = "",
) -> cjit.CJitModule:
    """Verify the kernels, emit C, and hand it to the JIT cache.

    The returned :class:`~repro.core.cjit.CJitModule` behaves exactly
    like one wrapping a hand-written source string — same lazy
    compile, on-disk cache, kill switches, and ``load_error``
    reporting — but its source has passed VFY006–VFY010 first, and
    the loaded library's functions carry the ctypes ABI derived from
    the kernels' parameters (:func:`declare`).
    """
    kernels = list(kernels)
    verify_kernels(kernels, config)
    return cjit.CJitModule(
        name,
        emit_module(kernels, banner=banner),
        cflags=cflags,
        disable_env=disable_env,
        build_dir=build_dir,
        setup=lambda lib: declare(lib, kernels),
    )
