"""C emission from the loop IR: association order, addressing, pragmas."""

import ctypes

import numpy as np
import pytest

from repro.codee import cgen
from repro.codee.loopir import (
    ArrayParam,
    Const,
    Kernel,
    Let,
    Load,
    LocalArray,
    Loop,
    ScalarParam,
    Store,
    Sym,
    Select,
)


def _elementwise(parallel=False, reductions=()):
    i = Sym("i")
    nest = Loop(
        "i",
        Const(0),
        Sym("n"),
        [Store("out", (i,), Load("src", (i,)) * 2.0 + 1.0)],
        parallel=parallel,
        reductions=tuple(reductions),
    )
    return Kernel(
        name="scale1d",
        params=(
            ArrayParam("src", strides=(Const(1),)),
            ArrayParam("out", strides=(Const(1),), intent="out"),
            ScalarParam("n", "long"),
        ),
        body=[nest],
    )


class TestEmission:
    def test_expressions_fully_parenthesized_in_ir_order(self):
        text = cgen.emit_kernel(_elementwise())
        assert "((src[i] * 2.0) + 1.0)" in text

    def test_signature_intents(self):
        text = cgen.emit_kernel(_elementwise())
        assert "const double *restrict src" in text
        assert "double *restrict out" in text
        assert "long n" in text

    def test_strided_addressing(self):
        i, j = Sym("i"), Sym("j")
        k = Kernel(
            "addr",
            (ArrayParam("a", strides=(Sym("nj"), Const(1)), intent="out"),
             ScalarParam("nj", "long")),
            [Store("a", (i, j), Const(0))],
        )
        assert "a[i * nj + j]" in cgen.emit_kernel(k)

    def test_ptr_table_addressing(self):
        sp, b = Sym("sp"), Sym("b")
        k = Kernel(
            "tab",
            (ArrayParam(
                "dists",
                strides=(Const(1),),
                ptr_table=True,
                intent="inout",
            ),),
            [Store("dists", (sp, b), Const(0))],
        )
        text = cgen.emit_kernel(k)
        assert "double **dists" in text
        assert "dists[sp][b]" in text

    def test_parallel_pragma_with_reduction_clause(self):
        k = _elementwise(parallel=True, reductions=(("+", "acc"),))
        text = cgen.emit_kernel(k)
        assert "#pragma omp parallel for schedule(static)" in text
        assert "reduction(+:acc)" in text

    def test_lane_tiles_are_two_dimensional(self):
        lane = Sym("lane")
        k = Kernel(
            "tile",
            (ArrayParam("out", strides=(Const(8), Const(1)), intent="out"),),
            [
                LocalArray("t", 4, lanes=8),
                Loop("lane", Const(0), Const(8), [
                    Store("t", (Const(3), lane), Const(1.0)),
                    Store("out", (Const(0), lane), Load("t", (Const(3), lane))),
                ], simd=True),
            ],
        )
        text = cgen.emit_kernel(k)
        assert "double t[4][8];" in text
        assert "t[3][lane] = 1.0;" in text
        assert "#pragma omp simd" in text

    def test_serial_kernel_has_no_pragmas(self):
        assert "#pragma" not in cgen.emit_kernel(_elementwise())

    def test_select_and_let_emission(self):
        i = Sym("i")
        k = Kernel(
            "clamp",
            (ArrayParam("a", strides=(Const(1),), intent="out"),
             ScalarParam("n", "long")),
            [
                Loop(
                    "i",
                    Const(0),
                    Sym("n"),
                    [
                        Let("im", Select(i.gt(0), i - 1, i), "long"),
                        Store("a", (i,), Sym("im")),
                    ],
                )
            ],
        )
        text = cgen.emit_kernel(k)
        assert "const long im = ((i > 0) ? (i - 1) : i);" in text

    def test_module_has_include_and_banner(self):
        text = cgen.emit_module([_elementwise()], banner="generated")
        assert text.startswith("/* generated */")
        assert "#include <stddef.h>" in text


class TestBuildModule:
    def test_emitted_kernel_compiles_and_runs(self, tmp_path):
        module = cgen.build_module("scale1d", [_elementwise()], build_dir=tmp_path)
        lib = module.load()
        if lib is None:
            pytest.skip(module.load_error or "no compiler")
        src = np.arange(8, dtype=np.float64)
        out = np.empty_like(src)
        lib.scale1d(src, out, 8)
        np.testing.assert_array_equal(out, src * 2.0 + 1.0)

    def test_verification_precedes_compilation(self, tmp_path):
        from repro.codee.loopir import broken_offload_kernel
        from repro.errors import IRVerificationError

        with pytest.raises(IRVerificationError) as exc:
            cgen.build_module(
                "broken", [broken_offload_kernel()], build_dir=tmp_path
            )
        assert "VFY006" in str(exc.value)
        assert not list(tmp_path.iterdir()), "no C was written"


class TestProductionSources:
    def test_stencil_source_is_ir_emitted(self):
        from repro.wrf import cstencil

        assert "advect_stage" in cstencil.C_SOURCE
        assert "#pragma omp parallel" not in cstencil.C_SOURCE

    def test_fsbm_source_is_ir_emitted_and_serial(self):
        from repro.fsbm import ckernels

        for name in ("sed_sweep", "onecond", "freeze_melt", "coal_bott_new"):
            assert f"void {name}(" in ckernels.C_SOURCE
        assert "#pragma omp parallel" not in ckernels.C_SOURCE


#: The ctypes type of each IR element type.
_ELEMENT = {
    "double": ctypes.c_double,
    "long": ctypes.c_long,
    "int": ctypes.c_int,
    "unsigned char": ctypes.c_ubyte,
}


def _production_functions():
    """Every gated kernel's final IR and its loaded C function."""
    from repro.codee.loopir import gate_kernels
    from repro.fsbm import ckernels
    from repro.wrf import cstencil

    libs = [cstencil.load_stencil(), ckernels.load_kernels()]
    if None in libs:
        pytest.skip(cstencil.load_error or ckernels.load_error)
    out = []
    for name, spec in gate_kernels().items():
        owners = [lib for lib in libs if hasattr(lib, name)]
        assert len(owners) == 1, f"{name} is not in exactly one library"
        out.append((spec.final_kernel(), getattr(owners[0], name)))
    return out


def _dummy_args(kernel: Kernel, float32_at: int | None = None) -> list:
    """One harmless value per parameter; a float32 array at ``float32_at``."""
    args = []
    for pos, p in enumerate(kernel.params):
        if isinstance(p, ScalarParam):
            args.append(_ELEMENT[p.ctype](0))
        elif p.ptr_table:
            args.append((ctypes.POINTER(_ELEMENT[p.ctype]) * 1)())
        else:
            dtype = np.float32 if pos == float32_at else _ELEMENT[p.ctype]
            args.append(np.zeros(1, dtype=dtype))
    return args


class TestDerivedAbi:
    def test_every_kernel_takes_one_argtype_per_ir_parameter(self):
        for kernel, fn in _production_functions():
            assert fn.restype is None
            assert len(fn.argtypes) == len(kernel.params), kernel.name
            for p, argtype in zip(kernel.params, fn.argtypes):
                element = _ELEMENT[p.ctype]
                where = f"{kernel.name}({p.name})"
                if isinstance(p, ScalarParam):
                    assert argtype is element, where
                elif p.ptr_table:
                    assert argtype is ctypes.POINTER(
                        ctypes.POINTER(element)
                    ), where
                else:
                    # A dtype-checked pointer that takes any strides.
                    strided = np.zeros(4, dtype=element)[::2]
                    argtype.from_param(strided)
                    with pytest.raises(TypeError):
                        argtype.from_param(np.zeros(2, dtype=np.int8))

    def test_float32_where_the_ir_declares_double_is_refused(self):
        for kernel, fn in _production_functions():
            pos = next(
                i for i, p in enumerate(kernel.params)
                if isinstance(p, ArrayParam)
                and not p.ptr_table
                and p.ctype == "double"
            )
            with pytest.raises(ctypes.ArgumentError):
                fn(*_dummy_args(kernel, float32_at=pos))
