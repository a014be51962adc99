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
        dbl = ctypes.POINTER(ctypes.c_double)
        lib.scale1d(
            src.ctypes.data_as(dbl),
            out.ctypes.data_as(dbl),
            ctypes.c_long(8),
        )
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

        assert "sed_sweep" in ckernels.C_SOURCE
        assert "remap_scatter" in ckernels.C_SOURCE
        assert "coal_bott_new" in ckernels.C_SOURCE
        assert "#pragma omp parallel" not in ckernels.C_SOURCE
