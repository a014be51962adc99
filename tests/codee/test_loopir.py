"""The typed loop-nest IR: expressions, statements, registry."""

import pytest

from repro.codee import loopir
from repro.codee.loopir import (
    ArrayParam,
    Bin,
    Const,
    Kernel,
    Load,
    Loop,
    ScalarParam,
    Store,
    Sym,
    as_expr,
    expr_loads,
    expr_syms,
    subst,
    walk_ir,
    walk_ir_stmts,
)


class TestExpressions:
    def test_operator_sugar_builds_trees(self):
        a, b = Sym("a"), Sym("b")
        assert a + b == Bin("+", a, b)
        assert a * 2 == Bin("*", a, Const(2))
        assert 1 - a == Bin("-", Const(1), a)
        assert (-a).op == "-"
        assert a.lt(b) == Bin("<", a, b)
        assert a.logical_and(b) == Bin("&&", a, b)

    def test_structural_equality(self):
        assert Sym("x") + 1 == Sym("x") + 1
        assert Sym("x") + 1 != Sym("x") + 2

    def test_as_expr_coercion(self):
        assert as_expr(3) == Const(3)
        assert as_expr(2.5) == Const(2.5)
        assert as_expr("n") == Sym("n")
        with pytest.raises(TypeError, match="bool"):
            as_expr(True)

    def test_walk_and_queries(self):
        e = Load("a", (Sym("i"),)) + Sym("k") * Const(2)
        assert expr_syms(e) == {"i", "k"}
        assert [ld.array for ld in expr_loads(e)] == ["a"]
        assert sum(1 for _ in walk_ir(e)) == 6

    def test_subst_reaches_subscripts(self):
        e = Load("a", (Sym("i") + 1,))
        out = subst(e, {"i": Sym("j")})
        assert out == Load("a", (Sym("j") + 1,))


class TestLoops:
    def _nest(self):
        inner = Loop("j", Const(0), Sym("n"), [])
        return Loop("i", Const(0), Sym("n"), [inner]), inner

    def test_perfect_nest_chain(self):
        outer, inner = self._nest()
        assert outer.nest_chain() == [outer, inner]
        assert outer.nest_vars() == ["i", "j"]
        assert outer.nest_depth() == 2

    def test_imperfect_nest_stops_the_chain(self):
        inner = Loop("j", Const(0), Sym("n"), [])
        outer = Loop(
            "i",
            Const(0),
            Sym("n"),
            [Store("a", (Sym("i"),), Const(0)), inner],
        )
        assert outer.nest_depth() == 1


class TestKernel:
    def _kernel(self):
        nest = Loop(
            "i",
            Const(0),
            Sym("n"),
            [Store("out", (Sym("i"),), Load("src", (Sym("i"),)))],
        )
        return Kernel(
            name="copy1d",
            params=(
                ArrayParam("src", strides=(Const(1),)),
                ArrayParam("out", strides=(Const(1),), intent="out"),
                ScalarParam("n", "long"),
            ),
            body=[nest],
        )

    def test_param_lookup(self):
        k = self._kernel()
        assert set(k.arrays()) == {"src", "out"}
        assert set(k.scalars()) == {"n"}
        assert k.param("n").ctype == "long"
        with pytest.raises(KeyError):
            k.param("missing")

    def test_statement_lines_are_preorder_and_stable(self):
        k = self._kernel()
        lines = k.statement_lines()
        nest = k.body[0]
        assert lines[id(nest)] == 1
        assert lines[id(nest.body[0])] == 2
        assert k.statement_lines() == lines


class TestRegistry:
    def test_production_kernels_registered(self):
        names = set(loopir.registered_kernels())
        assert {"advect_stage", "sed_sweep", "remap_scatter"} <= names
        assert "broken_offload_ir" in names

    def test_fixture_excluded_from_gate(self):
        gated = loopir.gate_kernels()
        assert "broken_offload_ir" not in gated
        assert "advect_stage" in gated

    def test_final_kernel_applies_the_transform(self):
        # The host plan is serial; what it does annotate is the
        # fixed-width lane loops of coal_bott_new, which the bare build
        # leaves unmarked.
        spec = loopir.registered_kernels()["coal_bott_new"]

        def simd_loops(kernel):
            return [
                s for s in walk_ir_stmts(kernel.body)
                if isinstance(s, Loop) and s.simd
            ]

        assert not simd_loops(spec.build())
        assert simd_loops(spec.final_kernel())

    def test_fixture_spec_is_fixed(self):
        spec = loopir.registered_kernels()["broken_offload_ir"]
        assert spec.plan() is None
        assert spec.final_kernel().loops()[0].parallel
