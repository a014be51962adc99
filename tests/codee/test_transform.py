"""The dependence-driven transformation engine over the loop IR."""

import pytest

from repro.codee import transform
from repro.codee.loopir import (
    ArrayParam,
    Assign,
    Const,
    Decl,
    Kernel,
    Let,
    Load,
    LocalArray,
    Loop,
    ScalarParam,
    Store,
    Sym,
)
from repro.codee.transform import (
    TransformPolicy,
    analyze_nest,
    collapse_nest,
    fission_loop,
    hoist_automatic_arrays,
    normalize_loops,
    plan_offload,
    simd_innermost,
)
from repro.errors import TransformError


def _copy2d(start=0):
    i, j = Sym("i"), Sym("j")
    nest = Loop(
        "i",
        Const(start),
        Sym("n"),
        [
            Loop(
                "j",
                Const(start),
                Sym("n"),
                [Store("out", (i, j), Load("src", (i, j)) * 2.0)],
            )
        ],
    )
    return Kernel(
        name="copy2d",
        params=(
            ArrayParam("src", strides=(Sym("n"), Const(1))),
            ArrayParam("out", strides=(Sym("n"), Const(1)), intent="out"),
            ScalarParam("n", "long"),
        ),
        body=[nest],
    )


class TestAnalyzeNest:
    def test_clean_elementwise_nest_is_fully_parallel(self):
        k = _copy2d()
        rep = analyze_nest(k, k.body[0])
        assert rep.parallelizable
        assert rep.parallel_depth == 2
        assert rep.read_only_arrays == ("src",)
        assert rep.write_only_arrays == ("out",)

    def test_offset_read_blocks_the_carried_loop(self):
        i = Sym("i")
        nest = Loop(
            "i",
            Const(1),
            Sym("n"),
            [Store("a", (i,), Load("a", (i - 1,)))],
        )
        k = Kernel(
            "recur",
            (ArrayParam("a", strides=(Const(1),), intent="inout"),
             ScalarParam("n", "long")),
            [nest],
        )
        rep = analyze_nest(k, nest)
        assert rep.parallel_depth == 0
        assert any("loop-carried" in r for r in rep.reasons)

    def test_let_hidden_offset_is_seen_through(self):
        i = Sym("i")
        nest = Loop(
            "i",
            Const(1),
            Sym("n"),
            [
                Let("im", i - 1, "long"),
                Store("a", (i,), Load("a", (Sym("im"),))),
            ],
        )
        k = Kernel(
            "recur_let",
            (ArrayParam("a", strides=(Const(1),), intent="inout"),
             ScalarParam("n", "long")),
            [nest],
        )
        rep = analyze_nest(k, nest)
        assert rep.parallel_depth == 0

    def test_nonrectangular_bounds_block_the_inner_loop(self):
        i, j = Sym("i"), Sym("j")
        nest = Loop(
            "i",
            Const(0),
            Sym("n"),
            [Loop("j", Const(0), i, [Store("out", (i, j), Const(0))])],
        )
        k = Kernel(
            "tri",
            (ArrayParam("out", strides=(Sym("n"), Const(1)), intent="out"),
             ScalarParam("n", "long")),
            [nest],
        )
        rep = analyze_nest(k, nest)
        assert rep.parallel_depth == 1
        assert any("non-rectangular" in r for r in rep.reasons)

    def test_outside_scalar_accumulation_is_a_reduction_candidate(self):
        i = Sym("i")
        nest = Loop(
            "i",
            Const(0),
            Sym("n"),
            [Assign("acc", Sym("acc") + Load("a", (i,)))],
        )
        k = Kernel(
            "sum",
            (ArrayParam("a", strides=(Const(1),)), ScalarParam("n", "long")),
            [Decl("acc", "double", Const(0)), nest],
        )
        rep = analyze_nest(k, nest)
        assert rep.parallel_depth == 0
        assert ("+", "acc") in rep.reductions

    def test_indirect_store_blocks_everything(self):
        i = Sym("i")
        nest = Loop(
            "i",
            Const(0),
            Sym("n"),
            [Store("hist", (Load("idx", (i,)),), Const(1), op="+=")],
        )
        k = Kernel(
            "scatter",
            (
                ArrayParam("hist", strides=(Const(1),), intent="inout"),
                ArrayParam("idx", strides=(Const(1),), ctype="long"),
                ScalarParam("n", "long"),
            ),
            [nest],
        )
        rep = analyze_nest(k, nest)
        assert rep.parallel_depth == 0
        assert any("indirectly indexed" in r for r in rep.reasons)


class TestPasses:
    def test_normalize_rebases_one_based_loops(self):
        k = _copy2d(start=1)
        res = normalize_loops(k)
        assert res.applied
        nest = k.body[0]
        assert nest.start == Const(0)
        store = nest.body[0].body[0]
        # i in the body became (i + 1)
        assert Sym("i") + 1 in store.index

    def test_collapse_derived_keeps_one_serial_inner(self):
        k = _copy2d()
        nest = k.body[0]
        res = collapse_nest(k, nest, TransformPolicy())
        assert res.applied
        assert nest.parallel and nest.collapse == 1  # depth 2 - 1 serial

    def test_collapse_explicit_request_beyond_proof_is_refused(self):
        i = Sym("i")
        nest = Loop(
            "i",
            Const(0),
            Sym("n"),
            [
                Loop(
                    "j",
                    Const(0),
                    Sym("n"),
                    [Store("out", (i, Const(0)), Const(0))],
                )
            ],
        )
        k = Kernel(
            "race",
            (ArrayParam("out", strides=(Sym("n"), Const(1)), intent="out"),
             ScalarParam("n", "long")),
            [nest],
        )
        with pytest.raises(TransformError, match="provably independent"):
            collapse_nest(k, nest, TransformPolicy(collapse=2))
        assert not nest.parallel

    def test_depth_one_nest_stays_serial_by_policy_floor(self):
        i = Sym("i")
        nest = Loop("i", Const(0), Sym("n"), [Store("out", (i,), Const(0))])
        k = Kernel(
            "flat",
            (ArrayParam("out", strides=(Const(1),), intent="out"),
             ScalarParam("n", "long")),
            [nest],
        )
        res = collapse_nest(k, nest, TransformPolicy())
        assert not res.applied
        assert "overhead floor" in res.detail

    def test_fission_splits_independent_groups(self):
        i = Sym("i")
        loop = Loop(
            "i",
            Const(0),
            Sym("n"),
            [
                Store("a", (i,), Const(1)),
                Store("b", (i,), Const(2)),
            ],
        )
        k = Kernel(
            "two",
            (
                ArrayParam("a", strides=(Const(1),), intent="out"),
                ArrayParam("b", strides=(Const(1),), intent="out"),
                ScalarParam("n", "long"),
            ),
            [loop],
        )
        res = fission_loop(k, loop)
        assert res.applied
        assert len(k.loops()) == 2

    def test_fission_keeps_local_array_with_its_users(self):
        i = Sym("i")
        loop = Loop(
            "i",
            Const(0),
            Sym("n"),
            [
                LocalArray("buf", 8),
                Store("buf", (Const(0),), Load("a", (i,))),
                Store("out", (i,), Load("buf", (Const(0),))),
            ],
        )
        k = Kernel(
            "localbuf",
            (
                ArrayParam("a", strides=(Const(1),)),
                ArrayParam("out", strides=(Const(1),), intent="out"),
                ScalarParam("n", "long"),
            ),
            [loop],
        )
        res = fission_loop(k, loop)
        assert not res.applied  # everything shares buf: one group

    def test_hoist_rewrites_local_arrays_of_parallel_nests(self):
        i = Sym("i")
        nest = Loop(
            "i",
            Const(0),
            Sym("n"),
            [
                Loop(
                    "j",
                    Const(0),
                    Sym("n"),
                    [
                        LocalArray("buf", 4),
                        Store("buf", (Const(0),), Const(1)),
                        Store(
                            "out",
                            (i, Sym("j")),
                            Load("buf", (Const(0),)),
                        ),
                    ],
                )
            ],
        )
        k = Kernel(
            "hoist",
            (ArrayParam("out", strides=(Sym("n"), Const(1)), intent="out"),
             ScalarParam("n", "long")),
            [nest],
        )
        nest.parallel = True
        nest.collapse = 2
        res = hoist_automatic_arrays(k, nest)
        assert res.applied
        assert "buf_temp" in k.arrays()
        assert not k.local_arrays()

    def test_hoist_leaves_serial_nests_alone(self):
        i = Sym("i")
        nest = Loop(
            "i",
            Const(0),
            Sym("n"),
            [LocalArray("buf", 4), Store("buf", (Const(0),), Const(1))],
        )
        k = Kernel("serial", (ScalarParam("n", "long"),), [nest])
        res = hoist_automatic_arrays(k, nest)
        assert not res.applied
        assert k.local_arrays()

    def test_simd_refuses_scalar_mutation_in_the_leaf(self):
        i = Sym("i")
        nest = Loop(
            "i",
            Const(0),
            Sym("n"),
            [
                Loop(
                    "j",
                    Const(0),
                    Sym("n"),
                    [Assign("flag", Const(1))],
                )
            ],
        )
        k = Kernel("flagged", (ScalarParam("n", "long"),), [nest])
        nest.parallel = True
        res = simd_innermost(k, nest, TransformPolicy())
        assert not res.applied
        assert "mutates across lanes" in res.detail

    def test_simd_marks_clean_leaves(self):
        k = _copy2d()
        nest = k.body[0]
        nest.parallel = True
        res = simd_innermost(k, nest, TransformPolicy())
        assert res.applied
        assert nest.body[0].simd


def _cascade(lanes_stop):
    """A serial outer loop (``acc`` carries across ``t``) around a
    lane tile whose innermost loop over points is independent."""
    t, b, lane = Sym("t"), Sym("b"), Sym("lane")
    nest = Loop("t", Const(0), Sym("nt"), [
        LocalArray("tile", 8, lanes=8),
        Loop("b", Const(0), Sym("nb"), [
            Loop("lane", Const(0), lanes_stop, [
                Store("tile", (b, lane), Load("src", (t, b, lane)) * 2.0),
            ]),
        ]),
        Loop("lane", Const(0), lanes_stop, [
            Store("acc", (lane,), Load("tile", (Const(0), lane)), "+="),
        ]),
    ])
    return Kernel(
        name="cascade",
        params=(
            ArrayParam("src", strides=(Const(64), Const(8), Const(1))),
            ArrayParam("acc", strides=(Const(1),), intent="inout"),
            ScalarParam("nt", "long"),
            ScalarParam("nb", "long"),
        ),
        body=[nest],
    )


class TestInnerLoops:
    def test_serial_nest_reports_its_independent_inner_loops(self):
        plan = plan_offload(_cascade(Const(8)))
        assert plan.reports["t"].parallel_depth == 0
        by_var = {}
        for rep in plan.inner["t"]:
            by_var.setdefault(rep.nest.var, []).append(rep.parallel_depth)
        assert by_var == {"b": [2], "lane": [1, 1]}
        assert "inner loops over 'lane': 2 of 2 proven independent" in (
            plan.summary()
        )

    def test_fixed_width_lane_loops_get_simd(self):
        plan = plan_offload(_cascade(Const(8)))
        lanes = [r.nest for r in plan.inner["t"] if r.nest.var == "lane"]
        assert all(lp.simd for lp in lanes)
        assert not any(r.nest.simd for r in plan.inner["t"] if r.nest.var == "b")

    def test_runtime_bounds_are_left_to_the_compiler(self):
        plan = plan_offload(_cascade(Sym("nl")))
        assert not any(r.nest.simd for r in plan.inner["t"])

    def test_parallel_nests_get_no_inner_report(self):
        plan = plan_offload(_copy2d())
        assert plan.inner == {}


class TestProductionDerivations:
    """The engine's verdicts on the real kernels must match the
    hand-written predecessors' annotations."""

    def test_advect_stage_derives_collapse2_plus_simd(self):
        from repro.wrf.cstencil import build_advect_ir

        # The members' rows fold into one row loop, so the member-axis
        # nest is (row, k, j): collapse(2) over (row, k), j serial.
        plan = plan_offload(build_advect_ir())
        nests = plan.kernel.loops()
        assert len(nests) == 1
        assert nests[0].var == "r"
        assert nests[0].parallel
        assert nests[0].collapse == 2
        leaves = [
            lp for lp in transform._leaf_loops(nests[0]) if lp.simd
        ]
        assert leaves, "inner n-loops vectorized"

    def test_sed_sweep_parallel_only_across_members(self):
        from repro.codee import loopir
        from repro.fsbm.ckernels import build_sed_sweep_ir

        # Within a member the k-carried flux recurrence and the
        # active/precip accumulations carry dependences: the analysis
        # proves only the member loop independent.
        plan = plan_offload(build_sed_sweep_ir())
        nests = plan.kernel.loops()
        assert [lp.var for lp in nests] == ["m", "m"]
        assert all(lp.parallel and lp.collapse == 1 for lp in nests)
        assert [r.parallel_depth for r in plan.reports.values()] == [1]
        # The registered derivation is policy-serial: the fsbm kernels
        # leave the cores to the ranks.
        final = loopir.registered_kernels()["sed_sweep"].final_kernel()
        assert not any(lp.parallel for lp in final.loops())

    def test_remap_scatter_stays_serial_under_the_depth_floor(self):
        from repro.fsbm.ckernels import build_remap_scatter_ir

        plan = plan_offload(build_remap_scatter_ir())
        assert not any(lp.parallel for lp in plan.kernel.loops())

    def test_summary_renders_the_derivation(self):
        from repro.wrf.cstencil import build_advect_ir

        text = plan_offload(build_advect_ir()).summary()
        assert "transform plan for kernel 'advect_stage'" in text
        assert "collapse" in text
