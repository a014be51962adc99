"""The dependence-driven transformation engine over the loop IR."""

import pytest

from repro.codee import cgen, transform
from repro.codee.loopir import (
    ArrayParam,
    Assign,
    Const,
    Decl,
    If,
    Kernel,
    Let,
    Load,
    LocalArray,
    Loop,
    ScalarParam,
    Select,
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
        # A power-of-two trip count is the loop's vector width.
        assert [lp.simdlen for lp in lanes] == [8, 8]
        assert "simd simdlen(8)" in cgen.emit_kernel(plan.kernel)
        assert "simdlen(trip count)" in plan.summary()

    def test_other_lane_widths_get_a_bare_simd(self):
        plan = plan_offload(_cascade(Const(6)))
        lanes = [r.nest for r in plan.inner["t"] if r.nest.var == "lane"]
        assert all(lp.simd and lp.simdlen == 0 for lp in lanes)
        text = cgen.emit_kernel(plan.kernel)
        assert "#pragma omp simd\n" in text and "simdlen" not in text

    def test_runtime_bounds_are_left_to_the_compiler(self):
        plan = plan_offload(_cascade(Sym("nl")))
        assert not any(r.nest.simd for r in plan.inner["t"])

    def test_parallel_nests_get_no_inner_report(self):
        plan = plan_offload(_copy2d())
        assert plan.inner == {}


def _row_stencil(
    lo=Sym("rm"), store_row=Sym("r"), guard=None, lo_plane=Sym("k")
):
    """out[r, k] = src[lo, lo_plane] + src[rp, k] over rows r of nr.

    ``rm``/``rp`` are the edge-clamped rows r - 1 and r + 1. ``lo`` is
    the low-side row read (at plane ``lo_plane``), ``store_row`` the row
    written; ``guard`` puts the store under that condition, so the
    elements it fails keep their values (``"src"``: the element's own
    input is positive).
    """
    r, k = Sym("r"), Sym("k")
    nr, nk = Sym("nr"), Sym("nk")
    store = Store(
        "out",
        (store_row, k),
        Load("src", (lo, lo_plane)) + Load("src", (Sym("rp"), k)),
    )
    if guard == "src":
        guard = Load("src", (r, k)).gt(Const(0.0))
    body = [
        Let("rm", Select(r.gt(0), r - 1, r), "long"),
        Let("rp", Select(r.lt(nr - 1), r + 1, r), "long"),
        Loop("k", Const(0), nk, [
            Let("kp", Select(k.lt(nk - 1), k + 1, k), "long"),
            If(guard, [store]) if guard is not None else store,
        ]),
    ]
    return Kernel(
        name="row_stencil",
        params=(
            ArrayParam("src", strides=(nk, Const(1))),
            ArrayParam("out", strides=(nk, Const(1)), intent="out"),
            ScalarParam("nr", "long"),
            ScalarParam("nk", "long"),
        ),
        body=[Loop("r", Const(0), nr, body)],
    )


def _run_in_place(kernel, tmp_path, name):
    """Compile the ringed ``kernel`` and run it with ``out == src`` on
    1, 2, 3 and 7 rows; yields ``(src, result)`` pairs."""
    import ctypes

    import numpy as np

    from repro.codee import cgen

    module = cgen.build_module(name, [kernel], build_dir=tmp_path)
    lib = module.load()
    if lib is None:
        pytest.skip(module.load_error)
    fn = getattr(lib, kernel.name)
    scratch = [
        p for p in kernel.params
        if isinstance(p, ArrayParam) and p.intent == "scratch"
    ]
    rng = np.random.default_rng(1)
    for nr in (1, 2, 3, 7):
        src = rng.standard_normal((nr, 5))
        block = src.copy()
        rings = [
            np.full((2, 5), np.nan) if p.ctype == "double"
            else np.zeros((2, 5), dtype=np.uint8)
            for p in scratch
        ]
        fn(block, block, ctypes.c_long(nr), ctypes.c_long(5), *rings)
        yield src, block


class TestRingRows:
    def test_host_plan_rings_the_advect_stencil(self):
        from repro.wrf.cstencil import build_advect_ir

        plan = transform.plan_host(build_advect_ir())
        assert [lp.var for lp in plan.kernel.loops()] == ["r"]
        assert not any(lp.parallel for lp in plan.kernel.loops())
        arrays = plan.kernel.arrays()
        # ss, sbase and sout may be one state block, s, base and out one
        # bins block, occ and occ_out one field: three alias groups, no
        # restrict.
        groups: dict[str, set] = {}
        for name, p in arrays.items():
            if p.alias_group:
                groups.setdefault(p.alias_group, set()).add(name)
        assert groups == {
            "sout": {"ss", "sbase", "sout"},
            "out": {"s", "base", "out"},
            "occ_out": {"occ", "occ_out"},
        }
        assert not any(arrays[n].restrict for g in groups.values() for n in g)
        # The scratch: two rows of each output's layout, and two rows of
        # each evaluated guard (the empty-stencil, whole-cell and
        # whole-vector ones per cell, the group and its whole-vector one
        # per cell and group).
        for out in ("sout", "out", "occ_out"):
            ring = arrays[f"{out}_ring"]
            assert ring.intent == "scratch"
            assert (ring.strides, ring.ctype) == (
                arrays[out].strides, arrays[out].ctype
            )
        for guard, vars_ in (
            ("out_guard", 3), ("out_guard1", 3), ("out_guard2", 3),
            ("out_guard3", 4), ("out_guard4", 4),
        ):
            assert arrays[guard].ctype == "unsigned char"
            assert len(arrays[guard].strides) == vars_
        ring_pass = next(p for p in plan.passes if p.name == "ring_rows")
        assert ring_pass.applied
        assert "s, base read only at rows r - 1 .. r + 1" in ring_pass.detail
        assert "2-row out_ring" in ring_pass.detail
        assert (
            "guard rings out_guard, out_guard1, out_guard2, out_guard3, "
            "out_guard4 keep each evaluated guard"
        ) in ring_pass.detail
        assert "plane by plane: s, base read at row r - 1 only at plane k" in (
            ring_pass.detail
        )
        assert "2-row occ_out_ring, plane by plane" in ring_pass.detail
        # The state block's planes go back plane by plane too, unguarded.
        assert (
            "sout written back one row late through 2-row sout_ring, plane "
            "by plane: ss, sbase read at row r - 1 only at plane k; ss, "
            "sbase read only at rows r - 1 .. r + 1"
        ) in ring_pass.detail
        # The proof is the pre-rewrite analysis: depth 3, kept.
        assert plan.reports["r"].parallel_depth == 3

    def test_offload_plan_stays_out_of_place(self):
        from repro.wrf.cstencil import build_advect_ir

        plan = plan_offload(build_advect_ir())
        assert not any(p.name == "ring_rows" for p in plan.passes)
        assert not any(p.alias_group for p in plan.kernel.arrays().values())

    def test_refuses_a_read_two_rows_back(self):
        k = _row_stencil(lo=Sym("r") - 2)
        res = transform.ring_rows(k, k.body[0])
        assert not res.applied
        assert res.detail == (
            "src is read at rows r - 2, r, r + 1, outside r - 1 .. r + 1"
        )
        assert "out_ring" not in k.arrays()

    def test_refuses_a_store_off_the_row(self):
        k = _row_stencil(store_row=Sym("r") + 1)
        res = transform.ring_rows(k, k.body[0])
        assert not res.applied
        assert res.detail == "out is stored at rows r + 1, not at row r alone"

    def test_rings_a_guarded_store(self):
        k = _row_stencil(guard="src")
        res = transform.ring_rows(k, k.body[0])
        assert res.applied
        assert "guard ring out_guard keeps each evaluated guard of a store" in res.detail
        guard = k.arrays()["out_guard"]
        assert (guard.intent, guard.ctype) == ("scratch", "unsigned char")

    def test_refuses_a_guard_that_reads_the_output_off_row(self):
        k = _row_stencil(guard=Load("out", (Sym("rm"), Sym("k"))).gt(Const(0.0)))
        res = transform.ring_rows(k, k.body[0])
        assert not res.applied
        assert res.detail == "out is read off row r: the ring holds one row"

    def test_refuses_a_guard_that_reads_an_input_far_off(self):
        k = _row_stencil(guard=Load("src", (Sym("r") + 2, Sym("k"))).gt(Const(0.0)))
        res = transform.ring_rows(k, k.body[0])
        assert not res.applied
        assert res.detail == (
            "src is read at rows r - 1, r, r + 1, r + 2, outside r - 1 .. r + 1"
        )

    def test_a_read_of_row_r_minus_1_off_its_plane_keeps_the_whole_row(self):
        k = _row_stencil(lo_plane=Sym("kp"))
        res = transform.ring_rows(k, k.body[0])
        assert res.applied
        assert "row by row" in res.detail
        assert "plane by plane" not in res.detail

    def test_refuses_a_parallel_row_loop(self):
        k = _row_stencil()
        k.body[0].parallel = True
        assert not transform.ring_rows(k, k.body[0]).applied

    def test_ringed_fixture_runs_in_place(self, tmp_path):
        """The rewritten kernel called with out == src gives the
        out-of-place result, for every row count including 1, written
        back plane by plane."""
        import numpy as np

        k = _row_stencil()
        res = transform.ring_rows(k, k.body[0])
        assert "plane by plane" in res.detail
        for src, got in _run_in_place(k, tmp_path, "ring_fixture"):
            nr = len(src)
            rows = np.arange(nr)
            want = src[np.maximum(rows - 1, 0)] + src[np.minimum(rows + 1, nr - 1)]
            assert np.array_equal(got, want)

    def test_ringed_fixture_reading_another_plane_runs_in_place(self, tmp_path):
        """Row r reads row r - 1 at plane k + 1: the ring writes whole
        rows back, and the in-place result is still the out-of-place one."""
        import numpy as np

        k = _row_stencil(lo_plane=Sym("kp"))
        assert transform.ring_rows(k, k.body[0]).applied
        for src, got in _run_in_place(k, tmp_path, "ring_fixture_rows"):
            nr = len(src)
            rows = np.arange(nr)
            planes = np.minimum(np.arange(5) + 1, 4)
            lo = src[np.maximum(rows - 1, 0)][:, planes]
            assert np.array_equal(got, lo + src[np.minimum(rows + 1, nr - 1)])

    def test_guarded_fixture_leaves_the_skipped_elements(self, tmp_path):
        """In place, the guarded store computes the elements whose own
        input is positive and leaves every other element as it was."""
        import numpy as np

        k = _row_stencil(guard="src")
        assert transform.ring_rows(k, k.body[0]).applied
        for src, got in _run_in_place(k, tmp_path, "ring_fixture_guarded"):
            nr = len(src)
            rows = np.arange(nr)
            sums = src[np.maximum(rows - 1, 0)] + src[np.minimum(rows + 1, nr - 1)]
            want = np.where(src > 0.0, sums, src)
            assert np.array_equal(got, want)


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

    def test_host_plan_is_serial_and_keeps_the_depth3_proof(self):
        from repro.codee import loopir

        # What `codee transform advect_stage` prints: the registered
        # host plan emits no parallel loop, yet reports the nest
        # provably independent to depth 3.
        plan = loopir.registered_kernels()["advect_stage"].plan()
        assert not any(lp.parallel for lp in plan.kernel.loops())
        assert plan.reports["r"].parallel_depth == 3
        assert "nest over 'r': parallel depth 3" in plan.summary()

    def test_halo_pull_rows_are_independent(self):
        from repro.codee import loopir
        from repro.wrf.cstencil import build_halo_pull_ir

        # Each (member, i, k) row of a segment writes only its own cells
        # and its own count: the offload derivation collapses the row
        # nest, and the host plan keeps it serial with the same proof.
        plan = plan_offload(build_halo_pull_ir())
        rows = plan.kernel.loops()[-1]
        assert rows.var == "m" and rows.parallel and rows.collapse == 2
        host = loopir.registered_kernels()["halo_pull"].plan()
        assert not any(lp.parallel for lp in host.kernel.loops())
        assert host.reports["m"].parallel_depth == 3
        assert "nest over 'm': parallel depth 3" in host.summary()

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

    def test_onecond_is_serial_under_the_depth_floor(self):
        from repro.fsbm.ckernels import build_onecond_ir

        # One row loop: below the parallel-overhead floor, and its
        # stores go through the row list, which no analysis can prove
        # disjoint.
        plan = plan_offload(build_onecond_ir())
        assert not any(lp.parallel for lp in plan.kernel.loops())
        collapse = next(p for p in plan.passes if p.name == "collapse")
        assert "below the parallel-overhead floor" in collapse.detail
        assert plan.reports["q"].parallel_depth == 0

    def test_summary_renders_the_derivation(self):
        from repro.wrf.cstencil import build_advect_ir

        text = plan_offload(build_advect_ir()).summary()
        assert "transform plan for kernel 'advect_stage'" in text
        assert "collapse" in text
