"""The repo lint gate: every embedded Fortran source must verify clean,
and every registered (gated) loop-IR kernel must verify clean *and*
compile to a loadable module.

Run just this gate with ``pytest -m verify_sources``; it is also what
``python -m repro.codee verify --all`` executes from the CLI.
"""

import json
import re

import pytest

from repro.codee import irverify, loopir
from repro.codee.cli import main
from repro.codee.sources import BROKEN_OFFLOAD_SOURCE, embedded_sources
from repro.codee.verifier import VerifierConfig, verify_text

pytestmark = pytest.mark.verify_sources

SOURCES = embedded_sources()
IR_KERNELS = sorted(loopir.gate_kernels())


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_embedded_source_verifies_clean(name):
    violations = verify_text(SOURCES[name], name, VerifierConfig())
    assert violations == [], "\n".join(v.render() for v in violations)


@pytest.mark.parametrize("name", IR_KERNELS)
def test_ir_kernel_verifies_clean(name):
    spec = loopir.gate_kernels()[name]
    violations = irverify.verify_kernel(spec.final_kernel(), VerifierConfig())
    assert violations == [], "\n".join(v.render() for v in violations)


def test_production_ir_modules_compile(tmp_path):
    """The gate compiles every gated kernel, not just the ones the
    production modules happen to load on this machine."""
    from repro.codee import cgen

    registry = loopir.gate_kernels()
    kernels = [registry[name].final_kernel() for name in IR_KERNELS]
    module = cgen.build_module(
        "verify_gate_kernels", kernels, build_dir=tmp_path
    )
    lib = module.load()
    if module.load_error and "no working C compiler" in module.load_error:
        pytest.skip(module.load_error)
    assert lib is not None, module.load_error


def test_coal_bott_new_point_loops_proven_independent(capsys):
    """The paper's claim about the grid loop of ``coal_bott_new``, on the
    emitted kernel: the interaction loop stays serial (the species-sum
    cascade), but inside it every loop over the points of a lane block
    is proven independent. The only point loops refused are the scatter
    through the compacted point list (an indirect store) and the
    block's any-lane-binds test (a reduction)."""
    from repro.fsbm import ckernels

    assert main(["transform", "coal_bott_new"]) == 0
    out = capsys.readouterr().out
    assert "nest over 'ix': serial (dependence-bound)" in out
    found = re.search(
        r"inner loops over 'lane': (\d+) of (\d+) proven independent", out
    )
    assert found, out
    proven, total = int(found[1]), int(found[2])
    assert proven >= 20 and total - proven == 3

    plan = loopir.gate_kernels()["coal_bott_new"].plan()
    lanes = [r for r in plan.inner["ix"] if r.nest.var == "lane"]
    for rep in lanes:
        if rep.parallel_depth:
            continue
        assert any(
            "indirectly indexed" in why or "reduction candidate" in why
            for why in rep.reasons
        ), rep.reasons
    # Proven fixed-width lane loops are the vector loops of the C.
    assert sum(r.nest.simd for r in lanes) >= 20
    assert all(r.parallel_depth for r in lanes if r.nest.simd)
    assert "#pragma omp parallel" not in ckernels.C_SOURCE


def test_broken_fixture_is_not_part_of_the_gate():
    assert BROKEN_OFFLOAD_SOURCE not in SOURCES.values()
    assert "broken_offload_ir" in loopir.registered_kernels()
    assert "broken_offload_ir" not in loopir.gate_kernels()


def test_broken_ir_fixture_flagged_in_every_format(capsys):
    assert main(["verify", "--ir", "broken_offload_ir"]) == 2
    assert "[VFY006]" in capsys.readouterr().out

    assert main(["verify", "--ir", "broken_offload_ir", "--format", "json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert any(v["check_id"] == "VFY006" for v in payload)

    assert main(["verify", "--ir", "broken_offload_ir", "--format", "sarif"]) == 2
    sarif = json.loads(capsys.readouterr().out)
    results = sarif["runs"][0]["results"]
    assert any(r["ruleId"] == "VFY006" for r in results)


def test_broken_ir_fixture_refused_by_build_module(tmp_path):
    from repro.codee import cgen
    from repro.errors import IRVerificationError

    fixture = loopir.registered_kernels()["broken_offload_ir"]
    with pytest.raises(IRVerificationError, match="VFY006"):
        cgen.build_module(
            "broken_offload", [fixture.final_kernel()], build_dir=tmp_path
        )


def test_cli_verify_all_passes():
    assert main(["verify", "--all"]) == 0
