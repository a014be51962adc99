"""The shared native-kernel JIT: build cache, kill switches, fallback."""

import ctypes

import numpy as np
import pytest

from repro.core import cjit
from repro.obs import tracer

ADD_SOURCE = r"""
void add_scaled(double *x, double s, long n)
{
    for (long i = 0; i < n; i++)
        x[i] += s;
}
"""


def _declare_add(lib: ctypes.CDLL) -> None:
    lib.add_scaled.restype = None
    lib.add_scaled.argtypes = [
        ctypes.POINTER(ctypes.c_double), ctypes.c_double, ctypes.c_long
    ]


def _make(tmp_path, name="tiny_add", source=ADD_SOURCE, **kw):
    return cjit.CJitModule(
        name, source, build_dir=tmp_path, setup=_declare_add, **kw
    )


class TestCompileAndCall:
    def test_compiles_and_runs(self, tmp_path):
        mod = _make(tmp_path)
        lib = mod.load()
        assert lib is not None, mod.load_error
        assert mod.load_error == ""
        x = np.arange(5, dtype=np.float64)
        lib.add_scaled(
            x.ctypes.data_as(ctypes.POINTER(ctypes.c_double)), 2.5, 5
        )
        np.testing.assert_array_equal(x, np.arange(5) + 2.5)

    def test_shared_object_cached_by_source_hash(self, tmp_path):
        mod = _make(tmp_path)
        assert mod.load() is not None
        so = mod.so_path
        assert so.exists() and so.name == f"tiny_add_{mod.tag}.so"
        mtime = so.stat().st_mtime_ns
        # A fresh module with identical source reuses the on-disk .so.
        again = _make(tmp_path, name="tiny_add")
        assert again.load() is not None
        assert again.so_path == so
        assert so.stat().st_mtime_ns == mtime

    def test_source_change_changes_tag(self, tmp_path):
        a = _make(tmp_path)
        b = _make(tmp_path, source=ADD_SOURCE + "\n/* v2 */\n")
        assert a.tag != b.tag
        assert a.so_path != b.so_path

    def test_load_is_cached_per_process(self, tmp_path):
        mod = _make(tmp_path)
        assert mod.load() is mod.load()


class TestFailureModes:
    def test_bad_source_falls_back_with_error(self, tmp_path):
        mod = _make(tmp_path, name="broken", source="this is not C;")
        assert mod.load() is None
        assert mod.load_error != ""
        # Subsequent loads stay on the fallback without re-compiling.
        assert mod.load() is None

    def test_global_kill_switch(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cjit.DISABLE_ALL_ENV, "1")
        mod = _make(tmp_path)
        assert mod.load() is None
        assert cjit.DISABLE_ALL_ENV in mod.load_error
        # Checked on every call: clearing the switch re-enables the lib.
        monkeypatch.delenv(cjit.DISABLE_ALL_ENV)
        assert mod.load() is not None
        assert mod.load_error == ""

    def test_module_kill_switch(self, tmp_path, monkeypatch):
        mod = _make(tmp_path, disable_env="REPRO_DISABLE_TINY")
        assert mod.load() is not None
        monkeypatch.setenv("REPRO_DISABLE_TINY", "1")
        # Mid-process disable sticks even though the lib loaded already.
        assert mod.load() is None
        assert "REPRO_DISABLE_TINY" in mod.load_error

    def test_cleared_switch_leaves_no_stale_error(self, monkeypatch):
        """Set and clear the stencil's kill switch in one process: once
        the library is back, nothing may still say it is disabled."""
        from repro.wrf import cstencil

        assert cstencil.load_stencil() is not None, cstencil.load_error
        monkeypatch.setenv(cstencil.DISABLE_ENV, "1")
        assert cstencil.load_stencil() is None
        assert cstencil.DISABLE_ENV in cstencil.load_error
        monkeypatch.delenv(cstencil.DISABLE_ENV)
        assert cstencil.load_stencil() is not None
        assert cstencil.load_error == ""


class TestRegistry:
    def test_modules_are_registered(self, tmp_path):
        mod = _make(tmp_path, name="registered_probe")
        assert cjit.modules()["registered_probe"] is mod

    def test_production_modules_present(self):
        # The stencil and physics kernels register on import.
        import repro.fsbm.ckernels  # noqa: F401
        import repro.wrf.cstencil  # noqa: F401

        names = set(cjit.modules())
        assert {"stencil", "fsbm_kernels"} <= names

    def test_compiler_candidates_prefers_cc_env(self, monkeypatch):
        monkeypatch.setenv("CC", "/custom/cc")
        assert cjit.compiler_candidates()[0] == "/custom/cc"


def _path_instants(mod, loads: int) -> list:
    """The ``<name>.path`` instants ``loads`` traced loads record."""
    was = tracer.enabled()
    tracer.configure(enabled=True, clear=True)
    try:
        for _ in range(loads):
            mod.load()
        return [e for e in tracer.drain() if e.name == f"{mod.name}.path"]
    finally:
        tracer.configure(enabled=was, clear=True)


class TestPathInstant:
    def test_first_traced_load_records_one_instant(self, tmp_path):
        mod = _make(tmp_path, name="path_probe")
        (event,) = _path_instants(mod, loads=3)
        assert event.ph == "I" and event.cat == "jit"
        assert event.attrs == {"compiled": True, "error": ""}
        assert _path_instants(mod, loads=2) == []

    def test_first_traced_load_after_a_cleared_switch(self, tmp_path, monkeypatch):
        """The instant reads the state of the load it marks: a switch
        set and cleared before it leaves no error behind."""
        mod = _make(
            tmp_path, name="path_cleared", disable_env="REPRO_DISABLE_CLEARED"
        )
        assert mod.load() is not None
        monkeypatch.setenv("REPRO_DISABLE_CLEARED", "1")
        assert mod.load() is None
        monkeypatch.delenv("REPRO_DISABLE_CLEARED")
        (event,) = _path_instants(mod, loads=1)
        assert event.attrs == {"compiled": True, "error": ""}

    def test_disabled_load_records_why(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_PATH_PROBE", "1")
        mod = _make(
            tmp_path, name="path_off", disable_env="REPRO_DISABLE_PATH_PROBE"
        )
        (event,) = _path_instants(mod, loads=2)
        assert event.attrs == {
            "compiled": False,
            "error": "disabled via REPRO_DISABLE_PATH_PROBE",
        }
