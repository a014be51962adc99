"""wrfout files and the diffwrf comparison tool."""

import json
import zipfile

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.wrf.diffwrf import diff_field, diffwrf, format_diff_report, main
from repro.wrf.io import read_wrfout, write_wrfout


class TestWrfoutIO:
    def test_round_trip(self, tmp_path):
        fields = {"T": np.random.default_rng(0).normal(size=(4, 3, 4))}
        attrs = {"title": "test run", "dx": 12000.0}
        path = write_wrfout(tmp_path / "wrfout_d01", fields, attrs)
        back, back_attrs = read_wrfout(path)
        np.testing.assert_array_equal(back["T"], fields["T"])
        assert back_attrs == attrs

    def test_reads_suffixless_path(self, tmp_path):
        fields = {"T": np.zeros((2, 2, 2))}
        write_wrfout(tmp_path / "out", fields)
        back, _ = read_wrfout(tmp_path / "out")
        assert "T" in back

    def test_empty_write_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            write_wrfout(tmp_path / "x", {})

    def test_members_are_stored_uncompressed(self, tmp_path):
        fields = {"T": np.ones((4, 3, 4)), "RAINNC": np.zeros((4, 4))}
        path = write_wrfout(tmp_path / "wrfout_d01", fields, {"dx": 1.0})
        with zipfile.ZipFile(path) as archive:
            infos = archive.infolist()
        assert sorted(i.filename for i in infos) == [
            "RAINNC.npy", "T.npy", "__attrs__.npy"
        ]
        assert all(i.compress_type == zipfile.ZIP_STORED for i in infos)

    def test_compressed_frames_still_read(self, tmp_path, capsys):
        """Files written before frames were stored uncompressed:
        ``np.savez_compressed`` with the same ``__attrs__`` member."""
        fields = {"T": np.random.default_rng(1).normal(size=(4, 3, 4))}
        attrs = {"title": "old run", "sim_seconds": 30.0}
        old = tmp_path / "wrfout_d01_000006.npz"
        np.savez_compressed(
            old,
            **fields,
            __attrs__=np.frombuffer(json.dumps(attrs).encode(), dtype=np.uint8),
        )
        back, back_attrs = read_wrfout(old)
        np.testing.assert_array_equal(back["T"], fields["T"])
        assert back_attrs == attrs
        new = write_wrfout(tmp_path / "wrfout_d01_000012", back, back_attrs)
        assert main([str(old), str(new)]) == 0
        assert "bitwise identical" in capsys.readouterr().out


class TestDiffwrf:
    def test_identical_fields_report_16_digits(self):
        a = np.random.default_rng(0).normal(size=(5, 5))
        d = diff_field("T", a, a.copy())
        assert d.bitwise_identical
        assert d.digits == 16.0
        assert d.ndiff == 0

    def test_single_precision_perturbation_lands_in_float32_band(self):
        a = np.random.default_rng(0).normal(size=(50, 50)) * 300.0
        b = a.astype(np.float32).astype(np.float64)
        d = diff_field("T", a, b)
        assert 6.0 < d.digits < 9.0
        assert d.ndiff > 0

    def test_large_differences_few_digits(self):
        a = np.full((10, 10), 100.0)
        b = a * 1.05
        d = diff_field("QC", a, b)
        assert d.digits < 2.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            diff_field("T", np.zeros((2, 2)), np.zeros((3, 2)))

    def test_diffwrf_compares_shared_fields_only(self):
        a = {"T": np.zeros((2, 2)), "ONLY_A": np.zeros(2)}
        b = {"T": np.zeros((2, 2)), "ONLY_B": np.zeros(2)}
        diffs = diffwrf(a, b)
        assert [d.name for d in diffs] == ["T"]

    def test_report_renders_every_row(self):
        a = {"T": np.ones((3, 3)), "W": np.ones((3, 3))}
        b = {"T": np.ones((3, 3)) * 1.001, "W": np.ones((3, 3))}
        text = format_diff_report(diffwrf(a, b))
        assert "T" in text and "W" in text and "digits" in text

    def test_zero_reference_field(self):
        d = diff_field("Q", np.zeros((4, 4)), np.zeros((4, 4)))
        assert d.digits == 16.0
        d2 = diff_field("Q", np.zeros((4, 4)), np.full((4, 4), 1e-3))
        assert d2.digits == 0.0
