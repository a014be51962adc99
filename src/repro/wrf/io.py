"""wrfout-style history files.

Real WRF writes netCDF through its I/O API; offline we serialize the
same field dictionary as an uncompressed ``.npz`` (zip members
``ZIP_STORED``) with a small attribute header. Classic netCDF, one of
WRF's history formats, does not compress either, and zlib took about
90 % of a frame's write time. :func:`read_wrfout` reads compressed
files as well. ``diffwrf`` (Sec. VII-B) compares two of these files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError


def write_wrfout(
    path: str | Path,
    fields: dict[str, np.ndarray],
    attrs: dict[str, object] | None = None,
) -> Path:
    """Write one history frame.

    ``attrs`` (title, simulated time, grid spacing, ...) is stored as a
    JSON side-array so the file stays a single artifact.
    """
    path = Path(path)
    if not fields:
        raise ConfigurationError("refusing to write an empty wrfout")
    payload = dict(fields)
    payload["__attrs__"] = np.frombuffer(
        json.dumps(attrs or {}).encode(), dtype=np.uint8
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **payload)
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def read_wrfout(path: str | Path) -> tuple[dict[str, np.ndarray], dict[str, object]]:
    """Read a history frame back as ``(fields, attrs)``."""
    path = Path(path)
    if not path.exists() and path.with_suffix(path.suffix + ".npz").exists():
        path = path.with_suffix(path.suffix + ".npz")
    with np.load(path) as data:
        attrs: dict[str, object] = {}
        fields: dict[str, np.ndarray] = {}
        for name in data.files:
            if name == "__attrs__":
                attrs = json.loads(bytes(data[name]).decode())
            else:
                fields[name] = data[name]
    return fields, attrs
