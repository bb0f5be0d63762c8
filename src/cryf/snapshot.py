"""Binary field snapshots.

Little-endian layout: magic 'CRYF', u32 version (currently 1), u32 N_x, N_y,
N_z, f64 t, f64 n (the CR dimension, always 1.0), then N_x*N_y*N_z f64
values in C order (z fastest).  Round trips are bit-exact.
"""

from __future__ import annotations

import struct

import numpy as np

from .conformal import ConformalState
from .errors import ConfigurationError, SnapshotFormatError
from .geometry import GridSpec, build_nilmanifold

MAGIC = b"CRYF"
VERSION = 1
_HEADER = struct.Struct("<4sIIIIdd")


def write_snapshot(path, state: ConformalState) -> None:
    spec = state.geom.spec
    header = _HEADER.pack(MAGIC, VERSION, spec.nx, spec.ny, spec.nz,
                          float(state.t), 1.0)
    payload = np.ascontiguousarray(state.u, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_snapshot(path) -> ConformalState:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise SnapshotFormatError(
            f"truncated snapshot: {len(blob)} bytes, header needs {_HEADER.size}"
        )
    magic, version, nx, ny, nz, t, n = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise SnapshotFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise SnapshotFormatError(
            f"unsupported snapshot version {version}, this build reads version {VERSION}"
        )
    try:
        spec = GridSpec(int(nx), int(ny), int(nz))
    except ConfigurationError as exc:
        raise SnapshotFormatError(f"bad grid sizes {nx}x{ny}x{nz}: {exc}") from exc
    expected = _HEADER.size + 8 * spec.npoints
    if len(blob) != expected:
        raise SnapshotFormatError(
            f"payload size mismatch: file has {len(blob)} bytes, "
            f"{spec.nx}x{spec.ny}x{spec.nz} grid needs {expected}"
        )
    geom = build_nilmanifold(spec)
    if n != 1.0:
        raise SnapshotFormatError(
            f"snapshot written for CR dimension n={n}, this geometry has n=1"
        )
    u = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size).astype(float)
    return ConformalState(geom, u.reshape(spec.shape), float(t))
