import struct

import numpy as np
import pytest

from cryf.errors import SnapshotFormatError
from cryf.snapshot import MAGIC, read_snapshot, write_snapshot

from conftest import random_state


@pytest.fixture
def snap_path(tmp_path):
    return tmp_path / "state.cryf"


def test_roundtrip_bit_exact(geom448, snap_path):
    state = random_state(geom448, 5)
    state = type(state)(geom448, state.u, t=0.12345678901234567)
    write_snapshot(snap_path, state)
    back = read_snapshot(snap_path)
    assert np.array_equal(back.u, state.u)
    assert back.t == state.t
    assert back.geom.spec == geom448.spec


def test_truncated_file_rejected(geom448, snap_path):
    write_snapshot(snap_path, random_state(geom448, 6))
    blob = snap_path.read_bytes()
    snap_path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(SnapshotFormatError, match="size mismatch"):
        read_snapshot(snap_path)
    snap_path.write_bytes(blob[:10])
    with pytest.raises(SnapshotFormatError, match="truncated"):
        read_snapshot(snap_path)


def test_trailing_garbage_rejected(geom448, snap_path):
    write_snapshot(snap_path, random_state(geom448, 7))
    snap_path.write_bytes(snap_path.read_bytes() + b"\x00" * 8)
    with pytest.raises(SnapshotFormatError, match="size mismatch"):
        read_snapshot(snap_path)


def test_version_mismatch_names_both(geom448, snap_path):
    write_snapshot(snap_path, random_state(geom448, 8))
    blob = snap_path.read_bytes()
    snap_path.write_bytes(blob[:4] + (2).to_bytes(4, "little") + blob[8:])
    with pytest.raises(SnapshotFormatError, match=r"version 2.*version 1"):
        read_snapshot(snap_path)


def test_other_cr_dimension_rejected(geom448, snap_path):
    write_snapshot(snap_path, random_state(geom448, 10))
    blob = bytearray(snap_path.read_bytes())
    n_offset = struct.calcsize("<4sIIIId")
    assert struct.unpack_from("<d", blob, n_offset) == (1.0,)
    struct.pack_into("<d", blob, n_offset, 2.0)
    snap_path.write_bytes(bytes(blob))
    with pytest.raises(SnapshotFormatError, match=r"CR dimension n=2\.0"):
        read_snapshot(snap_path)


def test_bad_magic(geom448, snap_path):
    write_snapshot(snap_path, random_state(geom448, 9))
    blob = snap_path.read_bytes()
    snap_path.write_bytes(b"NOPE" + blob[4:])
    with pytest.raises(SnapshotFormatError, match="magic"):
        read_snapshot(snap_path)
    assert MAGIC == b"CRYF"


@pytest.mark.parametrize("sizes,reason", [((2, 4, 4), "N_x must be >= 4"),
                                          ((4, 4, 6), "N_y must divide N_z")])
def test_header_grid_sizes_rejected(geom448, snap_path, sizes, reason):
    write_snapshot(snap_path, random_state(geom448, 11))
    blob = bytearray(snap_path.read_bytes())
    struct.pack_into("<III", blob, struct.calcsize("<4sI"), *sizes)
    snap_path.write_bytes(bytes(blob))
    with pytest.raises(SnapshotFormatError, match=reason):
        read_snapshot(snap_path)


def test_nonfinite_time_rejected(geom448, snap_path):
    write_snapshot(snap_path, random_state(geom448, 12))
    blob = bytearray(snap_path.read_bytes())
    struct.pack_into("<d", blob, struct.calcsize("<4sIIII"), float("nan"))
    snap_path.write_bytes(bytes(blob))
    with pytest.raises(SnapshotFormatError, match="t=nan is not finite"):
        read_snapshot(snap_path)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, 0.0])
def test_payload_not_a_positive_field_rejected(geom448, snap_path, value):
    write_snapshot(snap_path, random_state(geom448, 13))
    blob = bytearray(snap_path.read_bytes())
    struct.pack_into("<d", blob, len(blob) - 8 * 5, value)
    snap_path.write_bytes(bytes(blob))
    with pytest.raises(SnapshotFormatError, match="payload is not a finite positive field"):
        read_snapshot(snap_path)
