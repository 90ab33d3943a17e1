import os
import struct

import numpy as np
import pytest

from craft.adapter import InitConfig, init_adapter
from craft.errors import FormatError
from craft.serialization import (
    KIND_CRAFT_ADAPTER,
    KIND_MATRIX,
    KIND_TENSOR3,
    KIND_TUCKER_FACTORS,
    crc64,
    read_craft_adapter,
    read_file,
    read_kind,
    read_matrix,
    read_tensor3,
    read_tucker_factors,
    write_craft_adapter,
    write_matrix,
    write_tensor3,
    write_tucker_factors,
)
from craft.tucker import TuckerRanks, hosvd


def sample_adapter(seed=0):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((3, 5, 4))
    return init_adapter(w, TuckerRanks(2, 3, 2), InitConfig(seed=seed))


def test_crc64_check_vector():
    assert crc64(b"123456789") == 0x995DC9BBDF1939FA
    assert crc64(b"") == 0


def test_tensor3_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(1)
    t = rng.standard_normal((4, 3, 7))
    path = tmp_path / "t.crft"
    write_tensor3(path, t)
    back = read_tensor3(path)
    assert np.array_equal(back, t)
    assert read_kind(path) == KIND_TENSOR3


def test_matrix_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(2)
    m = rng.standard_normal((5, 9))
    path = tmp_path / "m.crft"
    write_matrix(path, m)
    assert np.array_equal(read_matrix(path), m)
    assert read_kind(path) == KIND_MATRIX


def test_tucker_factors_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(3)
    f = hosvd(rng.standard_normal((4, 6, 5)), TuckerRanks(2, 3, 3))
    path = tmp_path / "f.crft"
    write_tucker_factors(path, f)
    back = read_tucker_factors(path)
    assert np.array_equal(back.core, f.core)
    for a, b in zip(back.factor_matrices, f.factor_matrices):
        assert np.array_equal(a, b)
    assert back.ranks == f.ranks
    assert read_kind(path) == KIND_TUCKER_FACTORS


def test_adapter_round_trip_bitwise(tmp_path):
    a = sample_adapter()
    path = tmp_path / "a.crft"
    write_craft_adapter(path, a)
    back = read_craft_adapter(path)
    assert np.array_equal(back.w_original, a.w_original)
    assert np.array_equal(back.r_initial, a.r_initial)
    assert np.array_equal(back.factors.core, a.factors.core)
    for x, y in zip(back.j_matrices, a.j_matrices):
        assert np.array_equal(x, y)
    assert read_kind(path) == KIND_CRAFT_ADAPTER


def test_rewrite_is_byte_identical(tmp_path):
    a = sample_adapter()
    p1 = tmp_path / "a1.crft"
    p2 = tmp_path / "a2.crft"
    write_craft_adapter(p1, a)
    write_craft_adapter(p2, a)
    assert p1.read_bytes() == p2.read_bytes()


def test_single_byte_corruption_detected(tmp_path):
    rng = np.random.default_rng(4)
    path = tmp_path / "t.crft"
    write_tensor3(path, rng.standard_normal((3, 3, 3)))
    blob = bytearray(path.read_bytes())
    header_len = 4 + 2 + 1 + 1 + 3 * 8
    # every payload byte plus a sample of header and checksum bytes
    positions = list(range(header_len, len(blob) - 8, 1)) + [0, 5, 6, 7, len(blob) - 1]
    for pos in positions:
        corrupted = bytearray(blob)
        corrupted[pos] ^= 0x01
        bad = tmp_path / "bad.crft"
        bad.write_bytes(bytes(corrupted))
        with pytest.raises(FormatError):
            read_file(bad)


def test_cross_kind_read_fails_cleanly(tmp_path):
    rng = np.random.default_rng(5)
    path = tmp_path / "m.crft"
    write_matrix(path, rng.standard_normal((4, 4)))
    with pytest.raises(FormatError, match="expected kind 3"):
        read_tucker_factors(path)
    with pytest.raises(FormatError, match="expected kind 1"):
        read_tensor3(path)


def test_bad_magic_and_version_and_kind(tmp_path):
    rng = np.random.default_rng(6)
    path = tmp_path / "t.crft"
    write_tensor3(path, rng.standard_normal((2, 2, 2)))
    blob = bytearray(path.read_bytes())

    wrong_magic = bytearray(blob)
    wrong_magic[:4] = b"NOPE"
    p = tmp_path / "x.crft"
    p.write_bytes(bytes(wrong_magic))
    with pytest.raises(FormatError, match="magic"):
        read_file(p)

    wrong_version = bytearray(blob)
    wrong_version[4:6] = struct.pack("<H", 9)
    body = bytes(wrong_version[:-8])
    p.write_bytes(body + struct.pack("<Q", crc64(body)))
    with pytest.raises(FormatError, match="version"):
        read_file(p)

    wrong_kind = bytearray(blob)
    wrong_kind[6] = 77
    body = bytes(wrong_kind[:-8])
    p.write_bytes(body + struct.pack("<Q", crc64(body)))
    with pytest.raises(FormatError, match="kind"):
        read_file(p)


def test_truncated_file_rejected(tmp_path):
    rng = np.random.default_rng(7)
    path = tmp_path / "t.crft"
    write_tensor3(path, rng.standard_normal((2, 2, 2)))
    blob = path.read_bytes()
    p = tmp_path / "short.crft"
    p.write_bytes(blob[:10])
    with pytest.raises(FormatError):
        read_file(p)


def test_non_finite_payload_rejected(tmp_path):
    # craft a structurally valid file whose payload holds an inf
    values = np.zeros(8)
    values[3] = np.inf
    body = b"CRFT" + struct.pack("<HBB", 1, KIND_TENSOR3, 1)
    body += struct.pack("<3Q", 2, 2, 2)
    body += np.ascontiguousarray(values, dtype="<f8").tobytes()
    path = tmp_path / "inf.crft"
    path.write_bytes(body + struct.pack("<Q", crc64(body)))
    with pytest.raises(FormatError, match="non-finite"):
        read_file(path)


def test_adapter_with_inconsistent_reconstruction_rejected(tmp_path):
    a = sample_adapter()
    path = tmp_path / "a.crft"
    write_craft_adapter(path, a)
    blob = bytearray(path.read_bytes())
    # overwrite the first r_initial scalar (second payload block) and re-seal
    header_len = 4 + 2 + 1 + 1 + 6 * 8
    w_bytes = a.w_original.size * 8
    offset = header_len + w_bytes
    struct.pack_into("<d", blob, offset, 1e6)
    body = bytes(blob[:-8])
    path.write_bytes(body + struct.pack("<Q", crc64(body)))
    with pytest.raises(FormatError, match="inconsistent"):
        read_file(path)


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_files_follow_the_umask(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        write_tensor3(tmp_path / "t.crft", np.ones((2, 2, 2)))
    finally:
        os.umask(old)
    assert os.stat(tmp_path / "t.crft").st_mode & 0o777 == mode


def test_write_leaves_no_temp_files(tmp_path):
    rng = np.random.default_rng(8)
    write_tensor3(tmp_path / "t.crft", rng.standard_normal((2, 2, 2)))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.crft"]
