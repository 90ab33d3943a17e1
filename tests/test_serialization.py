import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from craft import serialization
from craft.adapter import CraftAdapter, InitConfig, init_adapter
from craft.errors import FormatError
from craft.serialization import (
    KIND_CRAFT_ADAPTER,
    KIND_TENSOR3,
    crc64,
    read_craft_adapter,
    read_file,
    read_matrix,
    read_tensor3,
    read_tucker_factors,
    write_craft_adapter,
    write_matrix,
    write_tensor3,
    write_tucker_factors,
)
from craft.tucker import TuckerFactors, TuckerRanks, hosvd, reconstruct

HEADER6 = 4 + 2 + 1 + 1 + 6 * 8


def sample_adapter(seed=0, dims=(3, 5, 4), ranks=(2, 3, 2)):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(dims)
    return init_adapter(w, TuckerRanks(*ranks), InitConfig(seed=seed))


def adapter_blocks(a):
    f = a.factors
    return [a.w_original, f.core, f.u1, f.u2, f.u3, a.j1, a.j2, a.j3]


def v1_adapter_bytes(a, r_block):
    """A format-version-1 kind-4 file: ``r_block`` sits after w_original."""
    blocks = adapter_blocks(a)
    blocks.insert(1, r_block)
    body = b"CRFT" + struct.pack("<HBB", 1, KIND_CRAFT_ADAPTER, 1)
    body += struct.pack("<6Q", *(a.dims + a.ranks.as_tuple()))
    body += b"".join(np.ascontiguousarray(b, dtype="<f8").tobytes() for b in blocks)
    return body + struct.pack("<Q", crc64(body))


def assert_same_adapter(x, y):
    assert x.dims == y.dims and x.ranks == y.ranks
    for p, q in zip(adapter_blocks(x), adapter_blocks(y)):
        assert p.tobytes() == q.tobytes()


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
    out = read_file(path)
    assert isinstance(out, np.ndarray) and out.shape == t.shape


def test_matrix_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(2)
    m = rng.standard_normal((5, 9))
    path = tmp_path / "m.crft"
    write_matrix(path, m)
    assert np.array_equal(read_matrix(path), m)
    out = read_file(path)
    assert isinstance(out, np.ndarray) and out.shape == m.shape


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
    assert isinstance(read_file(path), TuckerFactors)


def test_adapter_round_trip_bitwise(tmp_path):
    a = sample_adapter()
    path = tmp_path / "a.crft"
    write_craft_adapter(path, a)
    back = read_craft_adapter(path)
    assert_same_adapter(back, a)
    assert isinstance(read_file(path), CraftAdapter)


@pytest.mark.parametrize("version", [2, 1])
def test_read_adapter_blocks_share_one_read_only_buffer(tmp_path, version):
    a = sample_adapter()
    path = tmp_path / "a.crft"
    if version == 2:
        write_craft_adapter(path, a)
    else:
        path.write_bytes(v1_adapter_bytes(a, reconstruct(a.factors)))
    blocks = adapter_blocks(read_craft_adapter(path))
    assert not any(b.flags.writeable for b in blocks)
    # consecutive slices of one buffer: no per-block copies, and no skipped
    # version-1 block kept alive between them
    for prev, nxt in zip(blocks, blocks[1:]):
        assert nxt.ctypes.data == prev.ctypes.data + prev.nbytes


def test_read_tensor_and_matrix_are_writable(tmp_path):
    write_tensor3(tmp_path / "t.crft", np.ones((2, 3, 4)))
    write_matrix(tmp_path / "m.crft", np.ones((3, 4)))
    for arr in (read_tensor3(tmp_path / "t.crft"), read_matrix(tmp_path / "m.crft")):
        arr[...] = 5.0
        assert (arr == 5.0).all()


def test_adapter_file_holds_no_initial_reconstruction(tmp_path):
    a = sample_adapter()
    path = tmp_path / "a.crft"
    write_craft_adapter(path, a)
    scalars = sum(b.size for b in adapter_blocks(a))
    assert path.stat().st_size == HEADER6 + 8 * scalars + 8
    assert path.read_bytes()[4:6] == struct.pack("<H", 2)


def test_version_1_adapter_file_still_reads(tmp_path):
    a = sample_adapter()
    path = tmp_path / "v1.crft"
    path.write_bytes(v1_adapter_bytes(a, reconstruct(a.factors)))
    assert_same_adapter(read_craft_adapter(path), a)
    # a version-1 layout under a version-2 header is a size error
    blob = bytearray(path.read_bytes())
    blob[4:6] = struct.pack("<H", 2)
    body = bytes(blob[:-8])
    path.write_bytes(body + struct.pack("<Q", crc64(body)))
    with pytest.raises(FormatError, match="payload size"):
        read_file(path)


@given(dims=st.tuples(*[st.integers(1, 4)] * 3), data=st.data())
@settings(max_examples=30, deadline=None)
def test_version_1_adapter_reads_back_equal(tmp_path_factory, dims, data):
    ranks = tuple(data.draw(st.integers(1, d)) for d in dims)
    a = sample_adapter(data.draw(st.integers(0, 2**31)), dims, ranks)
    path = tmp_path_factory.mktemp("v1") / "a.crft"
    path.write_bytes(v1_adapter_bytes(a, reconstruct(a.factors)))
    assert_same_adapter(read_file(path), a)


@given(kind=st.sampled_from(["tensor3", "matrix", "factors", "adapter"]),
       dims=st.tuples(*[st.integers(1, 4)] * 3), data=st.data())
@settings(max_examples=60, deadline=None)
def test_write_read_is_bit_exact_for_every_kind(tmp_path_factory, kind, dims, data):
    seed = data.draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    path = tmp_path_factory.mktemp("rt") / "x.crft"
    if kind in ("tensor3", "matrix"):
        value = rng.standard_normal(dims if kind == "tensor3" else dims[:2])
        (write_tensor3 if kind == "tensor3" else write_matrix)(path, value)
        back = read_file(path)
        assert back.shape == value.shape and back.tobytes() == value.tobytes()
        return
    ranks = TuckerRanks(*(data.draw(st.integers(1, d)) for d in dims))
    if kind == "factors":
        f = hosvd(rng.standard_normal(dims), ranks)
        write_tucker_factors(path, f)
        back = read_file(path)
        assert back.ranks == f.ranks
        for x, y in zip((back.core,) + back.factor_matrices, (f.core,) + f.factor_matrices):
            assert x.tobytes() == y.tobytes()
        return
    a = sample_adapter(seed, dims, ranks.as_tuple())
    write_craft_adapter(path, a)
    assert_same_adapter(read_file(path), a)


_SMALL_ADAPTER = sample_adapter(3, (2, 3, 2), (1, 2, 1))


@given(mask=st.integers(1, 255))
@settings(max_examples=20, deadline=None)
def test_every_single_byte_flip_of_an_adapter_file_is_detected(tmp_path_factory, mask):
    path = tmp_path_factory.mktemp("flip") / "a.crft"
    write_craft_adapter(path, _SMALL_ADAPTER)
    blob = path.read_bytes()
    for pos in range(len(blob)):
        corrupted = bytearray(blob)
        corrupted[pos] ^= mask
        path.write_bytes(bytes(corrupted))
        with pytest.raises(FormatError):
            read_file(path)


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


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_files_follow_the_umask(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        write_tensor3(tmp_path / "t.crft", np.ones((2, 2, 2)))
    finally:
        os.umask(old)
    assert os.stat(tmp_path / "t.crft").st_mode & 0o777 == mode


def test_temp_file_is_synced_before_the_rename(tmp_path, monkeypatch):
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append(("fsync", os.fstat(fd).st_ino))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", os.stat(src).st_ino))
        real_replace(src, dst)

    monkeypatch.setattr(serialization.os, "fsync", fsync)
    monkeypatch.setattr(serialization.os, "replace", replace)
    path = tmp_path / "t.crft"
    write_tensor3(path, np.ones((2, 2, 2)))
    inode = path.stat().st_ino
    assert events == [("fsync", inode), ("replace", inode)]


def test_write_leaves_no_temp_files(tmp_path):
    rng = np.random.default_rng(8)
    write_tensor3(tmp_path / "t.crft", rng.standard_normal((2, 2, 2)))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.crft"]
