import hashlib
import os
import re
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from craft import serialization
from craft.adapter import CraftAdapter, InitConfig, init_adapter, sgd_step
from craft.errors import FormatError
from craft.serialization import (
    FORMAT_VERSION,
    KIND_CRAFT_ADAPTER,
    KIND_TENSOR3,
    KIND_TUCKER_FACTORS,
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
from crc_reference import reference_crc64

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


def test_import_without_the_lzma_extension_names_it():
    src = str(Path(serialization.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    block = "import sys; sys.modules['_lzma'] = None; "
    assert subprocess.run([sys.executable, "-c", block + "import craft"], env=env).returncode == 0
    proc = subprocess.run([sys.executable, "-c", block + "import craft.serialization"], env=env,
                          capture_output=True, text=True)
    assert proc.returncode != 0
    assert "ImportError: craft.serialization needs lzma_crc64" in proc.stderr
    assert "_lzma" in proc.stderr.splitlines()[-1]


def assert_crc64_matches_reference(length, seed):
    data = np.random.default_rng(seed).integers(0, 256, length + 3, dtype=np.uint8).tobytes()
    expected = reference_crc64(data[1:-2])
    assert crc64(data[1:-2]) == expected
    assert crc64(bytearray(data[1:-2])) == expected
    # _parse checksums a slice of a memoryview over the whole file
    assert crc64(memoryview(data)[1:-2]) == expected


# n = k * 2**j + delta.  k * 2**j gives whole 8-byte words (j >= 3), and for
# k a power of two the power-of-two lengths; delta puts one byte either side
# of those, and 7-9 bytes short, where a word loop leaves a tail of bytes.
# Lengths 0-7 are below one word.
_LANE_BOUNDARIES = st.builds(
    lambda k, j, delta: max(0, k * 2**j + delta),
    st.integers(1, 4095), st.integers(0, 5), st.sampled_from([-9, -8, -7, -1, 0, 1]))


@given(length=st.one_of(st.integers(0, 7), st.integers(8, 600), _LANE_BOUNDARIES),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_crc64_matches_the_byte_loop(length, seed):
    assert_crc64_matches_reference(length, seed)


@pytest.mark.parametrize("length", [
    4096 * 8 - 8,
    4096 * 8 - 7,
    4096 * 8 - 1,
    4096 * 8,
    4096 * 8 + 1,
    4096 * 8 * 2 - 1,
    4096 * 8 * 2,
    4096 * 8 * 2 + 1,
    4096 * 64,
    4096 * 64 + 1,
    1_688_120,          # the CRC input of a 12x128x128 adapter file, ranks (4, 32, 32)
    4096 * 8 * 52 - 1,
    4096 * 8 * 52 + 1,
    2**21 - 1,
])
def test_crc64_matches_the_byte_loop_on_large_inputs(length):
    assert_crc64_matches_reference(length, seed=length)


@pytest.mark.parametrize("length", [8 * 2**j + d for j in range(13) for d in (-1, 0, 1)])
def test_crc64_matches_the_byte_loop_where_the_lane_count_doubles(length):
    # n // 8 = 2**j words, and one byte either side
    assert_crc64_matches_reference(length, seed=length)


@st.composite
def _pieces(draw):
    data = draw(st.binary(max_size=2000))
    cuts = sorted(draw(st.lists(st.integers(0, len(data)), max_size=6)))
    return [data[a:b] for a, b in zip([0] + cuts, cuts + [len(data)])]


@given(pieces=_pieces())
@example(pieces=[b"", b"\x01" * (8 * 4096 - 5), b"", bytes(range(256)) * 130, b"x"])
@settings(max_examples=150, deadline=None)
def test_crc64_of_pieces_is_crc64_of_the_joined_input(pieces):
    # each piece continues the CRC of the pieces before it
    joined = b"".join(pieces)
    expected = reference_crc64(joined)
    assert crc64(*pieces) == expected
    assert crc64(*(memoryview(p) for p in pieces)) == expected
    assert crc64(joined) == expected


@given(length=st.integers(2**20, 2_100_000), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=3, deadline=None)
def test_crc64_matches_the_byte_loop_on_random_large_lengths(length, seed):
    assert_crc64_matches_reference(length, seed)


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


def cold_adapter_bytes(a):
    """A kind-4 file built from fresh writable copies of the adapter's blocks."""
    blocks = [np.array(b) for b in adapter_blocks(a)]
    header = b"CRFT" + struct.pack("<HBB6Q", 2, KIND_CRAFT_ADAPTER, 1, *(a.dims + a.ranks.as_tuple()))
    checksum = struct.pack("<Q", crc64(header, *blocks))
    return header + b"".join(b.tobytes() for b in blocks) + checksum


@given(dims=st.tuples(*[st.integers(1, 4)] * 3), steps=st.integers(1, 4), data=st.data())
@settings(max_examples=30, deadline=None)
def test_every_write_over_update_steps_equals_the_file_from_fresh_copies(
        tmp_path_factory, dims, steps, data):
    ranks = tuple(data.draw(st.integers(1, d)) for d in dims)
    seed = data.draw(st.integers(0, 2**31))
    a = sample_adapter(seed, dims, ranks)
    rng = np.random.default_rng(seed)
    path = tmp_path_factory.mktemp("warm") / "a.crft"
    for _ in range(steps + 1):
        write_craft_adapter(path, a)
        assert path.read_bytes() == cold_adapter_bytes(a)
        assert_same_adapter(read_craft_adapter(path), a)
        a = sgd_step(a, [rng.standard_normal(j.shape) for j in a.j_matrices], 0.1)


def test_a_write_after_frozen_memory_changes_in_place_reads_back(tmp_path):
    a = sample_adapter(4)
    path = tmp_path / "a.crft"
    write_craft_adapter(path, a)
    for block in adapter_blocks(a)[:5]:
        block.setflags(write=True)
        np.negative(block, out=block)  # keeps the factors orthonormal
        block.setflags(write=False)
    write_craft_adapter(path, a)
    assert path.read_bytes() == cold_adapter_bytes(a)
    assert_same_adapter(read_craft_adapter(path), a)


def test_crc64_of_a_writable_array_follows_its_contents():
    arr = np.arange(64.0)
    first = crc64(arr)
    arr[5] = -1.0
    assert crc64(arr) == reference_crc64(arr.tobytes()) != first


def _read_only(arr):
    arr.setflags(write=False)
    return arr


@pytest.mark.parametrize("make", [
    lambda mem: _read_only(np.frombuffer(mem, dtype="<f8")[1:]),
    lambda mem: np.frombuffer(memoryview(mem).toreadonly(), dtype="<f8"),
    lambda mem: _read_only(np.frombuffer(mem, dtype="<f8")),
], ids=["view-of-writable-array", "read-only-memoryview-of-bytearray", "read-only-array-over-bytearray"])
def test_crc64_of_a_read_only_view_follows_the_memory_under_it(make):
    memory = bytearray(np.arange(32.0).tobytes())
    piece = make(memory)
    assert not piece.flags.writeable
    first = crc64(piece)
    memory[100] ^= 0xFF
    assert crc64(piece) == reference_crc64(piece.tobytes()) != first


def test_concurrent_crc64_calls_stay_correct():
    shared = sample_adapter(9)
    expected = reference_crc64(b"".join(b.tobytes() for b in adapter_blocks(shared)))
    errors = []

    def work(seed):
        try:
            for k in range(20):
                own = adapter_blocks(sample_adapter(100 * seed + k, (2, 3, 2), (1, 2, 1)))
                if crc64(*own) != reference_crc64(b"".join(b.tobytes() for b in own)):
                    errors.append(f"thread {seed}: wrong CRC of a fresh adapter")
                if crc64(*adapter_blocks(shared)) != expected:
                    errors.append(f"thread {seed}: wrong CRC of the shared adapter")
        except Exception as err:
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def test_rewrite_is_byte_identical(tmp_path):
    a = sample_adapter()
    p1 = tmp_path / "a1.crft"
    p2 = tmp_path / "a2.crft"
    write_craft_adapter(p1, a)
    write_craft_adapter(p2, a)
    assert p1.read_bytes() == p2.read_bytes()


def signed_columns(rng, rows, cols):
    """Orthonormal columns without rounding: distinct unit vectors, random signs."""
    u = np.zeros((rows, cols))
    u[rng.permutation(rows)[:cols], np.arange(cols)] = rng.choice([-1.0, 1.0], cols)
    return u


# sha256 of each file as written while crc64 still ran one byte at a time.  The
# values come from seeded draws and exact products only, not from a solver, so
# the bytes do not depend on BLAS.
GOLDEN_SHA256 = {
    "adapter": "ec656ba438841770436c222a1942532de6c2e40ad8297cec800eddd820abc107",
    "tensor3": "80054d06e5026e72f583ffb349bc3d4ac721d520bdfa2c2bedf53adfdfa9343b",
}


def test_written_files_match_pinned_digests(tmp_path):
    rng = np.random.default_rng(8)
    dims, ranks = (12, 128, 128), (4, 32, 32)
    w = rng.standard_normal(dims)
    core = rng.standard_normal(ranks)
    us = [signed_columns(rng, d, r) for d, r in zip(dims, ranks)]
    js = [np.eye(r) + 0.05 * rng.standard_normal((r, r)) for r in ranks]
    a = CraftAdapter(w, TuckerFactors(core, *us, TuckerRanks(*ranks)), *js)
    write_craft_adapter(tmp_path / "adapter.crft", a)
    write_tensor3(tmp_path / "tensor3.crft", rng.standard_normal((6, 50, 70)))
    for name, digest in GOLDEN_SHA256.items():
        assert hashlib.sha256((tmp_path / f"{name}.crft").read_bytes()).hexdigest() == digest


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


@pytest.mark.parametrize("kind,extents,payload,message", [
    (KIND_TUCKER_FACTORS, (2, 2), b"", "truncated header"),
    (KIND_TENSOR3, (1, 1, 1), bytes(12), "payload length 12 not a multiple of 8"),
    (KIND_TUCKER_FACTORS, (2, 2, 2, 3, 1, 1), bytes(8 * 13),
     r"ranks \(3, 1, 1\) exceed dims \(2, 2, 2\)"),
], ids=["header-cut-in-extents", "payload-not-whole-floats", "ranks-exceed-dims"])
def test_malformed_file_under_a_valid_checksum_is_rejected(tmp_path, kind, extents, payload,
                                                           message):
    body = b"CRFT" + struct.pack(f"<HBB{len(extents)}Q", FORMAT_VERSION, kind, 1, *extents)
    body += payload
    path = tmp_path / "x.crft"
    path.write_bytes(body + struct.pack("<Q", crc64(body)))
    with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}: {message}"):
        read_file(path)


@pytest.mark.parametrize("write,value", [
    (write_matrix, np.ones((2, 3))),
    (write_tucker_factors, sample_adapter().factors),
    (write_craft_adapter, sample_adapter()),
], ids=["matrix", "factors", "adapter"])
def test_non_finite_blocks_rejected_for_every_kind(tmp_path, write, value):
    path = tmp_path / "x.crft"
    write(path, value)
    # the last scalar becomes a nan, under a valid checksum
    body = path.read_bytes()[:-16] + struct.pack("<d", np.nan)
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


def test_write_leaves_the_process_umask_alone(tmp_path, monkeypatch):
    def umask(mask):
        raise AssertionError("os.umask changes the umask of every thread")

    monkeypatch.setattr(serialization.os, "umask", umask)
    write_tensor3(tmp_path / "t.crft", np.ones((2, 2, 2)))
    assert read_tensor3(tmp_path / "t.crft").shape == (2, 2, 2)


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
