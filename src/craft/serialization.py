"""Bit-exact binary serialization for tensors, matrices, factor bundles and adapters.

File layout (all integers little-endian; full reference in docs/FORMATS.md)::

    magic          4 bytes  b"CRFT"
    format_version u16      2 on write; 1 and 2 are read
    payload_kind   u8       1=Tensor3  2=Matrix  3=TuckerFactors  4=CraftAdapter
    dtype          u8       1=float64
    extents        u64 x k  k fixed by kind (3, 2, 6, 6)
    payload        f64 x N  raw little-endian scalars, row-major per block
    checksum       u64      CRC-64 of every preceding byte

For kinds 3 and 4 the extents are ``(I1, I2, I3, r1, r2, r3)``.  Payload
block order: TuckerFactors stores core, u1, u2, u3; CraftAdapter stores
w_original, core, u1, u2, u3, j1, j2, j3.  Version 1 differs only in kind 4,
which held a dense ``I1 x I2 x I3`` initial reconstruction after w_original;
the reader skips that block, since the adapter derives it from the factors.

The checksum is CRC-64/XZ (polynomial 0x42F0E1EBA9EA3693, reflected,
init and xor-out all-ones).  Writes go to a temporary file in the target
directory, which is flushed to disk with ``fsync`` and then renamed into
place, so a crash or power loss leaves either the old file or the new one.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile

import numpy as np

from .errors import FormatError
from .tucker import TuckerFactors, TuckerRanks
from .adapter import CraftAdapter

MAGIC = b"CRFT"
FORMAT_VERSION = 2
KIND_TENSOR3 = 1
KIND_MATRIX = 2
KIND_TUCKER_FACTORS = 3
KIND_CRAFT_ADAPTER = 4
DTYPE_FLOAT64 = 1

_KIND_NAMES = {
    KIND_TENSOR3: "Tensor3",
    KIND_MATRIX: "Matrix",
    KIND_TUCKER_FACTORS: "TuckerFactors",
    KIND_CRAFT_ADAPTER: "CraftAdapter",
}
_EXTENT_COUNT = {
    KIND_TENSOR3: 3,
    KIND_MATRIX: 2,
    KIND_TUCKER_FACTORS: 6,
    KIND_CRAFT_ADAPTER: 6,
}

_CRC64_POLY_REFLECTED = 0xC96C5795D7870F42


def _build_crc_table() -> tuple:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ _CRC64_POLY_REFLECTED
            else:
                crc >>= 1
        table.append(crc)
    return tuple(table)


_CRC_TABLE = _build_crc_table()


def crc64(data: bytes) -> int:
    """CRC-64/XZ of ``data``."""
    crc = 0xFFFFFFFFFFFFFFFF
    for byte in data:
        crc = _CRC_TABLE[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFFFFFFFFFF


def _float_block(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def _header(kind: int, extents) -> bytes:
    head = MAGIC + struct.pack("<HBB", FORMAT_VERSION, kind, DTYPE_FLOAT64)
    return head + struct.pack(f"<{len(extents)}Q", *extents)


def atomic_write(path, blob: bytes) -> None:
    """Write bytes via a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        # mkstemp creates the file 0600; give it the mode open() would have
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write(path, kind: int, extents, blocks) -> None:
    body = _header(kind, extents) + b"".join(_float_block(b) for b in blocks)
    atomic_write(path, body + struct.pack("<Q", crc64(body)))


def write_tensor3(path, t) -> None:
    from .tensor import tensor3

    arr = tensor3(t)
    _write(path, KIND_TENSOR3, arr.shape, [arr])


def write_matrix(path, m) -> None:
    from .tensor import matrix

    arr = matrix(m)
    _write(path, KIND_MATRIX, arr.shape, [arr])


def write_tucker_factors(path, f: TuckerFactors) -> None:
    extents = f.dims + f.ranks.as_tuple()
    _write(path, KIND_TUCKER_FACTORS, extents, [f.core, f.u1, f.u2, f.u3])


def write_craft_adapter(path, a: CraftAdapter) -> None:
    extents = a.dims + a.ranks.as_tuple()
    f = a.factors
    _write(path, KIND_CRAFT_ADAPTER, extents,
           [a.w_original, f.core, f.u1, f.u2, f.u3, a.j1, a.j2, a.j3])


def _parse(path):
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as err:
        raise FormatError(f"cannot read {path}: {err}") from err
    if len(blob) < len(MAGIC) + 4 + 8:
        raise FormatError(f"{path}: file too short to be a tensor file")
    if blob[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:4]!r}")
    version, kind, dtype = struct.unpack_from("<HBB", blob, 4)
    if not 1 <= version <= FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported format version {version}")
    if kind not in _EXTENT_COUNT:
        raise FormatError(f"{path}: unknown payload kind {kind}")
    if dtype != DTYPE_FLOAT64:
        raise FormatError(f"{path}: unsupported dtype code {dtype}")

    n_extents = _EXTENT_COUNT[kind]
    offset = 8
    if len(blob) < offset + 8 * n_extents + 8:
        raise FormatError(f"{path}: truncated header")
    extents = struct.unpack_from(f"<{n_extents}Q", blob, offset)
    offset += 8 * n_extents
    if any(e < 1 for e in extents):
        raise FormatError(f"{path}: extents must be >= 1, got {extents}")

    stored_crc = struct.unpack_from("<Q", blob, len(blob) - 8)[0]
    if crc64(blob[:-8]) != stored_crc:
        raise FormatError(f"{path}: checksum mismatch, file corrupted")

    payload = blob[offset:-8]
    if len(payload) % 8 != 0:
        raise FormatError(f"{path}: payload length {len(payload)} not a multiple of 8")
    values = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    if not np.isfinite(values).all():
        raise FormatError(f"{path}: payload contains non-finite values")
    return version, kind, extents, values


def _take(values: np.ndarray, cursor: int, shape) -> tuple[np.ndarray, int]:
    count = math.prod(shape)
    return values[cursor:cursor + count].reshape(shape), cursor + count


def _assemble(path, version, kind, extents, values):
    if kind in (KIND_TENSOR3, KIND_MATRIX):
        expected = math.prod(extents)
        if values.size != expected:
            raise FormatError(f"{path}: payload size {values.size} != extents product {expected}")
        return values.reshape(extents)

    dims, ranks_t = extents[:3], extents[3:]
    if any(r > i for r, i in zip(ranks_t, dims)):
        raise FormatError(f"{path}: ranks {ranks_t} exceed dims {dims}")
    r1, r2, r3 = ranks_t
    blocks = [(r1, r2, r3), (dims[0], r1), (dims[1], r2), (dims[2], r3)]
    if kind == KIND_CRAFT_ADAPTER:
        # version 1 stored the initial reconstruction after w_original
        w_blocks = [dims, dims] if version == 1 else [dims]
        blocks = w_blocks + blocks + [(r1, r1), (r2, r2), (r3, r3)]
    expected = sum(math.prod(s) for s in blocks)
    if values.size != expected:
        raise FormatError(f"{path}: payload size {values.size} != expected {expected}")

    cursor = 0
    arrays = []
    for shape in blocks:
        arr, cursor = _take(values, cursor, shape)
        arrays.append(arr)
    try:
        if kind == KIND_TUCKER_FACTORS:
            core, u1, u2, u3 = arrays
            return TuckerFactors(core, u1, u2, u3, TuckerRanks(r1, r2, r3))
        w, *_, core, u1, u2, u3, j1, j2, j3 = arrays
        factors = TuckerFactors(core, u1, u2, u3, TuckerRanks(r1, r2, r3))
        return CraftAdapter(w, factors, j1, j2, j3)
    except Exception as err:
        raise FormatError(f"{path}: payload fails validation: {err}") from err


def read_file(path):
    """Read any tensor file; the returned type follows the stored kind."""
    return _assemble(path, *_parse(path))


def _read_expected(path, expected_kind):
    version, kind, extents, values = _parse(path)
    if kind != expected_kind:
        raise FormatError(
            f"{path}: expected kind {expected_kind} ({_KIND_NAMES[expected_kind]}), "
            f"found kind {kind} ({_KIND_NAMES[kind]})"
        )
    return _assemble(path, version, kind, extents, values)


def read_tensor3(path) -> np.ndarray:
    return _read_expected(path, KIND_TENSOR3)


def read_matrix(path) -> np.ndarray:
    return _read_expected(path, KIND_MATRIX)


def read_tucker_factors(path) -> TuckerFactors:
    return _read_expected(path, KIND_TUCKER_FACTORS)


def read_craft_adapter(path) -> CraftAdapter:
    return _read_expected(path, KIND_CRAFT_ADAPTER)
