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
init and xor-out all-ones), computed by liblzma's ``lzma_crc64``, which
CPython's ``lzma`` extension links; importing this module fails with
``ImportError`` where that extension or the symbol is missing.  A write
checksums the header and each block where they lie and streams them to the
file: no full-file buffer is built.  Writes go to a temporary file in the
target directory, created with mode 0666 less the umask, which is flushed to
disk with ``fsync`` and then renamed into place, so a crash or power loss
leaves either the old file or the new one.
"""

from __future__ import annotations

import ctypes
import math
import os
import struct

import numpy as np

from .errors import FormatError
from .tensor import check_array
from .tucker import TuckerFactors, TuckerRanks
from .adapter import CraftAdapter

MAGIC = b"CRFT"
FORMAT_VERSION = 2
KIND_TENSOR3 = 1
KIND_MATRIX = 2
KIND_TUCKER_FACTORS = 3
KIND_CRAFT_ADAPTER = 4
DTYPE_FLOAT64 = 1

# kind code -> (name, number of u64 extents in the header)
_KINDS = {
    KIND_TENSOR3: ("Tensor3", 3),
    KIND_MATRIX: ("Matrix", 2),
    KIND_TUCKER_FACTORS: ("TuckerFactors", 6),
    KIND_CRAFT_ADAPTER: ("CraftAdapter", 6),
}


try:
    import _lzma
    _lzma_crc64 = ctypes.CDLL(_lzma.__file__).lzma_crc64
except (ImportError, OSError, AttributeError) as err:
    raise ImportError("craft.serialization needs lzma_crc64 from the liblzma that CPython's "
                      f"_lzma extension links: {err}") from err
# uint64_t lzma_crc64(const uint8_t *buf, size_t size, uint64_t crc)
_lzma_crc64.restype = ctypes.c_uint64
_lzma_crc64.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_uint64)


def crc64(*buffers) -> int:
    """CRC-64/XZ of the concatenated ``buffers`` (bytes, bytearray, memoryview or arrays)."""
    crc = 0
    for buf in buffers:
        octets = np.frombuffer(buf, dtype=np.uint8)
        crc = _lzma_crc64(octets.ctypes.data, octets.size, crc)
    return crc


def atomic_write(path, *buffers) -> None:
    """Write the concatenated buffers via a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f"{os.urandom(8).hex()}.tmp")
    try:
        # created the way open() creates files: mode 0666 less the process umask
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.writelines(buffers)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as err:  # named after the caller's path: the temp file is gone
        raise OSError(err.errno, err.strerror, os.fspath(path)) from err


def _write(path, kind: int, extents, blocks) -> None:
    # each block goes out from the array's own memory: no full-file buffer
    pieces = [MAGIC + struct.pack(f"<HBB{len(extents)}Q", FORMAT_VERSION, kind, DTYPE_FLOAT64,
                                  *extents)]
    pieces += [np.ascontiguousarray(b, dtype="<f8") for b in blocks]
    atomic_write(path, *pieces, struct.pack("<Q", crc64(*pieces)))


def write_tensor3(path, t) -> None:
    arr = check_array(t, "t", (None, None, None))
    _write(path, KIND_TENSOR3, arr.shape, [arr])


def write_matrix(path, m) -> None:
    arr = check_array(m, "m", (None, None))
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
    if kind not in _KINDS:
        raise FormatError(f"{path}: unknown payload kind {kind}")
    if dtype != DTYPE_FLOAT64:
        raise FormatError(f"{path}: unsupported dtype code {dtype}")

    n_extents = _KINDS[kind][1]
    offset = 8
    if len(blob) < offset + 8 * n_extents + 8:
        raise FormatError(f"{path}: truncated header")
    extents = struct.unpack_from(f"<{n_extents}Q", blob, offset)
    offset += 8 * n_extents
    if any(e < 1 for e in extents):
        raise FormatError(f"{path}: extents must be >= 1, got {extents}")

    # slices of the view share ``blob``, so the payload is never copied and
    # the read-only values it backs are shared by the frozen blocks of kinds 3/4
    view = memoryview(blob)
    stored_crc = struct.unpack_from("<Q", blob, len(blob) - 8)[0]
    if crc64(view[:-8]) != stored_crc:
        raise FormatError(f"{path}: checksum mismatch, file corrupted")

    payload = view[offset:-8]
    if len(payload) % 8 != 0:
        raise FormatError(f"{path}: payload length {len(payload)} not a multiple of 8")
    return version, kind, extents, np.frombuffer(payload, dtype="<f8")


def _assemble(path, version, kind, extents, values):
    if kind in (KIND_TENSOR3, KIND_MATRIX):
        blocks = [extents]
    else:
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
    if kind == KIND_CRAFT_ADAPTER and version == 1:
        # drop the skipped block, so the blocks sharing the payload do not keep it alive
        n = math.prod(dims)
        values = np.delete(values, np.s_[n:2 * n])
        values.setflags(write=False)
        blocks.pop(1)

    arrays = []
    for shape in blocks:
        count = math.prod(shape)
        arrays.append(values[:count].reshape(shape))
        values = values[count:]
    # every block is validated, non-finite values included, as it is built
    try:
        if kind in (KIND_TENSOR3, KIND_MATRIX):
            # a read Tensor3 or Matrix is the caller's to modify
            return check_array(arrays[0], _KINDS[kind][0], extents).copy()
        if kind == KIND_TUCKER_FACTORS:
            core, u1, u2, u3 = arrays
            return TuckerFactors(core, u1, u2, u3, TuckerRanks(r1, r2, r3))
        w, core, u1, u2, u3, j1, j2, j3 = arrays
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
            f"{path}: expected kind {expected_kind} ({_KINDS[expected_kind][0]}), "
            f"found kind {kind} ({_KINDS[kind][0]})"
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
