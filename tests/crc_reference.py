"""Reference CRC-64/XZ, kept as a test oracle: the table-driven byte loop.

This is the original ``serialization.crc64``, one table step per input byte.
"""

POLY_REFLECTED = 0xC96C5795D7870F42
ALL_ONES = 0xFFFFFFFFFFFFFFFF


def _table() -> tuple:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ POLY_REFLECTED if crc & 1 else crc >> 1
        table.append(crc)
    return tuple(table)


TABLE = _table()


def reference_crc64(data) -> int:
    crc = ALL_ONES
    for byte in bytes(data):
        crc = TABLE[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ ALL_ONES
