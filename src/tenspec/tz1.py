"""Reading and writing tensors in the TZ1 interchange format.

Layout, all little-endian: magic bytes ``TENZ``, u32 version (currently 1),
u32 order d, then d u64 extents, then element_count f64 values in row-major
order.  Round-trips are bit-exact.
"""

import os
import stat
import struct

import numpy as np

from .core import DenseTensor
from .errors import ParseError

MAGIC = b"TENZ"
VERSION = 1

_HEADER = struct.Struct("<4sII")


def write_tensor(path, tensor):
    """Write a DenseTensor to ``path`` in TZ1 format."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, tensor.order))
        fh.write(struct.pack(f"<{tensor.order}Q", *tensor.dims))
        fh.write(np.ascontiguousarray(tensor.data, dtype="<f8").tobytes())


def read_tensor(path):
    """Read a TZ1 file back into a DenseTensor.

    Raises ParseError for bad magic/version, truncated or oversized payloads,
    and non-finite values (file contents count as external input).  The
    header and extent list are checked before any payload is read, and the
    payload size is checked against the file's size before it is read, so a
    hostile header costs no large read or allocation.  Hence the file must
    be a regular one: a pipe, whose size is unknown, is refused.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ParseError(f"{path}: too short for a TZ1 header")
        magic, version, order = _HEADER.unpack(head)
        if magic != MAGIC:
            raise ParseError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise ParseError(f"{path}: unsupported version {version}")
        if order < 1:
            raise ParseError(f"{path}: order must be >= 1")
        info = os.fstat(fh.fileno())
        if not stat.S_ISREG(info.st_mode):
            raise ParseError(f"{path}: not a regular file, so its size is unknown")
        size = info.st_size
        offset = _HEADER.size + 8 * order
        if size < offset:
            raise ParseError(f"{path}: truncated extent list")
        dims = struct.unpack(f"<{order}Q", fh.read(8 * order))
        count = 1
        for d in dims:
            if d < 1:
                raise ParseError(f"{path}: extent {d} must be >= 1")
            count *= d
        expected = offset + 8 * count
        if size == expected:
            # One byte past the declared end: a file that changed size since
            # it was checked fails the comparison below.
            payload = fh.read(8 * count + 1)
            size = offset + len(payload)
    if size != expected:
        raise ParseError(
            f"{path}: payload is {size} bytes, expected {expected} "
            f"for shape {dims}"
        )
    values = np.frombuffer(payload, dtype="<f8", count=count)
    try:
        return DenseTensor(values.astype(np.float64).reshape(dims))
    except (ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
