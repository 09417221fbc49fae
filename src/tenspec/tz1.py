"""Reading and writing tensors in the TZ1 interchange format.

Layout, all little-endian: magic bytes ``TENZ``, u32 version (currently 1),
u32 order d, then d u64 extents, then element_count f64 values in row-major
order.  Round-trips are bit-exact.
"""

import errno
import os
import stat
import struct

import numpy as np

from .core import DenseTensor
from .errors import ParseError, TooLarge

MAGIC = b"TENZ"
VERSION = 1
# read_tensor refuses a payload of more values than this from its header,
# before reading any of it.  `decompose` of valid (2, 10^7) and (16, 10^6)
# inputs peaked at 5.2 and 5.3 times the file's size in RSS (7.5 times at
# (2, 10^6), where the interpreter's own 35 MB still counts; 2-vCPU VM), so
# a file at the cap, 256 MiB, peaks near 1.4 GB.
MAX_ELEMENTS = 2**25

_HEADER = struct.Struct("<4sII")


def write_tensor(path, tensor):
    """Write a DenseTensor to ``path`` in TZ1 format (``open_regular``)."""
    with open_regular(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, tensor.order))
        fh.write(struct.pack(f"<{tensor.order}Q", *tensor.dims))
        fh.write(np.ascontiguousarray(tensor.data, dtype="<f8").tobytes())


def open_regular(path, mode="rb"):
    """``path`` open for binary reading (``"rb"``) or writing (``"wb"``:
    created if missing, emptied once it has passed), or ParseError, before
    any byte is read or written, if it is not a regular file: a pipe's size
    is unknown, its reads may never end and its writes wait for a reader.
    The open does not block (a plain one of a FIFO blocks until its other
    end is opened, forever if nothing opens it; a non-blocking write open
    with no reader fails with ENXIO); the file is made blocking once it
    has passed."""
    flags = os.O_RDONLY if mode == "rb" else os.O_WRONLY | os.O_CREAT
    try:
        fd = os.open(path, flags | os.O_NONBLOCK, 0o666)
    except OSError as exc:
        if exc.errno != errno.ENXIO:
            raise
        raise ParseError(f"{path}: not a regular file") from exc
    try:
        info = os.fstat(fd)
        if not stat.S_ISREG(info.st_mode):
            raise ParseError(f"{path}: not a regular file")
        # An empty file is not truncated: on a new one that is a metadata
        # update, which took 96 new factor files from 1.3 to 3.3 ms
        # (2-vCPU VM).
        if mode == "wb" and info.st_size:
            os.ftruncate(fd, 0)
        os.set_blocking(fd, True)
        return open(fd, mode)
    except BaseException:
        os.close(fd)
        raise


def read_header(fh, path):
    """The dims of the TZ1 file ``path`` open as ``fh`` (``open_regular``),
    from its header and extent list, with ``fh`` left at the payload, of
    which nothing is read.

    ParseError for a bad header or a file size other than the one they
    imply; TooLarge for more than ``MAX_ELEMENTS`` values.
    """
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
    size = os.fstat(fh.fileno()).st_size
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
    if size != expected:
        raise ParseError(
            f"{path}: payload is {size} bytes, expected {expected} "
            f"for shape {dims}"
        )
    if count > MAX_ELEMENTS:
        raise TooLarge(f"{path}: {count} elements, above the limit {MAX_ELEMENTS}")
    return dims


def read_payload(fh, path, dims):
    """The payload that ``read_header`` left ``fh`` at, as a DenseTensor of
    shape ``dims``, read straight into its array."""
    values = np.empty(dims, dtype="<f8")
    # A short read, or a byte past the declared end, means the file changed
    # size since it was checked.
    if fh.readinto(values) != values.nbytes or fh.read(1):
        raise ParseError(f"{path}: changed size while it was read")
    try:
        return DenseTensor(values.astype(np.float64, copy=False))
    except (ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def read_tensor(path):
    """Read a TZ1 file back into a DenseTensor.

    Raises ParseError for bad magic/version, truncated or oversized payloads,
    and non-finite values (file contents count as external input), and
    TooLarge for a payload of more than ``MAX_ELEMENTS`` values.  The header
    and extent list are checked before any payload is read, and the payload
    size is checked against the file's size and the cap before it is read,
    so a hostile header costs no large read or allocation.  Hence the file
    must be a regular one (``open_regular``).
    """
    with open_regular(path) as fh:
        return read_payload(fh, path, read_header(fh, path))
