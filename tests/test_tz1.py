"""TZ1 tensor file format: layout and round trips."""

import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tenspec
from tenspec import DenseTensor, random_tensor, read_tensor, tz1, write_tensor
from tenspec.errors import ParseError, TooLarge

from helpers import sparse_tz1

SRC = str(Path(tenspec.__file__).resolve().parents[1])


def test_round_trip_bit_exact(tmp_path):
    t = random_tensor((3, 4, 2), 55)
    path = tmp_path / "t.tz1"
    write_tensor(path, t)
    back = read_tensor(path)
    assert back.dims == t.dims
    assert np.array_equal(back.data, t.data)
    assert back.values.tobytes() == t.values.tobytes()


def test_round_trip_special_values(tmp_path):
    t = DenseTensor([0.0, -0.0, 5e-324, 1.7976931348623157e308, -1.0])
    path = tmp_path / "s.tz1"
    write_tensor(path, t)
    back = read_tensor(path)
    assert back.values.tobytes() == t.values.tobytes()


def test_exact_byte_layout(tmp_path):
    t = DenseTensor(np.arange(6, dtype=float).reshape(2, 3))
    path = tmp_path / "layout.tz1"
    write_tensor(path, t)
    blob = path.read_bytes()
    expected = b"TENZ" + struct.pack("<II", 1, 2) + struct.pack("<2Q", 2, 3)
    expected += struct.pack("<6d", *range(6))
    assert blob == expected


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.tz1"
    path.write_bytes(b"NOPE" + struct.pack("<II", 1, 1) + struct.pack("<Q", 1) + struct.pack("<d", 0.0))
    with pytest.raises(ParseError):
        read_tensor(path)


def test_rejects_bad_version(tmp_path):
    path = tmp_path / "v9.tz1"
    path.write_bytes(b"TENZ" + struct.pack("<II", 9, 1) + struct.pack("<Q", 1) + struct.pack("<d", 0.0))
    with pytest.raises(ParseError):
        read_tensor(path)


def test_rejects_truncated_payload(tmp_path):
    t = random_tensor((4, 4), 3)
    path = tmp_path / "t.tz1"
    write_tensor(path, t)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(ParseError):
        read_tensor(path)


def test_rejects_trailing_bytes(tmp_path):
    t = random_tensor((2, 2), 4)
    path = tmp_path / "t.tz1"
    write_tensor(path, t)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ParseError):
        read_tensor(path)


def test_rejects_truncated_header_and_extents(tmp_path):
    path = tmp_path / "h.tz1"
    path.write_bytes(b"TEN")
    with pytest.raises(ParseError):
        read_tensor(path)
    path.write_bytes(b"TENZ" + struct.pack("<II", 1, 3) + struct.pack("<Q", 2))
    with pytest.raises(ParseError):
        read_tensor(path)


def test_rejects_zero_extent_and_zero_order(tmp_path):
    path = tmp_path / "z.tz1"
    path.write_bytes(b"TENZ" + struct.pack("<II", 1, 1) + struct.pack("<Q", 0))
    with pytest.raises(ParseError):
        read_tensor(path)
    path.write_bytes(b"TENZ" + struct.pack("<II", 1, 0))
    with pytest.raises(ParseError):
        read_tensor(path)


def test_rejects_non_finite_values(tmp_path):
    path = tmp_path / "nan.tz1"
    blob = b"TENZ" + struct.pack("<II", 1, 1) + struct.pack("<Q", 2)
    blob += struct.pack("<2d", 1.0, float("nan"))
    path.write_bytes(blob)
    with pytest.raises(ParseError):
        read_tensor(path)


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero and rlimits")
def test_endless_file_is_refused_by_its_header():
    # /dev/zero never ends, so reading it whole would never return; it is
    # refused as not a regular file before its header is read.  The child's
    # address space is capped so that a reader that does read it whole fails
    # fast.
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
        f"import sys; sys.path.insert(0, {SRC!r})\n"
        "from tenspec import read_tensor\n"
        "from tenspec.errors import ParseError\n"
        "try:\n"
        "    read_tensor('/dev/zero')\n"
        "except ParseError as exc:\n"
        "    print(exc)\n"
    )
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
    )
    assert done.returncode == 0, done.stderr
    assert "not a regular file" in done.stdout


def test_huge_declared_sizes_are_refused_without_allocating(tmp_path):
    # A header may declare any order and shape; a short file must be refused
    # before anything of the declared size is read.
    path = tmp_path / "huge.tz1"
    short = struct.pack("<2d", 1.0, 2.0)
    cases = [
        (struct.pack("<II", 1, 2) + struct.pack("<2Q", 1024, 1024) + short, "expected"),
        (struct.pack("<II", 1, 2) + struct.pack("<2Q", 2**40, 2**40) + short, "expected"),
        (struct.pack("<II", 1, 2**32 - 1) + struct.pack("<2Q", 1, 2), "extent list"),
    ]
    for blob, message in cases:
        path.write_bytes(b"TENZ" + blob)
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match=message):
                read_tensor(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, (message, peak)


def test_payload_above_the_cap_is_refused_from_its_header(tmp_path):
    # Sparse files (the payload is a hole) as long as their headers declare:
    # one value past tz1.MAX_ELEMENTS is refused with TooLarge before any
    # value is read or allocated, and the cap itself passes the header.
    path = tmp_path / "big.tz1"
    for count in (tz1.MAX_ELEMENTS + 1, tz1.MAX_ELEMENTS):
        sparse_tz1(path, (count,))
        tracemalloc.start()
        try:
            if count > tz1.MAX_ELEMENTS:
                with pytest.raises(TooLarge, match="elements, above the limit"):
                    read_tensor(path)
            with open(path, "rb") as fh:
                if count > tz1.MAX_ELEMENTS:
                    with pytest.raises(TooLarge, match="elements, above the limit"):
                        tz1.read_header(fh, path)
                else:
                    assert tz1.read_header(fh, path) == (count,)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, (count, peak)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_pipe_is_refused_as_not_a_regular_file(tmp_path):
    write_tensor(tmp_path / "t.tz1", random_tensor((2, 2), 5))
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, (tmp_path / "t.tz1").read_bytes())
        os.close(write_end)
        with pytest.raises(ParseError, match="not a regular file"):
            read_tensor(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)


# ------------------------------------------------------------------ fuzzing


@st.composite
def mutated_tz1(draw):
    # A valid TZ1 blob, then at most one mutation: an extent or the order
    # replaced by any u64 / u32, the payload cut or extended, or one byte
    # overwritten anywhere.
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    count = int(np.prod(dims))
    values = draw(st.lists(st.floats(width=64), min_size=count, max_size=count))
    head = bytearray(b"TENZ" + struct.pack("<II", 1, len(dims)))
    extents = bytearray(struct.pack(f"<{len(dims)}Q", *dims))
    payload = bytearray(struct.pack(f"<{count}d", *values))
    kind = draw(st.sampled_from(["none", "extent", "order", "cut", "extend", "byte"]))
    if kind == "extent":
        k = draw(st.integers(0, len(dims) - 1))
        struct.pack_into("<Q", extents, 8 * k, draw(st.integers(0, 2**64 - 1)))
    elif kind == "order":
        struct.pack_into("<I", head, 8, draw(st.integers(0, 2**32 - 1)))
    blob = head + extents + payload
    if kind == "cut":
        blob = blob[: draw(st.integers(0, len(blob)))]
    elif kind == "extend":
        blob += draw(st.binary(min_size=1, max_size=64))
    elif kind == "byte":
        blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
    return bytes(blob)


def read_or_refuse(path, blob):
    path.write_bytes(blob)
    try:
        t = read_tensor(path)
    except ParseError:
        return
    assert isinstance(t, DenseTensor)
    assert 12 + 8 * t.order + 8 * t.data.size == len(blob)
    assert np.isfinite(t.data).all()


@given(st.binary(max_size=256))
@settings(max_examples=200, deadline=None)
def test_fuzz_arbitrary_bytes(tmp_path_factory, blob):
    read_or_refuse(tmp_path_factory.getbasetemp() / "fuzz.tz1", blob)


@given(mutated_tz1())
@settings(max_examples=300, deadline=None)
def test_fuzz_mutated_headers_and_payloads(tmp_path_factory, blob):
    read_or_refuse(tmp_path_factory.getbasetemp() / "fuzz.tz1", blob)
