"""The package's text files: UTF-8, a header line, then one record per line.

Every file the package reads or writes goes through this module. Numbers
are written with fmt, the shortest text that reads back as the same
float, and read with finite, which refuses nan and infinities. A block of
many numbers, such as a frame's features, is one token instead:
encode_floats writes the float64 bits as base64, and decode_floats reads
them back exactly. A reader raises FormatError, and only FormatError,
when a file is not what it expects; the CLI ends that with exit code 3.
"""

from __future__ import annotations

import base64
import itertools
import math

import numpy as np


class FormatError(Exception):
    """A file is not what its reader expects."""


def fmt(x: float) -> str:
    """The shortest text that reads back as the same float."""
    return repr(float(x))


def finite(tok: str) -> float:
    """The float a token spells, refusing nan and infinities."""
    x = float(tok)
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {tok!r}")
    return x


def encode_floats(values) -> str:
    """One token holding values as standard padded base64 of little-endian
    float64, or "-" when there are none."""
    data = np.asarray(values, dtype="<f8").tobytes()
    return base64.b64encode(data).decode("ascii") if data else "-"


def decode_floats(tok: str, count: int) -> np.ndarray:
    """The count float64 values an encode_floats token holds, as a read-only
    array over the decoded bytes. Raises ValueError (binascii.Error is one)
    for a token that is not base64, holds another number of values, or
    holds nan or an infinity."""
    data = b"" if tok == "-" else base64.b64decode(tok, validate=True)
    if len(data) != 8 * count:
        raise ValueError(f"block holds {len(data)} bytes, not the {8 * count} of {count} float64 values")
    values = np.frombuffer(data, dtype="<f8")
    if not np.isfinite(values).all():
        raise ValueError("non-finite number in block")
    return values


def file_id(tok: str) -> int:
    """A frame or landmark id; matching and lifting keep ids in int64 arrays."""
    i = int(tok)
    if not -(2**63) <= i < 2**63:
        raise ValueError(f"id {tok} does not fit 64 bits")
    return i


def write_records(path, header, lines):
    """Write header (None for a file without one), then each line, each ending in a newline.

    Lines are written as they come, so a generator of lines is never held as one string.
    """
    lines = iter(lines) if header is None else itertools.chain((header,), lines)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(next(lines, ""))
        for line in lines:
            fh.write("\n" + line)
        fh.write("\n")


def read_lines(path):
    """Yields (line number, line) for each line of a UTF-8 text file."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError as e:
            raise FormatError(f"{path}: not UTF-8 text: {e}") from e


def read_records(path, header):
    """Yields (line number, tokens) for each non-blank line after the header."""
    lines = read_lines(path)
    if next(lines, (1, ""))[1].split() != header.split():
        raise FormatError(f"{path}: line 1: expected the header {header!r}")
    for ln, line in lines:
        tok = line.split()
        if tok:
            yield ln, tok


def read_keyed(path, header, parse):
    """key -> value for each record, where parse(tokens) returns (key, value).

    parse raises ValueError or IndexError on a bad record; a key that
    repeats is refused too.
    """
    out = {}
    for ln, tok in read_records(path, header):
        try:
            key, value = parse(tok)
        except (ValueError, IndexError) as e:
            raise FormatError(f"{path}: line {ln}: {e}") from e
        if key in out:
            raise FormatError(f"{path}: line {ln}: {key} is listed twice")
        out[key] = value
    return out
