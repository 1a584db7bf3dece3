"""Compare the README walkthrough outputs of two checkouts, number by number.

    python3 scripts/demo_compare.py PARENT_ROOT CHANGE_ROOT

Runs the walkthrough of ``demo_sha256.py`` (synth, build-ref, localize with
all three methods, eval, export on each checkout's configs/demo.cfg) once
with each checkout's ``src/``, each in its own Python process and temporary
directory. Then it compares every output file token by token: a token that
reads as a float (it holds a '.', an exponent, nan or inf) may differ by at
most 1e-9; every other token, such as a frame id, a status or a count, must
be equal. The base64 float64 block that ends a model file's FEATURES
record is decoded first and compared value by value. It prints one line
per file, the largest float difference or ``identical`` for equal bytes,
and exits 1 when a file is missing on one side, a non-float token differs
or a float differs by more than 1e-9.
Use it where a change moves the last bits of results by design, so that
``demo_sha256.py`` cannot show equality.
"""

from __future__ import annotations

import base64
import binascii
import math
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent
TOLERANCE = 1e-9

_RUN = """
import sys
from pathlib import Path
src, scripts, work, cfg = sys.argv[1:]
sys.path[:0] = [src, scripts]
from demo_sha256 import walkthrough
walkthrough(Path(work), Path(cfg))
"""


def run_walkthrough(root: Path, work: Path):
    """The walkthrough with root's sources, in a fresh interpreter."""
    subprocess.run(
        [sys.executable, "-c", _RUN, str(root / "src"), str(SCRIPTS), str(work), str(root / "configs" / "demo.cfg")],
        check=True,
    )


def _float(token):
    if not any(c in token.lower() for c in ".en"):
        return None
    try:
        return float(token)
    except ValueError:
        return None


def _tokens(data: bytes):
    """The file's tokens, with each FEATURES block spelled out as one token per value."""
    out = []
    for line in data.decode().splitlines():
        tok = line.split()
        if len(tok) == 5 and tok[0] == "FEATURES" and tok[4] != "-":
            try:
                raw = base64.b64decode(tok[4], validate=True)
                tok[4:] = map(repr, struct.unpack(f"<{len(raw) // 8}d", raw))
            except (binascii.Error, struct.error):
                pass  # not a block: compared as it stands
        out.extend(tok)
    return out


def compare_tokens(a: bytes, b: bytes):
    """Largest float difference between two files, or None when another token differs."""
    ta, tb = _tokens(a), _tokens(b)
    if len(ta) != len(tb):
        return None
    worst = 0.0
    for x, y in zip(ta, tb):
        if x == y:
            continue
        fx, fy = _float(x), _float(y)
        if fx is None or fy is None:
            return None
        if not (math.isnan(fx) and math.isnan(fy)):
            worst = max(worst, abs(fx - fy) if math.isfinite(fx - fy) else math.inf)
    return worst


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: demo_compare.py PARENT_ROOT CHANGE_ROOT", file=sys.stderr)
        return 2
    roots = [Path(r).resolve() for r in argv]
    with tempfile.TemporaryDirectory() as tmp:
        works = [Path(tmp) / "parent", Path(tmp) / "change"]
        for root, work in zip(roots, works):
            work.mkdir()
            run_walkthrough(root, work)
        files = [{p.relative_to(w) for p in w.rglob("*") if p.is_file()} for w in works]
        ok = True
        for rel in sorted(files[0] | files[1]):
            if rel not in files[0] or rel not in files[1]:
                print(f"missing on one side  {rel}")
                ok = False
                continue
            a, b = ((w / rel).read_bytes() for w in works)
            if a == b:
                print(f"identical  {rel}")
                continue
            worst = compare_tokens(a, b)
            if worst is None:
                print(f"non-float token differs  {rel}")
                ok = False
            else:
                print(f"{worst:.3g}  {rel}")
                ok = ok and worst <= TOLERANCE
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
