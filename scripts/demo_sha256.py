"""Print the sha256 of every file the README walkthrough writes.

Runs synth, build-ref, localize (proposed, single, onthefly), eval and
export on configs/demo.cfg through ``anchorloc.cli.main`` in a temporary
directory, then prints one ``<sha256>  <path>`` line per output file,
paths relative to that directory. Two checkouts whose listings agree
write byte-identical outputs.

Run from anywhere: ``python3 scripts/demo_sha256.py``. It imports
anchorloc from this checkout's ``src/``. With ``--expect LISTING`` it
compares the listing with one saved earlier (say, from the parent
checkout) and exits 1 naming every file whose hash differs, that is
missing, or that the saved listing does not have.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

METHODS = ("proposed", "single", "onthefly")


def walkthrough(work: Path, cfg: Path):
    """Run the walkthrough in ``work`` with the anchorloc found on sys.path."""
    from anchorloc.cli import main as cli_main

    data = work / "data"
    ref = work / "ref.txt"
    commands = [
        ["synth", "--config", cfg, "--out", data],
        ["build-ref", "--dataset", data, "--out", ref],
    ]
    for m in METHODS:
        argv = ["localize", "--method", m, "--sequence", data / "query.txt", "--gt", data / "gt_query.txt",
                "--config", cfg, "--out", work / f"out_{m}"]
        if m != "onthefly":
            argv += ["--model", ref]
        if m == "proposed":
            argv += ["--anchors", data / "anchor_scores.txt"]
        commands.append(argv)
    trajs = [work / f"out_{m}" / f"trajectory_{m}.txt" for m in METHODS]
    commands.append(["eval", "--gt", data / "gt_query.txt", "--out", work / "table.txt", *trajs])
    commands.append(["export", "--model", work / "out_proposed" / "augmented_model.txt", "--ply", work / "cloud.ply"])
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main([str(a) for a in argv])
        if code != 0:
            raise SystemExit(f"{argv[0]} exited {code}")


def parse_listing(text):
    """path -> sha256 of a printed listing."""
    out = {}
    for line in text.splitlines():
        if line.strip():
            digest, path = line.split(None, 1)
            out[path] = digest
    return out


def differences(expected, got):
    """One line per path whose hash differs, that is missing or that is new."""
    lines = []
    for path in sorted(expected.keys() | got.keys()):
        if path not in got:
            lines.append(f"missing: {path}")
        elif path not in expected:
            lines.append(f"unexpected: {path}")
        elif expected[path] != got[path]:
            lines.append(f"differs: {path}")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--expect", metavar="LISTING", help="a saved listing to compare with; exit 1 on any difference")
    args = ap.parse_args(argv)
    expected = parse_listing(Path(args.expect).read_text()) if args.expect else None
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        walkthrough(work, ROOT / "configs" / "demo.cfg")
        got = {
            str(path.relative_to(work)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(p for p in work.rglob("*") if p.is_file())
        }
    for path, digest in got.items():
        print(f"{digest}  {path}")
    if expected is not None:
        diffs = differences(expected, got)
        for line in diffs:
            print(line, file=sys.stderr)
        return 1 if diffs else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
