"""Print the sha256 of every file the README walkthrough writes.

Runs synth, build-ref, localize (proposed, single, onthefly), eval and
export on configs/demo.cfg through ``anchorloc.cli.main`` in a temporary
directory, then prints one ``<sha256>  <path>`` line per output file,
paths relative to that directory. Two checkouts whose listings agree
write byte-identical outputs.

Run from anywhere: ``python3 scripts/demo_sha256.py``. It imports
anchorloc from this checkout's ``src/``.
"""

from __future__ import annotations

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


def main():
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        walkthrough(work, ROOT / "configs" / "demo.cfg")
        for path in sorted(p for p in work.rglob("*") if p.is_file()):
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(work)}")


if __name__ == "__main__":
    main()
