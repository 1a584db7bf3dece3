"""Whole-sweep accuracy of one method in two checkouts, seed by seed.

    python3 scripts/sweep_accuracy.py PARENT_ROOT CHANGE_ROOT [--seeds 1-5 | --scene-seeds 1-5]
        [--method proposed | single | onthefly]

Localizes all query frames of each checkout's configs/adversarial.cfg with
``--method``: ``proposed`` (the default); ``single``, the single-image
comparator, which runs RANSAC on every frame; or ``onthefly``, the
query-only SfM comparator, whose reconstruction is aligned to the
ground-truth camera centers at its end. It does so once per RANSAC
seed (``--seeds``) or, with
``--scene-seeds``, once per scene seed (``scene.rng_seed``) at the
configured RANSAC seed, with each checkout's ``src/``; every run is its
own Python process, and the two checkouts alternate seed by seed. Prints
one line per seed and checkout: the registered frames, the median and
largest position error, the wall time of ``run_pipeline`` and the first
12 hex digits of the run's fingerprint, a sha256 over each frame's id,
status and pose bytes (``q`` then ``t``) in the order the method reports
them. Then prints the seed-paired difference of the median errors, change
minus parent in percent of the parent's: its mean, its spread (smallest,
largest and sample standard deviation) and the count of its signs; last,
the count of seeds whose two fingerprints are equal, all of them for a
change that keeps every output bit. The
seed alone moves the median error by a few percent, so a change's
accuracy is read from the paired differences, not from one seed. Where a
velocity prior poses most frames, only the anchors' and the fallbacks'
RANSAC runs depend on the RANSAC seed, so ``--scene-seeds`` is the sweep
that spreads for ``proposed``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

_RUN = """
import hashlib, json, sys, time
from dataclasses import replace
src, cfg_path, seed, varied, method = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4], sys.argv[5]
sys.path.insert(0, src)
from anchorloc import baselines, config, pipeline, synth
from anchorloc.metrics import position_error
from anchorloc.model import Frame
scene, cfg = config.parse_run_config(cfg_path)
if varied == "scene":
    scene = replace(scene, rng_seed=seed)
else:
    cfg = replace(cfg, ransac=replace(cfg.ransac, rng_seed=seed))
ds = synth.generate_scene(scene)
reference = synth.build_reference_model(ds)
detector = pipeline.detector_from_scores(synth.anchor_scores(ds))
intr = ds.intrinsics()
frames = [Frame(sf.id, sf.timestamp, intr, sf.features, None, "pending") for sf in ds.query]
gt = {sf.id: sf.pose.center() for sf in ds.query}
start = time.perf_counter()
if method == "single":
    entries = baselines.single_image_localize(reference, frames, cfg).frames
elif method == "onthefly":
    entries = baselines.onthefly_sfm(frames, cfg, gt)[1].frames
else:
    entries = pipeline.run_pipeline(reference, frames, detector, cfg).frame_events
wall_s = time.perf_counter() - start
errors = [position_error(e.pose, gt[e.frame_id]) for e in entries if e.pose is not None]
fingerprint = hashlib.sha256()
for e in entries:
    fingerprint.update(f"{e.frame_id} {e.status}\\n".encode())
    if e.pose is not None:
        fingerprint.update(e.pose.q.tobytes() + e.pose.t.tobytes())
print(json.dumps({"frames": len(frames), "errors": errors, "wall_s": wall_s, "fingerprint": fingerprint.hexdigest()}))
"""


def parse_seeds(text):
    """'1-5' or '1,3,7' (or a mix) -> the listed seeds in order."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return seeds


def run_sweep(root: Path, seed, varied="ransac", method="proposed"):
    """One whole-sweep run of method with root's sources in a fresh
    interpreter, with seed as its RANSAC seed, or as its scene seed when
    varied is "scene"."""
    cfg = root / "configs" / "adversarial.cfg"
    out = subprocess.run(
        [sys.executable, "-c", _RUN, str(root / "src"), str(cfg), str(seed), varied, method],
        check=True,
        capture_output=True,
        text=True,
    )
    run = json.loads(out.stdout.splitlines()[-1])
    errors = sorted(run["errors"])
    return {
        "registered": len(errors),
        "frames": run["frames"],
        "median": statistics.median(errors) if errors else float("nan"),
        "largest": errors[-1] if errors else float("nan"),
        "wall_s": run["wall_s"],
        "fingerprint": run["fingerprint"],
    }


def paired_differences(parent, change):
    """Per seed, change's median error minus parent's, in % of parent's;
    and their mean, smallest, largest, sample standard deviation and
    (positive, negative, zero) sign counts."""
    diffs = [100.0 * (c["median"] - p["median"]) / p["median"] for p, c in zip(parent, change)]
    return diffs, {
        "mean": statistics.fmean(diffs),
        "min": min(diffs),
        "max": max(diffs),
        "stdev": statistics.stdev(diffs) if len(diffs) > 1 else 0.0,
        "signs": (sum(d > 0 for d in diffs), sum(d < 0 for d in diffs), sum(d == 0 for d in diffs)),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="root of the parent checkout")
    ap.add_argument("change", type=Path, help="root of the changed checkout")
    which = ap.add_mutually_exclusive_group()
    which.add_argument("--seeds", default="1-5", help="RANSAC seeds, as 1-5 or 1,3,7 (default 1-5)")
    which.add_argument("--scene-seeds", help="scene seeds in place of RANSAC seeds, in the same form")
    ap.add_argument(
        "--method", choices=("proposed", "single", "onthefly"), default="proposed", help="localizer (default proposed)"
    )
    args = ap.parse_args(argv)
    varied = "ransac" if args.scene_seeds is None else "scene"
    seeds = parse_seeds(args.seeds if args.scene_seeds is None else args.scene_seeds)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {name: [] for name in roots}
    print(f"{varied} seed, method {args.method}")
    print(
        f"{'seed':>4}  {'checkout':<8} {'registered':>10}  {'median':>8}  {'largest':>8}  {'wall_s':>6}  fingerprint"
    )
    for seed in seeds:
        for name, root in roots.items():
            r = run_sweep(root, seed, varied, args.method)
            runs[name].append(r)
            reg = f"{r['registered']}/{r['frames']}"
            print(
                f"{seed:>4}  {name:<8} {reg:>10}  {r['median']:8.5f}  {r['largest']:8.4f}  {r['wall_s']:6.2f}  "
                f"{r['fingerprint'][:12]}",
                flush=True,
            )
    diffs, s = paired_differences(runs["parent"], runs["change"])
    print("median error, change vs parent, by seed: " + " ".join(f"{d:+.2f}%" for d in diffs))
    print(
        f"mean {s['mean']:+.2f}%  spread {s['min']:+.2f}% to {s['max']:+.2f}% (sd {s['stdev']:.2f})  "
        f"signs +{s['signs'][0]} -{s['signs'][1]} ={s['signs'][2]}"
    )
    same = sum(p["fingerprint"] == c["fingerprint"] for p, c in zip(runs["parent"], runs["change"]))
    print(f"fingerprints equal on {same} of {len(seeds)} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
