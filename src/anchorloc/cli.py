"""Command-line entry point.

Subcommands: synth, build-ref, localize, eval, export. Every command is
deterministic given its config file; flags override config-file keys.
Exit codes: 0 success, 2 config error, 3 I/O error, 4 pipeline-fatal.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .baselines import InitializationFailure, onthefly_sfm, single_image_localize
from .config import ConfigError, parse_run_config
from .geom import Pose
from .metrics import (
    EmptyIntersection,
    compare_methods,
    compute_metrics,
    export_pointcloud,
    export_trajectory,
    load_trajectory,
    position_error,
)
from .model import Frame, ModelFormatError, _finite, _fmt, load_model, save_model
from .pipeline import (
    AllAnchorsFailed,
    NoAnchorsFound,
    detector_from_scores,
    run_pipeline,
)
from .synth import (
    ConfigInvalid,
    anchor_scores,
    generate_scene,
    reference_model_from_tracks,
)

GT_HEADER = "ANCHORLOC_GT 1"
SCORES_HEADER = "ANCHORLOC_SCORES 1"

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_PIPELINE = 4


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def save_ground_truth(frames, path):
    lines = [GT_HEADER]
    for sf in frames:
        parts = [str(sf.id), _fmt(sf.timestamp)]
        parts += [_fmt(v) for v in sf.pose.q] + [_fmt(v) for v in sf.pose.t]
        lines.append(" ".join(parts))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_lines(path):
    """The lines of a text file; a file that is not UTF-8 is an I/O error."""
    with open(path) as fh:
        try:
            return fh.read().splitlines()
        except UnicodeDecodeError as e:
            raise CliError(EXIT_IO, f"{path}: not UTF-8 text: {e}") from e


def load_ground_truth(path):
    """frame id -> (timestamp, Pose)."""
    raw = _read_lines(path)
    if not raw or raw[0] != GT_HEADER:
        raise CliError(EXIT_IO, f"{path}: not a ground-truth file")
    out = {}
    for ln, line in enumerate(raw[1:], start=2):
        tok = line.split()
        if not tok:
            continue
        if len(tok) != 9:
            raise CliError(EXIT_IO, f"{path}:{ln}: expected 9 fields")
        try:
            fid = int(tok[0])
            vals = [_finite(v) for v in tok[2:]]
            entry = (_finite(tok[1]), Pose(np.array(vals[:4]), np.array(vals[4:])))
        except ValueError as e:
            raise CliError(EXIT_IO, f"{path}:{ln}: {e}")
        if fid in out:
            raise CliError(EXIT_IO, f"{path}:{ln}: frame {fid} is listed twice")
        out[fid] = entry
    return out


def gt_centers(gt):
    return {fid: pose.center() for fid, (_, pose) in gt.items()}


def save_scores(scores, path):
    lines = [SCORES_HEADER]
    for fid in sorted(scores):
        lines.append(f"{fid} {_fmt(scores[fid])}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_scores(path):
    raw = _read_lines(path)
    if not raw or raw[0] != SCORES_HEADER:
        raise CliError(EXIT_IO, f"{path}: not an anchor-score file")
    out = {}
    for ln, line in enumerate(raw[1:], start=2):
        tok = line.split()
        if not tok:
            continue
        if len(tok) != 2:
            raise CliError(EXIT_IO, f"{path}:{ln}: expected a frame id and a score")
        try:
            fid, score = int(tok[0]), _finite(tok[1])
        except ValueError as e:
            raise CliError(EXIT_IO, f"{path}:{ln}: bad score line: {e}")
        if fid in out:
            raise CliError(EXIT_IO, f"{path}:{ln}: frame {fid} is listed twice")
        out[fid] = score
    return out


def _frames_to_model(frames, intr, status, with_pose):
    from .model import SfMModel

    m = SfMModel()
    for sf in frames:
        m.add_frame(
            Frame(sf.id, sf.timestamp, intr, sf.features, sf.pose.copy() if with_pose else None, status)
        )
    return m


def cmd_synth(args):
    try:
        scene, _ = parse_run_config(args.config)
        if args.seed is not None:
            scene = dataclasses.replace(scene, rng_seed=args.seed)
    except (ConfigInvalid, ConfigError) as e:
        raise CliError(EXIT_CONFIG, str(e))
    except OSError as e:
        raise CliError(EXIT_IO, str(e))

    dataset = generate_scene(scene)
    os.makedirs(args.out, exist_ok=True)
    intr = dataset.intrinsics()

    save_model(_frames_to_model(dataset.database, intr, "reference", True), os.path.join(args.out, "database.txt"))
    save_model(_frames_to_model(dataset.query, intr, "pending", False), os.path.join(args.out, "query.txt"))
    save_ground_truth(dataset.database, os.path.join(args.out, "gt_database.txt"))
    save_ground_truth(dataset.query, os.path.join(args.out, "gt_query.txt"))
    save_scores(anchor_scores(dataset, "query"), os.path.join(args.out, "anchor_scores.txt"))

    lines = ["ANCHORLOC_TRACKS 1"]
    for sf in dataset.database:
        for fidx, lid in enumerate(sf.feat_landmark_ids):
            lines.append(f"{sf.id} {fidx} {int(lid)}")
    with open(os.path.join(args.out, "tracks_db.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")

    print(f"seed={scene.rng_seed} landmarks={len(dataset.landmark_positions)} "
          f"database_frames={len(dataset.database)} query_frames={len(dataset.query)}")
    return 0


def _require_one_camera(frames, what):
    """Bundle adjustment models one camera; frames with other intrinsics are an input error."""
    frames = list(frames)
    for f in frames[1:]:
        if f.intrinsics != frames[0].intrinsics:
            raise CliError(
                EXIT_IO, f"{what}: frame {f.id} has other intrinsics than frame {frames[0].id}; one camera is required"
            )


def cmd_build_ref(args):
    try:
        db = load_model(os.path.join(args.dataset, "database.txt"))
        raw = _read_lines(os.path.join(args.dataset, "tracks_db.txt"))
    except (OSError, ModelFormatError) as e:
        raise CliError(EXIT_IO, str(e))
    _require_one_camera(db.frames.values(), "database.txt")
    if not raw or raw[0] != "ANCHORLOC_TRACKS 1":
        raise CliError(EXIT_IO, "tracks_db.txt: bad header")
    tracks, seen = {}, set()
    for ln, line in enumerate(raw[1:], start=2):
        tok = line.split()
        if not tok:
            continue
        try:
            fid, fidx, lid = (int(v) for v in tok)
        except ValueError as e:
            raise CliError(EXIT_IO, f"tracks_db.txt:{ln}: expected frame, feature and landmark ids: {e}")
        if fid not in db.frames or not 0 <= fidx < len(db.frames[fid].features):
            raise CliError(EXIT_IO, f"tracks_db.txt:{ln}: ({fid}, {fidx}) names no database feature")
        if (fid, fidx) in seen:
            raise CliError(EXIT_IO, f"tracks_db.txt:{ln}: ({fid}, {fidx}) is listed twice")
        seen.add((fid, fidx))
        tracks.setdefault(lid, []).append((fid, fidx))
    model = reference_model_from_tracks(list(db.frames.values()), tracks)
    save_model(model, args.out)
    print(f"reference model: {len(model.frames)} frames, {len(model.landmarks)} landmarks")
    return 0


def _load_sequence(path):
    seq_model = load_model(path)
    return sorted(seq_model.frames.values(), key=lambda f: (f.timestamp, f.id))


def _write_event_log(path, entries):
    """One line per frame, in report order: id status n_candidates n_corrs n_inliers error."""
    lines = [
        f"{e.frame_id} {e.status} {e.n_candidates} {e.n_corrs} {e.n_inliers} "
        + (_fmt(e.error) if e.error is not None else "-")
        for e in entries
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_localize(args):
    try:
        _, pipe_cfg = parse_run_config(args.config)
    except ConfigError as e:
        raise CliError(EXIT_CONFIG, str(e))
    except OSError as e:
        raise CliError(EXIT_IO, str(e))

    required = {"proposed": ("model", "anchors"), "single": ("model",), "onthefly": ("gt",)}[args.method]
    for flag in required:
        if not getattr(args, flag):
            raise CliError(EXIT_CONFIG, f"--{flag} is required for --method {args.method}")
    try:
        sequence = _load_sequence(args.sequence)
        gt = gt_centers(load_ground_truth(args.gt)) if args.gt else None
        model = None if args.method == "onthefly" else load_model(args.model)
        if args.method == "proposed":
            scores = load_scores(args.anchors)
    except (OSError, ModelFormatError) as e:
        raise CliError(EXIT_IO, str(e))
    if args.method == "proposed":
        _require_one_camera([*model.frames.values(), *sequence], f"{args.model} and {args.sequence}")
    elif args.method == "onthefly":
        _require_one_camera(sequence, args.sequence)

    os.makedirs(args.out, exist_ok=True)
    traj_path = os.path.join(args.out, f"trajectory_{args.method}.txt")
    log_path = os.path.join(args.out, f"events_{args.method}.log")

    if args.method == "proposed":
        try:
            result = run_pipeline(model, sequence, detector_from_scores(scores), pipe_cfg)
        except (NoAnchorsFound, AllAnchorsFailed) as e:
            raise CliError(EXIT_PIPELINE, str(e))
        entries = result.frame_events
        save_model(result.model, os.path.join(args.out, "augmented_model.txt"))
    elif args.method == "single":
        entries = single_image_localize(model, sequence, pipe_cfg).frames
    else:  # onthefly
        try:
            entries = onthefly_sfm(sequence, pipe_cfg, gt)[1].frames
        except InitializationFailure as e:
            raise CliError(EXIT_PIPELINE, str(e))
    if gt is not None:
        for e in entries:
            if e.pose is not None and e.frame_id in gt:
                e.error = position_error(e.pose, gt[e.frame_id])

    _write_event_log(log_path, entries)
    export_trajectory(entries, traj_path)
    registered = sum(1 for e in entries if e.pose is not None)
    print(f"{args.method}: registered {registered}/{len(entries)} frames -> {traj_path}")
    return 0


def cmd_eval(args):
    try:
        gt = gt_centers(load_ground_truth(args.gt))
        reports = []
        for path in args.trajectories:
            entries = load_trajectory(path)
            name = os.path.basename(path)
            if name.startswith("trajectory_") and name.endswith(".txt"):
                name = name[len("trajectory_") : -len(".txt")]
            reports.append(compute_metrics(entries, gt, method=name))
    except (OSError, ValueError, EmptyIntersection) as e:
        raise CliError(EXIT_IO, str(e))
    table = compare_methods(reports)
    print(table)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(table + "\n")
    return 0


def cmd_export(args):
    try:
        model = load_model(args.model)
        export_pointcloud(model, args.ply)
    except (OSError, ModelFormatError) as e:
        raise CliError(EXIT_IO, str(e))
    print(f"wrote {len(model.landmarks)} points -> {args.ply}")
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="anchorloc", description="Sequential camera localization against a frozen reference model")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("synth", help="generate a synthetic dataset")
    ps.add_argument("--config", required=True)
    ps.add_argument("--out", required=True)
    ps.add_argument("--seed", type=int, default=None)
    ps.set_defaults(func=cmd_synth)

    pb = sub.add_parser("build-ref", help="build the reference model from a dataset dir")
    pb.add_argument("--dataset", required=True)
    pb.add_argument("--out", required=True)
    pb.set_defaults(func=cmd_build_ref)

    pl = sub.add_parser("localize", help="localize a query sequence")
    pl.add_argument("--model", help="reference model file (proposed/single)")
    pl.add_argument("--sequence", required=True)
    pl.add_argument("--config", required=True)
    pl.add_argument("--out", required=True)
    pl.add_argument("--method", choices=["proposed", "single", "onthefly"], default="proposed")
    pl.add_argument("--anchors", help="anchor score file (proposed)")
    pl.add_argument("--gt", help="ground-truth file (errors; required for onthefly)")
    pl.set_defaults(func=cmd_localize)

    pe = sub.add_parser("eval", help="compare trajectory files against ground truth")
    pe.add_argument("--gt", required=True)
    pe.add_argument("--out", default=None)
    pe.add_argument("trajectories", nargs="+")
    pe.set_defaults(func=cmd_eval)

    px = sub.add_parser("export", help="export a model's landmarks as ASCII PLY")
    px.add_argument("--model", required=True)
    px.add_argument("--ply", required=True)
    px.set_defaults(func=cmd_export)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
