"""Command-line entry point.

Subcommands: synth, build-ref, localize, eval, export. Every command is
deterministic given its config file; flags override config-file keys.
Exit codes: 0 success, 2 config error, 3 I/O error, 4 pipeline-fatal;
EXIT_CODES maps exceptions to them in one place, main.
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
from .model import Frame, SfMModel, load_model, save_model
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
from .textio import FormatError, file_id, finite, fmt, read_keyed, write_records

GT_HEADER = "ANCHORLOC_GT 1"
SCORES_HEADER = "ANCHORLOC_SCORES 1"
TRACKS_HEADER = "ANCHORLOC_TRACKS 1"

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_PIPELINE = 4

# the one place exceptions become exit codes; any other exception is a bug
# and ends in a traceback
EXIT_CODES = {
    ConfigError: EXIT_CONFIG,
    ConfigInvalid: EXIT_CONFIG,
    OSError: EXIT_IO,
    FormatError: EXIT_IO,
    EmptyIntersection: EXIT_IO,
    NoAnchorsFound: EXIT_PIPELINE,
    AllAnchorsFailed: EXIT_PIPELINE,
    InitializationFailure: EXIT_PIPELINE,
}


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def save_ground_truth(frames, path):
    lines = (" ".join([str(sf.id), fmt(sf.timestamp), *map(fmt, sf.pose.q), *map(fmt, sf.pose.t)]) for sf in frames)
    write_records(path, GT_HEADER, lines)


def _ground_truth_record(tok):
    if len(tok) != 9:
        raise ValueError("expected 9 fields")
    vals = [finite(v) for v in tok[1:]]
    return file_id(tok[0]), (vals[0], Pose(np.array(vals[1:5]), np.array(vals[5:])))


def load_ground_truth(path):
    """frame id -> (timestamp, Pose)."""
    return read_keyed(path, GT_HEADER, _ground_truth_record)


def gt_centers(gt):
    return {fid: pose.center() for fid, (_, pose) in gt.items()}


def save_scores(scores, path):
    write_records(path, SCORES_HEADER, (f"{fid} {fmt(scores[fid])}" for fid in sorted(scores)))


def _score_record(tok):
    if len(tok) != 2:
        raise ValueError("expected a frame id and a score")
    return file_id(tok[0]), finite(tok[1])


def load_scores(path):
    return read_keyed(path, SCORES_HEADER, _score_record)


def _frames_to_model(frames, intr, status, with_pose):
    m = SfMModel()
    for sf in frames:
        m.add_frame(
            Frame(sf.id, sf.timestamp, intr, sf.features, sf.pose.copy() if with_pose else None, status)
        )
    return m


def cmd_synth(args):
    scene, _ = parse_run_config(args.config)
    if args.seed is not None:
        scene = dataclasses.replace(scene, rng_seed=args.seed)

    dataset = generate_scene(scene)
    os.makedirs(args.out, exist_ok=True)
    intr = dataset.intrinsics()

    save_model(_frames_to_model(dataset.database, intr, "reference", True), os.path.join(args.out, "database.txt"))
    save_model(_frames_to_model(dataset.query, intr, "pending", False), os.path.join(args.out, "query.txt"))
    save_ground_truth(dataset.database, os.path.join(args.out, "gt_database.txt"))
    save_ground_truth(dataset.query, os.path.join(args.out, "gt_query.txt"))
    save_scores(anchor_scores(dataset), os.path.join(args.out, "anchor_scores.txt"))
    tracks = (f"{sf.id} {fidx} {int(lid)}" for sf in dataset.database for fidx, lid in enumerate(sf.feat_landmark_ids))
    write_records(os.path.join(args.out, "tracks_db.txt"), TRACKS_HEADER, tracks)

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


def _require_new_ids(model, sequence, what):
    """The augmented model holds each reference and sequence frame under its own id."""
    shared = sorted(model.frames.keys() & {f.id for f in sequence})
    if shared:
        raise CliError(EXIT_IO, f"{what}: frame id {shared[0]} is both a reference and a sequence frame")


def cmd_build_ref(args):
    db = load_model(os.path.join(args.dataset, "database.txt"))
    _require_one_camera(db.frames.values(), "database.txt")

    def track_record(tok):  # (frame id, feature index) -> landmark id
        fid, fidx, lid = (file_id(v) for v in tok)
        if fid not in db.frames or not 0 <= fidx < len(db.frames[fid].features):
            raise ValueError(f"({fid}, {fidx}) names no database feature")
        return (fid, fidx), lid

    tracks = {}
    for key, lid in read_keyed(os.path.join(args.dataset, "tracks_db.txt"), TRACKS_HEADER, track_record).items():
        tracks.setdefault(lid, []).append(key)
    model = reference_model_from_tracks(list(db.frames.values()), tracks)
    save_model(model, args.out)
    print(f"reference model: {len(model.frames)} frames, {len(model.landmarks)} landmarks")
    return 0


def _load_sequence(path):
    seq_model = load_model(path)
    return sorted(seq_model.frames.values(), key=lambda f: (f.timestamp, f.id))


def _write_event_log(path, entries):
    """One line per frame, in report order: id status n_candidates n_corrs n_inliers error."""
    lines = (
        f"{e.frame_id} {e.status} {e.n_candidates} {e.n_corrs} {e.n_inliers} "
        + (fmt(e.error) if e.error is not None else "-")
        for e in entries
    )
    write_records(path, None, lines)


def cmd_localize(args):
    _, pipe_cfg = parse_run_config(args.config)
    required = {"proposed": ("model", "anchors"), "single": ("model",), "onthefly": ("gt",)}[args.method]
    for flag in required:
        if not getattr(args, flag):
            raise CliError(EXIT_CONFIG, f"--{flag} is required for --method {args.method}")
    sequence = _load_sequence(args.sequence)
    gt = gt_centers(load_ground_truth(args.gt)) if args.gt else None
    model = None if args.method == "onthefly" else load_model(args.model)
    if args.method == "proposed":
        scores = load_scores(args.anchors)
        _require_one_camera([*model.frames.values(), *sequence], f"{args.model} and {args.sequence}")
        _require_new_ids(model, sequence, f"{args.model} and {args.sequence}")
    elif args.method == "onthefly":
        _require_one_camera(sequence, args.sequence)

    os.makedirs(args.out, exist_ok=True)
    traj_path = os.path.join(args.out, f"trajectory_{args.method}.txt")
    log_path = os.path.join(args.out, f"events_{args.method}.log")

    if args.method == "proposed":
        result = run_pipeline(model, sequence, detector_from_scores(scores), pipe_cfg)
        entries = result.frame_events
        save_model(result.model, os.path.join(args.out, "augmented_model.txt"))
    elif args.method == "single":
        entries = single_image_localize(model, sequence, pipe_cfg).frames
    else:  # onthefly
        entries = onthefly_sfm(sequence, pipe_cfg, gt)[1].frames
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
    gt = gt_centers(load_ground_truth(args.gt))
    reports = []
    for path in args.trajectories:
        entries = load_trajectory(path)
        name = os.path.basename(path)
        if name.startswith("trajectory_") and name.endswith(".txt"):
            name = name[len("trajectory_") : -len(".txt")]
        reports.append(compute_metrics(entries, gt, method=name))
    table = compare_methods(reports)
    print(table)
    if args.out:
        write_records(args.out, None, [table])
    return 0


def cmd_export(args):
    model = load_model(args.model)
    export_pointcloud(model, args.ply)
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, *EXIT_CODES) as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code if isinstance(e, CliError) else next(c for t, c in EXIT_CODES.items() if isinstance(e, t))


if __name__ == "__main__":
    sys.exit(main())
