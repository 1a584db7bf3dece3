"""Localization metrics and export of trajectories / point clouds."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import Pose
from .textio import file_id, finite, fmt, read_keyed, write_records


class EmptyIntersection(Exception):
    pass


@dataclass
class EvaluationReport:
    method: str
    registered: int
    total: int
    mae: float
    median: float

    @property
    def fraction(self):
        return self.registered / self.total if self.total else 0.0


@dataclass
class TrajectoryEntry:
    """One localized frame, as every method reports it.

    pose is the final one (after the last bundle adjustment and, for
    onthefly, the similarity alignment), None for a failed frame. error
    is set by the caller that holds ground truth. The counts are those of
    the frame's registration attempt; a method that keeps none leaves 0.
    """

    frame_id: int
    timestamp: float
    status: str
    pose: object = None  # Pose | None
    error: float | None = None
    n_candidates: int = 0
    n_corrs: int = 0
    n_inliers: int = 0


def position_error(pose, center) -> float:
    """Distance between a pose's camera center and a ground-truth center."""
    return float(np.linalg.norm(pose.center() - np.asarray(center)))


def compute_metrics(entries, gt, method="method") -> EvaluationReport:
    """Positional error statistics for a set of localized frames.

    entries: iterable of TrajectoryEntry (pose None for failures).
    gt: frame id -> ground-truth camera center. Error statistics cover
    registered frames with ground truth; the registered fraction is over
    all entries.
    """
    entries = list(entries)
    if not any(e.frame_id in gt for e in entries):
        raise EmptyIntersection("no frame overlaps the ground truth")

    errors = {}
    registered = 0
    for e in entries:
        if e.status in ("registered", "anchor") and e.pose is not None:
            registered += 1
            if e.frame_id in gt:
                errors[e.frame_id] = position_error(e.pose, gt[e.frame_id])

    vals = np.array(sorted(errors.values()))
    if len(vals):
        mae = float(vals.mean())
        # even count: mean of the two central order statistics
        median = float(np.median(vals))
    else:
        mae = float("nan")
        median = float("nan")
    return EvaluationReport(method, registered, len(entries), mae, median)


def compare_methods(reports) -> str:
    """Aligned text table, one row per report."""
    reports = list(reports)
    if not reports:
        raise ValueError("need at least one report")
    header = ("Method", "#Cameras", "MAE", "Median error")
    rows = [header]
    for r in reports:
        rows.append(
            (
                r.method,
                f"{r.registered} ({100.0 * r.fraction:.1f}%)",
                f"{r.mae:.4g}",
                f"{r.median:.4g}",
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(4)]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("-" * (sum(widths) + 6))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# file exports

TRAJ_HEADER = "ANCHORLOC_TRAJ 1"
# the statuses the three localizers report, and so all that export_trajectory writes
TRAJ_STATUSES = ("anchor", "registered", "failed")


def export_trajectory(entries, path):
    """One line per frame: id ts qw qx qy qz tx ty tz status error.

    Pose fields are '-' for unregistered frames, error is '-' when no
    ground truth is known.
    """
    lines = []
    for e in sorted(entries, key=lambda e: (e.timestamp, e.frame_id)):
        if e.pose is not None:
            pose_part = " ".join(fmt(v) for v in list(e.pose.q) + list(e.pose.t))
        else:
            pose_part = "- - - - - - -"
        err_part = fmt(e.error) if e.error is not None else "-"
        lines.append(f"{e.frame_id} {fmt(e.timestamp)} {pose_part} {e.status} {err_part}")
    write_records(path, TRAJ_HEADER, lines)


def _trajectory_record(tok):
    if len(tok) != 11:
        raise ValueError(f"expected 11 fields, got {len(tok)}")
    pose = None
    if tok[2] != "-":
        vals = [finite(v) for v in tok[2:9]]
        pose = Pose(np.array(vals[:4]), np.array(vals[4:]))
    if tok[9] not in TRAJ_STATUSES:
        raise ValueError(f"unknown status {tok[9]!r}")
    err = None if tok[10] == "-" else finite(tok[10])
    fid = file_id(tok[0])
    return fid, TrajectoryEntry(fid, finite(tok[1]), tok[9], pose, err)


def load_trajectory(path):
    return list(read_keyed(path, TRAJ_HEADER, _trajectory_record).values())


def export_pointcloud(model, path):
    """Landmark positions as ASCII PLY."""
    lms = [model.landmarks[k] for k in sorted(model.landmarks)]
    header = "\n".join(
        ["ply", "format ascii 1.0", f"element vertex {len(lms)}", "property double x", "property double y",
         "property double z", "end_header"]
    )
    write_records(path, header, (" ".join(fmt(v) for v in lm.position) for lm in lms))
