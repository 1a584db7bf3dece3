"""Output checks, computed apart from the program.

Camera centers, errors, digests and trajectory parsing are written here
again on purpose: a check that called ``anchorloc.geom`` or
``anchorloc.metrics`` would share any fault it is meant to catch. Every
function returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import hashlib

import numpy as np

# 1% of the ring's major radius (scene.major_radius = 100)
MAX_MEDIAN_ERROR = 1.0
# the proposed method claims every frame: none may be further off than this
MAX_PROPOSED_FRAME_ERROR = 1.0
PROPOSED_MIN_FRACTION = 0.99
REGISTERED = ("registered", "anchor")


def rotation(q):
    """Rotation matrix of a unit quaternion (w, x, y, z)."""
    w, x, y, z = (float(v) for v in q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def camera_center(q, t):
    """-R^T t, the camera center of world-to-camera pose (q, t)."""
    return -rotation(q).T @ np.asarray(t, dtype=float)


def pose_fingerprint(poses):
    """sha256 over frame id -> (q, t) or None, in frame id order."""
    h = hashlib.sha256()
    for fid in sorted(poses):
        h.update(str(fid).encode())
        qt = poses[fid]
        if qt is None:
            h.update(b"-")
        else:
            h.update(np.asarray(qt[0], dtype=float).tobytes())
            h.update(np.asarray(qt[1], dtype=float).tobytes())
    return h.hexdigest()


def reference_digest(model, frame_ids, landmark_ids):
    """sha256 over the given reference frame poses and landmark positions."""
    h = hashlib.sha256()
    for fid in sorted(frame_ids):
        pose = model.frames[fid].pose
        h.update(np.asarray(pose.q, dtype=float).tobytes())
        h.update(np.asarray(pose.t, dtype=float).tobytes())
    for lid in sorted(landmark_ids):
        h.update(np.asarray(model.landmarks[lid].position, dtype=float).tobytes())
    return h.hexdigest()


def frame_errors(poses, gt_centers):
    """frame id -> camera-center distance, over frames with a pose."""
    return {
        fid: float(np.linalg.norm(camera_center(*qt) - gt_centers[fid]))
        for fid, qt in poses.items()
        if qt is not None
    }


def check_reported_once(reported_ids, query_ids):
    """Every query frame appears exactly once among the reported frames."""
    problems = []
    if len(reported_ids) != len(set(reported_ids)):
        problems.append("a frame is reported more than once")
    missing = set(query_ids) - set(reported_ids)
    extra = set(reported_ids) - set(query_ids)
    if missing:
        problems.append(f"{len(missing)} query frames not reported, e.g. {min(missing)}")
    if extra:
        problems.append(f"{len(extra)} reported frames are not query frames, e.g. {min(extra)}")
    return problems


def check_accuracy(errors, n_query, proposed):
    problems = []
    if not errors:
        return ["no frame registered"]
    med = float(np.median(list(errors.values())))
    if not med <= MAX_MEDIAN_ERROR:
        problems.append(f"median error {med:.4g} > {MAX_MEDIAN_ERROR}")
    if proposed:
        if len(errors) < PROPOSED_MIN_FRACTION * n_query:
            problems.append(f"registered {len(errors)}/{n_query} < {PROPOSED_MIN_FRACTION:.0%}")
        worst = max(errors, key=errors.get)
        if not errors[worst] <= MAX_PROPOSED_FRAME_ERROR:
            problems.append(f"frame {worst} error {errors[worst]:.4g} > {MAX_PROPOSED_FRAME_ERROR}")
    return problems


def check_bundle_costs(ba_events):
    return [
        f"bundle adjustment {ev.label} raised the cost: {ev.cost_before!r} -> {ev.cost_after!r}"
        for ev in ba_events
        if not ev.cost_after <= ev.cost_before
    ]


def parse_trajectory(text):
    """Trajectory file -> (frame ids in file order, frame id -> (q, t) or None).

    Line format: id ts qw qx qy qz tx ty tz status error, with '-' pose
    fields for a frame that was not registered.
    """
    lines = text.splitlines()
    if not lines or lines[0] != "ANCHORLOC_TRAJ 1":
        raise ValueError("not a trajectory file")
    ids, poses = [], {}
    for line in lines[1:]:
        tok = line.split()
        if not tok:
            continue
        if len(tok) != 11:
            raise ValueError(f"trajectory line has {len(tok)} fields")
        fid = int(tok[0])
        ids.append(fid)
        if tok[2] == "-" or tok[9] not in REGISTERED:
            poses[fid] = None
        else:
            vals = [float(v) for v in tok[2:9]]
            poses[fid] = (np.array(vals[:4]), np.array(vals[4:]))
    return ids, poses


def parse_eval_counts(text):
    """Method -> registered count from the table ``anchorloc eval`` prints."""
    counts = {}
    for line in text.splitlines()[2:]:
        tok = line.split()
        if len(tok) >= 2 and tok[1].isdigit():
            counts[tok[0]] = int(tok[1])
    return counts
