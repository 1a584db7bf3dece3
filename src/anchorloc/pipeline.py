"""Anchor-seeded sequential localization against a frozen reference model.

Flow: detect anchor frames, register them to the reference model, then
walk the sequence in time order from the earliest anchor, registering
each frame via spatially-, retrieval-, and temporally-guided matching,
PnP, and triangulation. A frame whose two predecessors in pass order are
posed gets their constant-velocity pose as a prior. It is matched only
against the candidates the prior sees, those binding a landmark that
projects in front of the prior camera and within the inlier threshold of
the box around the frame's feature pixels, the local-map search of
ORB-SLAM's tracking; no other candidate can give the prior an inlier. PnP
refines the prior on the correspondences it explains; when that misses
RANSAC's consensus bar, the other candidates are matched too and the frame
falls back to P3P-RANSAC on all of them. After every batch of newly registered
frames a windowed frozen-reference bundle adjustment refines the last
_BA_WINDOW registered query frames and the augmented landmarks they
observe, holding the reference and older frames fixed (the local BA of
ORB-SLAM).
Frames before the earliest anchor are covered by a mirrored backward
pass.

A frame's matches stay numpy structured arrays from matching to the new
landmarks: match_lift_pnp stacks the MATCH rows of all candidates into
CANDIDATE_MATCH rows, lifts them to CORRESPONDENCE rows for PnP, and
_new_tracks picks the tracks to triangulate from the same rows; both
selections follow matching.best_per_key.

Each frame is reported as one metrics.TrajectoryEntry carrying its final
pose and the counts of its registration attempt. The localizer never sees
ground truth; callers that have it annotate the errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .geom import Pose, project_many
from .matching import (
    CANDIDATE_MATCH,
    MATCH,
    EmptyFeatureSet,
    best_per_key,
    global_descriptor,
    match_features,
    records,
    temporal_candidates,
)
from .metrics import TrajectoryEntry
from .model import (
    ReferenceIndex,
    SfMModel,
    add_observation,
    bound_landmarks,
    freeze_mask_for_reference,
    frozen_state_digest,
    lift_matches_to_3d,
    merge_new_landmarks,
    spatial_neighbors,
    triangulate_tracks,
)
from .solvers import (
    RansacConfig,
    SolverError,
    TriangulationConfig,
    bundle_adjust,
    pose_from_prior,
    ransac_pnp,
)
from .solvers.triangulation import ACCEPTED

# not called here; perfbench/tracing.py wraps these names on this module
from .solvers import triangulate  # noqa: F401


class NoAnchorsFound(Exception):
    def __init__(self, max_score):
        super().__init__(f"no frame scored above the anchor threshold (max {max_score:.3f})")
        self.max_score = max_score


class AllAnchorsFailed(Exception):
    pass


# The method's fixed parameters. A frame is an anchor when its detector
# score is at least ANCHOR_THRESHOLD. Its candidates are the K_SPATIAL
# reference frames nearest its prior pose within MAX_VIEW_ANGLE_DEG of its
# view direction, the K_RETRIEVAL best by global descriptor, and the
# N_TEMPORAL nearest query frames in time. Matches pass Lowe's ratio test
# at MATCH_RATIO, and a frame needs MIN_2D3D correspondences for PnP. A
# bundle adjustment follows every BA_PERIOD registered frames, and after
# BA_PERIOD failures in a row the prior pose resets to the nearest anchor.
ANCHOR_THRESHOLD = 0.5
K_SPATIAL = 10
MAX_VIEW_ANGLE_DEG = 60.0
K_RETRIEVAL = 20
N_TEMPORAL = 25
MATCH_RATIO = 0.8
MIN_2D3D = 15
BA_PERIOD = 10
# the gates for the landmarks the localizers triangulate
TRIANGULATION = TriangulationConfig()


@dataclass
class PipelineConfig:
    """What a run may vary: the RANSAC settings, whose rng_seed the run config sets."""

    ransac: RansacConfig = field(default_factory=RansacConfig)


@dataclass
class BAEvent:
    label: str
    cost_before: float
    cost_after: float
    iterations: int
    accepted_steps: int
    free_cameras: int
    free_points: int
    frozen_digest_before: str
    frozen_digest_after: str


@dataclass
class LocalizationResult:
    frame_events: list  # TrajectoryEntry per frame
    ba_events: list
    model: SfMModel


def detector_from_scores(scores: dict):
    """AnchorDetector backed by a precomputed frame id -> score table."""

    def detector(frame):
        return scores.get(frame.id, 0.0)

    return detector


def detect_anchors(sequence, detector, threshold):
    """Frame ids scoring >= threshold, in timestamp order."""
    scored = [(f.timestamp, f.id, detector(f)) for f in sequence]
    anchors = [fid for ts, fid, s in sorted(scored) if s >= threshold]
    if not anchors:
        raise NoAnchorsFound(max((s for _, _, s in scored), default=0.0))
    return anchors


def _frame_seed(cfg: PipelineConfig, frame_id: int) -> int:
    return (cfg.ransac.rng_seed * 1000003 + frame_id) % (2**63)


def _covisible(model: SfMModel, frame, cands, prior: Pose, threshold):
    """Whether each candidate frame binds a landmark that prior sees: in
    front of the camera and projected within threshold px of the box around
    frame's feature pixels. pose_from_prior counts a correspondence only when
    the prior reprojects its landmark within threshold of a feature pixel,
    so a candidate outside this test holds no landmark the prior can count."""
    bound = [ids[ids >= 0] for ids in (model.feature_landmarks[c.id] for c in cands)]
    lids, at = np.unique(np.concatenate([np.empty(0, np.intp), *bound]), return_inverse=True)
    X = np.array([model.landmarks[lid].position for lid in lids.tolist()]).reshape(-1, 3)
    uv, z = project_many(prior.R, prior.t, frame.intrinsics, X)
    px = frame.features.pixels
    seen = (z > 0) & np.all((uv >= px.min(axis=0) - threshold) & (uv <= px.max(axis=0) + threshold), axis=1)
    hits = np.concatenate([[0], np.cumsum(seen[at])])
    ends = np.cumsum([0] + [len(b) for b in bound])
    return hits[ends[1:]] > hits[ends[:-1]]


def match_lift_pnp(model: SfMModel, frame, candidate_ids, cfg: PipelineConfig, prior=None):
    """Match a frame against its candidates, lift to 2D-3D, solve PnP.

    With a prior pose, only the candidates the prior sees (_covisible) are
    matched, and PnP refines the prior on the correspondences it explains
    (pose_from_prior). When that fails, the other candidates are matched
    too and RANSAC runs on the correspondences of all of them, in
    candidate order; no pair is matched twice. Leaves the model untouched.
    Returns (matches, corrs, pose, inliers): matches a CANDIDATE_MATCH
    array, candidate by candidate; corrs lift_matches_to_3d's
    CORRESPONDENCE array; pose None with no inliers when there are too
    few correspondences or RANSAC fails.
    """
    cands = [f for f in map(model.frames.get, candidate_ids) if f is not None and len(f.features) > 0]
    found = {}

    def stacked(sel):
        for c in sel:
            if c.id not in found:
                found[c.id] = match_features(frame.features, c.features, MATCH_RATIO)
        ms = [found[c.id] for c in sel]
        # stacked field by field: numpy joins plain arrays far faster than structured ones
        cid = np.repeat(np.array([c.id for c in sel], dtype=np.intp), [len(m) for m in ms])
        fields = (np.concatenate([np.empty(0, MATCH)[k], *(m[k] for m in ms)]) for k in MATCH.names)
        return records(CANDIDATE_MATCH, cid, *fields)

    near = cands
    if prior is not None:
        near = [c for c, ok in zip(cands, _covisible(model, frame, cands, prior, cfg.ransac.inlier_threshold)) if ok]
        matches = stacked(near)
        corrs = lift_matches_to_3d(model, frame.features, matches)
        if len(corrs) >= MIN_2D3D:
            try:
                pose, inliers = pose_from_prior(prior, corrs["world"], corrs["pixel"], frame.intrinsics, cfg.ransac)
                return matches, corrs, pose, inliers
            except SolverError:
                pass
    if prior is None or len(near) < len(cands):
        matches = stacked(cands)
        corrs = lift_matches_to_3d(model, frame.features, matches)
    if len(corrs) < MIN_2D3D:
        return matches, corrs, None, []

    rcfg = replace(cfg.ransac, rng_seed=_frame_seed(cfg, frame.id))
    try:
        pose, inliers = ransac_pnp(corrs["world"], corrs["pixel"], frame.intrinsics, rcfg)
    except SolverError:
        return matches, corrs, None, []
    return matches, corrs, pose, inliers


def _new_tracks(model: SfMModel, frame_id, matches):
    """Two-view tracks [(frame_id, query), (candidate, target)] to triangulate, in query
    order: each unbound query feature with its closest match (best_per_key) into an
    unbound feature of a posed candidate."""
    cands, at = np.unique(matches["candidate"], return_inverse=True)
    posed = np.array([model.frames[c].pose is not None for c in cands.tolist()], dtype=bool)[at]
    unbound_query = model.feature_landmarks[frame_id][matches["query"]] < 0
    free = unbound_query & (bound_landmarks(model, matches["candidate"], matches["target"]) < 0) & posed
    rows = np.flatnonzero(free)
    rows = rows[best_per_key(matches["query"][rows], matches["distance"][rows])]
    query, cand, target = (matches[k][rows].tolist() for k in ("query", "candidate", "target"))
    return [[(frame_id, q), (c, t)] for q, c, t in zip(query, cand, target)]


def _attempt_registration(model: SfMModel, frame, candidate_ids, cfg: PipelineConfig, status, prior=None):
    """Register one frame and grow the model: bind its inliers to their
    landmarks and triangulate new ones from still-unbound matches. prior
    goes to match_lift_pnp.

    Returns (registered flag, n_corrs, n_inliers).
    """
    matches, corrs, pose, inliers = match_lift_pnp(model, frame, candidate_ids, cfg, prior)
    if pose is None:
        return False, len(corrs), 0

    frame.pose = pose
    frame.status = status
    model.add_frame(frame)

    # add_observation keeps the first binding of a feature bound twice
    for lid, fidx in zip(corrs["landmark"][inliers].tolist(), corrs["feature"][inliers].tolist()):
        add_observation(model, lid, frame.id, fidx)

    tracks = _new_tracks(model, frame.id, matches)
    X, code = triangulate_tracks(model.frames, tracks, frame.intrinsics, TRIANGULATION)
    keep = np.flatnonzero(code == ACCEPTED)
    merge_new_landmarks(model, X[keep], [tracks[k] for k in keep])

    return True, len(corrs), len(inliers)


# K, the query frames each bundle adjustment frees; BENCH_10.json records the sweep that chose it
_BA_WINDOW = 15


def _run_bundle(model, label, ba_events):
    """Windowed frozen-reference BA, the local BA of ORB-SLAM (Mur-Artal et
    al., T-RO 2015): only the last _BA_WINDOW query frames in
    registration order and the augmented landmarks they observe are free,
    so the reduced camera system stays at most 6K x 6K however long the
    sequence. Everything else is fixed by the mask, which the digests
    before and after audit."""
    mask = freeze_mask_for_reference(model, _BA_WINDOW)
    before = frozen_state_digest(model, mask)
    res = bundle_adjust(model, mask)
    after = frozen_state_digest(model, mask)
    ba_events.append(
        BAEvent(
            label, res.cost_before, res.cost_after, res.iterations, res.accepted_steps,
            res.free_cameras, res.free_points, before, after,
        )
    )


def register_anchors(model: SfMModel, index: ReferenceIndex, sequence, anchor_ids, cfg: PipelineConfig):
    """Register anchors to the reference model; one frozen BA at the end.

    An anchor that has no features or does not register stays pending, so
    the recursion tries it again as an ordinary frame: a detector's false
    hit costs no frame. index is ReferenceIndex.of(model), whose global
    descriptors retrieval searches. Returns (list of registered anchor
    ids, list of BAEvents).
    """
    if not anchor_ids:
        raise AllAnchorsFailed("no anchors supplied")
    frames = {f.id: f for f in sequence}
    registered = []
    ba_events = []
    for aid in anchor_ids:
        frame = frames[aid]
        if len(frame.features) == 0:
            continue
        cands = retrieve_candidates(index, frame, K_RETRIEVAL)
        ok, _, _ = _attempt_registration(model, frame, cands, cfg, "anchor")
        if ok:
            registered.append(aid)
    if not registered:
        raise AllAnchorsFailed("no anchor could be registered to the reference model")
    _run_bundle(model, "anchors", ba_events)
    return registered, ba_events


def retrieve_candidates(index: ReferenceIndex, frame, k):
    """The k reference frames of index whose global descriptors best match frame's."""
    try:
        g = global_descriptor(frame.features)
    except EmptyFeatureSet:
        return []
    # imported here, not at the top: perfbench/tracing.py wraps the name
    # on anchorloc.matching, and only a call-time lookup sees the wrapper
    from .matching import retrieve_top_k

    return retrieve_top_k(g, index.retrieval_ids, index.descriptors, k)


def _nearest_anchor_pose(model, anchor_ids, timestamp):
    """Pose of the anchor nearest in time; a tie goes to the earlier in anchor_ids."""
    return min((model.frames[a] for a in anchor_ids), key=lambda fr: abs(fr.timestamp - timestamp)).pose


def _velocity_prior(model: SfMModel, seq, i, step):
    """Constant-velocity pose of seq[i] from its two predecessors in pass
    order, seq[i - step] (b) and seq[i - 2 * step] (a), as they stand in the
    model now: the motion from a to b applied once more to b, the motion
    model of ORB-SLAM's tracking (Mur-Artal et al., T-RO 2015). None unless
    both are posed query frames (anchor or registered)."""
    near, far = i - step, i - 2 * step
    if not (0 <= min(near, far) and max(near, far) < len(seq)):
        return None
    b, a = (model.frames.get(seq[j].id) for j in (near, far))
    if any(f is None or f.status not in ("anchor", "registered") for f in (a, b)):
        return None
    Rb = b.pose.R
    Rv = Rb @ a.pose.R.T
    return Pose.from_rt(Rv @ Rb, Rv @ (b.pose.t - a.pose.t) + b.pose.t)


def _set_final_poses(model: SfMModel, entries):
    """Give each entry its frame's pose in the model; a failed frame has none."""
    for e in entries:
        fr = model.frames.get(e.frame_id)
        e.pose = None if fr is None else fr.pose


def recursive_localize(model: SfMModel, index: ReferenceIndex, sequence, anchor_ids, cfg: PipelineConfig):
    """Time-ordered frame-by-frame registration with periodic frozen BA.

    index: ReferenceIndex.of(model). sequence: Frame objects. anchor_ids:
    register_anchors' result, the anchors registered into the model (at
    least one). Returns a
    LocalizationResult with one entry per frame it attempted, holding the
    frame's pose after the last BA.
    """
    seq = sorted(sequence, key=lambda f: f.timestamp)
    first = min((model.frames[a] for a in anchor_ids), key=lambda fr: fr.timestamp)
    t0, start_pose = first.timestamp, first.pose

    frame_events = []
    ba_events = []
    new_since_ba = 0

    # positions in seq of the frames each pass takes, in pass order, and the
    # step from a frame to its predecessor's position
    pending = [i for i, f in enumerate(seq) if f.status == "pending"]
    passes = [
        ([i for i in pending if seq[i].timestamp >= t0], 1),
        ([i for i in pending if seq[i].timestamp < t0][::-1], -1),
    ]

    for positions, step in passes:
        prior_pose = start_pose
        consecutive_failures = 0
        reverse = step < 0
        for i in positions:
            frame = seq[i]
            cands = []
            cands.extend(spatial_neighbors(index, prior_pose, K_SPATIAL, MAX_VIEW_ANGLE_DEG))
            cands.extend(retrieve_candidates(index, frame, K_RETRIEVAL))
            cands.extend(temporal_candidates(frame.timestamp, seq, N_TEMPORAL, reverse=reverse))
            seen = set()
            cand_ids = [c for c in cands if not (c in seen or seen.add(c))]

            ok, n_corrs, n_inliers = (False, 0, 0)
            if len(frame.features) > 0 and cand_ids:
                prior = _velocity_prior(model, seq, i, step)
                ok, n_corrs, n_inliers = _attempt_registration(model, frame, cand_ids, cfg, "registered", prior)
            if ok:
                prior_pose = frame.pose
                consecutive_failures = 0
                new_since_ba += 1
                if new_since_ba >= BA_PERIOD:
                    _run_bundle(model, f"after-{frame.id}", ba_events)
                    new_since_ba = 0
            else:
                frame.status = "failed"
                consecutive_failures += 1
                if consecutive_failures >= BA_PERIOD:
                    prior_pose = _nearest_anchor_pose(model, anchor_ids, frame.timestamp)
            frame_events.append(
                TrajectoryEntry(
                    frame.id, frame.timestamp, frame.status,
                    n_candidates=len(cand_ids), n_corrs=n_corrs, n_inliers=n_inliers,
                )
            )

    if new_since_ba > 0:
        _run_bundle(model, "final", ba_events)
    _set_final_poses(model, frame_events)
    return LocalizationResult(frame_events, ba_events, model)


def run_pipeline(model: SfMModel, sequence, detector, cfg: PipelineConfig):
    """detect_anchors + register_anchors + recursive_localize.

    Runs on a copy of the reference model and of the sequence's frames,
    so the caller's model and frames stay as they were; result.model is
    the augmented copy. The result has one entry per registered anchor
    and per frame the recursion attempted, sorted by (timestamp, id), each
    with its final pose.
    """
    model = model.copy()
    sequence = [replace(f) for f in sequence]
    anchors = detect_anchors(sequence, detector, ANCHOR_THRESHOLD)
    index = ReferenceIndex.of(model)
    registered, anchor_ba = register_anchors(model, index, sequence, anchors, cfg)
    result = recursive_localize(model, index, sequence, registered, cfg)
    result.ba_events = anchor_ba + result.ba_events
    # the per-frame loop reports every frame but the registered anchors; report them too
    frames = {f.id: f for f in sequence}
    anchor_events = [TrajectoryEntry(aid, frames[aid].timestamp, frames[aid].status) for aid in registered]
    _set_final_poses(model, anchor_events)
    result.frame_events = anchor_events + result.frame_events
    result.frame_events.sort(key=lambda e: (e.timestamp, e.frame_id))
    return result
