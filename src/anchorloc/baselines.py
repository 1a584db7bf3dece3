"""Comparison methods: per-frame single-image localization and
on-the-fly incremental SfM aligned to ground truth by a similarity.

Both report each frame as one metrics.TrajectoryEntry, as the proposed
pipeline does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .geom import Pose, project_many
from .matching import global_descriptor, match_features, retrieve_top_k
from .metrics import TrajectoryEntry
from .model import ReferenceIndex, SfMModel, merge_new_landmarks
from .pipeline import (
    BA_PERIOD,
    K_RETRIEVAL,
    MATCH_RATIO,
    MIN_2D3D,
    TRIANGULATION,
    PipelineConfig,
    _attempt_registration,
    _frame_seed,
    match_lift_pnp,
    retrieve_candidates,
)
from .solvers import (
    FreezeMask,
    SolverError,
    bundle_adjust,
    estimate_relative_pose,
    epipolar_inlier_indices,
    refine_relative_pose,
    triangulate_many,
    umeyama_similarity,
)
from .solvers.triangulation import ACCEPTED

# not called here; perfbench/tracing.py wraps these names on this module
from .model import lift_matches_to_3d  # noqa: F401
from .solvers import ransac_pnp, triangulate  # noqa: F401


class InitializationFailure(Exception):
    pass


# Epipolar gate for the two-view seed. A tighter threshold than PnP uses,
# because loose Sampson gates admit wrong essential matrices on
# near-planar wall patches.
INIT_EPIPOLAR_PX = 1.5


@dataclass
class BaselineReport:
    frames: list  # TrajectoryEntry per frame, in timestamp order


def single_image_localize(model: SfMModel, sequence, cfg: PipelineConfig) -> BaselineReport:
    """Localize every frame independently against the reference model.

    Retrieval top-k, matching, and PnP only; no state is carried between
    frames and the reference model is never mutated.
    """
    index = ReferenceIndex.of(model)
    results = []
    for frame in sorted(sequence, key=lambda f: f.timestamp):
        pose, cands, corrs, inliers = None, [], [], []
        if len(frame.features) > 0:
            cands = retrieve_candidates(index, frame, K_RETRIEVAL)
            _, corrs, pose, inliers = match_lift_pnp(model, frame, cands, cfg)
        status = "failed" if pose is None else "registered"
        results.append(
            TrajectoryEntry(
                frame.id, frame.timestamp, status, pose,
                n_candidates=len(cands), n_corrs=len(corrs), n_inliers=len(inliers),
            )
        )
    return BaselineReport(results)


def _find_init_pair(frames, cfg: PipelineConfig):
    """Best two-view seed: pairs within 50 frames, most inlier
    matches first, accepted when the refined relative pose actually
    triangulates most of its inliers. The support gate matters: a pose
    consistent with the epipolar gate can still be wrong on shallow-relief
    geometry, and high-match pairs can be near-pure rotation."""
    scored = []
    for i in range(0, len(frames), 3):
        for gap in (1, 2, 5, 10, 25, 50):
            j = i + gap
            if j >= len(frames):
                continue
            pairs = match_features(frames[i].features, frames[j].features, MATCH_RATIO)
            if len(pairs) >= MIN_2D3D:
                scored.append((len(pairs), i, j, pairs))
    scored.sort(key=lambda s: s[:3], reverse=True)
    for n, i, j, pairs in scored:
        a, b = frames[i], frames[j]
        px1 = a.features.pixels[pairs["query"]]
        px2 = b.features.pixels[pairs["target"]]
        rcfg = replace(cfg.ransac, rng_seed=_frame_seed(cfg, a.id * 31 + b.id), inlier_threshold=INIT_EPIPOLAR_PX)
        try:
            rel, inliers = estimate_relative_pose(px1, px2, a.intrinsics, rcfg)
        except SolverError:
            continue
        rel = refine_relative_pose(rel, px1[inliers], px2[inliers], a.intrinsics)
        # re-gate every match at the standard threshold: the tight seed
        # gate above rejects good matches the refined pose can keep
        inliers = epipolar_inlier_indices(rel, px1, px2, a.intrinsics, cfg.ransac.inlier_threshold)
        _, code = _two_view_points(rel, px1[inliers], px2[inliers], a.intrinsics, TRIANGULATION)
        support = int((code == ACCEPTED).sum())
        if support >= max(MIN_2D3D, len(inliers) // 2):
            return i, j, pairs, rel, inliers
    raise InitializationFailure("no frame pair with sufficient matches and parallax")


def _two_view_points(rel, px1, px2, intr, tri_cfg):
    """triangulate_many of matching (n,2) pixels of the origin view and the view at rel."""
    n = len(px1)
    origin = Pose.identity()
    return triangulate_many(
        np.broadcast_to([origin.R, rel.R], (n, 2, 3, 3)),
        np.broadcast_to([origin.t, rel.t], (n, 2, 3)),
        np.stack([px1, px2], axis=1),
        intr,
        tri_cfg,
    )


def _prune_landmarks(model: SfMModel, max_reprojection_px):
    """Drop landmarks whose worst observation reprojects too far."""
    bad = []
    for lm in model.landmarks.values():
        for fid, fidx in lm.track:
            fr = model.frames[fid]
            uv, z = project_many(fr.pose.R, fr.pose.t, fr.intrinsics, lm.position[None])
            if z[0] <= 0 or np.linalg.norm(uv[0] - fr.features.pixels[fidx]) > max_reprojection_px:
                bad.append(lm.id)
                break
    for lid in bad:
        model.remove_landmark(lid)


def _rescale_about(model: SfMModel, origin, scale):
    for fr in model.frames.values():
        c = origin + scale * (fr.pose.center() - origin)
        R = fr.pose.R
        fr.pose = Pose(fr.pose.q.copy(), -R @ c)
    for lm in model.landmarks.values():
        lm.position = origin + scale * (lm.position - origin)


def _apply_similarity(model: SfMModel, sim):
    Rs = sim.R
    for fr in model.frames.values():
        c = sim.apply(fr.pose.center())
        R = fr.pose.R @ Rs.T
        fr.pose = Pose.from_rt(R, -R @ c)
    for lm in model.landmarks.values():
        lm.position = sim.apply(lm.position)


def onthefly_sfm(sequence, cfg: PipelineConfig, gt):
    """Incremental SfM over the input frames only, then ground-truth
    similarity registration.

    gt: frame id -> ground-truth camera center, used only for the final
    alignment, which needs >= 3 registered frames with ground truth.
    Returns (query-only SfMModel, BaselineReport); the report's poses are
    the aligned ones and its entries carry no errors or counts. The
    caller's frames are copied, not changed.
    """
    frames = sorted((replace(f) for f in sequence), key=lambda f: f.timestamp)
    if len(frames) < 2:
        raise InitializationFailure("need at least 2 frames")

    i0, j0, pairs, rel, inliers = _find_init_pair(frames, cfg)
    a, b = frames[i0], frames[j0]

    model = SfMModel()
    a.pose = Pose.identity()
    a.status = "registered"
    b.pose = rel  # maps view-a camera frame (== world) into view b
    b.status = "registered"
    model.add_frame(a)
    model.add_frame(b)

    # the eight-point seed pose can be a couple of degrees off on
    # low-parallax wall geometry, so triangulate with a relaxed gate,
    # polish the pair with a bundle step, then drop what stayed bad
    seed_tri = replace(TRIANGULATION, max_reprojection_px=4.0 * TRIANGULATION.max_reprojection_px)
    qs, ts = pairs["query"][inliers], pairs["target"][inliers]
    X, code = _two_view_points(rel, a.features.pixels[qs], b.features.pixels[ts], a.intrinsics, seed_tri)
    keep = np.flatnonzero(code == ACCEPTED)
    merge_new_landmarks(model, X[keep], [[(a.id, q), (b.id, t)] for q, t in zip(qs[keep].tolist(), ts[keep].tolist())])
    if len(model.landmarks) < MIN_2D3D:
        raise InitializationFailure("two-view seed produced too few points")

    baseline0 = float(np.linalg.norm(b.pose.center() - a.pose.center()))
    gauge = FreezeMask(frozen_frame_ids={a.id})
    bundle_adjust(model, gauge)
    _prune_landmarks(model, TRIANGULATION.max_reprojection_px)
    if len(model.landmarks) < MIN_2D3D:
        raise InitializationFailure("two-view seed produced too few points")
    base = float(np.linalg.norm(model.frames[b.id].pose.center() - model.frames[a.id].pose.center()))
    if base > 1e-12:
        _rescale_about(model, model.frames[a.id].pose.center(), baseline0 / base)

    # register remaining frames, expanding outward from the seed pair.
    # candidate frames come from appearance retrieval over the frames
    # registered so far, as a generic unordered-collection SfM would pick
    # them — which is what perceptual aliasing defeats. The frames with
    # features and their global descriptors, in frame order, computed once
    described = [f for f in frames if len(f.features) > 0]
    described_ids = np.array([f.id for f in described], dtype=int)
    gdescs = np.array([global_descriptor(f.features) for f in described])
    row = {f.id: i for i, f in enumerate(described)}

    new_since_ba = 0

    def _run_ba():
        bundle_adjust(model, gauge)
        base = float(
            np.linalg.norm(model.frames[b.id].pose.center() - model.frames[a.id].pose.center())
        )
        if base > 1e-12:
            _rescale_about(model, model.frames[a.id].pose.center(), baseline0 / base)

    # pass over the unregistered frames until a round adds nothing; a
    # frame that failed early can succeed later once its neighbors are in.
    # each round walks outward from the already-registered set so a whole
    # contiguous stretch can come in within one round
    progress = True
    while progress:
        progress = False
        reg_times = sorted(f.timestamp for f in frames if f.status == "registered")

        def _dist_to_registered(f):
            i = np.searchsorted(reg_times, f.timestamp)
            best = np.inf
            if i < len(reg_times):
                best = reg_times[i] - f.timestamp
            if i > 0:
                best = min(best, f.timestamp - reg_times[i - 1])
            return best

        pending = [f for f in frames if f.status != "registered"]
        pending.sort(key=_dist_to_registered)
        for frame in pending:
            cand_ids = []
            if frame.id in row:
                db = np.array([f.status == "registered" for f in described]) & (described_ids != frame.id)
                cand_ids = retrieve_top_k(gdescs[row[frame.id]], described_ids[db], gdescs[db], K_RETRIEVAL)
            ok = False
            if cand_ids:
                ok, _, _ = _attempt_registration(model, frame, cand_ids, cfg, "registered")
            if not ok:
                frame.status = "failed"
                continue
            progress = True
            new_since_ba += 1
            if new_since_ba >= BA_PERIOD:
                _run_ba()
                new_since_ba = 0
    if new_since_ba:
        _run_ba()

    # similarity registration to the scene via shared ground-truth frames
    shared = [f.id for f in frames if f.status == "registered" and f.id in gt]
    if len(shared) >= 3:
        src = np.array([model.frames[fid].pose.center() for fid in shared])
        dst = np.array([gt[fid] for fid in shared])
        sim = umeyama_similarity(src, dst)
        _apply_similarity(model, sim)

    results = [
        TrajectoryEntry(
            f.id,
            f.timestamp,
            f.status if f.status == "registered" else "failed",
            model.frames[f.id].pose if f.id in model.frames else None,
        )
        for f in frames
    ]
    return model, BaselineReport(results)
