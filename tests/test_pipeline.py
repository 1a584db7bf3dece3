from dataclasses import replace

import numpy as np
import pytest

from anchorloc import pipeline
from anchorloc.baselines import single_image_localize
from anchorloc.geom import CameraIntrinsics, Pose, project_many
from anchorloc.matching import FeatureSet, match_features
from anchorloc.metrics import position_error
from anchorloc.model import Frame, Landmark, ReferenceIndex, SfMModel
from anchorloc.solvers import NoConsensus, ransac_pnp
from anchorloc.pipeline import (
    _BA_WINDOW,
    BA_PERIOD,
    AllAnchorsFailed,
    NoAnchorsFound,
    PipelineConfig,
    _frame_seed,
    detect_anchors,
    detector_from_scores,
    register_anchors,
    run_pipeline,
)
from anchorloc.synth import anchor_scores, build_reference_model, generate_scene
from conftest import SMALL_SCENE, no_features, query_frames, query_gt


def _registered_ids(result):
    return {
        e.frame_id
        for e in result.frame_events
        if e.status in ("anchor", "registered")
    }


def test_pipeline_registers_whole_sweep(small_scene, small_reference, small_scores):
    seq = query_frames(small_scene)
    gt = query_gt(small_scene)
    cfg = PipelineConfig()
    result = run_pipeline(small_reference, seq, detector_from_scores(small_scores), cfg)
    ids = _registered_ids(result)
    assert len(ids) == len(seq)
    errs = np.array([position_error(e.pose, gt[e.frame_id]) for e in result.frame_events if e.pose is not None])
    assert len(errs) == len(seq)
    assert np.median(errs) < 1.0
    # events are unique per frame and time-ordered
    fids = [e.frame_id for e in result.frame_events]
    assert len(fids) == len(set(fids))
    ts = [e.timestamp for e in result.frame_events]
    assert ts == sorted(ts)


def test_pipeline_runs_periodic_frozen_bundles(small_scene, small_reference, small_scores):
    seq = query_frames(small_scene)
    result = run_pipeline(small_reference, seq, detector_from_scores(small_scores), PipelineConfig())
    assert len(result.ba_events) >= len(seq) // BA_PERIOD // 2
    for ev in result.ba_events:
        assert ev.cost_after <= ev.cost_before
        assert ev.frozen_digest_before == ev.frozen_digest_after


def _outcome(entries):
    """Everything an entry reports, with its pose as bytes."""
    return [
        (e.frame_id, e.timestamp, e.status, e.n_candidates, e.n_corrs, e.n_inliers)
        + ((e.pose.q.tobytes(), e.pose.t.tobytes()) if e.pose is not None else (None,))
        for e in entries
    ]


def test_pipeline_leaves_reference_and_frames_untouched(small_scene, small_reference, small_scores):
    cfg = PipelineConfig()
    seq = query_frames(small_scene)
    single_before = single_image_localize(small_reference, seq, cfg)
    detector = detector_from_scores(small_scores)
    first = run_pipeline(small_reference, seq, detector, cfg)
    # the caller's frames are not registered into the result
    assert all(f.status == "pending" and f.pose is None for f in seq)
    assert all(f.status == "reference" for f in small_reference.frames.values())
    second = run_pipeline(small_reference, seq, detector, cfg)
    assert _outcome(second.frame_events) == _outcome(first.frame_events)
    assert second.ba_events == first.ba_events
    assert second.model is not small_reference
    # single-image localization sees the same reference as before
    single_after = single_image_localize(small_reference, seq, cfg)
    assert _outcome(single_after.frames) == _outcome(single_before.frames)


def test_detect_anchors_threshold_and_order():
    frames = [Frame(i, float(10 - i), None, no_features(4), None, "pending") for i in range(4)]
    det = detector_from_scores({0: 0.9, 1: 0.1, 2: 0.6, 3: 0.6})
    # timestamps are reversed, so anchors come back in time order
    assert detect_anchors(frames, det, 0.5) == [3, 2, 0]
    with pytest.raises(NoAnchorsFound) as exc:
        detect_anchors(frames, det, 0.95)
    assert exc.value.max_score == 0.9


def test_frame_seed_is_per_frame_and_in_range():
    cfg = PipelineConfig()
    seeds = {_frame_seed(cfg, fid) for fid in range(100000, 100100)}
    assert len(seeds) == 100
    assert all(0 <= s < 2**63 for s in seeds)


def test_register_anchors_all_failed(small_reference):
    intr = small_reference.frames[0].intrinsics
    # a frame with garbage features cannot be registered
    rng = np.random.default_rng(0)
    junk = FeatureSet(rng.uniform(0, 400, (30, 2)), rng.normal(size=(30, 32)))
    frames = [Frame(100000, 0.0, intr, junk, None, "pending")]
    with pytest.raises(AllAnchorsFailed):
        register_anchors(small_reference, ReferenceIndex.of(small_reference), frames, [100000], PipelineConfig())
    with pytest.raises(AllAnchorsFailed):
        register_anchors(small_reference, ReferenceIndex.of(small_reference), frames, [], PipelineConfig())


def test_backward_pass_registers_frames_before_the_first_anchor(small_scene, small_reference):
    """With the first anchors mid-sweep, the mirrored backward pass registers
    every frame before them, under the same BA guarantees as the forward pass."""
    seq = query_frames(small_scene)
    gt = query_gt(small_scene)
    detector = detector_from_scores({100040: 1.0, 100041: 1.0})
    result = run_pipeline(small_reference, seq, detector, PipelineConfig())
    status = {e.frame_id: e.status for e in result.frame_events}
    assert status[100040] == status[100041] == "anchor"
    assert all(status[f.id] == "registered" for f in seq if f.id < 100040)
    assert _registered_ids(result) == {f.id for f in seq}
    errs = [position_error(e.pose, gt[e.frame_id]) for e in result.frame_events]
    assert np.median(errs) < 1.0
    for ev in result.ba_events:
        assert ev.frozen_digest_before == ev.frozen_digest_after
        assert ev.cost_after <= ev.cost_before
    assert max(ev.free_cameras for ev in result.ba_events) == _BA_WINDOW


def test_noisy_detector_loses_no_frame():
    """A detector that errs: false hits across a texture-poor arc, where a
    frame does not register against the reference alone, false hits that
    do register, and a true anchor missed. Every hit that fails as an
    anchor is localized by the recursion like any other frame."""
    scene = generate_scene(replace(SMALL_SCENE, texture_poor_arcs=[(150.0, 170.0, 0.3)]))
    reference = build_reference_model(scene)
    seq = query_frames(scene)
    arc = [100034, 100035, 100036]
    for frame in (replace(f) for f in seq if f.id in arc):
        with pytest.raises(AllAnchorsFailed):
            register_anchors(reference.copy(), ReferenceIndex.of(reference), [frame], [frame.id], PipelineConfig())
    scores = anchor_scores(scene)
    assert scores[100000] >= 0.5
    scores.update(dict.fromkeys([100020, *arc, 100060], 1.0))
    scores[100000] = 0.0
    result = run_pipeline(reference, seq, detector_from_scores(scores), PipelineConfig())
    fids = [e.frame_id for e in result.frame_events]
    assert sorted(fids) == sorted(f.id for f in seq)
    assert len(_registered_ids(result)) >= 0.99 * len(seq)


def test_featureless_anchor_is_skipped_and_fails_in_the_recursion(small_scene, small_reference, small_scores, monkeypatch):
    """An anchor without features is never tried against the reference and
    is not among the registered anchors; the recursion reports it failed."""
    seq = query_frames(small_scene)
    detector = detector_from_scores(small_scores)
    anchors = detect_anchors(seq, detector, pipeline.ANCHOR_THRESHOLD)
    blank = anchors[0]
    seq = [replace(f, features=no_features(f.features.descriptors.shape[1])) if f.id == blank else f for f in seq]
    attempts = []
    attempt = pipeline._attempt_registration

    def counted(model, frame, candidate_ids, cfg, status, *prior):
        attempts.append((frame.id, status))
        return attempt(model, frame, candidate_ids, cfg, status, *prior)

    monkeypatch.setattr(pipeline, "_attempt_registration", counted)
    result = run_pipeline(small_reference, seq, detector, PipelineConfig())
    assert (blank, "anchor") not in attempts
    assert any(status == "anchor" for _, status in attempts)
    status = {e.frame_id: e.status for e in result.frame_events}
    assert status[blank] == "failed"
    assert all(status[a] == "anchor" for a in anchors[1:])
    assert sorted(status) == sorted(f.id for f in seq)


def test_frame_sharing_the_first_anchor_timestamp_is_reported(small_scene, small_reference, small_scores):
    """A frame stamped with the first anchor's time is attempted by the
    forward pass, so every frame is reported exactly once."""
    seq = query_frames(small_scene)
    t0 = next(f.timestamp for f in seq if f.id == 100000)
    seq = [replace(f, timestamp=t0) if f.id == 100011 else f for f in seq]
    result = run_pipeline(small_reference, seq, detector_from_scores(small_scores), PipelineConfig())
    assert min((e for e in result.frame_events if e.status == "anchor"), key=lambda e: e.timestamp).frame_id == 100000
    fids = [e.frame_id for e in result.frame_events]
    assert sorted(fids) == sorted(f.id for f in seq)


def test_velocity_prior_poses_the_recursion_without_ransac(monkeypatch):
    """On a 160-frame sweep, the constant-velocity prior poses nearly every
    frame of the recursion, so RANSAC runs on at most a tenth of them, and
    the trajectory is as accurate as with RANSAC on every frame."""
    scene = generate_scene(replace(SMALL_SCENE, n_query_frames=160))
    reference = build_reference_model(scene)
    seq = query_frames(scene)
    gt = query_gt(scene)
    detector = detector_from_scores(anchor_scores(scene))
    ransac_calls = []

    def counted(*args):
        ransac_calls.append(args)
        return ransac_pnp(*args)

    def median_error(result):
        assert _registered_ids(result) == {f.id for f in seq}
        return np.median([position_error(e.pose, gt[e.frame_id]) for e in result.frame_events])

    monkeypatch.setattr(pipeline, "ransac_pnp", counted)
    result = run_pipeline(reference, seq, detector, PipelineConfig())
    recursion = [e for e in result.frame_events if e.status != "anchor"]
    anchors = len(result.frame_events) - len(recursion)
    assert len(ransac_calls) - anchors <= 0.1 * len(recursion), (len(ransac_calls), anchors, len(recursion))
    with_prior = median_error(result)

    def no_prior(*args):
        raise NoConsensus("prior disabled")

    monkeypatch.setattr(pipeline, "pose_from_prior", no_prior)
    ransac_calls.clear()
    without = median_error(run_pipeline(reference, seq, detector, PipelineConfig()))
    assert len(ransac_calls) == len(result.frame_events)
    assert abs(with_prior - without) <= 0.05 * without, (with_prior, without)


def _pose_bits(pose):
    return None if pose is None else (pose.q.tobytes(), pose.t.tobytes())


def _inlier_pairs(corrs, inliers):
    """The (feature, landmark) pairs of the inlier correspondences."""
    return set(zip(corrs["feature"][inliers].tolist(), corrs["landmark"][inliers].tolist()))


def test_covisibility_gate_keeps_the_prior_pose_and_inliers(small_scene, small_reference, small_scores, monkeypatch):
    """At every tracking frame of a run, on the model as it stands then, the
    gated call gives the pose bits and inlier (feature, landmark) pairs of a
    call that matches every candidate, while it matches fewer of them."""
    seq = query_frames(small_scene)
    real = pipeline.match_lift_pnp
    compared = []

    def every_candidate(model, frame, cands, prior, threshold):
        return np.ones(len(cands), dtype=bool)

    def both(model, frame, cand_ids, cfg, prior=None):
        out = real(model, frame, cand_ids, cfg, prior)
        if prior is not None:
            with monkeypatch.context() as m:
                m.setattr(pipeline, "_covisible", every_candidate)
                compared.append((out, real(model, frame, cand_ids, cfg, prior)))
        return out

    monkeypatch.setattr(pipeline, "match_lift_pnp", both)
    result = run_pipeline(small_reference, seq, detector_from_scores(small_scores), PipelineConfig())
    assert _registered_ids(result) == {f.id for f in seq}
    assert len(compared) >= 0.9 * len(seq)
    for (matches, corrs, pose, inliers), (all_matches, all_corrs, all_pose, all_inliers) in compared:
        assert _pose_bits(pose) == _pose_bits(all_pose)
        assert _inlier_pairs(corrs, inliers) == _inlier_pairs(all_corrs, all_inliers)
    # the candidates matched only by the ungated call, summed over frames
    skipped = sum(len(set(full[0]["candidate"]) - set(gated[0]["candidate"])) for gated, full in compared)
    assert skipped > len(compared)


def test_failed_prior_matches_every_candidate_once(small_scene, small_reference, small_scores, monkeypatch):
    """A frame whose prior explains nothing gets exactly the matches,
    correspondences and pose of a call without a prior, and each candidate is
    matched once, though the gate skipped some of them first."""
    seq = query_frames(small_scene)
    model = run_pipeline(small_reference, seq[:40], detector_from_scores(small_scores), PipelineConfig()).model
    frame = seq[40]
    cand_ids = [f.id for f in model.reference_frames()] + [f.id for f in seq[:40]]
    # the last pose panned by 15 degrees: it explains no correspondence
    prior = model.frames[seq[39].id].pose.retract(np.array([0.0, 0.26, 0.0, 0.0, 0.0, 0.0]))
    cfg = PipelineConfig()
    kept, calls = [], []
    real_gate, real_match = pipeline._covisible, pipeline.match_features

    def gate(*args):
        kept.append(real_gate(*args))
        return kept[-1]

    def counted(a, b, ratio):
        calls.append(b)
        return real_match(a, b, ratio)

    monkeypatch.setattr(pipeline, "_covisible", gate)
    monkeypatch.setattr(pipeline, "match_features", counted)
    matches, corrs, pose, inliers = pipeline.match_lift_pnp(model, frame, cand_ids, cfg, prior)
    n_matched = len(calls)
    want_matches, want_corrs, want_pose, want_inliers = pipeline.match_lift_pnp(model, frame, cand_ids, cfg)
    assert 0 < kept[0].sum() < len(kept[0]) == len(cand_ids)
    assert n_matched == len(cand_ids) and len({id(b) for b in calls[:n_matched]}) == n_matched
    assert np.array_equal(matches, want_matches) and np.array_equal(corrs, want_corrs)
    assert pose is not None and _pose_bits(pose) == _pose_bits(want_pose)
    assert np.array_equal(inliers, want_inliers)


def test_gate_never_matches_a_candidate_the_prior_cannot_see(monkeypatch):
    """Candidates whose landmarks all lie behind the prior, more than the
    inlier threshold outside the box around the frame's feature pixels, or
    that bind no landmark, are never matched; a landmark inside the margin
    keeps its candidate."""
    intr = CameraIntrinsics(420.0, 420.0, 320.0, 240.0, 640, 480)
    rng = np.random.default_rng(4)
    n = 30
    desc = rng.normal(size=(n, 16))
    desc /= np.linalg.norm(desc, axis=1, keepdims=True)
    front = np.column_stack([rng.uniform(-2, 2, n), rng.uniform(-2, 2, n), rng.uniform(6, 10, n)])
    pixels, _ = project_many(np.eye(3), np.zeros(3), intr, front)
    u_min, u_max, v_mid = pixels[:, 0].min(), pixels[:, 0].max(), float(np.median(pixels[:, 1]))

    def at_pixel(u, v, z=8.0):
        return np.array([(u - intr.cx) / intr.fx * z, (v - intr.cy) / intr.fy * z, z])

    model = SfMModel()
    query = Frame(0, 0.0, intr, FeatureSet(pixels, desc), None, "pending")
    layouts = {
        1: front * np.array([1.0, 1.0, -1.0]),  # behind the camera
        2: front,  # seen: the frame's own landmarks
        3: np.array([at_pixel(u_max + 5.0, v_mid + dv) for dv in (-20.0, 0.0, 20.0)]),  # 5 px past the box
        4: np.array([at_pixel(u_max + 3.0, v_mid)]),  # 3 px past it, inside the 4 px margin
        6: np.array([at_pixel(u_min - 3.0, v_mid)]),  # the same on the other side
    }
    for fid in (1, 2, 3, 4, 5, 6):  # frame 5 binds no landmark
        X = layouts.get(fid, front)
        features = FeatureSet(rng.uniform(0, 400, (len(X), 2)), desc[: len(X)])
        model.add_frame(Frame(fid, float(fid), intr, features, Pose(), "reference"))
        for k, x in enumerate(X if fid in layouts else []):
            model.add_landmark(Landmark(model.new_landmark_id(), x, "reference", [(fid, k)]))
    matched = []

    def counted(a, b, ratio):
        matched.append(next(fid for fid, f in model.frames.items() if f.features is b))
        return match_features(a, b, ratio)

    monkeypatch.setattr(pipeline, "match_features", counted)
    matches, corrs, pose, inliers = pipeline.match_lift_pnp(model, query, [1, 2, 3, 4, 5, 6], PipelineConfig(), Pose())
    assert matched == [2, 4, 6]
    assert set(matches["candidate"].tolist()) <= {2, 4, 6}
    assert pose is not None and len(inliers) == n


def _track_entries(model):
    return sum(len(lm.track) for lm in model.landmarks.values())


def _bindings_agree(model):
    """feature_landmarks holds the landmark tracks' bindings, frame by frame,
    and no feature is in two tracks."""
    want = {fid: np.full(len(f.features), -1) for fid, f in model.frames.items()}
    for lid, lm in model.landmarks.items():
        for fid, k in lm.track:
            if want[fid][k] >= 0:
                return False
            want[fid][k] = lid
    return want.keys() == model.feature_landmarks.keys() and all(
        np.array_equal(model.feature_landmarks[fid], ids) for fid, ids in want.items()
    )


def test_feature_landmarks_mirror_the_bindings_after_a_run_and_a_prune(small_scene, small_reference, small_scores):
    from anchorloc.baselines import _prune_landmarks
    from anchorloc.pipeline import TRIANGULATION

    seq = query_frames(small_scene)
    model = run_pipeline(small_reference, seq, detector_from_scores(small_scores), PipelineConfig()).model
    assert _bindings_agree(model) and _bindings_agree(small_reference)
    assert _track_entries(model) > _track_entries(small_reference)
    # moved far off, these landmarks fail the prune's reprojection gate
    moved = [lid for lid, lm in model.landmarks.items() if lm.origin == "augmented"][:5]
    for lid in moved:
        model.landmarks[lid].position = model.landmarks[lid].position + 50.0
    before = len(model.landmarks)
    _prune_landmarks(model, TRIANGULATION.max_reprojection_px)
    assert set(moved).isdisjoint(model.landmarks) and len(model.landmarks) < before
    assert _bindings_agree(model)
