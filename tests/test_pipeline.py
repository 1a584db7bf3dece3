from dataclasses import replace

import numpy as np
import pytest

from anchorloc import pipeline
from anchorloc.baselines import single_image_localize
from anchorloc.matching import FeatureSet
from anchorloc.metrics import position_error
from anchorloc.model import Frame
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
        register_anchors(small_reference, frames, [100000], PipelineConfig())
    with pytest.raises(AllAnchorsFailed):
        register_anchors(small_reference, frames, [], PipelineConfig())


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
            register_anchors(reference.copy(), [frame], [frame.id], PipelineConfig())
    scores = anchor_scores(scene)
    assert scores[100000] >= 0.5
    scores.update(dict.fromkeys([100020, *arc, 100060], 1.0))
    scores[100000] = 0.0
    result = run_pipeline(reference, seq, detector_from_scores(scores), PipelineConfig())
    fids = [e.frame_id for e in result.frame_events]
    assert sorted(fids) == sorted(f.id for f in seq)
    assert len(_registered_ids(result)) >= 0.99 * len(seq)


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
