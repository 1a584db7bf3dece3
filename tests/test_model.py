import base64
import copy
import struct
from dataclasses import replace

import numpy as np
import pytest

from anchorloc.geom import CameraIntrinsics, Pose
from anchorloc.matching import CANDIDATE_MATCH, FeatureSet
from anchorloc.model import (
    Frame,
    Landmark,
    ReferenceIndex,
    SfMModel,
    add_observation,
    freeze_mask_for_reference,
    frozen_state_digest,
    lift_matches_to_3d,
    load_model,
    merge_new_landmarks,
    save_model,
    spatial_neighbors,
)
from anchorloc.solvers import bundle_adjust
from anchorloc.textio import FormatError
from conftest import models_equal, no_features
from test_solvers_bundle import _ring_model


def _intr():
    return CameraIntrinsics(400.0, 400.0, 320.0, 240.0, 640, 480)


def _frame(fid, status="reference", pose=None, n=3):
    rng = np.random.default_rng(fid)
    fs = FeatureSet(rng.uniform(0, 100, (n, 2)), rng.normal(size=(n, 4)))
    if pose is None and status in ("reference", "anchor", "registered"):
        pose = Pose(np.array([1.0, 0, 0, 0]), rng.normal(size=3))
    return Frame(fid, float(fid), _intr(), fs, pose, status)


def test_frame_status_requires_pose():
    with pytest.raises(ValueError):
        Frame(0, 0.0, _intr(), no_features(4), None, "reference")
    with pytest.raises(ValueError):
        Frame(0, 0.0, _intr(), no_features(4), None, "bogus")


def test_duplicate_ids_rejected():
    m = SfMModel()
    m.add_frame(_frame(1))
    with pytest.raises(ValueError):
        m.add_frame(_frame(1))
    m.add_landmark(Landmark(0, np.zeros(3), "reference", [(1, 0)]))
    with pytest.raises(ValueError):
        m.add_landmark(Landmark(0, np.zeros(3), "reference", []))
    # double-binding a feature is also rejected
    with pytest.raises(ValueError):
        m.add_landmark(Landmark(1, np.zeros(3), "reference", [(1, 0)]))


def test_new_landmark_id_monotone():
    m = SfMModel()
    m.add_frame(_frame(9))
    m.add_landmark(Landmark(5, np.zeros(3), "augmented", [(9, 0)]))
    assert m.new_landmark_id() == 6
    assert m.new_landmark_id() == 7


def test_freeze_mask_and_digest():
    m = SfMModel()
    m.add_frame(_frame(0, "reference"))
    m.add_frame(_frame(1, "registered"))
    m.add_landmark(Landmark(0, np.ones(3), "reference", [(0, 0)]))
    m.add_landmark(Landmark(1, np.ones(3), "augmented", [(1, 0)]))
    mask = freeze_mask_for_reference(m, window=len(m.frames))
    assert mask.frozen_frame_ids == {0}
    assert mask.frozen_landmark_ids == {0}
    d0 = frozen_state_digest(m, mask)
    m.landmarks[1].position += 5.0  # non-frozen change leaves the digest alone
    assert frozen_state_digest(m, mask) == d0
    m.landmarks[0].position = np.nextafter(m.landmarks[0].position, np.inf)  # a single-ulp frozen change shows up
    assert frozen_state_digest(m, mask) != d0


def _windowed_model():
    """A ring of 8 cameras with noisy pixels: 0 and 1 reference, the others
    query frames registered in the order 7, 2, 6, 3, 5, 4. Landmarks 0-9
    are reference, the rest augmented; 30-39 are unseen by 3, 4 and 5."""
    ring = _ring_model(n_cams=8, n_pts=40, noise=0.5)
    model = SfMModel()
    for fid in (0, 1, 7, 2, 6, 3, 5, 4):
        model.add_frame(replace(ring.frames[fid], status="reference" if fid < 2 else "registered"))
    for lid, lm in ring.landmarks.items():
        track = [o for o in lm.track if lid < 30 or o[0] not in (3, 4, 5)]
        model.add_landmark(Landmark(lid, lm.position, "reference" if lid < 10 else "augmented", track))
    return model


def test_freeze_mask_window_frees_last_registered_frames():
    model = _windowed_model()
    mask = freeze_mask_for_reference(model, window=3)
    assert mask.frozen_frame_ids == {0, 1, 7, 2, 6}
    assert mask.frozen_landmark_ids == set(range(10)) | set(range(30, 40))
    # a window wider than the sequence frees every query frame and augmented landmark
    wide = freeze_mask_for_reference(model, window=50)
    assert wide.frozen_frame_ids == {0, 1} and wide.frozen_landmark_ids == set(range(10))


def test_windowed_bundle_keeps_frozen_blocks_bit_identical():
    model = _windowed_model()
    before = copy.deepcopy(model)
    mask = freeze_mask_for_reference(model, window=3)
    digest = frozen_state_digest(model, mask)
    res = bundle_adjust(model, mask)
    assert res.accepted_steps > 0 and (res.free_cameras, res.free_points) == (3, 20)
    assert frozen_state_digest(model, mask) == digest
    for fid, fr in model.frames.items():
        old = before.frames[fid].pose
        same = np.array_equal(fr.pose.q, old.q) and np.array_equal(fr.pose.t, old.t)
        assert same == (fid in mask.frozen_frame_ids)
    for lid, lm in model.landmarks.items():
        assert np.array_equal(lm.position, before.landmarks[lid].position) == (lid in mask.frozen_landmark_ids)


def test_spatial_neighbors_ranking_and_gate():
    m = SfMModel()
    for i in range(5):
        pose = Pose(np.array([1.0, 0, 0, 0]), np.array([float(i), 0.0, 0.0]))
        m.add_frame(_frame(i, "reference", pose=pose))
    # a frame looking the opposite way is filtered by the view-angle gate
    flipped = Pose.from_rt(np.diag([1.0, -1.0, -1.0]), np.zeros(3))
    m.add_frame(_frame(99, "reference", pose=flipped))
    got = spatial_neighbors(ReferenceIndex.of(m), Pose(np.array([1.0, 0, 0, 0]), np.zeros(3)), 3, 60.0)
    assert got == [0, 1, 2]
    assert 99 not in spatial_neighbors(ReferenceIndex.of(m), Pose(), 10, 60.0)


def test_spatial_neighbors_matches_per_frame_loop():
    from conftest import random_pose

    rng = np.random.default_rng(7)
    m = SfMModel()
    for i in range(60):
        m.add_frame(_frame(i, "reference", pose=random_pose(rng)))
    m.add_frame(_frame(60, "registered"))  # only reference frames count
    for _ in range(20):
        pose = random_pose(rng)
        scored = []
        for f in m.reference_frames():
            c = np.clip(f.pose.view_direction() @ pose.view_direction(), -1.0, 1.0)
            if np.degrees(np.arccos(c)) <= 90.0:
                scored.append((np.linalg.norm(f.pose.center() - pose.center()), f.id))
        assert spatial_neighbors(ReferenceIndex.of(m), pose, 7, 90.0) == [fid for _, fid in sorted(scored)[:7]]


def test_lift_matches_collapses_to_best():
    m = SfMModel()
    m.add_frame(_frame(0, "reference"))
    m.add_landmark(Landmark(7, np.array([1.0, 2.0, 3.0]), "reference", [(0, 0), (0, 1)]))
    q = FeatureSet(np.array([[5.0, 5.0], [9.0, 9.0]]), np.zeros((2, 4)))
    # (candidate, query, target, distance); (0, 2) is unbound
    matches = np.array([(0, 0, 0, 0.5), (0, 1, 1, 0.2), (0, 0, 2, 0.1)], dtype=CANDIDATE_MATCH)
    corrs = lift_matches_to_3d(m, q, matches)
    assert len(corrs) == 1
    assert corrs["landmark"][0] == 7 and corrs["feature"][0] == 1
    assert np.array_equal(corrs["pixel"][0], [9.0, 9.0]) and np.array_equal(corrs["world"][0], [1.0, 2.0, 3.0])


def test_add_observation_existing_binding_wins():
    m = SfMModel()
    m.add_frame(_frame(5))
    m.add_frame(_frame(6))
    m.add_landmark(Landmark(0, np.zeros(3), "augmented", [(5, 1)]))
    m.add_landmark(Landmark(1, np.zeros(3), "augmented", [(6, 0)]))
    assert add_observation(m, 1, 5, 2)
    assert not add_observation(m, 1, 5, 1)  # already bound to landmark 0
    assert m.feature_landmarks[5][1] == 0


def _bindings(m):
    return (
        {lid: list(lm.track) for lid, lm in m.landmarks.items()},
        {fid: ids.tolist() for fid, ids in m.feature_landmarks.items()},
        m._next_landmark_id,
    )


# a frame the model does not hold, an index past the end, a negative index
UNHELD_FEATURES = [(9, 0), (0, 3), (0, -1)]


@pytest.mark.parametrize("key", UNHELD_FEATURES)
def test_add_landmark_refuses_a_feature_the_model_does_not_hold(key):
    """Nothing of the track is bound, not even its valid first feature."""
    m = SfMModel()
    m.add_frame(_frame(0))
    m.add_landmark(Landmark(0, np.zeros(3), "reference", [(0, 1)]))
    before = _bindings(m)
    with pytest.raises(ValueError):
        m.add_landmark(Landmark(1, np.zeros(3), "augmented", [(0, 0), key]))
    assert _bindings(m) == before


@pytest.mark.parametrize("key", UNHELD_FEATURES)
def test_add_observation_refuses_a_feature_the_model_does_not_hold(key):
    m = SfMModel()
    m.add_frame(_frame(0))
    m.add_landmark(Landmark(0, np.zeros(3), "reference", [(0, 1)]))
    before = _bindings(m)
    with pytest.raises(ValueError):
        add_observation(m, 0, *key)
    assert _bindings(m) == before


# (0, 1) is bound, so the second track would be dropped had its unheld feature not been checked
@pytest.mark.parametrize("first", [(0, 0), (0, 1)])
@pytest.mark.parametrize("key", UNHELD_FEATURES)
def test_merge_new_landmarks_refuses_a_feature_the_model_does_not_hold(key, first):
    """Refused before a landmark id is drawn."""
    m = SfMModel()
    m.add_frame(_frame(0))
    m.add_landmark(Landmark(0, np.zeros(3), "reference", [(0, 1)]))
    before = _bindings(m)
    with pytest.raises(ValueError):
        merge_new_landmarks(m, np.zeros((1, 3)), [[first, key]])
    assert _bindings(m) == before


def test_add_landmark_refuses_a_negative_id():
    m = SfMModel()
    m.add_frame(_frame(0))
    before = _bindings(m)
    with pytest.raises(ValueError):
        m.add_landmark(Landmark(-1, np.zeros(3), "augmented", [(0, 0)]))
    assert _bindings(m) == before


def test_merge_new_landmarks_skips_bound_and_short_tracks():
    m = SfMModel()
    m.add_frame(_frame(1))
    m.add_frame(_frame(2))
    m.add_landmark(Landmark(0, np.zeros(3), "augmented", [(1, 0)]))
    tracks = [
        [(1, 0), (2, 0)],  # touches a bound feature
        [(2, 1)],  # track too short
        [(1, 1), (2, 2)],  # accepted
    ]
    assert merge_new_landmarks(m, np.ones((3, 3)), tracks) == 1
    assert len(m.landmarks) == 2
    lm = m.landmarks[max(m.landmarks)]
    assert lm.origin == "augmented" and lm.track == [(1, 1), (2, 2)]


def test_save_load_round_trip_exact(tmp_path):
    m = SfMModel()
    m.add_frame(_frame(0, "reference"))
    m.add_frame(_frame(1, "pending", n=2))
    m.add_landmark(Landmark(0, np.array([0.1, -2.5, 3e-17]), "reference", [(0, 0), (0, 2)]))
    path = tmp_path / "model.txt"
    save_model(m, path)
    again = load_model(path)
    assert models_equal(m, again)
    # byte-stable: saving the loaded model reproduces the file exactly
    path2 = tmp_path / "model2.txt"
    save_model(again, path2)
    assert path.read_bytes() == path2.read_bytes()


def _block(*values):
    """A FEATURES block written apart from the package: base64 of little-endian float64."""
    return base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode() if values else "-"


def test_load_model_format_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("")
    with pytest.raises(FormatError):
        load_model(p)
    p.write_text("WRONG 2\n")
    with pytest.raises(FormatError):
        load_model(p)
    p.write_text("ANCHORLOC_MODEL 99\n")
    with pytest.raises(FormatError):
        load_model(p)
    p.write_text("ANCHORLOC_MODEL x\n")
    with pytest.raises(FormatError, match="line 1"):
        load_model(p)
    p.write_text("ANCHORLOC_MODEL 2\nGARBAGE x y\n")
    with pytest.raises(FormatError):
        load_model(p)
    head = "ANCHORLOC_MODEL 2\nFRAME 0 0.0 pending 400.0 400.0 320.0 240.0 640 480 0\n"
    # version 1 wrote one F record per feature; it has no reader
    p.write_text(head.replace(" 2\n", " 1\n", 1) + "FEATURES 0 1 4\nF 1.0 2.0 0.0 0.0 0.0 0.0\n")
    with pytest.raises(FormatError, match="line 1"):
        load_model(p)
    # a FEATURES record holds its whole block: one value short, not base64,
    # no block at all, or a block followed by a version-1 F record
    for features in (
        f"FEATURES 0 2 4 {_block(*range(11))}\n",
        "FEATURES 0 1 4 not*base64\n",
        "FEATURES 0 1 4\n",
        f"FEATURES 0 1 4 {_block(1.0, 2.0, 0.0, 0.0, 0.0, 0.0)} -\n",
        "FEATURES 0 0 4 -\nF 1.0 2.0 0.0 0.0 0.0 0.0\n",
    ):
        p.write_text(head + features)
        with pytest.raises(FormatError, match="line [34]"):
            load_model(p)
    # every FRAME is followed by its FEATURES record
    for rest in ("", "LANDMARK 0 reference 1.0 2.0 3.0 0\n"):
        p.write_text(head + rest)
        with pytest.raises(FormatError, match="no FEATURES record"):
            load_model(p)
    # landmark tracks must name an existing frame and one of its features
    frame = head + f"FEATURES 0 1 4 {_block(1.0, 2.0, 0.0, 0.0, 0.0, 0.0)}\n"
    p.write_text(frame + "LANDMARK 0 reference 1.0 2.0 3.0 1 0 0\n")
    model = load_model(p)
    assert model.landmarks[0].track == [(0, 0)]
    assert model.frames[0].features.pixels.tolist() == [[1.0, 2.0]]
    for track in ("7 0", "0 1", "0 -1"):
        p.write_text(frame + f"LANDMARK 0 reference 1.0 2.0 3.0 1 {track}\n")
        with pytest.raises(FormatError, match="line 4"):
            load_model(p)
    # a LANDMARK record ends with its declared track, which names each
    # observation once: a repeat would count twice in bundle adjustment
    for track in ("1 0 0 5", "2 0 0 0 0"):
        p.write_text(frame + f"LANDMARK 0 reference 1.0 2.0 3.0 {track}\n")
        with pytest.raises(FormatError, match="line 4"):
            load_model(p)
    # a FRAME record has 10 fields, a pose flag 0 or 1 and, with flag 1,
    # exactly 7 pose values
    fields = "FRAME 0 0.0 pending 400.0 400.0 320.0 240.0 640 480"
    for pose in ("2", "1 1.0 0.0 0.0", "1 1.0 0.0 0.0 0.0 1.0 2.0", "1 1.0 0.0 0.0 0.0 1.0 2.0 3.0 4.0", "0 1.0"):
        p.write_text(f"ANCHORLOC_MODEL 2\n{fields} {pose}\nFEATURES 0 0 4 -\n")
        with pytest.raises(FormatError, match="line 2"):
            load_model(p)
    p.write_text(f"ANCHORLOC_MODEL 2\n{fields} 1 1.0 0.0 0.0 0.0 1.0 2.0 3.0\nFEATURES 0 0 4 -\n")
    assert load_model(p).frames[0].pose.t.tolist() == [1.0, 2.0, 3.0]
    # a negative descriptor dimension would admit feature rows of one value
    p.write_text(head + f"FEATURES 0 2 -1 {_block(1.0, 2.0)}\n")
    with pytest.raises(FormatError, match="line 3"):
        load_model(p)
    # the last FRAME record is checked like every other one, when its FEATURES record completes it
    for last in ("FRAME 1 1.0 bogus", "FRAME 0 1.0 pending"):
        p.write_text(frame + last + " 400.0 400.0 320.0 240.0 640 480 0\nFEATURES " + last.split()[1] + " 0 4 -\n")
        with pytest.raises(FormatError, match="line 5"):
            load_model(p)
