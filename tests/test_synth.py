import numpy as np
import pytest

from anchorloc.synth import (
    ConfigInvalid,
    SceneConfig,
    _generate_landmarks,
    anchor_scores,
    build_reference_model,
    generate_scene,
)
from conftest import SMALL_SCENE


def _ring_angles_deg(positions):
    """Ring angle of each landmark position in [0, 360)."""
    return np.mod(np.degrees(np.arctan2(positions[:, 1], positions[:, 0])), 360.0)


def _datasets_equal(a, b):
    if not np.array_equal(a.landmark_positions, b.landmark_positions):
        return False
    for fa, fb in zip(a.database + a.query, b.database + b.query):
        if fa.id != fb.id or fa.timestamp != fb.timestamp:
            return False
        if not np.array_equal(fa.pose.q, fb.pose.q) or not np.array_equal(fa.pose.t, fb.pose.t):
            return False
        if not np.array_equal(fa.features.pixels, fb.features.pixels):
            return False
        if not np.array_equal(fa.features.descriptors, fb.features.descriptors):
            return False
        if not np.array_equal(fa.feat_landmark_ids, fb.feat_landmark_ids):
            return False
    return True


def test_generation_is_bit_identical(small_scene):
    again = generate_scene(SMALL_SCENE)
    assert _datasets_equal(small_scene, again)


def test_different_seed_differs(small_scene):
    cfg = SceneConfig(**{**SMALL_SCENE.__dict__, "rng_seed": SMALL_SCENE.rng_seed + 1})
    other = generate_scene(cfg)
    assert not _datasets_equal(small_scene, other)


def test_texture_poor_arc_thins_database_only():
    cfg = SceneConfig(
        rng_seed=5,
        landmark_count=2000,
        aliased_group_count=0,
        aliased_group_size=1,
        texture_poor_arcs=[(90.0, 180.0, 0.1)],
        n_database_frames=60,
        n_query_frames=40,
    )
    ds = generate_scene(cfg)
    db_visible = _generate_landmarks(cfg)[3]
    deg = _ring_angles_deg(ds.landmark_positions[: cfg.landmark_count])
    in_arc = (deg >= 90.0) & (deg < 180.0)
    vis = db_visible[: cfg.landmark_count]
    # roughly the density fraction survives inside the arc, all outside
    assert vis[~in_arc].all()
    frac = vis[in_arc].mean()
    assert 0.03 < frac < 0.2
    # query frames still observe thinned landmarks; database frames never do
    hidden = set(np.nonzero(~db_visible)[0])
    assert any(hidden.intersection(int(i) for i in sf.feat_landmark_ids) for sf in ds.query)
    for sf in ds.database:
        assert not hidden.intersection(int(i) for i in sf.feat_landmark_ids)


def test_aliased_groups_share_descriptors(small_scene):
    cfg = small_scene.config
    n_regular = cfg.landmark_count
    descs = _generate_landmarks(cfg)[1][:n_regular]
    # count exact duplicates among base descriptors
    _, counts = np.unique(np.round(descs, 12), axis=0, return_counts=True)
    groups = counts[counts > 1]
    assert len(groups) == cfg.aliased_group_count
    assert (groups == cfg.aliased_group_size).all()
    # members of a group sit in distinct angular sectors
    uniq_rows, inverse = np.unique(np.round(descs, 12), axis=0, return_inverse=True)
    g = np.nonzero(np.bincount(inverse) == cfg.aliased_group_size)[0][0]
    members = np.nonzero(inverse == g)[0]
    ang = np.sort(_ring_angles_deg(small_scene.landmark_positions[members]))
    gaps = np.diff(ang)
    assert gaps.min() > 360.0 / cfg.aliased_group_size - 30.0


def test_pan_pause_freezes_camera_center():
    cfg = SceneConfig(
        rng_seed=2,
        landmark_count=800,
        aliased_group_count=0,
        aliased_group_size=1,
        n_database_frames=40,
        n_query_frames=60,
        query_pans=[(20, 30, 25.0)],
    )
    ds = generate_scene(cfg)
    centers = np.array([sf.pose.center() for sf in ds.query])
    pan = centers[20:30]
    assert np.allclose(pan, pan[0], atol=1e-9)
    # outside the pan the camera keeps moving
    assert np.linalg.norm(centers[31] - centers[30]) > 1.0
    # during the pan the view direction tilts away from the start
    d0 = ds.query[20].pose.view_direction()
    dm = ds.query[25].pose.view_direction()
    assert d0 @ dm < 1.0 - 1e-3


def test_anchor_zone_labeled_fraction_default():
    ds = generate_scene(SceneConfig())
    # a database frame lies in the anchor zone when it sees the unique object at all
    uniq = set(ds.unique_ids.tolist())
    labels = {sf.id: bool(uniq.intersection(sf.feat_landmark_ids.tolist())) for sf in ds.database}
    frac = sum(labels.values()) / len(labels)
    assert 0.05 <= frac <= 0.15


def test_anchor_scores_peak_near_unique_object(small_scene):
    scores = anchor_scores(small_scene)
    assert set(scores) == {sf.id for sf in small_scene.query}
    assert all(0.0 <= s <= 1.0 for s in scores.values())
    best = max(scores, key=scores.get)
    # sweeps start at the unique object's angle, so the peak is near the
    # ends of the id range
    i = best - 100000
    n = len(small_scene.query)
    assert min(i, n - i) < n // 6


def test_reference_model_covers_frames_and_landmarks(small_scene, small_reference):
    cfg = small_scene.config
    assert len(small_reference.frames) == cfg.n_database_frames
    assert all(f.status == "reference" for f in small_reference.frames.values())
    assert all(lm.origin == "reference" for lm in small_reference.landmarks.values())
    # triangulated positions stay close to the generator's landmarks
    errs = [
        np.linalg.norm(lm.position - small_scene.landmark_positions[lid])
        for lid, lm in small_reference.landmarks.items()
    ]
    assert np.median(errs) < 0.5


def test_scene_config_validation():
    with pytest.raises(ConfigInvalid):
        SceneConfig(landmark_count=0)
    with pytest.raises(ConfigInvalid):
        SceneConfig(aliased_group_count=-1)
    for f in (0.0, -420.0, float("nan"), float("inf")):
        with pytest.raises(ConfigInvalid):
            SceneConfig(fx=f)
        with pytest.raises(ConfigInvalid):
            SceneConfig(fy=f)
    with pytest.raises(ConfigInvalid):
        SceneConfig(query_pans=[(5, 10, float("nan"))])
    with pytest.raises(ConfigInvalid):
        SceneConfig(texture_poor_arcs=[(0.0, 90.0, 2.0)])
    with pytest.raises(ConfigInvalid):
        SceneConfig(texture_poor_arcs=[(-5.0, 90.0, 0.5)])
