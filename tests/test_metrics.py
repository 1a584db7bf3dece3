import numpy as np
import pytest

from anchorloc.geom import CameraIntrinsics, Pose
from anchorloc.matching import FeatureSet
from anchorloc.metrics import (
    EmptyIntersection,
    TrajectoryEntry,
    compare_methods,
    compute_metrics,
    export_pointcloud,
    export_trajectory,
    load_trajectory,
    position_error,
)
from anchorloc.model import Frame, Landmark, SfMModel
from anchorloc.textio import FormatError


def _entry(fid, center=None, status="registered", err=None):
    pose = None
    if center is not None:
        # identity rotation: center == -t
        pose = Pose(np.array([1.0, 0, 0, 0]), -np.asarray(center, dtype=float))
    return TrajectoryEntry(fid, float(fid), status, pose, err)


def test_registered_fraction_arithmetic():
    gt = {i: np.zeros(3) for i in range(2280)}
    entries = [_entry(i, np.zeros(3)) for i in range(2247)]
    entries += [_entry(i, status="failed") for i in range(2247, 2280)]
    rep = compute_metrics(entries, gt, method="proposed")
    assert rep.registered == 2247 and rep.total == 2280
    assert round(100.0 * rep.fraction, 1) == 98.6


def test_error_statistics_exact():
    gt = {0: np.zeros(3), 1: np.zeros(3), 2: np.zeros(3)}
    entries = [
        _entry(0, [1.0, 0.0, 0.0]),
        _entry(1, [0.0, 2.0, 0.0]),
        _entry(2, [0.0, 0.0, 9.0]),
    ]
    rep = compute_metrics(entries, gt)
    assert rep.mae == 4.0
    assert rep.median == 2.0


def test_failed_frames_excluded_from_errors():
    gt = {0: np.zeros(3), 1: np.zeros(3)}
    entries = [_entry(0, [3.0, 0.0, 0.0]), _entry(1, status="failed")]
    rep = compute_metrics(entries, gt)
    assert rep.registered == 1
    assert rep.mae == rep.median == 3.0


def test_anchor_status_counts_as_registered():
    gt = {0: np.zeros(3)}
    rep = compute_metrics([_entry(0, [1.0, 0, 0], status="anchor")], gt)
    assert rep.registered == 1 and rep.mae == 1.0


def test_empty_intersection_raises():
    with pytest.raises(EmptyIntersection):
        compute_metrics([_entry(5, np.zeros(3))], {1: np.zeros(3)})


def test_compare_methods_table():
    gt = {i: np.zeros(3) for i in range(4)}
    a = compute_metrics([_entry(i, [1.0, 0, 0]) for i in range(4)], gt, method="proposed")
    b = compute_metrics(
        [_entry(0, [2.0, 0, 0])] + [_entry(i, status="failed") for i in range(1, 4)],
        gt,
        method="single",
    )
    table = compare_methods([a, b])
    lines = table.splitlines()
    assert lines[0].split() == ["Method", "#Cameras", "MAE", "Median", "error"]
    assert "proposed" in lines[2] and "4 (100.0%)" in lines[2]
    assert "single" in lines[3] and "1 (25.0%)" in lines[3]
    with pytest.raises(ValueError):
        compare_methods([])


def test_trajectory_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    entries = [
        TrajectoryEntry(3, 3.0, "registered", Pose(q, rng.normal(size=3)), 0.125),
        TrajectoryEntry(4, 4.0, "failed", None, None),
        TrajectoryEntry(5, 5.0, "anchor", Pose(), 1e-17),
    ]
    path = tmp_path / "traj.txt"
    export_trajectory(entries, path)
    back = load_trajectory(path)
    assert len(back) == 3
    for orig, got in zip(entries, back):
        assert got.frame_id == orig.frame_id
        assert got.timestamp == orig.timestamp
        assert got.status == orig.status
        assert got.error == orig.error
        if orig.pose is None:
            assert got.pose is None
        else:
            assert np.array_equal(got.pose.q, orig.pose.q)
            assert np.array_equal(got.pose.t, orig.pose.t)


def test_load_trajectory_rejects_bad_files(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("nope\n")
    with pytest.raises(FormatError):
        load_trajectory(p)
    p.write_text("ANCHORLOC_TRAJ 1\n1 2 3\n")
    with pytest.raises(FormatError):
        load_trajectory(p)


def test_export_pointcloud_ply(tmp_path):
    m = SfMModel()
    intr = CameraIntrinsics(400.0, 400.0, 320.0, 240.0, 640, 480)
    m.add_frame(Frame(0, 0.0, intr, FeatureSet(np.zeros((2, 2)), np.zeros((2, 4))), Pose(), "reference"))
    m.add_landmark(Landmark(1, np.array([1.0, 2.0, 3.0]), "reference", [(0, 0)]))
    m.add_landmark(Landmark(0, np.array([-1.0, 0.5, 0.0]), "augmented", [(0, 1)]))
    path = tmp_path / "cloud.ply"
    export_pointcloud(m, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "ply"
    assert "element vertex 2" in lines
    assert lines[-2].split()[0] == "-1.0"  # sorted by landmark id
    assert len(lines) == 9


def test_position_error_is_center_distance():
    pose = _entry(0, [3.0, 4.0, 0.0]).pose
    assert position_error(pose, [0.0, 0.0, 0.0]) == 5.0
    assert position_error(pose, np.array([3.0, 4.0, 0.0])) == 0.0
    # compute_metrics reports the same figure
    rep = compute_metrics([_entry(0, [3.0, 4.0, 0.0])], {0: np.zeros(3)})
    assert rep.mae == rep.median == position_error(pose, np.zeros(3))


def test_entry_counts_default_to_zero():
    e = TrajectoryEntry(7, 7.0, "registered", Pose(), 0.5)
    assert (e.n_candidates, e.n_corrs, e.n_inliers) == (0, 0, 0)
    e = TrajectoryEntry(7, 7.0, "failed", n_candidates=3, n_corrs=10, n_inliers=8)
    assert e.pose is None and e.error is None and (e.n_candidates, e.n_corrs, e.n_inliers) == (3, 10, 8)
