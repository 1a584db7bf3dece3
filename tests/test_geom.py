import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorloc.geom import (
    CameraIntrinsics,
    Pose,
    mat_to_quat,
    pose_jacobian_many,
    project_many,
    quat_mul,
    quat_normalize,
    quat_to_mat,
    so3_exp_quat,
)
from conftest import project, random_pose, random_rotation, rotation_angle


def test_quat_normalize_canonical_sign():
    q = quat_normalize([-1.0, 0.2, 0.0, 0.0])
    assert q[0] > 0
    assert np.isclose(np.linalg.norm(q), 1.0)


def test_quat_normalize_rejects_zero():
    with pytest.raises(ValueError):
        quat_normalize([0.0, 0.0, 0.0, 0.0])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_mat_quat_round_trip(seed):
    rng = np.random.default_rng(seed)
    R = random_rotation(rng)
    assert rotation_angle(R, quat_to_mat(mat_to_quat(R))) < 1e-7


def test_mat_to_quat_covers_all_branches():
    # rotations by pi about each axis hit the trace <= 0 branches
    for axis in np.eye(3):
        R = quat_to_mat(so3_exp_quat(np.pi * axis))
        assert rotation_angle(R, quat_to_mat(mat_to_quat(R))) < 1e-10


def test_quat_mul_matches_matrix_product():
    rng = np.random.default_rng(0)
    qa = mat_to_quat(random_rotation(rng))
    qb = mat_to_quat(random_rotation(rng))
    np.testing.assert_allclose(
        quat_to_mat(quat_normalize(quat_mul(qa, qb))),
        quat_to_mat(qa) @ quat_to_mat(qb),
        atol=1e-12,
    )


def test_so3_exp_small_angle():
    q = so3_exp_quat([1e-14, 0.0, 0.0])
    assert np.isclose(np.linalg.norm(q), 1.0)
    assert rotation_angle(quat_to_mat(q), np.eye(3)) < 1e-12


def test_pose_center_maps_to_origin():
    rng = np.random.default_rng(1)
    a = random_pose(rng)
    np.testing.assert_allclose(a.R @ a.center() + a.t, np.zeros(3), atol=1e-12)


def test_pose_retract_zero_is_identity():
    rng = np.random.default_rng(2)
    pose = random_pose(rng)
    r = pose.retract(np.zeros(6))
    assert rotation_angle(pose.R, r.R) < 1e-12
    np.testing.assert_allclose(pose.t, r.t, atol=1e-12)


def test_pose_view_direction_unit():
    rng = np.random.default_rng(3)
    pose = random_pose(rng)
    assert np.isclose(np.linalg.norm(pose.view_direction()), 1.0)


def test_project_and_behind_camera(intrinsics):
    pose = Pose.identity()
    uv, z = project_many(pose.R, pose.t, intrinsics, np.array([[0.0, 0.0, 2.0], [0.0, 0.0, -1.0]]))
    np.testing.assert_allclose(uv[0], [intrinsics.cx, intrinsics.cy])
    # the caller gates on depth
    assert z[0] > 0 and z[1] <= 0


def test_reprojection_residual_zero_at_projection(intrinsics):
    rng = np.random.default_rng(4)
    pose = random_pose(rng)
    cam = np.array([0.5, -0.2, 6.0])
    X = (cam - pose.t) @ pose.R
    uv, _ = project_many(pose.R, pose.t, intrinsics, X[None])
    pinhole = [intrinsics.fx * cam[0] / cam[2] + intrinsics.cx, intrinsics.fy * cam[1] / cam[2] + intrinsics.cy]
    np.testing.assert_allclose(uv[0] - pinhole, 0.0, atol=1e-10)


def test_project_many_matches_scalar(intrinsics):
    rng = np.random.default_rng(5)
    pose = random_pose(rng)
    from conftest import points_in_front

    pts = points_in_front(rng, pose, 20)
    uv, z = project_many(pose.R, pose.t, intrinsics, pts)
    assert np.all(z > 0)
    for i in range(len(pts)):
        np.testing.assert_allclose(uv[i], project(intrinsics, pose, pts[i]), atol=1e-10)


def test_project_many_stacked_poses_match_single(intrinsics):
    rng = np.random.default_rng(7)
    from conftest import points_in_front

    poses = [random_pose(rng) for _ in range(3)]
    pts = points_in_front(rng, poses[0], 10)
    R = np.stack([p.R for p in poses])
    t = np.stack([p.t for p in poses])
    uv, z = project_many(R, t, intrinsics, pts)
    assert uv.shape == (3, 10, 2) and z.shape == (3, 10)
    for k, p in enumerate(poses):
        uv_k, z_k = project_many(p.R, p.t, intrinsics, pts)
        np.testing.assert_array_equal(uv[k], uv_k)
        np.testing.assert_array_equal(z[k], z_k)


def test_pose_jacobian_many_matches_scalar(intrinsics):
    rng = np.random.default_rng(8)
    from conftest import points_in_front

    pose = random_pose(rng)
    pts = points_in_front(rng, pose, 20)
    J = pose_jacobian_many(pose.R, pose.t, intrinsics, pts)
    assert J.shape == (20, 2, 6)
    for i in range(len(pts)):
        Jpose = pose_jacobian_many(pose.R, pose.t, intrinsics, pts[i : i + 1])[0]
        np.testing.assert_allclose(J[i], Jpose, rtol=1e-12, atol=1e-9)

    # a stack of poses, with shared and with per-pose points, equals pose by pose
    poses = [pose] + [random_pose(rng) for _ in range(3)]
    R = np.array([p.R for p in poses])
    t = np.array([p.t for p in poses])
    own = np.array([points_in_front(rng, p, 5) for p in poses])
    shared = pose_jacobian_many(R, t, intrinsics, pts)
    stacked = pose_jacobian_many(R, t, intrinsics, own)
    assert shared.shape == (4, 20, 2, 6) and stacked.shape == (4, 5, 2, 6)
    for k, p in enumerate(poses):
        np.testing.assert_array_equal(shared[k], pose_jacobian_many(p.R, p.t, intrinsics, pts))
        np.testing.assert_array_equal(stacked[k], pose_jacobian_many(p.R, p.t, intrinsics, own[k]))


def test_residual_jacobian_vs_central_differences(intrinsics):
    rng = np.random.default_rng(6)
    from conftest import points_in_front

    eps = 1e-6
    for _ in range(20):
        pose = random_pose(rng)
        X = points_in_front(rng, pose, 1)[0]
        obs = project(intrinsics, pose, X) + rng.normal(scale=1.0, size=2)
        # the pose block as the solvers take it, the point block as bundle adjustment forms it
        Jpose = pose_jacobian_many(pose.R, pose.t, intrinsics, X[None])[0]
        Jpoint = Jpose[:, 3:] @ pose.R

        def residual(p, x):
            return project_many(p.R, p.t, intrinsics, x[None])[0][0] - obs

        for k in range(6):
            d = np.zeros(6)
            d[k] = eps
            num = (residual(pose.retract(d), X) - residual(pose.retract(-d), X)) / (2 * eps)
            np.testing.assert_allclose(Jpose[:, k], num, rtol=1e-5, atol=1e-7)
        for k in range(3):
            d = np.zeros(3)
            d[k] = eps
            num = (residual(pose, X + d) - residual(pose, X - d)) / (2 * eps)
            np.testing.assert_allclose(Jpoint[:, k], num, rtol=1e-5, atol=1e-7)


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        CameraIntrinsics(-1.0, 500.0, 320.0, 240.0, 640, 480)
    with pytest.raises(ValueError):
        CameraIntrinsics(500.0, 500.0, 320.0, 240.0, 0, 480)
    for fx, fy in ((np.nan, 500.0), (500.0, np.nan)):
        with pytest.raises(ValueError):
            CameraIntrinsics(fx, fy, 320.0, 240.0, 640, 480)


def test_in_bounds(intrinsics):
    ok = intrinsics.in_bounds(np.array([[0.0, 0.0], [639.0, 479.0], [-0.1, 10.0], [10.0, 479.5]]))
    assert list(ok) == [True, True, False, False]
