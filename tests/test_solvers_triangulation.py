import numpy as np
import pytest

from anchorloc.geom import Pose, project_many, quat_to_mat, so3_exp_quat
from anchorloc.solvers import (
    CheiralityFailure,
    InsufficientParallax,
    ReprojectionTooLarge,
    SolverError,
    TriangulationConfig,
    triangulate,
    triangulate_many,
)
from anchorloc.solvers.triangulation import (
    ACCEPTED,
    AT_CAMERA_CENTER,
    AT_INFINITY,
    BEHIND_CAMERA,
    LOW_PARALLAX,
    REPROJECTION,
)
from conftest import project, random_pose


def _views(rng, X, n=2, baseline=2.0):
    poses = []
    for i in range(n):
        c = np.array([i * baseline, 0.0, 0.0]) + rng.normal(scale=0.1, size=3)
        # look roughly at the point
        f = X - c
        f = f / np.linalg.norm(f)
        up = np.array([0.0, 1.0, 0.0])
        x = np.cross(up, f)
        x = x / np.linalg.norm(x)
        y = np.cross(f, x)
        R = np.stack([x, y, f])
        poses.append(Pose.from_rt(R, -R @ c))
    return poses


def test_triangulate_exact(intrinsics):
    rng = np.random.default_rng(0)
    for _ in range(50):
        X = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(8, 20)])
        poses = _views(rng, X)
        pixels = [project(intrinsics, p, X) for p in poses]
        got = triangulate(poses, pixels, intrinsics)
        assert np.linalg.norm(got - X) < 1e-8


def test_triangulate_multiview(intrinsics):
    rng = np.random.default_rng(1)
    X = np.array([0.5, -0.3, 12.0])
    poses = _views(rng, X, n=5)
    pixels = [project(intrinsics, p, X) for p in poses]
    got = triangulate(poses, pixels, intrinsics)
    assert np.linalg.norm(got - X) < 1e-8


def test_triangulate_insufficient_parallax(intrinsics):
    rng = np.random.default_rng(2)
    X = np.array([0.0, 0.0, 500.0])
    poses = _views(rng, X, baseline=0.5)
    pixels = [project(intrinsics, p, X) for p in poses]
    with pytest.raises(InsufficientParallax):
        triangulate(poses, pixels, intrinsics, TriangulationConfig(min_angle_deg=1.5))


def test_triangulate_reprojection_gate(intrinsics):
    rng = np.random.default_rng(3)
    X = np.array([0.0, 0.0, 10.0])
    poses = _views(rng, X)
    pixels = [project(intrinsics, p, X) for p in poses]
    # offset perpendicular to the epipolar direction so no depth explains it
    pixels[1] = pixels[1] + np.array([0.0, 25.0])
    with pytest.raises(ReprojectionTooLarge):
        triangulate(poses, pixels, intrinsics, TriangulationConfig(max_reprojection_px=4.0))


def test_triangulate_cheirality(intrinsics):
    # two cameras looking away from each other see mirror pixels of a point
    # that cannot be in front of both
    a = Pose.identity()
    b = Pose.from_rt(
        np.diag([1.0, -1.0, -1.0]), np.array([0.0, 0.0, -30.0])
    )  # rotated 180 deg about x
    pixels = [np.array([320.0, 250.0]), np.array([320.0, 250.0])]
    with pytest.raises((CheiralityFailure, InsufficientParallax, ReprojectionTooLarge)):
        triangulate([a, b], pixels, intrinsics, TriangulationConfig(min_angle_deg=0.0))


def test_triangulate_input_validation(intrinsics):
    with pytest.raises(ValueError):
        triangulate([Pose.identity()], [np.zeros(2)], intrinsics)


def _triangulate_loop(poses, pixels, intr, cfg):
    """Reference: the one-point DLT with its gates, one view pair at a time."""
    pixels = np.asarray(pixels, dtype=float)
    Rs = np.array([p.R for p in poses])
    ts = np.array([p.t for p in poses])
    rows = []
    for R, t, uv in zip(Rs, ts, pixels):
        P = intr.K @ np.hstack([R, t[:, None]])
        rows.append(uv[0] * P[2] - P[0])
        rows.append(uv[1] * P[2] - P[1])
    _, _, Vt = np.linalg.svd(np.array(rows))
    Xh = Vt[-1]
    if abs(Xh[3]) < 1e-15:
        raise InsufficientParallax("point at infinity")
    X = Xh[:3] / Xh[3]
    rays = X[None, :] - np.array([p.center() for p in poses])
    norms = np.linalg.norm(rays, axis=1)
    if np.any(norms < 1e-15):
        raise InsufficientParallax("point coincides with a camera center")
    rays = rays / norms[:, None]
    max_angle = 0.0
    for i in range(len(poses) - 1):
        cosang = np.clip(rays[i + 1 :] @ rays[i], -1.0, 1.0)
        max_angle = max(max_angle, float(np.degrees(np.arccos(cosang.min()))))
    if max_angle < cfg.min_angle_deg:
        raise InsufficientParallax("max triangulation angle")
    proj, z = project_many(Rs, ts, intr, X[None])
    err = np.linalg.norm(proj[:, 0] - pixels, axis=1)
    bad = (z[:, 0] <= 0.0) | (err > cfg.max_reprojection_px)
    if bad.any():
        if z[int(np.argmax(bad)), 0] <= 0.0:
            raise CheiralityFailure("point behind camera")
        raise ReprojectionTooLarge("reprojection error")
    return X


_RAISES = {
    ACCEPTED: None,
    AT_INFINITY: InsufficientParallax,
    AT_CAMERA_CENTER: InsufficientParallax,
    LOW_PARALLAX: InsufficientParallax,
    BEHIND_CAMERA: CheiralityFailure,
    REPROJECTION: ReprojectionTooLarge,
}


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SolverError as e:
        return type(e)


def _gate_rows(intr):
    """One two-view problem per gate, each failing that gate first."""
    ident = Pose.identity()
    shifted = Pose(ident.q, np.array([-1.0, 0.0, 0.0]))
    turned = Pose.from_rt(quat_to_mat(so3_exp_quat(np.array([0.0, 0.2, 0.0]))), np.zeros(3))
    near = np.array([0.5, -0.3, 10.0])
    behind = np.array([0.5, -0.3, -10.0])
    far = np.array([0.0, 0.0, 1e4])
    rows = {
        # one pixel seen from two translated cameras: parallel rays
        AT_INFINITY: ([ident, shifted], [[400.0, 260.0], [400.0, 260.0]]),
        # two cameras at one center: the DLT returns that center
        AT_CAMERA_CENTER: ([ident, turned], [[400.0, 260.0], [330.0, 250.0]]),
        LOW_PARALLAX: ([ident, shifted], [project_many(p.R, p.t, intr, far[None])[0][0] for p in (ident, shifted)]),
        BEHIND_CAMERA: ([ident, shifted], [project_many(p.R, p.t, intr, behind[None])[0][0] for p in (ident, shifted)]),
        REPROJECTION: (
            [ident, shifted],
            [project_many(p.R, p.t, intr, near[None])[0][0] + [0.0, 25.0 * k] for k, p in enumerate((ident, shifted))],
        ),
    }
    return {gate: (poses, np.array(px)) for gate, (poses, px) in rows.items()}


def _stack(problems):
    Rs = np.array([[p.R for p in poses] for poses, _ in problems])
    ts = np.array([[p.t for p in poses] for poses, _ in problems])
    return Rs, ts, np.array([px for _, px in problems])


def test_triangulate_many_fails_each_gate_first(intrinsics):
    cfg = TriangulationConfig()
    rows = _gate_rows(intrinsics)
    _, code = triangulate_many(*_stack(list(rows.values())), intrinsics, cfg)
    assert code.tolist() == list(rows)
    for gate, (poses, px) in rows.items():
        assert _outcome(triangulate, poses, px, intrinsics, cfg) is _RAISES[gate]
        assert _outcome(_triangulate_loop, poses, px, intrinsics, cfg) is _RAISES[gate]


@pytest.mark.parametrize("v", range(2, 13))
def test_triangulate_many_matches_one_point_loop(intrinsics, v):
    """Each row gives the loop's point bit for bit, or the exception its code names."""
    rng = np.random.default_rng(200 + v)
    cfg = TriangulationConfig(min_angle_deg=2.0, max_reprojection_px=1.5)
    problems = []
    for _ in range(24):
        X = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(8, 60)])
        poses = _views(rng, X, n=v, baseline=rng.uniform(0.2, 2.0))
        px = np.array([project(intrinsics, p, X) for p in poses]) + rng.normal(scale=0.6, size=(v, 2))
        problems.append((poses, px))
    if v == 2:
        problems += list(_gate_rows(intrinsics).values())
    X, code = triangulate_many(*_stack(problems), intrinsics, cfg)
    assert X.shape == (len(problems), 3) and code.shape == (len(problems),)
    for (poses, px), x, c in zip(problems, X, code):
        ref = _outcome(_triangulate_loop, poses, px, intrinsics, cfg)
        got = _outcome(triangulate, poses, px, intrinsics, cfg)
        if c == ACCEPTED:
            assert np.array_equal(ref, x) and np.array_equal(got, x)
        else:
            assert ref is _RAISES[int(c)] and got is _RAISES[int(c)]
    # the sample spans accepted rows and more than one gate
    assert (code == ACCEPTED).any() and len(set(code.tolist())) >= 2


def test_triangulate_many_empty_and_shape_checks(intrinsics):
    X, code = triangulate_many(np.zeros((0, 3, 3, 3)), np.zeros((0, 3, 3)), np.zeros((0, 3, 2)), intrinsics)
    assert X.shape == (0, 3) and code.shape == (0,)
    with pytest.raises(ValueError):
        triangulate_many(np.zeros((1, 1, 3, 3)), np.zeros((1, 1, 3)), np.zeros((1, 1, 2)), intrinsics)
    with pytest.raises(ValueError):
        triangulate_many(np.zeros((2, 2, 3, 3)), np.zeros((2, 2, 3)), np.zeros((1, 2, 2)), intrinsics)
