import numpy as np
import pytest

from anchorloc.geom import CONVERGENCE_TOL, Pose, mat_to_quat
from anchorloc.solvers import (
    InsufficientCorrespondences,
    NoConsensus,
    RansacConfig,
    epipolar_inlier_indices,
    estimate_relative_pose,
    refine_relative_pose,
)
from anchorloc.solvers.pnp import RANSAC_CONFIDENCE, RANSAC_MAX_ITERATIONS, RANSAC_MIN_INLIERS
from conftest import failing_solve, project, ransac_block_edges, rotation_angle


def _two_view_scene(rng, n=60, noise=0.0, intr=None):
    """Points in front of two converging cameras; returns (rel, px1, px2)."""
    a = Pose.identity()
    # camera b: translated sideways, slightly rotated toward the scene
    angle = 0.15
    R = np.array(
        [
            [np.cos(angle), 0.0, -np.sin(angle)],
            [0.0, 1.0, 0.0],
            [np.sin(angle), 0.0, np.cos(angle)],
        ]
    )
    c = np.array([2.0, 0.3, 0.0])
    b = Pose.from_rt(R, -R @ c)
    pts = np.column_stack(
        [rng.uniform(-4, 4, n), rng.uniform(-3, 3, n), rng.uniform(8, 20, n)]
    )
    px1 = np.array([project(intr, a, p) for p in pts])
    px2 = np.array([project(intr, b, p) for p in pts])
    if noise:
        px1 = px1 + rng.normal(scale=noise, size=px1.shape)
        px2 = px2 + rng.normal(scale=noise, size=px2.shape)
    return b, px1, px2


def test_estimate_relative_pose_noise_free(intrinsics):
    rng = np.random.default_rng(0)
    rel, px1, px2 = _two_view_scene(rng, intr=intrinsics)
    est, inliers = estimate_relative_pose(px1, px2, intrinsics, RansacConfig(rng_seed=3))
    assert len(inliers) == len(px1)
    assert rotation_angle(est.R, rel.R) < 1e-4
    # translation direction (scale is unobservable)
    t_true = rel.t / np.linalg.norm(rel.t)
    t_est = est.t / np.linalg.norm(est.t)
    assert np.arccos(np.clip(abs(t_true @ t_est), -1, 1)) < 1e-3


def test_estimate_relative_pose_needs_eight(intrinsics):
    with pytest.raises(InsufficientCorrespondences):
        estimate_relative_pose(np.zeros((5, 2)), np.zeros((5, 2)), intrinsics, RansacConfig())


def test_estimate_relative_pose_no_consensus(intrinsics):
    rng = np.random.default_rng(1)
    px1 = rng.uniform(0, 640, (30, 2))
    px2 = rng.uniform(0, 640, (30, 2))
    with pytest.raises(NoConsensus):
        estimate_relative_pose(
            px1, px2, intrinsics, RansacConfig(rng_seed=2, inlier_threshold=0.5)
        )


def test_refine_relative_pose_improves_noisy_estimate(intrinsics):
    rng = np.random.default_rng(2)
    rel, px1, px2 = _two_view_scene(rng, noise=0.5, intr=intrinsics)
    est, inliers = estimate_relative_pose(px1, px2, intrinsics, RansacConfig(rng_seed=7))
    refined = refine_relative_pose(est, px1[inliers], px2[inliers], intrinsics)
    assert rotation_angle(refined.R, rel.R) <= rotation_angle(est.R, rel.R) + 1e-9


def test_epipolar_inlier_indices_separates_outliers(intrinsics):
    rng = np.random.default_rng(3)
    rel, px1, px2 = _two_view_scene(rng, intr=intrinsics)
    bad = [3, 10, 25]
    px2 = px2.copy()
    for i in bad:
        px2[i] += np.array([40.0, -35.0])
    idx = epipolar_inlier_indices(rel, px1, px2, intrinsics, 2.0)
    assert set(idx) == set(range(len(px1))) - set(bad)


def test_estimate_relative_pose_deterministic(intrinsics):
    rng = np.random.default_rng(4)
    _, px1, px2 = _two_view_scene(rng, noise=0.5, intr=intrinsics)
    cfg = RansacConfig(rng_seed=42)
    a, ia = estimate_relative_pose(px1, px2, intrinsics, cfg)
    b, ib = estimate_relative_pose(px1, px2, intrinsics, cfg)
    assert np.array_equal(a.q, b.q) and np.array_equal(a.t, b.t)
    assert np.array_equal(ia, ib)


def _estimate_relative_pose_loop(pixels1, pixels2, intr, cfg):
    """Reference: estimate_relative_pose as one eight-point sample at a time.

    Returns (pose, inliers, iterations run) or raises as the solver does.
    """
    from anchorloc.solvers.pnp import _bearing_vectors
    from anchorloc.solvers.twoview import (
        DegenerateConfiguration,
        _decompose_essential,
        _essential_from_eight,
        _midpoint_depths,
        _sampson_sq,
        mat_to_quat,
    )

    n = len(pixels1)
    b1 = _bearing_vectors(pixels1, intr)
    b2 = _bearing_vectors(pixels2, intr)
    x1 = b1[:, :2] / b1[:, 2:3]
    x2 = b2[:, :2] / b2[:, 2:3]
    f = (intr.fx + intr.fy) / 2.0
    thresh = (cfg.inlier_threshold / f) ** 2

    rng = np.random.default_rng(cfg.rng_seed)
    best_mask = None
    best_count = 0
    max_iter = RANSAC_MAX_ITERATIONS
    it = 0
    while it < max_iter:
        it += 1
        idx = rng.choice(n, size=8, replace=False)
        E = _essential_from_eight(x1[idx], x2[idx])
        mask = _sampson_sq(E, x1, x2) < thresh
        count = int(mask.sum())
        if count > best_count:
            best_count = count
            best_mask = mask
            w = count / n
            if w >= 1.0:
                max_iter = it
            else:
                denom = np.log1p(-min(w**8, 1.0 - 1e-15))
                need = np.ceil(np.log(1.0 - RANSAC_CONFIDENCE) / denom)
                need = RANSAC_MAX_ITERATIONS if not np.isfinite(need) else int(need)
                max_iter = min(RANSAC_MAX_ITERATIONS, max(need, it))

    if best_mask is None or best_count < max(RANSAC_MIN_INLIERS, 8):
        raise NoConsensus(f"best inlier count {best_count}")
    E = _essential_from_eight(x1[best_mask], x2[best_mask])
    mask = _sampson_sq(E, x1, x2) < thresh
    if int(mask.sum()) < best_count:
        mask = best_mask
    (R, t), front = _decompose_essential(E, x1[mask], x2[mask])
    if front < 0.5 * int(mask.sum()):
        raise DegenerateConfiguration("cheirality vote inconclusive")
    z1, z2 = _midpoint_depths(R, t, x1[mask], x2[mask])
    good = (z1 > 0) & (z2 > 0)
    if good.sum() >= 2:
        f1 = np.column_stack([x1[mask], np.ones(int(mask.sum()))])
        pts1 = f1[good] * z1[good][:, None]
        c2 = -R.T @ t
        r1 = pts1 / np.linalg.norm(pts1, axis=1)[:, None]
        r2 = pts1 - c2
        r2 = r2 / np.linalg.norm(r2, axis=1)[:, None]
        ang = np.degrees(np.arccos(np.clip(np.einsum("ij,ij->i", r1, r2), -1, 1)))
        if np.median(ang) < 0.1:
            raise DegenerateConfiguration("insufficient parallax (near-pure rotation)")
    return Pose(mat_to_quat(R), t), np.nonzero(mask)[0], it


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as e:  # compared by type and message
        return type(e), str(e)


@pytest.mark.parametrize("outliers", [0.0, 0.1, 0.25, 0.3])
def test_estimate_relative_pose_matches_one_sample_loop(intrinsics, outliers):
    """Block-drawn RANSAC gives the one-sample loop's pose and inliers, bit for bit."""
    stops = []
    for seed in range(4):
        rng = np.random.default_rng(100 + seed)
        _, px1, px2 = _two_view_scene(rng, n=80, noise=0.5, intr=intrinsics)
        bad = rng.choice(len(px2), int(outliers * len(px2)), replace=False)
        px2[bad] = rng.uniform(0, 640, (len(bad), 2))
        cfg = RansacConfig(rng_seed=seed, inlier_threshold=2.0)
        ref = _outcome(_estimate_relative_pose_loop, px1, px2, intrinsics, cfg)
        got = _outcome(estimate_relative_pose, px1, px2, intrinsics, cfg)
        assert len(ref) == 3, ref
        pose, inliers, iterations = ref
        assert np.array_equal(got[0].q, pose.q) and np.array_equal(got[0].t, pose.t)
        assert np.array_equal(got[1], inliers)
        stops.append(iterations)
    if outliers == 0.3:
        # at least one run ends inside a later block, not at its edge
        edges = ransac_block_edges()
        assert any(it > edges[0] and it not in edges for it in stops), stops


def test_estimate_relative_pose_no_consensus_matches_one_sample_loop(intrinsics):
    """Pure noise runs all RANSAC_MAX_ITERATIONS, partly in a short last block, in both forms."""
    rng = np.random.default_rng(5)
    px1 = rng.uniform(0, 640, (40, 2))
    px2 = rng.uniform(0, 640, (40, 2))
    cfg = RansacConfig(rng_seed=9, inlier_threshold=0.5)
    ref = _outcome(_estimate_relative_pose_loop, px1, px2, intrinsics, cfg)
    assert ref[0] is NoConsensus
    assert _outcome(estimate_relative_pose, px1, px2, intrinsics, cfg) == ref


def test_essential_from_eight_stacked_equals_rows():
    from anchorloc.solvers.twoview import _essential_from_eight, _sampson_sq

    rng = np.random.default_rng(6)
    x1 = rng.normal(size=(50, 2))
    x2 = x1 + rng.normal(scale=0.05, size=(50, 2))
    idx = np.array([rng.choice(50, 8, replace=False) for _ in range(64)])
    E = _essential_from_eight(x1[idx], x2[idx])
    assert E.shape == (64, 3, 3)
    rows = np.array([_essential_from_eight(x1[i], x2[i]) for i in idx])
    assert np.array_equal(E, rows)
    assert np.array_equal(_sampson_sq(E, x1, x2), np.array([_sampson_sq(e, x1, x2) for e in rows]))


def _midpoint_depths_loop(R, t, x1, x2):
    """Reference: one np.linalg.lstsq per match."""
    f1 = np.column_stack([x1, np.ones(len(x1))])
    f2 = np.column_stack([x2, np.ones(len(x2))])
    Rf1 = f1 @ R.T
    z = np.array([np.linalg.lstsq(np.column_stack([a, -b]), -t, rcond=None)[0] for a, b in zip(Rf1, f2)])
    return z[:, 0], z[:, 1]


def test_midpoint_depths_match_per_match_lstsq(intrinsics):
    from anchorloc.solvers.twoview import _midpoint_depths

    rng = np.random.default_rng(7)
    rel, px1, px2 = _two_view_scene(rng, n=80, noise=0.5, intr=intrinsics)
    x1 = (px1 - [intrinsics.cx, intrinsics.cy]) / intrinsics.fx
    x2 = (px2 - [intrinsics.cx, intrinsics.cy]) / intrinsics.fx
    # some matches far off their epipolar lines, some on exactly parallel rays
    x2[:10] = rng.normal(scale=0.5, size=(10, 2))
    par = x1[20:30] @ rel.R[:2, :2].T + rel.R[:2, 2]
    x2[20:30] = par / (x1[20:30] @ rel.R[2, :2] + rel.R[2, 2])[:, None]
    t = rel.t / np.linalg.norm(rel.t)
    cases = [(rel.R, t), (rel.R, -t), (rel.R.T, t), (rel.R, np.zeros(3)), (np.eye(3), t)]
    for R, tt in cases:
        got = _midpoint_depths(R, tt, x1, x2)
        ref = _midpoint_depths_loop(R, tt, x1, x2)
        for g, r in zip(got, ref):
            np.testing.assert_allclose(g, r, rtol=1e-9, atol=1e-12)
            assert np.array_equal(np.sign(g), np.sign(r))
    # identical pixels with R = I: every pair of rays is parallel
    got = _midpoint_depths(np.eye(3), t, x1, x1)
    ref = _midpoint_depths_loop(np.eye(3), t, x1, x1)
    assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])


def test_sampson_residuals_stacked_equal_one_pose_rows():
    from anchorloc.geom import quat_to_mat, so3_exp_quat
    from anchorloc.solvers.twoview import _sampson_residuals

    rng = np.random.default_rng(8)
    x1 = rng.normal(scale=0.3, size=(40, 2))
    x2 = x1 + rng.normal(scale=0.02, size=(40, 2))
    Rs = np.array([quat_to_mat(so3_exp_quat(rng.normal(scale=0.3, size=3))) for _ in range(5)])
    ts = rng.normal(size=(5, 3))
    ts /= np.linalg.norm(ts, axis=1)[:, None]
    got = _sampson_residuals(Rs, ts, x1, x2)
    assert got.shape == (5, 40)
    assert np.array_equal(got, np.array([_sampson_residuals(R, t, x1, x2) for R, t in zip(Rs, ts)]))


def _refine_relative_pose_loop(pose, pixels1, pixels2, intr, iterations=30, one_call=False, strict=False):
    """Reference: refine_relative_pose with a Levenberg-Marquardt loop of its own
    and one _sampson_residuals call per Jacobian column. With one_call, the
    Jacobian takes one call for all five columns, as refine_relative_pose
    does. With strict, a trial must lower the cost to be accepted and the
    damping floor is 1e-10, the rule refine_relative_pose had before it
    shared levenberg_marquardt's (no higher cost, floor 1e-12)."""
    from anchorloc.geom import quat_to_mat, so3_exp_quat
    from anchorloc.solvers.pnp import _bearing_vectors
    from anchorloc.solvers.twoview import _sampson_residuals

    b1 = _bearing_vectors(np.asarray(pixels1, dtype=float), intr)
    b2 = _bearing_vectors(np.asarray(pixels2, dtype=float), intr)
    x1 = b1[:, :2] / b1[:, 2:3]
    x2 = b2[:, :2] / b2[:, 2:3]
    R = pose.R
    t = pose.t / np.linalg.norm(pose.t)
    r = _sampson_residuals(R, t, x1, x2)
    cost = float(r @ r)
    lam, eps = 1e-4, 1e-7
    for _ in range(iterations):
        U, _, _ = np.linalg.svd(np.eye(3) - np.outer(t, t))
        B = U[:, :2]
        if one_call:
            Rs = [quat_to_mat(so3_exp_quat(d)) @ R for d in eps * np.eye(3)] + [R, R]
            ts = [t, t, t] + [tp / np.linalg.norm(tp) for tp in (t + eps * B.T)]
            J = ((_sampson_residuals(np.array(Rs), np.array(ts), x1, x2) - r) / eps).T
        else:
            J = np.zeros((len(x1), 5))
            for p in range(3):
                d = np.zeros(3)
                d[p] = eps
                J[:, p] = (_sampson_residuals(quat_to_mat(so3_exp_quat(d)) @ R, t, x1, x2) - r) / eps
            for p in range(2):
                tp = t + eps * B[:, p]
                tp = tp / np.linalg.norm(tp)
                J[:, 3 + p] = (_sampson_residuals(R, tp, x1, x2) - r) / eps
        H = J.T @ J
        g = J.T @ r
        if np.max(np.abs(g)) < 1e-14:
            break
        stepped = False
        for _ in range(8):
            try:
                step = np.linalg.solve(H + lam * np.diag(np.diag(H)) + 1e-15 * np.eye(5), -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            Rn = quat_to_mat(so3_exp_quat(step[:3])) @ R
            tn = t + B @ step[3:]
            tn = tn / np.linalg.norm(tn)
            rn = _sampson_residuals(Rn, tn, x1, x2)
            cn = float(rn @ rn)
            if cn < cost if strict else cn <= cost:
                improved = cost - cn
                R, t, r, cost = Rn, tn, rn, cn
                if improved <= CONVERGENCE_TOL * max(cost, 1e-12):
                    return Pose(mat_to_quat(R), t)
                lam = max(lam / 10.0, 1e-10 if strict else 1e-12)
                stepped = True
                break
            lam *= 10.0
        if not stepped:
            break
    return Pose(mat_to_quat(R), t)


@pytest.mark.parametrize("seed", range(4))
def test_refine_relative_pose_matches_five_call_jacobian(intrinsics, seed):
    rng = np.random.default_rng(300 + seed)
    _, px1, px2 = _two_view_scene(rng, n=70, noise=0.7, intr=intrinsics)
    est, inliers = estimate_relative_pose(px1, px2, intrinsics, RansacConfig(rng_seed=seed))
    got = refine_relative_pose(est, px1[inliers], px2[inliers], intrinsics)
    ref = _refine_relative_pose_loop(est, px1[inliers], px2[inliers], intrinsics)
    assert rotation_angle(got.R, est.R) > 1e-9  # the refinement moved the pose
    np.testing.assert_allclose(got.R, ref.R, rtol=0, atol=1e-9)
    np.testing.assert_allclose(got.t, ref.t, rtol=0, atol=1e-9)


def _refinement_case(intr, seed):
    rng = np.random.default_rng(300 + seed)
    _, px1, px2 = _two_view_scene(rng, n=70, noise=0.7, intr=intr)
    est, inliers = estimate_relative_pose(px1, px2, intr, RansacConfig(rng_seed=seed))
    return est, px1[inliers], px2[inliers]


def _assert_same_pose(a, b):
    assert np.array_equal(a.q, b.q) and np.array_equal(a.t, b.t)


@pytest.mark.parametrize("seed", range(4))
def test_refine_relative_pose_matches_its_own_loop_bit_for_bit(intrinsics, seed):
    """The shared loop accepts a trial of equal cost and floors the damping at
    1e-12; neither moves a bit of these refinements."""
    est, px1, px2 = _refinement_case(intrinsics, seed)
    got = refine_relative_pose(est, px1, px2, intrinsics)
    assert rotation_angle(got.R, est.R) > 1e-9
    _assert_same_pose(got, _refine_relative_pose_loop(est, px1, px2, intrinsics, one_call=True, strict=True))
    _assert_same_pose(got, _refine_relative_pose_loop(est, px1, px2, intrinsics, one_call=True))


@pytest.mark.parametrize("failures", [2, 8])
def test_refine_relative_pose_singular_solves_raise_the_damping_as_its_own_loop_did(intrinsics, monkeypatch, failures):
    """A LinAlgError multiplies the damping by 10 and counts as a trial; eight
    in the first iteration end the run at the normalized start."""
    est, px1, px2 = _refinement_case(intrinsics, 0)
    seen = failing_solve(monkeypatch, failures)
    got = refine_relative_pose(est, px1, px2, intrinsics)
    calls = len(seen)
    seen.clear()
    ref = _refine_relative_pose_loop(est, px1, px2, intrinsics, one_call=True, strict=True)
    assert calls == len(seen) >= failures
    _assert_same_pose(got, ref)
    if failures == 8:
        assert calls == 8
        _assert_same_pose(got, Pose(mat_to_quat(est.R), est.t / np.linalg.norm(est.t)))
    else:
        assert rotation_angle(got.R, est.R) > 1e-9


@pytest.mark.parametrize("seed", range(4))
def test_refine_relative_pose_stops_at_the_first_step_within_the_convergence_tolerance(intrinsics, seed, monkeypatch):
    """The run ends at its first accepted step that lowers the cost by at most
    CONVERGENCE_TOL of it: that step's pose is the last one evaluated and the
    one returned, well before the 30-iteration cap of 61 evaluations."""
    from anchorloc.solvers import twoview

    rng = np.random.default_rng(300 + seed)
    _, px1, px2 = _two_view_scene(rng, n=70, noise=0.7, intr=intrinsics)
    est, inliers = estimate_relative_pose(px1, px2, intrinsics, RansacConfig(rng_seed=seed))
    residuals = twoview._sampson_residuals
    calls = []

    def counted(R, t, x1, x2):
        r = residuals(R, t, x1, x2)
        calls.append((R, t, r))
        return r

    monkeypatch.setattr(twoview, "_sampson_residuals", counted)
    refined = refine_relative_pose(est, px1[inliers], px2[inliers], intrinsics)

    poses = [(R, t, float(r @ r)) for R, t, r in calls if R.ndim == 2]  # the start and each trial, not the Jacobians
    current = poses[0][2]
    gains = []  # (gain, cost after) of each accepted step, in order
    for R, t, c in poses[1:]:
        if c < current:
            gains.append((current - c, c))
            current = c
    within = [g <= CONVERGENCE_TOL * max(c, 1e-12) for g, c in gains]
    assert within.index(True) == len(gains) - 1
    R, t, r = calls[-1]
    assert float(r @ r) == current and np.array_equal(t, refined.t)
    np.testing.assert_allclose(refined.R, R, rtol=0, atol=1e-12)
    assert len(calls) < 61
