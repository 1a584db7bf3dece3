import numpy as np
import pytest

from anchorloc.geom import CONVERGENCE_TOL, Pose, pose_jacobian_many, project_many
from anchorloc.solvers import (
    InsufficientCorrespondences,
    NoConsensus,
    RansacConfig,
    pose_from_prior,
    ransac_pnp,
    refine_pose,
)
from anchorloc.solvers.pnp import (
    RANSAC_CONFIDENCE,
    RANSAC_MAX_ITERATIONS,
    RANSAC_MIN_INLIERS,
    _SampleStream,
    _bearing_vectors,
    _cross,
    _polish_distances,
    _quartic_roots,
    _rigid_from_three,
    grunert_block,
    levenberg_marquardt,
    solve_p3p_block,
)
from conftest import failing_solve, points_in_front, project, random_pose, ransac_block_edges, rotation_angle


def _corrs(intr, pose, pts, pixels=None):
    """ransac_pnp's (world, pixels) arguments, the pixels projected unless given."""
    if pixels is None:
        pixels = np.array([project(intr, pose, p) for p in pts])
    return pts, pixels


def test_p3p_recovers_exact_pose(intrinsics):
    rng = np.random.default_rng(0)
    for _ in range(50):
        pose = random_pose(rng)
        pts = points_in_front(rng, pose, 3)
        pixels = np.array([project(intrinsics, pose, p) for p in pts])
        rows, R, _, degenerate = solve_p3p_block(pts[None], pixels[None], intrinsics)
        assert degenerate[0] == 0 and len(rows)
        best = min(rotation_angle(Rc, pose.R) for Rc in R)
        assert best < 1e-6


def test_p3p_degenerate_collinear(intrinsics):
    pts = np.array([[0.0, 0.0, 5.0], [1.0, 0.0, 5.0], [2.0, 0.0, 5.0]])
    bearings = _bearing_vectors(
        np.array([[300.0, 240.0], [320.0, 240.0], [340.0, 240.0]]), intrinsics
    )
    rows, _, _, degenerate = grunert_block(pts[None], bearings[None])
    assert degenerate.tolist() == [2] and len(rows) == 0


def test_p3p_degenerate_coincident(intrinsics):
    pts = np.array([[0.0, 0.0, 5.0], [0.0, 0.0, 5.0], [1.0, 1.0, 5.0]])
    bearings = _bearing_vectors(np.array([[320.0, 240.0]] * 3), intrinsics)
    rows, _, _, degenerate = grunert_block(pts[None], bearings[None])
    assert degenerate.tolist() == [1] and len(rows) == 0


def test_p3p_block_mixes_degenerate_and_valid_samples(intrinsics):
    """Degenerate rows yield no candidates and leave the rest of the block alone."""
    rng = np.random.default_rng(6)
    samples = {
        "collinear": (
            np.array([[0.0, 0.0, 5.0], [1.0, 0.0, 5.0], [2.0, 0.0, 5.0]]),
            np.array([[300.0, 240.0], [320.0, 240.0], [340.0, 240.0]]),
        ),
        "coincident": (
            np.array([[0.0, 0.0, 5.0], [0.0, 0.0, 5.0], [1.0, 1.0, 5.0]]),
            np.array([[320.0, 240.0]] * 3),
        ),
    }
    # camera-frame points seen from the identity pose whose Grunert quartic
    # has a leading coefficient of about 8e-15 of its largest, below the
    # 1e-14 trim, so it is solved as a cubic
    low = np.array([[0.8, -2.9, 8.9], [-1.4, 1.9, 9.8], [-2.8, 2.5, 8.3]])
    low[2] *= 1.134651181238027
    samples["vanishing_lead"] = (low, np.array([project(intrinsics, Pose(), p) for p in low]))
    for k in range(3):
        pose = random_pose(rng)
        pts = points_in_front(rng, pose, 3)
        samples[f"valid{k}"] = (pts, np.array([project(intrinsics, pose, p) for p in pts]))
    order = ["valid0", "collinear", "vanishing_lead", "coincident", "valid1", "valid2"]
    world = np.stack([samples[k][0] for k in order])
    pixels = np.stack([samples[k][1] for k in order])

    rows, R, t, degenerate = solve_p3p_block(world, pixels, intrinsics)
    assert np.all(np.diff(rows) >= 0)
    for i, name in enumerate(order):
        got = [Pose.from_rt(R[k], t[k]) for k in np.nonzero(rows == i)[0]]
        _, R1, t1, alone_degenerate = solve_p3p_block(world[i : i + 1], pixels[i : i + 1], intrinsics)
        alone = [Pose.from_rt(Rk, tk) for Rk, tk in zip(R1, t1)]
        if name in ("collinear", "coincident"):
            assert degenerate[i] and not got
            assert alone_degenerate[0] == degenerate[i] and not alone
            continue
        assert degenerate[i] == 0 and alone_degenerate[0] == 0
        assert alone and len(got) == len(alone)
        for g, a in zip(got, alone):
            np.testing.assert_array_equal(g.q, a.q)
            np.testing.assert_array_equal(g.t, a.t)
    low_cands = [Pose.from_rt(R[k], t[k]) for k in np.nonzero(rows == 2)[0]]
    assert min(rotation_angle(c.R, np.eye(3)) for c in low_cands) < 1e-6


def test_quartic_roots_trims_vanishing_leads():
    coeffs = np.array(
        [
            [1.0, -10.0, 35.0, -50.0, 24.0],  # (x-1)(x-2)(x-3)(x-4)
            [0.0, 1.0, -6.0, 11.0, -6.0],  # cubic: 1, 2, 3
            [1e-15, 0.0, 1.0, -3.0, 2.0],  # quadratic after trimming: 1, 2
        ]
    )
    roots, present = _quartic_roots(coeffs)
    assert present.sum(axis=1).tolist() == [4, 3, 2]
    for row, want in zip(range(3), ([1, 2, 3, 4], [1, 2, 3], [1, 2])):
        got = np.sort(roots[row][present[row]].real)
        np.testing.assert_allclose(got, want, atol=1e-9)


def _sample_distances(rng, intr, count):
    """count exact P3P samples: (world (m,3,3), unit bearings, camera distances)."""
    world, bearings, dist = [], [], []
    for _ in range(count):
        pose = random_pose(rng)
        pts = points_in_front(rng, pose, 3)
        cam = pts @ pose.R.T + pose.t
        world.append(pts)
        bearings.append(_bearing_vectors(np.array([project(intr, pose, p) for p in pts]), intr))
        dist.append(np.linalg.norm(cam, axis=1))
    return np.array(world), np.array(bearings), np.array(dist)


def _law_of_cosines_terms(world, bearings):
    """_polish_distances' (ca, cb, cg, a2, b2, c2) arguments."""
    P1, P2, P3 = world[:, 0], world[:, 1], world[:, 2]
    f1, f2, f3 = bearings[:, 0], bearings[:, 1], bearings[:, 2]
    cosines = [np.sum(f2 * f3, axis=1), np.sum(f1 * f3, axis=1), np.sum(f1 * f2, axis=1)]
    sides = [((P2 - P3) ** 2).sum(axis=1), ((P1 - P3) ** 2).sum(axis=1), ((P1 - P2) ** 2).sum(axis=1)]
    return cosines + sides


def test_polish_keeps_a_zero_determinant_row_while_the_others_converge(intrinsics):
    """A row whose Jacobian has a zero determinant keeps its distances; the
    other rows converge to the exact distances, bit for bit as when polished
    without it."""
    world, bearings, dist = _sample_distances(np.random.default_rng(12), intrinsics, 3)
    terms = np.array(_law_of_cosines_terms(world, bearings))  # (6, 3)
    start = dist * (1.0 + np.array([[2e-3, -1e-3, 1e-3], [-2e-3, 1e-3, 3e-3], [1e-3, 1e-3, -2e-3]]))
    # cos(alpha) = 1 with s2 = s3 zeroes the Jacobian's first row, while
    # Cramer's numerators would still step all three distances
    singular_terms = np.array([[1.0], [0.3], [0.3], [0.01], [1.0], [1.0]])
    s = np.insert(start, 1, [1.0, 2.0, 2.0], axis=0)
    got = _polish_distances(s, *np.insert(terms, [1], singular_terms, axis=1))
    np.testing.assert_array_equal(got[1], [1.0, 2.0, 2.0])
    alone = _polish_distances(start, *terms)
    np.testing.assert_array_equal(got[[0, 2, 3]], alone)
    np.testing.assert_allclose(alone, dist, rtol=1e-10)
    assert np.abs(start - dist).max() > 1e-3


def test_cross_equals_np_cross_bit_for_bit():
    rng = np.random.default_rng(14)
    u, v = rng.normal(size=(2, 50, 3)) * 10.0 ** rng.integers(-8, 8, (2, 50, 1))
    np.testing.assert_array_equal(_cross(u, v), np.cross(u, v))


def test_rigid_from_three_recovers_the_pose_of_exact_triangles():
    rng = np.random.default_rng(13)
    poses = [random_pose(rng) for _ in range(20)]
    world = rng.normal(scale=3.0, size=(20, 3, 3))
    cam = np.stack([w @ p.R.T + p.t for w, p in zip(world, poses)])
    R, t = _rigid_from_three(world, cam)
    np.testing.assert_allclose(np.linalg.det(R), 1.0, atol=1e-12)
    np.testing.assert_allclose(R, [p.R for p in poses], atol=1e-10)
    np.testing.assert_allclose(t, [p.t for p in poses], atol=1e-9)


def test_refine_pose_converges(intrinsics):
    rng = np.random.default_rng(1)
    pose = random_pose(rng)
    pts = points_in_front(rng, pose, 40)
    pixels = np.array([project(intrinsics, pose, p) for p in pts])
    start = pose.retract(np.array([0.005, -0.004, 0.003, 0.02, -0.01, 0.015]))
    refined = refine_pose(start, pts, pixels, intrinsics, iterations=20)
    assert rotation_angle(refined.R, pose.R) < 1e-8
    np.testing.assert_allclose(refined.t, pose.t, atol=1e-7)


def test_refine_pose_stops_at_the_first_step_within_the_convergence_tolerance(intrinsics, monkeypatch):
    """On a noisy fit, the run ends at its first accepted step that lowers the
    cost by at most CONVERGENCE_TOL of it: that step's pose is the last one
    projected, with no rejected trials after it."""
    from anchorloc.solvers import pnp

    rng = np.random.default_rng(5)
    pose = random_pose(rng)
    pts = points_in_front(rng, pose, 60)
    pixels = np.array([project(intrinsics, pose, p) for p in pts]) + rng.normal(0.0, 0.7, (60, 2))
    start = pose.retract(np.array([0.004, -0.003, 0.002, 0.02, -0.01, 0.015]))
    calls = []

    def counted(R, t, intr, world):
        calls.append((R.copy(), t.copy()))
        return project_many(R, t, intr, world)

    monkeypatch.setattr(pnp, "project_many", counted)
    refined = refine_pose(start, pts, pixels, intrinsics)

    def cost(R, t):
        uv, _ = project_many(R, t, intrinsics, pts)
        return float(((uv - pixels) ** 2).sum())

    current, at = cost(*calls[0]), calls[0]
    gains = []  # (gain, cost after) of each accepted step, in order
    for R, t in calls[1:]:
        if np.array_equal(R, at[0]) and np.array_equal(t, at[1]):
            continue  # the Jacobian's projection at the current pose
        c = cost(R, t)
        if c <= current:
            gains.append((current - c, c))
            current, at = c, (R, t)
    within = [g <= CONVERGENCE_TOL * max(c, 1e-12) for g, c in gains]
    assert within.index(True) == len(gains) - 1
    assert np.array_equal(calls[-1][0], refined.R) and np.array_equal(calls[-1][1], refined.t)
    assert len(calls) < 12


def _refine_pose_loop(pose, world, pixels, intr, iterations=10):
    """Reference: refine_pose with a Levenberg-Marquardt loop of its own, which
    projects the pose again to linearize it."""
    world = np.asarray(world, dtype=float)
    pixels = np.asarray(pixels, dtype=float)
    lam = 1e-6

    def cost_of(p):
        uv, z = project_many(p.R, p.t, intr, world)
        r = uv - pixels
        r[z <= 0] = 1e6
        return float((r**2).sum())

    cost = cost_of(pose)
    for _ in range(iterations):
        R, t = pose.R, pose.t
        uv, z = project_many(R, t, intr, world)
        ok = z > 0
        Jf = pose_jacobian_many(R, t, intr, world[ok]).reshape(-1, 6)
        rf = (uv[ok] - pixels[ok]).reshape(-1)
        H = Jf.T @ Jf
        g = Jf.T @ rf
        if np.max(np.abs(g)) < 1e-14:
            break
        stepped = False
        for _ in range(8):
            try:
                delta = np.linalg.solve(H + lam * np.diag(np.diag(H)) + 1e-18 * np.eye(6), -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = pose.retract(delta)
            new_cost = cost_of(trial)
            if new_cost <= cost:
                pose = trial
                improved = cost - new_cost
                cost = new_cost
                lam = max(lam / 10.0, 1e-12)
                stepped = True
                if improved <= CONVERGENCE_TOL * max(cost, 1e-12):
                    return pose
                break
            lam *= 10.0
        if not stepped:
            break
    return pose


def _refinement_case(intr, seed):
    """A start pose off a noisy 50-point fit; on odd seeds three points lie behind the camera."""
    rng = np.random.default_rng(40 + seed)
    pose = random_pose(rng)
    pts = points_in_front(rng, pose, 50)
    pixels = np.array([project(intr, pose, p) for p in pts]) + rng.normal(0.0, 0.7, (50, 2))
    if seed % 2:
        c = pose.center()
        pts[:3] = 2.0 * c - pts[:3]  # mirrored through the camera center: behind it
    start = pose.retract(rng.normal(scale=[0.004, 0.004, 0.004, 0.02, 0.02, 0.02]))
    return start, pts, pixels


def _assert_same_pose(a, b):
    assert np.array_equal(a.q, b.q) and np.array_equal(a.t, b.t)


@pytest.mark.parametrize("seed", range(6))
def test_refine_pose_matches_its_own_loop_bit_for_bit(intrinsics, seed):
    start, pts, pixels = _refinement_case(intrinsics, seed)
    got = refine_pose(start, pts, pixels, intrinsics)
    assert rotation_angle(got.R, start.R) > 1e-6  # the refinement moved the pose
    _assert_same_pose(got, _refine_pose_loop(start, pts, pixels, intrinsics))
    _assert_same_pose(
        refine_pose(start, pts, pixels, intrinsics, iterations=2),
        _refine_pose_loop(start, pts, pixels, intrinsics, iterations=2),
    )


def test_refine_pose_returns_an_exact_pose_unchanged(intrinsics):
    """Pixels projected at the pose itself leave every residual, and so the
    gradient, exactly zero: no iteration runs."""
    rng = np.random.default_rng(3)
    pose = random_pose(rng)
    pts = points_in_front(rng, pose, 20)
    pixels, _ = project_many(pose.R, pose.t, intrinsics, pts)
    assert refine_pose(pose, pts, pixels, intrinsics) is pose


@pytest.mark.parametrize("failures", [1, 3, 8])
def test_refine_pose_singular_solves_raise_the_damping_as_its_own_loop_did(intrinsics, monkeypatch, failures):
    """A LinAlgError multiplies the damping by 10 and counts as a trial: three
    failures still leave a step, all eight of the first iteration leave the start."""
    start, pts, pixels = _refinement_case(intrinsics, 0)
    seen = failing_solve(monkeypatch, failures)
    got = refine_pose(start, pts, pixels, intrinsics)
    calls = len(seen)
    seen.clear()
    ref = _refine_pose_loop(start, pts, pixels, intrinsics)
    assert calls == len(seen) >= failures
    _assert_same_pose(got, ref)
    if failures == 8:
        assert calls == 8
        _assert_same_pose(got, start)
    else:
        assert rotation_angle(got.R, start.R) > 1e-6


class _Quadratic:
    """levenberg_marquardt's callbacks for |A x - b|², recording the damping of each solve."""

    A = np.array([[2.0, 0.5], [0.0, 1.0], [1.0, -1.0]])

    def __init__(self, b=(1.0, 2.0, 0.5), shrink=1.0):
        self.b = np.array(b)
        self.shrink = shrink  # share of the Gauss-Newton step that solve returns
        self.lams = []
        self.linearized = 0

    def evaluate(self, x):
        r = self.A @ x - self.b
        return float(r @ r), r

    def linearize(self, x, r):
        g = self.A.T @ r
        if np.max(np.abs(g)) < 1e-14:
            return None
        self.linearized += 1
        H = self.A.T @ self.A

        def solve(lam):
            self.lams.append(lam)
            return self.shrink * np.linalg.solve(H + lam * np.diag(np.diag(H)), -g)

        return solve, lambda delta: x + delta

    def run(self, x, iterations=10, damping=1e-3, trials=8):
        return levenberg_marquardt(x, self.evaluate, self.linearize, iterations, damping, trials)


def _tenfold(lam, count):
    """count dampings from lam, each ten times the one before, as the loop multiplies them."""
    out = []
    for _ in range(count):
        out.append(lam)
        lam *= 10.0
    return out


def test_levenberg_marquardt_returns_the_start_when_the_gradient_vanishes():
    problem = _Quadratic(b=_Quadratic.A @ np.array([1.0, 2.0]))  # exact in floating point
    x0 = np.array([1.0, 2.0])
    x, first, last, iterations, accepted = problem.run(x0)
    assert x is x0 and first == last == 0.0
    assert (iterations, accepted) == (0, 0) and problem.lams == []


def test_levenberg_marquardt_counts_and_floors_the_damping():
    """Half Gauss-Newton steps on an exact system gain 3/4 of the cost each time,
    so no step is within the tolerance: every iteration linearizes and
    accepts once, and the damping falls tenfold to its floor of 1e-12."""
    problem = _Quadratic(b=_Quadratic.A @ np.array([0.3, -0.7]), shrink=0.5)
    x0 = np.zeros(2)
    x, first, last, iterations, accepted = problem.run(x0, iterations=5, damping=1e-10)
    assert (iterations, accepted) == (5, 5) == (problem.linearized, len(problem.lams))
    assert problem.lams == [1e-10, 1e-10 / 10.0, 1e-10 / 10.0 / 10.0, 1e-12, 1e-12]
    assert first == problem.evaluate(x0)[0] and last == problem.evaluate(x)[0]
    assert 0.0 < last < first * 0.25**4


def test_levenberg_marquardt_stops_at_the_first_step_within_the_tolerance():
    """An overdetermined system: the first step lands next to the minimum, the
    second gains almost nothing of the remaining cost and ends the run."""
    problem = _Quadratic()
    x, first, last, iterations, accepted = problem.run(np.zeros(2), damping=1e-9)
    assert (iterations, accepted) == (2, 2) and problem.lams == [1e-9, 1e-9 / 10.0]
    assert last <= first
    np.testing.assert_allclose(x, np.linalg.lstsq(problem.A, problem.b, rcond=None)[0], atol=1e-8)


def test_levenberg_marquardt_accepts_a_step_of_equal_cost():
    """A step back to the same point is accepted (cost no higher) and, gaining
    nothing, stops the run."""
    problem = _Quadratic()
    x0 = np.zeros(2)
    steps = []
    solve, _ = problem.linearize(x0, problem.evaluate(x0)[1])

    def linearize(x, state):
        return solve, lambda delta: steps.append(delta) or x.copy()

    x, first, last, iterations, accepted = levenberg_marquardt(x0, problem.evaluate, linearize, 10, 1e-3, 8)
    assert len(steps) == 1 and (iterations, accepted) == (1, 1)
    assert np.array_equal(x, x0) and x is not x0 and first == last


def test_levenberg_marquardt_raises_the_damping_tenfold_per_singular_solve():
    problem = _Quadratic()
    failures = []

    def linearize(x, r):
        solve, step = problem.linearize(x, r)

        def flaky(lam):
            if len(failures) < 3:
                failures.append(lam)
                raise np.linalg.LinAlgError("singular matrix")
            return solve(lam)

        return flaky, step

    x, first, last, iterations, accepted = levenberg_marquardt(np.zeros(2), problem.evaluate, linearize, 10, 1e-3, 8)
    assert failures == _tenfold(1e-3, 3)
    assert problem.lams[0] == _tenfold(1e-3, 4)[-1] and accepted > 0 and last < first


def test_levenberg_marquardt_stops_when_solve_gives_up():
    problem = _Quadratic()
    x0 = np.zeros(2)
    tried = []

    def linearize(x, r):
        return (lambda lam: tried.append(lam)), problem.linearize(x, r)[1]

    x, first, last, iterations, accepted = levenberg_marquardt(x0, problem.evaluate, linearize, 10, 1e-3, 8)
    assert tried == [1e-3] and x is x0 and first == last and (iterations, accepted) == (1, 0)


@pytest.mark.parametrize("trial", ["uphill", "nan"])
def test_levenberg_marquardt_stops_after_an_iteration_that_accepts_nothing(trial):
    """Every trial leads uphill, or to a NaN cost: each multiplies the damping
    by 10, and after `trials` of them the run ends where it started."""
    problem = _Quadratic()
    x0 = np.zeros(2)

    def linearize(x, r):
        solve, step = problem.linearize(x, r)
        return solve, (lambda delta: x - 10.0 * delta) if trial == "uphill" else step

    def evaluate(x):
        return (float("nan"), None) if trial == "nan" and x.any() else problem.evaluate(x)

    x, first, last, iterations, accepted = levenberg_marquardt(x0, evaluate, linearize, 10, 1e-3, 5)
    assert x is x0 and first == last and (iterations, accepted) == (1, 0)
    assert problem.lams == _tenfold(1e-3, 5)


def test_ransac_pnp_noise_free(intrinsics):
    rng = np.random.default_rng(2)
    pose = random_pose(rng)
    pts = points_in_front(rng, pose, 60)
    corrs = _corrs(intrinsics, pose, pts)
    est, inliers = ransac_pnp(*corrs, intrinsics, RansacConfig(rng_seed=5))
    assert len(inliers) == 60
    assert rotation_angle(est.R, pose.R) < 1e-6


def test_ransac_pnp_rejects_planted_outliers(intrinsics):
    rng = np.random.default_rng(3)
    pose = random_pose(rng)
    pts = points_in_front(rng, pose, 50)
    pixels = np.array([project(intrinsics, pose, p) for p in pts])
    cfg = RansacConfig(rng_seed=11)
    out = rng.choice(50, size=15, replace=False)
    for i in out:
        # push outliers far beyond the inlier threshold
        pixels[i] = pixels[i] + rng.uniform(5, 50, 2) * rng.choice([-1.0, 1.0], 2) * cfg.inlier_threshold
    est, inliers = ransac_pnp(*_corrs(intrinsics, pose, pts, pixels), intrinsics, cfg)
    assert set(inliers) == set(range(50)) - set(out)
    assert rotation_angle(est.R, pose.R) < 1e-6


def test_ransac_pnp_deterministic(intrinsics):
    rng = np.random.default_rng(4)
    pose = random_pose(rng)
    pts = points_in_front(rng, pose, 30)
    pixels = np.array([project(intrinsics, pose, p) for p in pts]) + rng.normal(
        scale=0.5, size=(30, 2)
    )
    corrs = _corrs(intrinsics, pose, pts, pixels)
    cfg = RansacConfig(rng_seed=99)
    a_pose, a_inl = ransac_pnp(*corrs, intrinsics, cfg)
    b_pose, b_inl = ransac_pnp(*corrs, intrinsics, cfg)
    assert np.array_equal(a_pose.q, b_pose.q)
    assert np.array_equal(a_pose.t, b_pose.t)
    assert np.array_equal(a_inl, b_inl)


def test_ransac_pnp_error_paths(intrinsics):
    rng = np.random.default_rng(5)
    pose = random_pose(rng)
    pts = points_in_front(rng, pose, 3)
    with pytest.raises(InsufficientCorrespondences):
        ransac_pnp(*_corrs(intrinsics, pose, pts), intrinsics, RansacConfig())
    # pure noise: no consensus of RANSAC_MIN_INLIERS
    junk = [(rng.uniform(0, 640, 2), rng.normal(scale=5, size=3)) for _ in range(20)]
    pixels, world = (np.array(c) for c in zip(*junk))
    with pytest.raises(NoConsensus):
        ransac_pnp(world, pixels, intrinsics, RansacConfig(rng_seed=1))


def test_ransac_config_validation():
    with pytest.raises(ValueError):
        RansacConfig(inlier_threshold=0.0)
    with pytest.raises(ValueError):
        RansacConfig(inlier_threshold=-1.0)


# uneven block sizes, so that blocks start on either half of a PCG64 output
STREAM_BLOCKS = (1, 5, 32, 64, 3, 128, 17)


def _choice_loop(n, k, seed, count):
    rng = np.random.default_rng(seed)
    return np.array([rng.choice(n, size=k, replace=False) for _ in range(count)])


@pytest.mark.parametrize("k", [3, 8])
@pytest.mark.parametrize("n", [0, 1, 2, 10, 31, 100, 1000, 4097, 10000])
def test_sample_stream_equals_choice_loop(k, n):
    """_SampleStream gives rng.choice(n, k, replace=False)'s samples in order,
    for n from k (n = 0, 1, 2 stand for k, k + 1, k + 2) up to 10,000."""
    n = k + n if n < 3 else n
    for seed in range(3):
        stream = _SampleStream(n, k, seed)
        got = np.concatenate([stream.draw(size) for size in STREAM_BLOCKS])
        np.testing.assert_array_equal(got, _choice_loop(n, k, seed, sum(STREAM_BLOCKS)))


def test_sample_stream_follows_choice_through_a_rejected_word(monkeypatch):
    """Seed 1056 at n = 10,000 meets a word that Lemire's bounded draw
    rejects within its first 250 samples (found by search); the stream takes
    the next word as numpy does, and the rest of the stream stays in step."""
    rejections = []
    bounded = _SampleStream._bounded

    def counted(self, *args):
        rejections.append(args)
        return bounded(self, *args)

    monkeypatch.setattr(_SampleStream, "_bounded", counted)
    stream = _SampleStream(10000, 3, 1056)
    got = np.concatenate([stream.draw(size) for size in STREAM_BLOCKS])
    assert rejections
    np.testing.assert_array_equal(got, _choice_loop(10000, 3, 1056, sum(STREAM_BLOCKS)))


def test_sample_stream_refuses_a_sample_larger_than_the_population():
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(2, size=3, replace=False)
    with pytest.raises(ValueError):
        _SampleStream(2, 3, 0)


def _ransac_pnp_loop(world, pixels, intr, cfg):
    """Reference: ransac_pnp as one P3P sample at a time, each candidate
    scored as it comes. Returns (pose, inliers, iterations run) or raises
    NoConsensus."""
    n = len(world)
    thresh_sq = cfg.inlier_threshold**2

    def score(R, t):
        uv, z = project_many(R, t, intr, world)
        return (z > 0) & (((uv - pixels) ** 2).sum(axis=-1) < thresh_sq)

    rng = np.random.default_rng(cfg.rng_seed)
    best, best_mask, best_count = None, None, 0
    max_iter = RANSAC_MAX_ITERATIONS
    it = 0
    while it < max_iter:
        it += 1
        idx = rng.choice(n, size=3, replace=False)
        _, Rs, ts, _ = solve_p3p_block(world[idx][None], pixels[idx][None], intr)
        for R, t in zip(Rs, ts):
            mask = score(R, t)
            count = int(mask.sum())
            if count > best_count:
                best, best_mask, best_count = (R, t), mask, count
                w = count / n
                if w >= 1.0:
                    max_iter = it
                else:
                    need = np.ceil(np.log(1.0 - RANSAC_CONFIDENCE) / np.log1p(-min(w**3, 1.0 - 1e-15)))
                    need = RANSAC_MAX_ITERATIONS if not np.isfinite(need) else int(need)
                    max_iter = min(RANSAC_MAX_ITERATIONS, max(need, it))
    if best is None or best_count < RANSAC_MIN_INLIERS:
        raise NoConsensus(f"best inlier count {best_count}")
    best_pose = Pose.from_rt(*best)
    pose = refine_pose(best_pose, world[best_mask], pixels[best_mask], intr)
    mask = score(pose.R, pose.t)
    if int(mask.sum()) < best_count:
        pose, mask = best_pose, best_mask
    return pose, np.nonzero(mask)[0], it


@pytest.mark.parametrize("outliers", [0.3, 0.4, 0.5, 0.6])
def test_ransac_pnp_matches_one_sample_loop(intrinsics, outliers):
    """Block-drawn ransac_pnp gives the one-sample loop's pose and inliers,
    bit for bit, with runs that stop inside the second and later blocks."""
    stops = []
    for seed in range(4):
        rng = np.random.default_rng(200 + seed)
        pose = random_pose(rng)
        pts = points_in_front(rng, pose, 60)
        pixels = np.array([project(intrinsics, pose, p) for p in pts]) + rng.normal(scale=0.5, size=(60, 2))
        bad = rng.choice(60, int(outliers * 60), replace=False)
        pixels[bad] = rng.uniform(0, 640, (len(bad), 2))
        cfg = RansacConfig(rng_seed=seed)
        ref_pose, ref_inliers, iterations = _ransac_pnp_loop(pts, pixels, intrinsics, cfg)
        got_pose, got_inliers = ransac_pnp(pts, pixels, intrinsics, cfg)
        assert np.array_equal(got_pose.q, ref_pose.q) and np.array_equal(got_pose.t, ref_pose.t)
        assert np.array_equal(got_inliers, ref_inliers)
        stops.append(iterations)
    edges = ransac_block_edges()
    if outliers == 0.5:
        assert any(edges[0] < it < edges[1] for it in stops), stops
    if outliers == 0.6:
        assert any(it > edges[1] and it not in edges for it in stops), stops


def _near_prior(intr, pose, pts):
    """A prior about 0.0015 rad and 0.01 units off pose, which moves the
    points' reprojections by a pixel or two."""
    prior = pose.retract(np.array([0.001, -0.001, 0.0005, 0.005, -0.005, 0.01]))
    shift = np.linalg.norm(
        np.array([project(intr, prior, p) for p in pts]) - np.array([project(intr, pose, p) for p in pts]), axis=1
    )
    assert 0.3 < np.median(shift) and shift.max() < 3.0, shift
    return prior


def test_pose_from_prior_refines_a_near_prior_without_sampling(intrinsics, monkeypatch):
    from anchorloc.solvers import pnp

    def no_sampling(*args):
        raise AssertionError("pose_from_prior solved a P3P sample")

    monkeypatch.setattr(pnp, "solve_p3p_block", no_sampling)
    rng = np.random.default_rng(7)
    pose = random_pose(rng)
    pts = points_in_front(rng, pose, 40)
    pixels = np.array([project(intrinsics, pose, p) for p in pts])
    est, inliers = pose_from_prior(_near_prior(intrinsics, pose, pts), pts, pixels, intrinsics, RansacConfig())
    assert inliers.tolist() == list(range(40))
    assert rotation_angle(est.R, pose.R) < 1e-8
    np.testing.assert_allclose(est.t, pose.t, atol=1e-7)


def test_pose_from_prior_rejects_a_far_prior(intrinsics, monkeypatch):
    """A prior 20 degrees off explains too few correspondences and is
    rejected before any refinement."""
    from anchorloc.solvers import pnp

    def no_refinement(*args):
        raise AssertionError("pose_from_prior refined a rejected prior")

    monkeypatch.setattr(pnp, "refine_pose", no_refinement)
    rng = np.random.default_rng(8)
    pose = random_pose(rng)
    pts = points_in_front(rng, pose, 40)
    pixels = np.array([project(intrinsics, pose, p) for p in pts])
    far = pose.retract(np.array([0.0, np.radians(20.0), 0.0, 0.0, 0.0, 0.0]))
    assert np.isclose(rotation_angle(far.R, pose.R), np.radians(20.0))
    with pytest.raises(NoConsensus):
        pose_from_prior(far, pts, pixels, intrinsics, RansacConfig())


def test_pose_from_prior_rejects_a_refinement_that_loses_consensus(intrinsics, monkeypatch):
    """A prior that explains every correspondence is still rejected when its
    refined pose keeps fewer than RANSAC_MIN_INLIERS inliers."""
    from anchorloc.solvers import pnp

    rng = np.random.default_rng(7)
    pose = random_pose(rng)
    pts = points_in_front(rng, pose, 40)
    pixels = np.array([project(intrinsics, pose, p) for p in pts])
    far = pose.retract(np.array([0.0, np.radians(20.0), 0.0, 0.0, 0.0, 0.0]))
    refined = []

    def refine_far(prior, world, px, intr):
        refined.append(len(world))
        return far

    monkeypatch.setattr(pnp, "refine_pose", refine_far)
    kept = int(pnp._inlier_mask(pts, pixels, intrinsics, RansacConfig().inlier_threshold**2, far.R, far.t).sum())
    assert kept < RANSAC_MIN_INLIERS
    with pytest.raises(NoConsensus, match=f"refined prior inlier count {kept} < {RANSAC_MIN_INLIERS}"):
        pose_from_prior(pose, pts, pixels, intrinsics, RansacConfig())
    assert refined == [40]


def test_pose_from_prior_excludes_planted_outliers(intrinsics):
    rng = np.random.default_rng(9)
    pose = random_pose(rng)
    pts = points_in_front(rng, pose, 50)
    pixels = np.array([project(intrinsics, pose, p) for p in pts])
    cfg = RansacConfig()
    out = rng.choice(50, size=15, replace=False)
    for i in out:
        pixels[i] = pixels[i] + rng.uniform(5, 50, 2) * rng.choice([-1.0, 1.0], 2) * cfg.inlier_threshold
    est, inliers = pose_from_prior(_near_prior(intrinsics, pose, pts), pts, pixels, intrinsics, cfg)
    assert set(inliers.tolist()) == set(range(50)) - set(out.tolist())
    assert rotation_angle(est.R, pose.R) < 1e-8
