"""Minimal P3P solver and robust PnP via RANSAC with LM pose refinement.

Grunert's P3P is solved for a block of 3-point samples at once; RANSAC
draws and scores its hypotheses in such blocks. ransac_pnp takes the
correspondences as (n,3) world points and (n,2) pixels, so the solver
knows no model type. pose_from_prior skips the sampling when a predicted
pose already explains the correspondences, and accepts it under
ransac_pnp's own inlier threshold and consensus bar.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ..geom import CONVERGENCE_TOL, CameraIntrinsics, Pose, pose_jacobian_many, project_many
from .errors import InsufficientCorrespondences, NoConsensus


# RANSAC draws at most this many samples, stops early once it is this
# confident of an all-inlier sample, and accepts a consensus of this size
RANSAC_MAX_ITERATIONS = 1000
RANSAC_CONFIDENCE = 0.999
RANSAC_MIN_INLIERS = 15


@dataclass
class RansacConfig:
    inlier_threshold: float = 4.0  # pixels
    rng_seed: int = 0

    def __post_init__(self):
        if self.inlier_threshold <= 0:
            raise ValueError("inlier_threshold must be positive")


def _bearing_vectors(pixels, intr: CameraIntrinsics):
    pixels = np.atleast_2d(np.asarray(pixels, dtype=float))
    f = np.stack(
        [
            (pixels[:, 0] - intr.cx) / intr.fx,
            (pixels[:, 1] - intr.cy) / intr.fy,
            np.ones(len(pixels)),
        ],
        axis=1,
    )
    return f / np.linalg.norm(f, axis=1)[:, None]


# RANSAC solves its samples in blocks: the first of _RANSAC_FIRST_BLOCK
# samples, each next one twice as large up to _RANSAC_MAX_BLOCK, so a run
# that stops early solves few samples it does not need
_RANSAC_FIRST_BLOCK = 32
_RANSAC_MAX_BLOCK = 128


def _polyval_rows(coeffs, x):
    """np.polyval row by row: coeffs (m,k), x (m,)."""
    y = np.zeros_like(x)
    for c in coeffs.T:
        y = y * x + c
    return y


def _quartic_roots(coeffs):
    """Roots of each row of (m,5) max-normalized quartic coefficients.

    Leading coefficients at or below 1e-14 are trimmed, so a quartic whose
    leading term vanishes is solved at its lower degree rather than through
    an infinite or huge companion entry. Each degree is solved as one stack
    of companion matrices. Returns (m,4) complex roots and an (m,4) mask of the slots
    that hold a root.
    """
    m = len(coeffs)
    roots = np.zeros((m, 4), dtype=complex)
    present = np.zeros((m, 4), dtype=bool)
    # max-normalized rows hold a coefficient of magnitude 1, so argmax finds the lead
    degree = 4 - np.argmax(np.abs(coeffs) > 1e-14, axis=1)
    for d in np.unique(degree[degree > 0]):
        rows = np.nonzero(degree == d)[0]
        p = coeffs[rows, 4 - d :]
        companion = np.zeros((len(rows), d, d))
        companion[:, 0, :] = -p[:, 1:] / p[:, :1]
        companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
        roots[rows, :d] = np.linalg.eigvals(companion)
        present[rows, :d] = True
    return roots, present


def _cross(u, v):
    """np.cross of (...,3) rows, from the same products and differences."""
    u1, u2, u3 = u[..., 0], u[..., 1], u[..., 2]
    v1, v2, v3 = v[..., 0], v[..., 1], v[..., 2]
    return np.stack([u2 * v3 - u3 * v2, u3 * v1 - u1 * v3, u1 * v2 - u2 * v1], axis=-1)


def _polish_distances(s, ca, cb, cg, a2, b2, c2):
    """Up to three Gauss-Newton steps on the law-of-cosines equations, per row of (k,3) distances.

    Each row's Jacobian [[0,a,b],[c,0,d],[e,f,0]] is solved by Cramer's
    rule. A row stops on a zero determinant or a step to a non-positive
    distance (step rejected), or once its residual is below 1e-14 (step
    taken).
    """
    s = s.copy()
    active = np.ones(len(s), dtype=bool)
    for _ in range(3):
        s1, s2, s3 = s.T
        r1 = s2**2 + s3**2 - 2 * s2 * s3 * ca - a2
        r2 = s1**2 + s3**2 - 2 * s1 * s3 * cb - b2
        r3 = s1**2 + s2**2 - 2 * s1 * s2 * cg - c2
        a, b = 2 * s2 - 2 * s3 * ca, 2 * s3 - 2 * s2 * ca
        c, d = 2 * s1 - 2 * s3 * cb, 2 * s3 - 2 * s1 * cb
        e, f = 2 * s1 - 2 * s2 * cg, 2 * s2 - 2 * s1 * cg
        det = a * d * e + b * c * f
        step = np.stack(
            [
                a * d * r3 + b * f * r2 - d * f * r1,
                d * e * r1 + b * c * r3 - b * e * r2,
                c * f * r1 + a * e * r2 - a * c * r3,
            ],
            axis=1,
        )
        solved = det != 0
        s_new = s - step / np.where(solved, det, 1.0)[:, None]
        move = active & solved & ~np.any(s_new <= 0, axis=1)
        s[move] = s_new[move]
        residual = np.maximum(np.maximum(np.abs(r1), np.abs(r2)), np.abs(r3))
        active = move & ~(residual < 1e-14)
        if not active.any():
            break
    return s


def _rigid_from_three(world, cam):
    """Rigid transforms with cam_i = R @ world_i + t, per (k,3,3) sample of congruent triangles.

    Each triangle gets the frame e1 along p2 - p1, e3 along the normal and
    e2 = e3 x e1; R = F_cam^T F_world turns the world frame into the camera
    one, and t carries the world centroid to the camera centroid.
    """

    def frame(p):
        e1 = p[:, 1] - p[:, 0]
        e3 = _cross(e1, p[:, 2] - p[:, 0])
        e1 = e1 / np.linalg.norm(e1, axis=1)[:, None]
        e3 = e3 / np.linalg.norm(e3, axis=1)[:, None]
        return np.stack([e1, _cross(e3, e1), e3], axis=1)

    R = np.matmul(frame(cam).transpose(0, 2, 1), frame(world))
    t = cam.mean(axis=1) - np.matmul(R, world.mean(axis=1)[..., None])[..., 0]
    return R, t


def grunert_block(world, bearings):
    """Grunert's P3P over a block of samples.

    world (B,3,3) points and unit bearings (B,3,3) in the camera frame, one
    sample per row. Returns (rows, R, t, degenerate): the m candidate
    poses cam = R @ world + t of (m,3,3) R and (m,3) t with all three
    points in front of the camera, the (m,) sample index of each (ascending,
    roots in the order the companion eigenvalues come), and a (B,) code per
    sample: 0, or where the sample is degenerate 1 for coincident world
    points, 2 for collinear ones, 3 for coincident bearings and 4 for a
    vanishing quartic. Degenerate samples yield no candidates and do not
    affect the others.
    """
    world = np.asarray(world, dtype=float)
    bearings = np.asarray(bearings, dtype=float)
    with np.errstate(all="ignore"):
        P1, P2, P3 = world[:, 0], world[:, 1], world[:, 2]
        a = np.linalg.norm(P2 - P3, axis=1)
        b = np.linalg.norm(P1 - P3, axis=1)
        c = np.linalg.norm(P1 - P2, axis=1)
        area = np.linalg.norm(_cross(P2 - P1, P3 - P1), axis=1)
        f1, f2, f3 = bearings[:, 0], bearings[:, 1], bearings[:, 2]
        ca = np.sum(f2 * f3, axis=1)  # alpha opposite side a
        cb = np.sum(f1 * f3, axis=1)
        cg = np.sum(f1 * f2, axis=1)

        a2, b2, c2 = a * a, b * b, c * c
        A = (a2 - c2) / b2
        B = (a2 + c2) / b2
        coeffs = np.stack(
            [
                (A - 1.0) ** 2 - 4.0 * c2 / b2 * ca * ca,
                4.0 * (A * (1.0 - A) * cb - (1.0 - B) * ca * cg + 2.0 * c2 / b2 * ca * ca * cb),
                2.0
                * (
                    A * A
                    - 1.0
                    + 2.0 * A * A * cb * cb
                    + 2.0 * (b2 - c2) / b2 * ca * ca
                    - 4.0 * B * ca * cb * cg
                    + 2.0 * (b2 - a2) / b2 * cg * cg
                ),
                4.0 * (-A * (1.0 + A) * cb + 2.0 * a2 / b2 * cg * cg * cb - (1.0 - B) * ca * cg),
                (1.0 + A) ** 2 - 4.0 * a2 / b2 * cg * cg,
            ],
            axis=1,
        )
        lead = np.max(np.abs(coeffs), axis=1)
        degenerate = np.select(
            [
                np.minimum(np.minimum(a, b), c) < 1e-12,
                area < 1e-12 * b * c,
                np.maximum(np.maximum(np.abs(ca), np.abs(cb)), np.abs(cg)) > 1.0 - 1e-12,
                ~(lead >= 1e-300),
            ],
            [1, 2, 3, 4],
            0,
        )

        valid = np.nonzero(degenerate == 0)[0]
        coeffs = coeffs[valid] / lead[valid, None]
        roots, present = _quartic_roots(coeffs)
        real = present & ~(np.abs(roots.imag) > 1e-6 * np.maximum(1.0, np.abs(roots.real)))
        row, slot = np.nonzero(real)

        # two Newton steps tighten the eigenvalue roots
        v = roots.real[row, slot]
        C = coeffs[row]
        dC = C[:, :4] * np.arange(4, 0, -1)
        newton = np.ones(len(v), dtype=bool)
        for _ in range(2):
            fx = _polyval_rows(C, v)
            dfx = _polyval_rows(dC, v)
            newton &= ~(np.abs(dfx) < 1e-300)
            v = np.where(newton, v - fx / dfx, v)

        sample = valid[row]
        A, ca, cb, cg = A[sample], ca[sample], cb[sample], cg[sample]
        a2, b2, c2 = a2[sample], b2[sample], c2[sample]
        denom = 2.0 * (cg - v * ca)
        u = ((A - 1.0) * v * v - 2.0 * A * cb * v + 1.0 + A) / denom
        s1sq = b2 / (1.0 + v * v - 2.0 * v * cb)
        s1 = np.sqrt(s1sq)
        s = np.stack([s1, u * s1, v * s1], axis=1)
        keep = np.nonzero(
            ~(np.abs(denom) < 1e-12) & ~(s1sq <= 0.0) & ~np.any(s <= 0.0, axis=1)
        )[0]
        sample = sample[keep]
        s = _polish_distances(
            s[keep], ca[keep], cb[keep], cg[keep], a2[keep], b2[keep], c2[keep]
        )
        R, t = _rigid_from_three(world[sample], s[:, :, None] * bearings[sample])
    return sample, R, t, degenerate


def solve_p3p_block(world, pixels, intr: CameraIntrinsics):
    """P3P over a block of 3-point samples: world (B,3,3), pixels (B,3,2).

    Returns grunert_block's (rows, R, t, degenerate), keeping only the
    candidates that reproject all three sample points within 1e-4 pixels
    and in front of the camera.
    """
    world = np.asarray(world, dtype=float)
    pixels = np.asarray(pixels, dtype=float)
    bearings = _bearing_vectors(pixels.reshape(-1, 2), intr).reshape(world.shape)
    rows, R, t, degenerate = grunert_block(world, bearings)
    uv, z = project_many(R, t, intr, world[rows])
    with np.errstate(invalid="ignore"):
        err = np.max(np.linalg.norm(uv - pixels[rows], axis=2), axis=1)
    ok = np.all(z > 0, axis=1) & ~(err > 1e-4)
    return rows[ok], R[ok], t[ok], degenerate


def refine_pose(pose: Pose, world, pixels, intr: CameraIntrinsics, iterations=10):
    """Pose-only Levenberg-Marquardt on the given correspondences; a point
    behind the camera adds a residual of 1e6 per coordinate and no Jacobian rows."""
    world = np.asarray(world, dtype=float)
    pixels = np.asarray(pixels, dtype=float)

    def evaluate(p):
        uv, z = project_many(p.R, p.t, intr, world)
        r = uv - pixels
        r[z <= 0] = 1e6
        return float((r**2).sum()), (r, z > 0)

    def linearize(p, state):
        r, ok = state
        Jf = pose_jacobian_many(p.R, p.t, intr, world[ok]).reshape(-1, 6)
        H = Jf.T @ Jf
        g = Jf.T @ r[ok].reshape(-1)
        if np.max(np.abs(g)) < 1e-14:
            return None
        return (lambda lam: np.linalg.solve(H + lam * np.diag(np.diag(H)) + 1e-18 * np.eye(6), -g)), p.retract

    return levenberg_marquardt(pose, evaluate, linearize, iterations, 1e-6, 8)[0]


class _SampleStream:
    """The samples of np.random.default_rng(seed).choice(n, k, replace=False), drawn a block at a time.

    draw(size) returns a (size, k) block equal, row for row, to size
    successive choice calls. It takes numpy's own steps for k <= 200 (the
    sizes for which choice runs Floyd's algorithm at every n): Floyd's
    draws in [0, j] for j = n-k .. n-1, each kept unless already picked
    (then j is kept), and a shuffle that swaps pick i with a draw in
    [0, i] for i = k-1 .. 1. Each draw in [0, b] is Lemire's bounded
    integer (ACM TOMACS 2019) on the next 32-bit word, the low then the
    high half of each PCG64 output; a bound of 0 takes no word. Words left
    over, such as a high half, carry over to the next block.
    """

    def __init__(self, n, k, seed):
        if k > n:
            raise ValueError("Cannot take a larger sample than population when replace is False")
        self.n, self.k = n, k
        self._bitgen = np.random.default_rng(seed).bit_generator
        bounds = np.concatenate([np.arange(n - k, n), np.arange(k - 1, 0, -1)])
        self._n_draws = len(bounds)
        self._uses = np.nonzero(bounds > 0)[0]  # the draws that take a word
        self._span = bounds[self._uses].astype(np.uint64) + 1
        # a word is rejected while the low half of word * span is below this
        self._threshold = (2**32 - self._span) % self._span
        self._words = np.empty(0, dtype=np.uint64)

    def _fill(self, count):
        """Hold at least count unused words."""
        short = count - len(self._words)
        if short > 0:
            raw = self._bitgen.random_raw((short + 1) // 2)
            halves = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).ravel()
            self._words = np.concatenate([self._words, halves])

    def _bounded(self, span, threshold):
        """One draw in [0, span), rejecting words as numpy does."""
        while True:
            self._fill(1)
            m = self._words[0] * span
            self._words = self._words[1:]
            if (m & 0xFFFFFFFF) >= threshold:
                return m >> 32

    def draw(self, size):
        per = len(self._uses)
        values = np.zeros((size, self._n_draws), dtype=np.int64)
        done = 0
        while done < size:
            # every sample up to the first with a rejected word in one step
            self._fill((size - done) * per)
            m = self._words[: (size - done) * per].reshape(size - done, per) * self._span
            rejected = np.any((m & 0xFFFFFFFF) < self._threshold, axis=1)
            good = int(np.argmax(rejected)) if rejected.any() else size - done
            values[done : done + good, self._uses] = m[:good] >> 32
            self._words = self._words[good * per :]
            done += good
            if done < size:
                values[done, self._uses] = [self._bounded(*st) for st in zip(self._span, self._threshold)]
                done += 1
        n, k = self.n, self.k
        picks = values[:, :k]
        for j in range(1, k):
            taken = np.any(picks[:, :j] == picks[:, j : j + 1], axis=1)
            picks[taken, j] = n - k + j
        rows = np.arange(size)
        for c, i in enumerate(range(k - 1, 0, -1)):
            j = values[:, k + c]
            picks[rows, i], picks[rows, j] = picks[rows, j], picks[rows, i]
        return picks


def ransac(n, k, seed, solve, score):
    """Adaptive RANSAC over k-point minimal samples of n data (Fischler & Bolles, CACM 1981).

    solve(idx) takes a (B,k) block of samples and returns (rows, hyps): a
    tuple of arrays stacking the candidate hypotheses along axis 0, and the
    ascending sample row of each. score(*hyps) returns their (m,n) inlier
    masks. Samples are drawn, solved and scored a block at a time (32,
    64, then 128 samples) and scanned in draw order. _SampleStream
    draws the samples of successive rng.choice(n, k, replace=False) calls
    on np.random.default_rng(seed), so the result equals
    one-sample-at-a-time RANSAC. The run stops
    once the best inlier ratio w reaches RANSAC_CONFIDENCE
    (1 - (1 - w**k)**iterations) or after RANSAC_MAX_ITERATIONS samples.
    Returns (best hyps, their mask, their count); best is None when no
    sample gave an inlier.
    """
    samples = _SampleStream(n, k, seed)
    best, best_mask, best_count = None, None, 0
    max_iter = RANSAC_MAX_ITERATIONS
    it = 0
    block = _RANSAC_FIRST_BLOCK
    while it < max_iter:
        # sample j of the block is iteration it + j + 1
        size = min(block, max_iter - it)
        idx = samples.draw(size)
        rows, hyps = solve(idx)
        masks = score(*hyps)
        counts = masks.sum(axis=1)
        # only a candidate beating every earlier one can become the best
        earlier = np.maximum.accumulate(np.concatenate([[best_count], counts[:-1]]))
        for j in np.nonzero(counts > earlier)[0]:
            sample_it = it + int(rows[j]) + 1
            if sample_it > max_iter:
                break
            best_count = int(counts[j])
            best_mask = masks[j]
            best = tuple(h[j] for h in hyps)
            w = best_count / n
            if w >= 1.0:
                max_iter = sample_it
            else:
                denom = np.log1p(-min(w**k, 1.0 - 1e-15))
                need = np.ceil(np.log(1.0 - RANSAC_CONFIDENCE) / denom)
                need = RANSAC_MAX_ITERATIONS if not np.isfinite(need) else int(need)
                max_iter = min(RANSAC_MAX_ITERATIONS, max(need, sample_it))
        it += size
        block = min(2 * block, _RANSAC_MAX_BLOCK)
    return best, best_mask, best_count


def levenberg_marquardt(x, evaluate, linearize, iterations, damping, trials):
    """The Levenberg-Marquardt loop of refine_pose, refine_relative_pose and bundle_adjust.

    evaluate(x) returns (cost, state). linearize(x, state) returns None
    when the gradient vanishes, else (solve, step): solve(lam) returns the
    step damped by lam, raises np.linalg.LinAlgError on a singular system
    or returns None to give up; step(delta) returns the point it leads to.
    An iteration runs at most `trials` trials. A step of no higher cost is
    accepted and divides lam by 10, to no less than 1e-12; a rejected step
    or a LinAlgError multiplies it by 10. The run stops at the first
    accepted step that lowers the cost by at most CONVERGENCE_TOL of it,
    or after an iteration that accepts nothing. Returns (x, first cost,
    last cost, iterations linearized, steps accepted).
    """
    first, state = evaluate(x)
    cost, lam = first, damping
    linearized = accepted = 0
    for _ in range(iterations):
        system = linearize(x, state)
        if system is None:
            break
        linearized += 1
        solve, step = system
        gain = None
        for _ in range(trials):
            try:
                delta = solve(lam)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            if delta is None:
                break
            trial = step(delta)
            trial_cost, trial_state = evaluate(trial)
            if trial_cost <= cost:
                gain = cost - trial_cost
                x, cost, state = trial, trial_cost, trial_state
                lam = max(lam / 10.0, 1e-12)
                accepted += 1
                break
            lam *= 10.0
        if gain is None or gain <= CONVERGENCE_TOL * max(cost, 1e-12):
            break
    return x, first, cost, linearized, accepted


def _inlier_mask(world, pixels, intr: CameraIntrinsics, thresh_sq, R, t):
    """Inlier masks of the poses cam = R @ world + t: in front of the camera and
    reprojected within sqrt(thresh_sq) pixels. A single pose gives an (n,)
    mask, a stack of m poses an (m,n) one."""
    uv, z = project_many(R, t, intr, world)
    err = ((uv - pixels) ** 2).sum(axis=-1)
    return (z > 0) & (err < thresh_sq)


def ransac_pnp(world, pixels, intr: CameraIntrinsics, cfg: RansacConfig):
    """Robust pose from 2D-3D correspondences: (n,3) world points, (n,2) pixels.

    Deterministic given cfg.rng_seed. Returns (pose, sorted inlier indices).
    Raises InsufficientCorrespondences (< 4 inputs) or NoConsensus when the
    best consensus set is smaller than RANSAC_MIN_INLIERS.
    """
    n = len(world)
    if n < 4:
        raise InsufficientCorrespondences(f"{n} < 4 correspondences")
    world = np.array(world, dtype=float)
    pixels = np.array(pixels, dtype=float)
    score = partial(_inlier_mask, world, pixels, intr, cfg.inlier_threshold**2)

    def solve(idx):
        # the module global, looked up per block, so wrappers see each call
        rows, R, t, _ = solve_p3p_block(world[idx], pixels[idx], intr)
        return rows, (R, t)

    best, best_mask, best_count = ransac(n, 3, cfg.rng_seed, solve, score)
    if best is None or best_count < RANSAC_MIN_INLIERS:
        raise NoConsensus(f"best inlier count {best_count} < {RANSAC_MIN_INLIERS}")

    best_pose = Pose.from_rt(*best)
    pose = refine_pose(best_pose, world[best_mask], pixels[best_mask], intr)
    mask = score(pose.R, pose.t)
    if int(mask.sum()) < best_count:
        # refinement must not lose consensus; fall back
        pose = best_pose
        mask = best_mask
    inliers = np.nonzero(mask)[0]
    return pose, inliers


def pose_from_prior(prior: Pose, world, pixels, intr: CameraIntrinsics, cfg: RansacConfig):
    """Pose from 2D-3D correspondences near a predicted pose, without sampling.

    The correspondences that the prior reprojects within
    cfg.inlier_threshold are refined with refine_pose, and the refined pose
    is scored again. Returns (pose, sorted inlier indices), or raises
    NoConsensus when either the prior or the refined pose has fewer than
    RANSAC_MIN_INLIERS inliers: ransac_pnp's own consensus bar.
    """
    world = np.array(world, dtype=float)
    pixels = np.array(pixels, dtype=float)
    score = partial(_inlier_mask, world, pixels, intr, cfg.inlier_threshold**2)
    mask = score(prior.R, prior.t)
    if int(mask.sum()) < RANSAC_MIN_INLIERS:
        raise NoConsensus(f"prior inlier count {int(mask.sum())} < {RANSAC_MIN_INLIERS}")
    # the module global, so wrappers see the call
    pose = refine_pose(prior, world[mask], pixels[mask], intr)
    mask = score(pose.R, pose.t)
    if int(mask.sum()) < RANSAC_MIN_INLIERS:
        raise NoConsensus(f"refined prior inlier count {int(mask.sum())} < {RANSAC_MIN_INLIERS}")
    return pose, np.nonzero(mask)[0]
