"""Two-view relative pose via normalized eight-point essential estimation."""

from __future__ import annotations

import numpy as np

from ..geom import CameraIntrinsics, Pose, mat_to_quat, quat_to_mat, so3_exp_quat
from .errors import DegenerateConfiguration, InsufficientCorrespondences, NoConsensus
from .pnp import RANSAC_MIN_INLIERS, RansacConfig, _bearing_vectors, levenberg_marquardt, ransac


# _midpoint_depths leaves a match to np.linalg.lstsq when |R f1 × f2| is
# at most this share of |R f1|² + |f2|², rays within about 2e-5 rad of parallel
_PARALLEL_RAYS = 1e-5


def _essential_from_eight(x1, x2):
    """Linear essential estimates from normalized image points.

    x1, x2 are (..., n, 2) with n >= 8; returns (..., 3, 3), one estimate
    per leading index, each equal to the estimate from its own rows alone.
    """
    x1u, x1v = x1[..., 0], x1[..., 1]
    x2u, x2v = x2[..., 0], x2[..., 1]
    A = np.stack(
        [x2u * x1u, x2u * x1v, x2u, x2v * x1u, x2v * x1v, x2v, x1u, x1v, np.ones_like(x1u)],
        axis=-1,
    )
    _, _, Vt = np.linalg.svd(A)
    E = Vt[..., -1, :].reshape(Vt.shape[:-2] + (3, 3))
    U, s, Vt = np.linalg.svd(E)
    sig = (s[..., 0] + s[..., 1]) / 2.0
    D = np.zeros_like(E)
    D[..., 0, 0] = sig
    D[..., 1, 1] = sig
    return U @ D @ Vt


def _normalized(pixels, intr: CameraIntrinsics):
    """Normalized image coordinates of (n,2) pixels, through their unit bearings."""
    b = _bearing_vectors(pixels, intr)
    return b[:, :2] / b[:, 2:3]


def _sampson_terms(E, x1, x2):
    """Epipolar residuals x2ᵀ E x1 of (n,2) matches and their squared Sampson
    denominators, (n,) each under E (3,3), or (m,n) under a stack (m,3,3)."""
    x1h = np.column_stack([x1, np.ones(len(x1))])
    x2h = np.column_stack([x2, np.ones(len(x2))])
    Ex1 = x1h @ np.swapaxes(E, -1, -2)
    Etx2 = x2h @ E
    num = np.einsum("ij,...ij->...i", x2h, Ex1)
    return num, Ex1[..., 0] ** 2 + Ex1[..., 1] ** 2 + Etx2[..., 0] ** 2 + Etx2[..., 1] ** 2


def _sampson_sq(E, x1, x2):
    """Squared Sampson errors of (n,2) matches under E (3,3), or (m,n) under a stack (m,3,3)."""
    num, den2 = _sampson_terms(E, x1, x2)
    return num**2 / np.maximum(den2, 1e-18)


def _midpoint_depths(R, t, x1, x2):
    """Depths of the midpoint triangulation in both views, vectorized.

    Solves z2 f2 = z1 R f1 + t in the least-squares sense for all matches
    at once, by Cramer's rule on the 2x2 normal equations. Their
    determinant |R f1|²|f2|² - (R f1 · f2)² is taken as |R f1 × f2|²,
    which keeps its precision as the rays turn parallel. Rows within
    _PARALLEL_RAYS of parallel, which np.linalg.lstsq may treat as rank
    deficient, take its answer.
    """
    f1 = np.column_stack([x1, np.ones(len(x1))])
    f2 = np.column_stack([x2, np.ones(len(x2))])
    Rf1 = f1 @ R.T
    n = np.cross(Rf1, f2)
    det = np.einsum("ij,ij->i", n, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        z1 = np.einsum("ij,ij->i", np.cross(-t, f2), n) / det
        z2 = np.einsum("ij,ij->i", np.cross(-t, Rf1), n) / det
    scale = np.einsum("ij,ij->i", Rf1, Rf1) + np.einsum("ij,ij->i", f2, f2)
    for i in np.flatnonzero(~(np.sqrt(det) > _PARALLEL_RAYS * scale)):
        (z1[i], z2[i]), *_ = np.linalg.lstsq(np.column_stack([Rf1[i], -f2[i]]), -t, rcond=None)
    return z1, z2


def _decompose_essential(E, x1, x2):
    U, _, Vt = np.linalg.svd(E)
    if np.linalg.det(U) < 0:
        U = -U
    if np.linalg.det(Vt) < 0:
        Vt = -Vt
    W = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    t = U[:, 2]
    t = t / np.linalg.norm(t)
    best = None
    best_front = -1
    for R in (U @ W @ Vt, U @ W.T @ Vt):
        for tt in (t, -t):
            z1, z2 = _midpoint_depths(R, tt, x1, x2)
            front = int(((z1 > 0) & (z2 > 0)).sum())
            if front > best_front:
                best_front = front
                best = (R, tt)
    return best, best_front


def _sampson_residuals(R, t, x1, x2):
    """Signed Sampson errors of (n,2) matches under the relative pose R, t: (n,),
    or (k,n) under a stack R (k,3,3), t (k,3)."""
    tx = np.zeros(t.shape[:-1] + (3, 3))
    tx[..., 0, 1], tx[..., 0, 2] = -t[..., 2], t[..., 1]
    tx[..., 1, 0], tx[..., 1, 2] = t[..., 2], -t[..., 0]
    tx[..., 2, 0], tx[..., 2, 1] = -t[..., 1], t[..., 0]
    num, den2 = _sampson_terms(tx @ R, x1, x2)
    return num / np.maximum(np.sqrt(den2), 1e-18)


def refine_relative_pose(pose: Pose, pixels1, pixels2, intr: CameraIntrinsics):
    """Levenberg-Marquardt on Sampson error over the 5-dof relative pose,
    through levenberg_marquardt: up to 30 iterations from damping 1e-4,
    with up to 8 trials each.

    The linear eight-point estimate degrades badly on shallow-relief
    (near-planar) geometry; this polishes it on the given inlier matches.
    Translation stays unit-norm.
    """
    x1 = _normalized(pixels1, intr)
    x2 = _normalized(pixels2, intr)
    eps = 1e-7

    def evaluate(Rt):
        r = _sampson_residuals(*Rt, x1, x2)
        return float(r @ r), r

    def linearize(Rt, r):
        # numeric jacobian: 3 rotation params, 2 in the tangent of the
        # unit translation sphere
        R, t = Rt
        U, _, _ = np.linalg.svd(np.eye(3) - np.outer(t, t))
        B = U[:, :2]
        Rs = [quat_to_mat(so3_exp_quat(d)) @ R for d in eps * np.eye(3)] + [R, R]
        ts = [t, t, t] + [tp / np.linalg.norm(tp) for tp in (t + eps * B.T)]
        J = ((_sampson_residuals(np.array(Rs), np.array(ts), x1, x2) - r) / eps).T
        H = J.T @ J
        g = J.T @ r
        if np.max(np.abs(g)) < 1e-14:
            return None

        def step(delta):
            tn = t + B @ delta[3:]
            return quat_to_mat(so3_exp_quat(delta[:3])) @ R, tn / np.linalg.norm(tn)

        return (lambda lam: np.linalg.solve(H + lam * np.diag(np.diag(H)) + 1e-15 * np.eye(5), -g)), step

    (R, t), *_ = levenberg_marquardt((pose.R, pose.t / np.linalg.norm(pose.t)), evaluate, linearize, 30, 1e-4, 8)
    return Pose(mat_to_quat(R), t)


def epipolar_inlier_indices(pose: Pose, pixels1, pixels2, intr: CameraIntrinsics, threshold_px):
    """Indices of matches whose Sampson error under the given relative
    pose is below threshold_px (first-order pixel units)."""
    x1 = _normalized(pixels1, intr)
    x2 = _normalized(pixels2, intr)
    t = pose.t / np.linalg.norm(pose.t)
    r = _sampson_residuals(pose.R, t, x1, x2)
    f = (intr.fx + intr.fy) / 2.0
    return np.nonzero(np.abs(r) * f < threshold_px)[0]


def estimate_relative_pose(pixels1, pixels2, intr: CameraIntrinsics, cfg: RansacConfig):
    """Relative pose of view 2 w.r.t. view 1, translation unit-norm.

    pixels1/pixels2 are matching (n,2) arrays with n >= 8. The returned
    Pose maps view-1 camera coordinates into view 2. Deterministic given
    cfg.rng_seed.
    """
    pixels1 = np.asarray(pixels1, dtype=float)
    pixels2 = np.asarray(pixels2, dtype=float)
    n = len(pixels1)
    if n < 8:
        raise InsufficientCorrespondences(f"{n} < 8 matches")

    x1 = _normalized(pixels1, intr)
    x2 = _normalized(pixels2, intr)

    f = (intr.fx + intr.fy) / 2.0
    thresh = (cfg.inlier_threshold / f) ** 2

    def solve(idx):
        return np.arange(len(idx)), (_essential_from_eight(x1[idx], x2[idx]),)

    def score(E):
        return _sampson_sq(E, x1, x2) < thresh

    _, best_mask, best_count = ransac(n, 8, cfg.rng_seed, solve, score)
    if best_mask is None or best_count < RANSAC_MIN_INLIERS:
        raise NoConsensus(f"best inlier count {best_count}")

    E = _essential_from_eight(x1[best_mask], x2[best_mask])
    mask = _sampson_sq(E, x1, x2) < thresh
    if int(mask.sum()) < best_count:
        mask = best_mask
    (R, t), front = _decompose_essential(E, x1[mask], x2[mask])
    if front < 0.5 * int(mask.sum()):
        raise DegenerateConfiguration("cheirality vote inconclusive")

    # low-parallax / pure-rotation gate: triangulated rays nearly parallel
    z1, z2 = _midpoint_depths(R, t, x1[mask], x2[mask])
    good = (z1 > 0) & (z2 > 0)
    if good.sum() >= 2:
        f1 = np.column_stack([x1[mask], np.ones(int(mask.sum()))])
        pts1 = f1[good] * z1[good][:, None]
        c2 = -R.T @ t  # second center in view-1 frame
        r1 = pts1 / np.linalg.norm(pts1, axis=1)[:, None]
        r2 = pts1 - c2
        r2 = r2 / np.linalg.norm(r2, axis=1)[:, None]
        ang = np.degrees(np.arccos(np.clip(np.einsum("ij,ij->i", r1, r2), -1, 1)))
        if np.median(ang) < 0.1:
            raise DegenerateConfiguration("insufficient parallax (near-pure rotation)")

    pose = Pose(mat_to_quat(R), t)
    return pose, np.nonzero(mask)[0]
