"""Multi-view DLT triangulation with acceptance gates, a stack at a time.

``triangulate_many`` solves m problems of v views each with one batched
SVD (the linear method of Hartley & Zisserman, Multiple View Geometry,
2nd ed., §12.2) and gates every row with array operations and one
``project_many`` call. ``triangulate`` is its one-point form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geom import CameraIntrinsics, project_many
from .errors import CheiralityFailure, InsufficientParallax, ReprojectionTooLarge


@dataclass
class TriangulationConfig:
    min_angle_deg: float = 1.5
    max_reprojection_px: float = 4.0


# per-row codes of triangulate_many: the first gate a row failed, in gate order
ACCEPTED, AT_INFINITY, AT_CAMERA_CENTER, LOW_PARALLAX, BEHIND_CAMERA, REPROJECTION = range(6)

_FAILURES = {
    AT_INFINITY: (InsufficientParallax, "point at infinity"),
    AT_CAMERA_CENTER: (InsufficientParallax, "point coincides with a camera center"),
    LOW_PARALLAX: (InsufficientParallax, "max triangulation angle below the gate"),
    BEHIND_CAMERA: (CheiralityFailure, "point behind camera"),
    REPROJECTION: (ReprojectionTooLarge, "reprojection error above the gate"),
}


def triangulate_many(Rs, ts, pixels, intr: CameraIntrinsics, cfg: TriangulationConfig | None = None):
    """DLT points of m problems of v >= 2 posed views sharing one camera model.

    Rs (m,v,3,3), ts (m,v,3) and pixels (m,v,2). Returns X (m,3) and a
    per-row code (m,): ACCEPTED, or the first gate the row failed. A row is
    accepted only if its point is in front of every camera, subtends at
    least cfg.min_angle_deg between some pair of rays, and reprojects
    within cfg.max_reprojection_px in every view; X of a rejected row is
    unspecified. Each row's X and code equal those of the row alone.
    """
    if cfg is None:
        cfg = TriangulationConfig()
    Rs = np.asarray(Rs, dtype=float)
    ts = np.asarray(ts, dtype=float)
    pixels = np.asarray(pixels, dtype=float)
    if pixels.ndim != 3 or pixels.shape[1] < 2 or pixels.shape[2] != 2:
        raise ValueError("need >= 2 views with one pixel each")
    m, v = pixels.shape[:2]
    if Rs.shape != (m, v, 3, 3) or ts.shape != (m, v, 3):
        raise ValueError(f"poses of shape {Rs.shape} and {ts.shape} do not match pixels {pixels.shape}")
    code = np.zeros(m, dtype=np.int64)
    if m == 0:
        return np.zeros((0, 3)), code

    P = intr.K @ np.concatenate([Rs, ts[..., None]], axis=-1)  # (m,v,3,4)
    # two rows per view: u P[2] - P[0], then v P[2] - P[1]
    A = pixels[..., None] * P[..., 2:3, :] - P[..., :2, :]
    _, _, Vt = np.linalg.svd(A.reshape(m, 2 * v, 4), full_matrices=False)
    Xh = Vt[:, -1]
    code[np.abs(Xh[:, 3]) < 1e-15] = AT_INFINITY

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        X = Xh[:, :3] / Xh[:, 3:]
        centers = -(ts[..., None, :] @ Rs)[..., 0, :]  # -R^T t per view
        rays = X[:, None, :] - centers
        norms = np.linalg.norm(rays, axis=2)
        _fail(code, np.any(norms < 1e-15, axis=1), AT_CAMERA_CENTER)
        rays = rays / norms[..., None]
        # the widest pair of rays has the smallest cosine
        i, j = np.triu_indices(v, 1)
        cosang = np.einsum("mid,mjd->mij", rays, rays)[:, i, j]
        max_angle = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0).min(axis=1)))
        _fail(code, max_angle < cfg.min_angle_deg, LOW_PARALLAX)

        proj, z = project_many(Rs, ts, intr, X[:, None, None, :])
        z = z[..., 0]
        err = np.linalg.norm(proj[..., 0, :] - pixels, axis=2)
    bad = (z <= 0.0) | (err > cfg.max_reprojection_px)
    # the first failing view decides; behind the camera, err is garbage
    first = np.argmax(bad, axis=1)
    behind = z[np.arange(m), first] <= 0.0
    _fail(code, bad.any(axis=1) & behind, BEHIND_CAMERA)
    _fail(code, bad.any(axis=1) & ~behind, REPROJECTION)
    return X, code


def _fail(code, rows, gate):
    """Set code to gate on the rows that no earlier gate rejected."""
    code[rows & (code == ACCEPTED)] = gate


def triangulate(poses, pixels, intr: CameraIntrinsics, cfg: TriangulationConfig | None = None):
    """DLT point from >= 2 posed views sharing one camera model.

    The one-point form of triangulate_many: returns X (3,) or raises the
    InsufficientParallax, CheiralityFailure or ReprojectionTooLarge of the
    first gate that failed.
    """
    poses = list(poses)
    pixels = np.asarray(pixels, dtype=float)
    if len(poses) < 2 or pixels.shape != (len(poses), 2):
        raise ValueError("need >= 2 views with one pixel each")
    Rs = np.array([p.R for p in poses])
    ts = np.array([p.t for p in poses])
    X, code = triangulate_many(Rs[None], ts[None], pixels[None], intr, cfg)
    if code[0] != ACCEPTED:
        exc, msg = _FAILURES[int(code[0])]
        raise exc(msg)
    return X[0]
