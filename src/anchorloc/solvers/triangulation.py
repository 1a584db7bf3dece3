"""Multi-view DLT triangulation with acceptance gates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geom import CameraIntrinsics, project_many
from .errors import CheiralityFailure, InsufficientParallax, ReprojectionTooLarge


@dataclass
class TriangulationConfig:
    min_angle_deg: float = 1.5
    max_reprojection_px: float = 4.0


def triangulate(poses, pixels, intr: CameraIntrinsics, cfg: TriangulationConfig | None = None):
    """DLT point from >= 2 posed views sharing one camera model.

    Accepts only points that are in front of every camera, subtend at
    least cfg.min_angle_deg between some pair of rays, and reproject
    within cfg.max_reprojection_px in every view.
    """
    if cfg is None:
        cfg = TriangulationConfig()
    poses = list(poses)
    pixels = np.asarray(pixels, dtype=float)
    if len(poses) < 2 or pixels.shape[0] != len(poses):
        raise ValueError("need >= 2 views with one pixel each")

    Rs = np.array([p.R for p in poses])
    ts = np.array([p.t for p in poses])
    K = intr.K
    rows = []
    for R, t, uv in zip(Rs, ts, pixels):
        P = K @ np.hstack([R, t[:, None]])
        rows.append(uv[0] * P[2] - P[0])
        rows.append(uv[1] * P[2] - P[1])
    A = np.array(rows)
    _, _, Vt = np.linalg.svd(A)
    Xh = Vt[-1]
    if abs(Xh[3]) < 1e-15:
        raise InsufficientParallax("point at infinity")
    X = Xh[:3] / Xh[3]

    centers = -(ts[:, None] @ Rs)[:, 0]  # -R^T t per view
    rays = X[None, :] - centers
    norms = np.linalg.norm(rays, axis=1)
    if np.any(norms < 1e-15):
        raise InsufficientParallax("point coincides with a camera center")
    rays = rays / norms[:, None]
    max_angle = 0.0
    for i in range(len(poses)):
        cosang = np.clip(rays[i + 1 :] @ rays[i], -1.0, 1.0)
        if cosang.size:
            max_angle = max(max_angle, float(np.degrees(np.arccos(cosang.min()))))
    if max_angle < cfg.min_angle_deg:
        raise InsufficientParallax(f"max triangulation angle {max_angle:.3f} deg")

    proj, z = project_many(Rs, ts, intr, X[None])
    z = z[:, 0]
    err = np.linalg.norm(proj[:, 0] - pixels, axis=1)
    bad = (z <= 0.0) | (err > cfg.max_reprojection_px)
    if bad.any():
        # the first failing view decides; behind the camera, err is garbage
        i = int(np.argmax(bad))
        if z[i] <= 0.0:
            raise CheiralityFailure("point behind camera")
        raise ReprojectionTooLarge(f"reprojection error {err[i]:.3f} px")

    return X
