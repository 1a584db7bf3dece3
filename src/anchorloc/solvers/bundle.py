"""Levenberg-Marquardt bundle adjustment with frozen parameter blocks.

Frozen frames/landmarks are excluded from the parameter vector entirely,
so their stored values are untouched (bit-identical) by construction.
Landmarks are eliminated through the Schur complement; the reduced camera
system is solved densely, which is adequate at the scales this artifact
targets while keeping the sparse structure explicit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..geom import Pose, project_many, quat_mul, quat_normalize, so3_exp_quat
from .errors import NumericalFailure

_BAD_OBS_PENALTY = 1e8


@dataclass
class FreezeMask:
    frozen_frame_ids: set = field(default_factory=set)
    frozen_landmark_ids: set = field(default_factory=set)


@dataclass
class BundleConfig:
    max_lm_iterations: int = 30
    initial_damping: float = 1e-4
    damping_up: float = 10.0
    damping_down: float = 10.0
    convergence_tol: float = 1e-8
    huber_delta: float = 2.0  # pixels

    def __post_init__(self):
        for name in ("max_lm_iterations", "initial_damping", "damping_up", "damping_down", "convergence_tol", "huber_delta"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class BundleResult:
    cost_before: float
    cost_after: float
    iterations: int
    accepted_steps: int
    all_frozen: bool = False


def _quats_to_mats(q):
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    R = np.empty((len(q), 3, 3))
    R[:, 0, 0] = 1 - 2 * (y * y + z * z)
    R[:, 0, 1] = 2 * (x * y - w * z)
    R[:, 0, 2] = 2 * (x * z + w * y)
    R[:, 1, 0] = 2 * (x * y + w * z)
    R[:, 1, 1] = 1 - 2 * (x * x + z * z)
    R[:, 1, 2] = 2 * (y * z - w * x)
    R[:, 2, 0] = 2 * (x * z - w * y)
    R[:, 2, 1] = 2 * (y * z + w * x)
    R[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return R


def _gather_problem(model, mask: FreezeMask):
    """Index frames/landmarks and flatten observations into arrays."""
    frame_ids = []
    frame_slot = {}
    for fid, fr in model.frames.items():
        if fr.pose is None:
            continue
        frame_slot[fid] = len(frame_ids)
        frame_ids.append(fid)

    lm_ids = list(model.landmarks.keys())
    lm_slot = {lid: i for i, lid in enumerate(lm_ids)}

    obs_cam, obs_lm, obs_px = [], [], []
    for lid in lm_ids:
        lm = model.landmarks[lid]
        for fid, fidx in lm.track:
            if fid not in frame_slot:
                continue
            obs_cam.append(frame_slot[fid])
            obs_lm.append(lm_slot[lid])
            obs_px.append(model.frames[fid].features.pixels[fidx])

    obs_cam = np.array(obs_cam, dtype=int)
    obs_lm = np.array(obs_lm, dtype=int)
    obs_px = np.array(obs_px, dtype=float).reshape(-1, 2)

    lm_obs_count = np.bincount(obs_lm, minlength=len(lm_ids)) if len(obs_lm) else np.zeros(len(lm_ids), int)
    frame_free = np.array([fid not in mask.frozen_frame_ids for fid in frame_ids], dtype=bool)
    lm_free = np.array(
        [lid not in mask.frozen_landmark_ids and lm_obs_count[lm_slot[lid]] >= 2 for lid in lm_ids],
        dtype=bool,
    )
    if len(obs_cam):
        frame_obs_count = np.bincount(obs_cam, minlength=len(frame_ids))
        frame_free &= frame_obs_count > 0

    # keep only observations touching at least one free block
    keep = frame_free[obs_cam] | lm_free[obs_lm]
    return frame_ids, lm_ids, frame_free, lm_free, obs_cam[keep], obs_lm[keep], obs_px[keep]


def _huber_cost(err_norm, delta):
    quad = err_norm <= delta
    c = np.where(quad, err_norm**2, 2 * delta * err_norm - delta * delta)
    return float(c.sum())


def _evaluate(quats, ts, Xs, fx, fy, cx, cy, obs_cam, obs_lm, obs_px, delta):
    R = _quats_to_mats(quats)
    pcam = np.einsum("nij,nj->ni", R[obs_cam], Xs[obs_lm]) + ts[obs_cam]
    z = pcam[:, 2]
    good = z > 1e-9
    zs = np.where(good, z, 1.0)
    uv = np.stack(
        [fx[obs_cam] * pcam[:, 0] / zs + cx[obs_cam], fy[obs_cam] * pcam[:, 1] / zs + cy[obs_cam]],
        axis=1,
    )
    r = uv - obs_px
    enorm = np.linalg.norm(r, axis=1)
    cost = _huber_cost(enorm[good], delta) + _BAD_OBS_PENALTY * int((~good).sum())
    return cost, r, enorm, pcam, R, good


def mean_reprojection_error(model, frame_ids=None):
    """Mean pixel reprojection error over all posed observations."""
    errs = []
    wanted = None if frame_ids is None else set(frame_ids)
    for lm in model.landmarks.values():
        for fid, fidx in lm.track:
            fr = model.frames.get(fid)
            if fr is None or fr.pose is None:
                continue
            if wanted is not None and fid not in wanted:
                continue
            uv, z = project_many(fr.pose.R, fr.pose.t, fr.intrinsics, lm.position[None])
            if z[0] > 0:
                errs.append(np.linalg.norm(uv[0] - fr.features.pixels[fidx]))
    return float(np.mean(errs)) if errs else 0.0


def bundle_adjust(model, mask: FreezeMask, cfg: BundleConfig):
    """Refine all non-frozen poses and landmark positions in place.

    Returns a BundleResult; cost never increases over accepted steps.
    """
    frame_ids, lm_ids, frame_free, lm_free, obs_cam, obs_lm, obs_px = _gather_problem(model, mask)

    if not frame_free.any() and not lm_free.any():
        return BundleResult(0.0, 0.0, 0, 0, all_frozen=True)
    if len(obs_cam) == 0:
        return BundleResult(0.0, 0.0, 0, 0, all_frozen=True)

    quats = np.array([model.frames[fid].pose.q for fid in frame_ids])
    ts = np.array([model.frames[fid].pose.t for fid in frame_ids])
    Xs = np.array([model.landmarks[lid].position for lid in lm_ids])
    fx = np.array([model.frames[fid].intrinsics.fx for fid in frame_ids])
    fy = np.array([model.frames[fid].intrinsics.fy for fid in frame_ids])
    cx = np.array([model.frames[fid].intrinsics.cx for fid in frame_ids])
    cy = np.array([model.frames[fid].intrinsics.cy for fid in frame_ids])

    free_frame_slots = np.nonzero(frame_free)[0]
    free_lm_slots = np.nonzero(lm_free)[0]
    cam_param = -np.ones(len(frame_ids), dtype=int)
    cam_param[free_frame_slots] = np.arange(len(free_frame_slots))
    lm_param = -np.ones(len(lm_ids), dtype=int)
    lm_param[free_lm_slots] = np.arange(len(free_lm_slots))
    nF = len(free_frame_slots)
    nL = len(free_lm_slots)

    oc = cam_param[obs_cam]  # -1 when the frame block is frozen
    ol = lm_param[obs_lm]

    lam = cfg.initial_damping
    cost, *_ = _evaluate(quats, ts, Xs, fx, fy, cx, cy, obs_cam, obs_lm, obs_px, cfg.huber_delta)
    cost_before = cost
    accepted = 0
    iterations = 0
    converged = False

    for _ in range(cfg.max_lm_iterations):
        iterations += 1
        _, r, enorm, pcam, R, good = _evaluate(
            quats, ts, Xs, fx, fy, cx, cy, obs_cam, obs_lm, obs_px, cfg.huber_delta
        )
        w = np.where(enorm <= cfg.huber_delta, 1.0, cfg.huber_delta / np.maximum(enorm, 1e-12))
        w = np.where(good, w, 0.0)
        sw = np.sqrt(w)

        z = np.where(good, pcam[:, 2], 1.0)
        Jproj = np.zeros((len(obs_cam), 2, 3))
        Jproj[:, 0, 0] = fx[obs_cam] / z
        Jproj[:, 0, 2] = -fx[obs_cam] * pcam[:, 0] / z**2
        Jproj[:, 1, 1] = fy[obs_cam] / z
        Jproj[:, 1, 2] = -fy[obs_cam] * pcam[:, 1] / z**2
        Jproj *= sw[:, None, None]
        rw = r * sw[:, None]

        skew = np.zeros((len(obs_cam), 3, 3))
        skew[:, 0, 1] = -pcam[:, 2]
        skew[:, 0, 2] = pcam[:, 1]
        skew[:, 1, 0] = pcam[:, 2]
        skew[:, 1, 2] = -pcam[:, 0]
        skew[:, 2, 0] = -pcam[:, 1]
        skew[:, 2, 1] = pcam[:, 0]

        Jc = np.concatenate([-np.einsum("nij,njk->nik", Jproj, skew), Jproj], axis=2)
        Jl = np.einsum("nij,njk->nik", Jproj, R[obs_cam])

        has_c = oc >= 0
        has_l = ol >= 0

        gc = np.zeros((nF, 6))
        U = np.zeros((nF, 6, 6))
        if has_c.any():
            np.add.at(gc, oc[has_c], np.einsum("nij,ni->nj", Jc[has_c], rw[has_c]))
            np.add.at(U, oc[has_c], np.einsum("nki,nkj->nij", Jc[has_c], Jc[has_c]))

        gl = np.zeros((nL, 3))
        V = np.zeros((nL, 3, 3))
        if has_l.any():
            np.add.at(gl, ol[has_l], np.einsum("nij,ni->nj", Jl[has_l], rw[has_l]))
            np.add.at(V, ol[has_l], np.einsum("nki,nkj->nij", Jl[has_l], Jl[has_l]))

        gmax = max(
            float(np.max(np.abs(gc))) if nF else 0.0,
            float(np.max(np.abs(gl))) if nL else 0.0,
        )
        if gmax < 1e-12:
            iterations -= 1
            break

        both = has_c & has_l
        Wc = Jc[both].transpose(0, 2, 1) @ Jl[both]  # (m,6,3) camera-landmark coupling
        Wcam = oc[both]
        Wlm = ol[both]
        order = np.argsort(Wlm, kind="stable")
        Wc = Wc[order]
        Wcam = Wcam[order]
        Wlm = Wlm[order]
        bounds = np.searchsorted(Wlm, np.arange(nL + 1))

        stepped = False
        for _try in range(60):
            Ud = U.copy()
            Vd = V.copy()
            for i in range(nF):
                d = np.diag(Ud[i]).copy()
                Ud[i][np.diag_indices(6)] += lam * d + 1e-12
            for i in range(nL):
                d = np.diag(Vd[i]).copy()
                Vd[i][np.diag_indices(3)] += lam * d + 1e-12

            try:
                Vinv = np.linalg.inv(Vd) if nL else np.zeros((0, 3, 3))
                S = np.zeros((nF, nF, 6, 6))
                for i in range(nF):
                    S[i, i] = Ud[i]
                rhs_c = -gc.copy()
                for l in range(nL):
                    a, b = bounds[l], bounds[l + 1]
                    if a == b:
                        continue
                    M = Wc[a:b]          # (k,6,3)
                    cams = Wcam[a:b]
                    T = M @ Vinv[l]      # (k,6,3)
                    contrib = np.einsum("aik,bjk->abij", T, M)
                    np.add.at(S, (cams[:, None], cams[None, :]), -contrib)
                    rhs_c[cams] += np.einsum("aik,k->ai", T, gl[l])
                Sd = S.transpose(0, 2, 1, 3).reshape(6 * nF, 6 * nF)
                if nF:
                    delta_c = np.linalg.solve(Sd, rhs_c.reshape(-1)).reshape(nF, 6)
                else:
                    delta_c = np.zeros((0, 6))
                delta_l = np.zeros((nL, 3))
                for l in range(nL):
                    a, b = bounds[l], bounds[l + 1]
                    rhs_l = -gl[l]
                    if a != b:
                        rhs_l = rhs_l - np.einsum("aik,ai->k", Wc[a:b], delta_c[Wcam[a:b]])
                    delta_l[l] = Vinv[l] @ rhs_l
            except np.linalg.LinAlgError:
                lam *= cfg.damping_up
                if lam > 1e14:
                    raise NumericalFailure("normal equations singular after damping escalation")
                continue

            q_try = quats.copy()
            t_try = ts.copy()
            for j, slot in enumerate(free_frame_slots):
                dq = so3_exp_quat(delta_c[j, :3])
                q_try[slot] = quat_normalize(quat_mul(dq, quats[slot]))
                t_try[slot] = _quats_to_mats(dq[None])[0] @ ts[slot] + delta_c[j, 3:]
            X_try = Xs.copy()
            X_try[free_lm_slots] += delta_l

            new_cost, *_ = _evaluate(
                q_try, t_try, X_try, fx, fy, cx, cy, obs_cam, obs_lm, obs_px, cfg.huber_delta
            )
            if new_cost <= cost:
                quats, ts, Xs = q_try, t_try, X_try
                decrease = cost - new_cost
                cost = new_cost
                lam = max(lam / cfg.damping_down, 1e-12)
                accepted += 1
                stepped = True
                if decrease <= cfg.convergence_tol * max(cost, 1e-12):
                    converged = True
                break
            lam *= cfg.damping_up
            if lam > 1e14:
                break
        if not stepped or converged:
            break

    # write back only the free blocks
    for j, slot in enumerate(free_frame_slots):
        fid = frame_ids[slot]
        model.frames[fid].pose = Pose(quats[slot].copy(), ts[slot].copy())
    for l, slot in enumerate(free_lm_slots):
        lid = lm_ids[slot]
        model.landmarks[lid].position = Xs[slot].copy()

    return BundleResult(cost_before, cost, iterations, accepted, all_frozen=False)
