"""Levenberg-Marquardt bundle adjustment with frozen parameter blocks.

Frozen frames/landmarks are excluded from the parameter vector entirely,
so their stored values are untouched (bit-identical) by construction.
Landmarks are eliminated through the Schur complement (Agarwal et al.,
"Bundle Adjustment in the Large", ECCV 2010); the reduced camera system is
solved densely, which is adequate at the scales this artifact targets.

The reduction works on index arrays, with no Python loop over landmarks
or cameras. The free/frozen structure is fixed for a call, so
``_coupling`` builds it once: the observations that tie a free camera to
a free landmark, sorted by landmark, and every unordered pair a<b of two
such observations of one landmark. ``pnp.levenberg_marquardt`` runs the
iterations and damping trials. Each linearization sums the
per-observation Gram blocks and gradients into the normal equations
(``_normal_equations``) and stacks the camera-landmark blocks
``W = Jcᵀ Jl`` over the coupled observations; the Jacobians themselves
are freed before the first trial. Each damping trial
recomputes only what depends on ``V⁻¹`` (``_reduce``): it subtracts each
observation's ``W_a V⁻¹ W_aᵀ`` from its camera's diagonal block and
accumulates each pair's ``W_a V⁻¹ W_bᵀ`` into the flat ``(6nF, 6nF)``
matrix with ``np.subtract.at``, then adds the transpose. Pairs go in
chunks of ``_PAIR_CHUNK``, so the pair products never exist all at once:
a call with 60 free cameras can have tens of thousands of pairs.
``_back_substitute`` recovers the landmark steps. The trial that is
accepted was evaluated at its new parameters, and the next iteration
linearizes from that evaluation.

Every sum into a block array is one ``np.bincount`` per component, which
adds in input order and so equals ``np.add.at`` bit for bit, at a
fraction of its time. ``_normal_equations`` sums from zero;
``_scatter_add`` puts the rows of a start array first. Only the flat
pair accumulation keeps ``np.subtract.at``, which is fast on a 1-D
target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..geom import Pose, pose_jacobian_many, project_many, quat_mul, quat_to_mat
from .errors import NumericalFailure
from .pnp import levenberg_marquardt

_BAD_OBS_PENALTY = 1e8
_PAIR_CHUNK = 1024

# Levenberg-Marquardt schedule: pnp.levenberg_marquardt runs at most
# MAX_LM_ITERATIONS iterations of up to 60 trials from damping
# INITIAL_DAMPING, with the damping rule and stop it keeps for every
# solver. BA gives up once the damping passes 1e14; a singular system
# there raises NumericalFailure. Residuals beyond HUBER_DELTA pixels get
# the Huber loss's linear weight.
MAX_LM_ITERATIONS = 30
INITIAL_DAMPING = 1e-4
HUBER_DELTA = 2.0


@dataclass
class FreezeMask:
    frozen_frame_ids: set = field(default_factory=set)
    frozen_landmark_ids: set = field(default_factory=set)


@dataclass
class BundleResult:
    cost_before: float
    cost_after: float
    iterations: int
    accepted_steps: int
    free_cameras: int = 0  # nF: unfrozen posed frames with an observation
    free_points: int = 0  # nL: unfrozen landmarks with two or more observations


def _gather_problem(model, mask: FreezeMask):
    """Index frames/landmarks, flatten observations into arrays, and find the camera.

    All posed frames must share one CameraIntrinsics (None when no frame
    is posed); a ValueError says otherwise.
    """
    frame_ids = []
    frame_slot = {}
    intr = None
    for fid, fr in model.frames.items():
        if fr.pose is None:
            continue
        if intr is None:
            intr = fr.intrinsics
        elif fr.intrinsics != intr:
            raise ValueError(f"frame {fid} has other intrinsics than frame {frame_ids[0]}")
        frame_slot[fid] = len(frame_ids)
        frame_ids.append(fid)

    # only an unfrozen landmark, or one that an unfrozen frame observes,
    # can give a kept observation; the unfrozen frames' feature_landmarks
    # name the latter, so no other track is read
    observed = model.observed_landmarks(fid for fid in frame_ids if fid not in mask.frozen_frame_ids)

    lm_ids = list(model.landmarks.keys())

    obs_cam, obs_lm, obs_feat = [], [], []
    for li, lid in enumerate(lm_ids):
        if lid in mask.frozen_landmark_ids and lid not in observed:
            continue
        for fid, fidx in model.landmarks[lid].track:
            slot = frame_slot.get(fid)
            if slot is None:
                continue
            obs_cam.append(slot)
            obs_lm.append(li)
            obs_feat.append(fidx)

    obs_cam = np.array(obs_cam, dtype=int)
    obs_lm = np.array(obs_lm, dtype=int)

    lm_obs_count = np.bincount(obs_lm, minlength=len(lm_ids))
    frame_free = np.array([fid not in mask.frozen_frame_ids for fid in frame_ids], dtype=bool)
    lm_free = np.array(
        [lid not in mask.frozen_landmark_ids for lid in lm_ids], dtype=bool
    ) & (lm_obs_count >= 2)
    frame_free &= np.bincount(obs_cam, minlength=len(frame_ids)) > 0

    # keep only observations touching at least one free block; fetch only their pixels
    keep = np.nonzero(frame_free[obs_cam] | lm_free[obs_lm])[0]
    pixels = [model.frames[fid].features.pixels for fid in frame_ids]
    obs_px = np.array(
        [pixels[c][obs_feat[k]] for k, c in zip(keep.tolist(), obs_cam[keep].tolist())], dtype=float
    ).reshape(-1, 2)
    return frame_ids, lm_ids, frame_free, lm_free, obs_cam[keep], obs_lm[keep], obs_px, intr


def _huber_cost(err_norm, delta):
    quad = err_norm <= delta
    c = np.where(quad, err_norm**2, 2 * delta * err_norm - delta * delta)
    return float(c.sum())


def _evaluate(quats, ts, Xs, intr, obs_cam, obs_lm, obs_px, delta):
    """Huber cost, residuals, their norms, rotations and depth gate, per observation.

    An observation at depth <= 1e-9 adds _BAD_OBS_PENALTY to the cost
    and has a zero residual.
    """
    R = np.moveaxis(quat_to_mat(quats.T), -1, 0)[obs_cam]
    uv, z = project_many(R, ts[obs_cam], intr, Xs[obs_lm][:, None])
    good = z[:, 0] > 1e-9
    r = np.where(good[:, None], uv[:, 0] - obs_px, 0.0)
    enorm = np.linalg.norm(r, axis=1)
    cost = _huber_cost(enorm[good], delta) + _BAD_OBS_PENALTY * int((~good).sum())
    return cost, r, enorm, R, good


@dataclass
class _Coupling:
    """Observations tying a free camera to a free landmark, sorted by landmark.

    ``obs`` indexes the observation arrays, ``cam`` and ``lm`` are the free
    parameter indices of each, and ``pair_a < pair_b`` (positions in this
    order) enumerate every unordered pair of observations of one landmark.
    """

    obs: np.ndarray
    cam: np.ndarray
    lm: np.ndarray
    pair_a: np.ndarray
    pair_b: np.ndarray


def _coupling(oc, ol):
    """Coupling structure from per-observation parameter indices (-1 = frozen)."""
    obs = np.nonzero((oc >= 0) & (ol >= 0))[0]
    obs = obs[np.argsort(ol[obs], kind="stable")]
    lm = ol[obs]
    # observation i pairs with the `after[i]` observations of its landmark behind it
    counts = np.bincount(lm)
    after = np.repeat(np.cumsum(counts), counts) - np.arange(len(lm)) - 1
    pair_a = np.repeat(np.arange(len(lm)), after)
    run_start = np.repeat(np.cumsum(after) - after, after)
    pair_b = pair_a + 1 + np.arange(len(pair_a)) - run_start
    return _Coupling(obs, oc[obs], lm, pair_a, pair_b)


def _scatter_add(start, index, values):
    """``start`` with each ``values[k]`` added to row ``index[k]``, in input order.

    Equal bit for bit to ``np.add.at(start.copy(), index, values)``: the
    start rows go first into one ``np.bincount`` per component, and
    bincount sums each bin in input order. A bin whose sum is zero may
    read +0.0 where ``np.add.at`` keeps a -0.0 start.
    """
    n = len(start)
    k = math.prod(start.shape[1:])
    rows = np.concatenate([np.arange(n), index])
    first, then = start.reshape(n, k), values.reshape(len(index), k)
    out = np.empty((n, k))
    for j in range(k):
        out[:, j] = np.bincount(rows, np.concatenate([first[:, j], then[:, j]]), minlength=n)
    return out.reshape(start.shape)


def _normal_equations(J, r, index, n):
    """Gram blocks Σ JᵀJ (n,k,k) and gradients Σ Jᵀr (n,k) of the residual
    blocks J (m,2,k), r (m,2), each summed into row ``index`` (m,).

    Each component is summed by its own ``np.bincount`` from a product
    vector, so no (m,k,k) array is formed; a Gram block is symmetric
    term by term, so its lower triangle copies the upper one.
    """
    k = J.shape[2]
    gram = np.empty((n, k, k))
    grad = np.empty((n, k))
    for i in range(k):
        a, b = J[:, 0, i], J[:, 1, i]
        grad[:, i] = np.bincount(index, a * r[:, 0] + b * r[:, 1], minlength=n)
        for j in range(i, k):
            gram[:, i, j] = gram[:, j, i] = np.bincount(index, a * J[:, 0, j] + b * J[:, 1, j], minlength=n)
    return gram, grad


def _reduce(Ud, Vinv, gc, gl, W, cpl: _Coupling):
    """Reduced camera matrix (6nF, 6nF) and right-hand side (nF, 6).

    S = Ud - Σ_l Σ_{a,b seeing l} W_a V_l⁻¹ W_bᵀ and rhs = -gc + Σ_a W_a V⁻¹ gl,
    with W (m, 6, 3) in the order of ``cpl``.
    """
    nF = len(Ud)
    n6 = 6 * nF
    T = W @ Vinv[cpl.lm]  # (m,6,3)
    Wt = np.ascontiguousarray(W.transpose(0, 2, 1))  # contiguous rows keep the products off numpy's strided path
    # the diagonal and rhs first, so that their (m,6,6) products are gone before S exists
    diag = _scatter_add(Ud, cpl.cam, -(T @ Wt))
    rhs = _scatter_add(-gc, cpl.cam, np.einsum("aik,ak->ai", T, gl[cpl.lm]))

    S = np.zeros(n6 * n6)
    block = (np.arange(6)[:, None] * n6 + np.arange(6)).ravel()  # flat offsets inside a 6x6 block
    for s in range(0, len(cpl.pair_a), _PAIR_CHUNK):
        a = cpl.pair_a[s : s + _PAIR_CHUNK]
        b = cpl.pair_b[s : s + _PAIR_CHUNK]
        corner = 6 * (cpl.cam[a] * n6 + cpl.cam[b])
        np.subtract.at(S, (corner[:, None] + block).ravel(), (T[a] @ Wt[b]).ravel())
    S = S.reshape(n6, n6)
    S = S + S.T  # the pair (b, a) contributes the transpose of (a, b)
    f = np.arange(nF)
    S.reshape(nF, 6, nF, 6)[f, :, f, :] += diag
    return S, rhs


def _back_substitute(Vinv, gl, W, cpl: _Coupling, delta_c):
    """Landmark steps V⁻¹ (-gl - Σ_a W_aᵀ delta_c) for a camera step."""
    rhs_l = _scatter_add(-gl, cpl.lm, -np.einsum("aik,ai->ak", W, delta_c[cpl.cam]))
    return np.einsum("lij,lj->li", Vinv, rhs_l)


def _unit_rows(q):
    """Normalize quaternion rows, with the canonical sign w >= 0."""
    q = q / np.linalg.norm(q, axis=1, keepdims=True)
    return np.where(q[:, :1] < 0.0, -q, q)


def _retract(quats, ts, delta):
    """Left-multiply each pose by exp(delta): the per-camera ``Pose.retract`` stacked."""
    w = delta[:, :3]
    theta = np.linalg.norm(w, axis=1, keepdims=True)
    small = theta < 1e-12
    half = 0.5 * theta
    dq = np.where(
        small,
        _unit_rows(np.hstack([np.ones_like(theta), 0.5 * w])),
        np.hstack([np.cos(half), np.sin(half) * (w / np.where(small, 1.0, theta))]),
    )
    q_new = _unit_rows(quat_mul(dq.T, quats.T).T)
    t_new = np.einsum("nij,nj->ni", np.moveaxis(quat_to_mat(dq.T), -1, 0), ts) + delta[:, 3:]
    return q_new, t_new


def bundle_adjust(model, mask: FreezeMask):
    """Refine all non-frozen poses and landmark positions in place.

    Returns a BundleResult; cost never increases over accepted steps.
    """
    frame_ids, lm_ids, frame_free, lm_free, obs_cam, obs_lm, obs_px, intr = _gather_problem(model, mask)

    # only observations touching a free block are kept, so none means nothing is free
    if len(obs_cam) == 0:
        return BundleResult(0.0, 0.0, 0, 0)

    quats = np.array([model.frames[fid].pose.q for fid in frame_ids])
    ts = np.array([model.frames[fid].pose.t for fid in frame_ids])
    Xs = np.array([model.landmarks[lid].position for lid in lm_ids])

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
    has_c = oc >= 0
    has_l = ol >= 0
    cpl = _coupling(oc, ol)
    d6 = np.arange(6)
    d3 = np.arange(3)

    def evaluate(x):
        cost, *state = _evaluate(*x, intr, obs_cam, obs_lm, obs_px, HUBER_DELTA)
        return cost, state

    def linearize(x, state):
        quats, ts, Xs = x
        r, enorm, R, good = state
        w = np.where(enorm <= HUBER_DELTA, 1.0, HUBER_DELTA / np.maximum(enorm, 1e-12))
        sw = np.where(good, np.sqrt(w), 0.0)
        rw = r * sw[:, None]

        J = pose_jacobian_many(R, ts[obs_cam], intr, Xs[obs_lm][:, None])[:, 0]
        Jc = np.where(good[:, None, None], J, 0.0) * sw[:, None, None]
        Jl = Jc[:, :, 3:] @ R  # d(uv)/dX = d(uv)/d(translation) @ R

        U, gc = _normal_equations(Jc[has_c], rw[has_c], oc[has_c], nF)
        V, gl = _normal_equations(Jl[has_l], rw[has_l], ol[has_l], nL)

        if max(np.max(np.abs(gc), initial=0.0), np.max(np.abs(gl), initial=0.0)) < 1e-12:
            return None

        W = Jc[cpl.obs].transpose(0, 2, 1) @ Jl[cpl.obs]  # (m,6,3) camera-landmark coupling

        def solve(lam):
            if lam > 1e14:
                return None
            Ud = U.copy()
            Ud[:, d6, d6] += lam * U[:, d6, d6] + 1e-12
            Vd = V.copy()
            Vd[:, d3, d3] += lam * V[:, d3, d3] + 1e-12
            try:
                Vinv = np.linalg.inv(Vd) if nL else np.zeros((0, 3, 3))
                S, rhs_c = _reduce(Ud, Vinv, gc, gl, W, cpl)
                delta_c = np.linalg.solve(S, rhs_c.reshape(-1)).reshape(nF, 6) if nF else np.zeros((0, 6))
                return delta_c, _back_substitute(Vinv, gl, W, cpl, delta_c)
            except np.linalg.LinAlgError:
                if lam * 10.0 > 1e14:  # the loop's next damping
                    raise NumericalFailure("normal equations singular after damping escalation")
                raise

        def step(delta):
            delta_c, delta_l = delta
            q_try = quats.copy()
            t_try = ts.copy()
            q_try[free_frame_slots], t_try[free_frame_slots] = _retract(
                quats[free_frame_slots], ts[free_frame_slots], delta_c
            )
            X_try = Xs.copy()
            X_try[free_lm_slots] += delta_l
            return q_try, t_try, X_try

        return solve, step

    (quats, ts, Xs), cost_before, cost, iterations, accepted = levenberg_marquardt(
        (quats, ts, Xs), evaluate, linearize, MAX_LM_ITERATIONS, INITIAL_DAMPING, 60
    )

    # write back only the free blocks
    for slot in free_frame_slots:
        model.frames[frame_ids[slot]].pose = Pose(quats[slot].copy(), ts[slot].copy())
    for slot in free_lm_slots:
        model.landmarks[lm_ids[slot]].position = Xs[slot].copy()

    return BundleResult(cost_before, cost, iterations, accepted, free_cameras=nF, free_points=nL)
