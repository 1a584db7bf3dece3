import copy
import tracemalloc
import warnings

import numpy as np
import pytest

from anchorloc.geom import CameraIntrinsics, Pose, project_many
from anchorloc.matching import FeatureSet
from anchorloc.model import Frame, Landmark, SfMModel, frozen_state_digest
from anchorloc.solvers import FreezeMask, NumericalFailure, bundle, bundle_adjust
from conftest import failing_solve, mean_reprojection_error, project


def _ring_model(n_cams=5, n_pts=40, seed=0, noise=0.0):
    """Noise-free ring of cameras around a point cloud, exact observations."""
    rng = np.random.default_rng(seed)
    intr = CameraIntrinsics(400.0, 400.0, 320.0, 240.0, 640, 480)
    pts = rng.normal(scale=2.0, size=(n_pts, 3))
    model = SfMModel()
    obs = {i: [] for i in range(n_pts)}
    for c in range(n_cams):
        ang = 2 * np.pi * c / n_cams
        center = 12.0 * np.array([np.cos(ang), np.sin(ang), 0.2 * c])
        f = -center / np.linalg.norm(center)
        up = np.array([0.0, 0.0, 1.0])
        x = np.cross(up, f)
        x /= np.linalg.norm(x)
        y = np.cross(f, x)
        R = np.stack([x, y, f])
        pose = Pose.from_rt(R, -R @ center)
        pixels = []
        for i, X in enumerate(pts):
            uv = project(intr, pose, X)
            if noise:
                uv = uv + rng.normal(scale=noise, size=2)
            obs[i].append((c, len(pixels)))
            pixels.append(uv)
        fs = FeatureSet(np.array(pixels), np.zeros((len(pixels), 4)))
        model.add_frame(Frame(c, float(c), intr, fs, pose, "reference"))
    for i, X in enumerate(pts):
        model.add_landmark(Landmark(i, X.copy(), "reference", obs[i]))
    return model


def test_noise_free_model_has_zero_error():
    model = _ring_model()
    assert mean_reprojection_error(model) < 1e-9


def test_bundle_cost_non_increasing_and_recovers_perturbation():
    model = _ring_model()
    # free one camera, perturb it, freeze the rest
    model.frames[2].status = "registered"
    for lm in model.landmarks.values():
        lm.origin = "reference"
    mask = FreezeMask(
        frozen_frame_ids={0, 1, 3, 4}, frozen_landmark_ids=set(model.landmarks)
    )
    pose = model.frames[2].pose
    tweak = np.concatenate([np.radians(0.5) * np.array([1.0, 0.0, 0.0]), np.zeros(3)])
    model.frames[2].pose = Pose(pose.q.copy(), pose.t * 1.01).retract(tweak)
    res = bundle_adjust(model, mask)
    assert res.cost_after <= res.cost_before
    assert mean_reprojection_error(model) < 1e-6


def test_bundle_frozen_blocks_bit_identical():
    model = _ring_model(noise=0.3)
    model.frames[1].status = "registered"
    mask = FreezeMask(
        frozen_frame_ids={0, 2, 3, 4},
        frozen_landmark_ids=set(list(model.landmarks)[:30]),
    )
    before = frozen_state_digest(model, mask)
    bundle_adjust(model, mask)
    assert frozen_state_digest(model, mask) == before


def test_bundle_all_frozen_is_a_no_op():
    model = _ring_model()
    mask = FreezeMask(set(model.frames), set(model.landmarks))
    q0 = {fid: f.pose.q.copy() for fid, f in model.frames.items()}
    t0 = {fid: f.pose.t.copy() for fid, f in model.frames.items()}
    x0 = {lid: lm.position.copy() for lid, lm in model.landmarks.items()}
    res = bundle_adjust(model, mask)
    assert (res.iterations, res.accepted_steps, res.free_cameras, res.free_points) == (0, 0, 0, 0)
    for fid, f in model.frames.items():
        assert np.array_equal(f.pose.q, q0[fid]) and np.array_equal(f.pose.t, t0[fid])
    for lid, lm in model.landmarks.items():
        assert np.array_equal(lm.position, x0[lid])


def test_bundle_reduces_noisy_cost():
    model = _ring_model(noise=0.0)
    # perturb all landmarks slightly; cameras frozen
    rng = np.random.default_rng(3)
    for lm in model.landmarks.values():
        lm.position = lm.position + rng.normal(scale=0.05, size=3)
    mask = FreezeMask(frozen_frame_ids=set(model.frames), frozen_landmark_ids=set())
    res = bundle_adjust(model, mask)
    assert res.cost_after < res.cost_before
    assert mean_reprojection_error(model) < 1e-6


# --- the vectorized Schur reduction against the per-landmark loop it replaced


def _reduce_loop(Ud, Vinv, gc, gl, W, cpl):
    """Reference for bundle._reduce: the per-landmark loop, (nF,nF,6,6) blocks."""
    nF = len(Ud)
    S = np.zeros((nF, nF, 6, 6))
    for i in range(nF):
        S[i, i] = Ud[i]
    rhs_c = -gc.copy()
    bounds = np.searchsorted(cpl.lm, np.arange(len(gl) + 1))
    for l in range(len(gl)):
        a, b = bounds[l], bounds[l + 1]
        if a == b:
            continue
        M = W[a:b]
        cams = cpl.cam[a:b]
        T = M @ Vinv[l]
        np.add.at(S, (cams[:, None], cams[None, :]), -np.einsum("aik,bjk->abij", T, M))
        rhs_c[cams] += np.einsum("aik,k->ai", T, gl[l])
    return S.transpose(0, 2, 1, 3).reshape(6 * nF, 6 * nF), rhs_c


def _back_substitute_loop(Vinv, gl, W, cpl, delta_c):
    """Reference for bundle._back_substitute."""
    bounds = np.searchsorted(cpl.lm, np.arange(len(gl) + 1))
    delta_l = np.zeros((len(gl), 3))
    for l in range(len(gl)):
        a, b = bounds[l], bounds[l + 1]
        rhs_l = -gl[l] - np.einsum("aik,ai->k", W[a:b], delta_c[cpl.cam[a:b]])
        delta_l[l] = Vinv[l] @ rhs_l
    return delta_l


def _spd(rng, n, k):
    A = rng.normal(size=(n, k, k))
    return A @ A.transpose(0, 2, 1) + k * np.eye(k)


# case -> (free cameras, frozen cameras, free landmarks, frozen landmarks,
# most views of a landmark, how many free landmarks, from 0, frozen cameras alone see)
SCHUR_CASES = {
    "mixed": (5, 2, 12, 4, 5, 0),
    "cameras_only": (6, 1, 0, 8, 4, 0),
    "landmarks_only": (0, 4, 10, 0, 4, 0),
    "single_views": (4, 2, 9, 3, 1, 0),
    "frozen_views_only": (4, 3, 8, 2, 3, 1),
    "uncoupled": (3, 3, 6, 5, 3, 6),
}


def _schur_problem(case):
    """A random reduction problem of SCHUR_CASES[case] and the generator that drew it.

    Returns (rng, oc, ol, cpl, Ud, Vinv, gc, gl, W, delta_c).
    """
    nF, nF_frozen, nL, nL_frozen, most_views, frozen_only = SCHUR_CASES[case]
    rng = np.random.default_rng(sorted(SCHUR_CASES).index(case))
    n_cams = nF + nF_frozen
    cam_param = -np.ones(n_cams, dtype=int)
    cam_param[rng.permutation(n_cams)[:nF]] = np.arange(nF)
    lm_param = -np.ones(nL + nL_frozen, dtype=int)
    lm_param[rng.permutation(nL + nL_frozen)[:nL]] = np.arange(nL)
    oc, ol = [], []
    for j, p in enumerate(lm_param):
        pool = np.nonzero(cam_param < 0)[0] if 0 <= p < frozen_only else np.arange(n_cams)
        views = rng.choice(pool, size=rng.integers(1, min(most_views, len(pool)) + 1), replace=False)
        oc += cam_param[views].tolist()
        ol += [p] * len(views)
    perm = rng.permutation(len(oc))  # observations arrive in no particular order
    oc, ol = np.array(oc)[perm], np.array(ol)[perm]

    cpl = bundle._coupling(oc, ol)
    Ud, Vinv = _spd(rng, nF, 6), np.linalg.inv(_spd(rng, nL, 3))
    gc, gl = rng.normal(size=(nF, 6)), rng.normal(size=(nL, 3))
    W = rng.normal(size=(len(oc), 6, 3))[cpl.obs]
    delta_c = rng.normal(size=(nF, 6))
    return rng, oc, ol, cpl, Ud, Vinv, gc, gl, W, delta_c


@pytest.mark.parametrize("case", list(SCHUR_CASES))
def test_schur_reduction_matches_per_landmark_loop(case):
    _, oc, ol, cpl, Ud, Vinv, gc, gl, W, delta_c = _schur_problem(case)
    coupled = np.nonzero((oc >= 0) & (ol >= 0))[0]
    assert np.array_equal(cpl.obs, coupled[np.argsort(ol[coupled], kind="stable")])
    same = [(a, b) for a in range(len(cpl.lm)) for b in range(a + 1, len(cpl.lm)) if cpl.lm[a] == cpl.lm[b]]
    assert list(zip(cpl.pair_a.tolist(), cpl.pair_b.tolist())) == same

    S, rhs = bundle._reduce(Ud, Vinv, gc, gl, W, cpl)
    S_ref, rhs_ref = _reduce_loop(Ud, Vinv, gc, gl, W, cpl)
    delta_l = bundle._back_substitute(Vinv, gl, W, cpl, delta_c)
    delta_l_ref = _back_substitute_loop(Vinv, gl, W, cpl, delta_c)
    for got, ref in ((S, S_ref), (rhs, rhs_ref), (delta_l, delta_l_ref)):
        assert got.shape == ref.shape
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10 * np.abs(ref).max(initial=0.0))


# --- the bincount assembly against the np.add.at assembly it replaced, bit for bit


def _normal_equations_add_at(J, r, index, n):
    """Reference for bundle._normal_equations: einsum products summed by np.add.at."""
    k = J.shape[2]
    H = np.zeros((n, k, k))
    g = np.zeros((n, k))
    np.add.at(g, index, np.einsum("nij,ni->nj", J, r))
    np.add.at(H, index, np.einsum("nki,nkj->nij", J, J))
    return H, g


def _reduce_add_at(Ud, Vinv, gc, gl, W, cpl):
    """Reference for bundle._reduce: the diagonal and rhs by np.subtract.at / np.add.at, on a transposed view."""
    nF = len(Ud)
    n6 = 6 * nF
    T = W @ Vinv[cpl.lm]
    Wt = W.transpose(0, 2, 1)
    S = np.zeros(n6 * n6)
    block = (np.arange(6)[:, None] * n6 + np.arange(6)).ravel()
    for s in range(0, len(cpl.pair_a), bundle._PAIR_CHUNK):
        a = cpl.pair_a[s : s + bundle._PAIR_CHUNK]
        b = cpl.pair_b[s : s + bundle._PAIR_CHUNK]
        corner = 6 * (cpl.cam[a] * n6 + cpl.cam[b])
        np.subtract.at(S, (corner[:, None] + block).ravel(), (T[a] @ Wt[b]).ravel())
    S = S.reshape(n6, n6)
    S = S + S.T
    diag = Ud.copy()
    np.subtract.at(diag, cpl.cam, T @ Wt)
    f = np.arange(nF)
    S.reshape(nF, 6, nF, 6)[f, :, f, :] += diag
    rhs = -gc
    np.add.at(rhs, cpl.cam, np.einsum("aik,ak->ai", T, gl[cpl.lm]))
    return S, rhs


def _back_substitute_add_at(Vinv, gl, W, cpl, delta_c):
    """Reference for bundle._back_substitute by np.subtract.at."""
    rhs_l = -gl
    np.subtract.at(rhs_l, cpl.lm, np.einsum("aik,ai->ak", W, delta_c[cpl.cam]))
    return np.einsum("lij,lj->li", Vinv, rhs_l)


@pytest.mark.parametrize("case", list(SCHUR_CASES))
def test_assembly_matches_add_at_bit_for_bit(case):
    rng, oc, ol, cpl, Ud, Vinv, gc, gl, W, delta_c = _schur_problem(case)
    nF, nL = len(Ud), len(gl)
    got = bundle._reduce(Ud, Vinv, gc, gl, W, cpl) + (bundle._back_substitute(Vinv, gl, W, cpl, delta_c),)
    ref = _reduce_add_at(Ud, Vinv, gc, gl, W, cpl) + (_back_substitute_add_at(Vinv, gl, W, cpl, delta_c),)
    for g, r in zip(got, ref):
        assert g.shape == r.shape and np.array_equal(g, r)

    # the normal equations of every observation, some with the zero rows of a depth-gated one
    J = rng.normal(size=(len(oc), 2, 9))
    J[::4] = 0.0
    res = rng.normal(size=(len(oc), 2))
    for cols, index, n in ((slice(0, 6), oc, nF), (slice(6, 9), ol, nL)):
        has = index >= 0
        got = bundle._normal_equations(J[has][:, :, cols], res[has], index[has], n)
        ref = _normal_equations_add_at(J[has][:, :, cols], res[has], index[has], n)
        for g, r in zip(got, ref):
            assert g.dtype == np.float64 and g.shape == r.shape and np.array_equal(g, r)


def test_scatter_add_of_nothing_keeps_the_start():
    """bincount of no input counts in int64; the sum must stay float and keep its shape."""
    start = np.arange(12.0).reshape(2, 3, 2)
    for n in (2, 0):
        got = bundle._scatter_add(start[:n], np.zeros(0, dtype=int), np.zeros((0, 3, 2)))
        assert got.dtype == np.float64 and got.shape == (n, 3, 2) and np.array_equal(got, start[:n])


def test_bundle_through_loop_reference_takes_same_steps(monkeypatch):
    model = _ring_model(noise=0.5)
    mask = FreezeMask(frozen_frame_ids={0}, frozen_landmark_ids=set(list(model.landmarks)[:5]))
    reference = copy.deepcopy(model)
    res = bundle_adjust(model, mask)
    monkeypatch.setattr(bundle, "_reduce", _reduce_loop)
    monkeypatch.setattr(bundle, "_back_substitute", _back_substitute_loop)
    res_ref = bundle_adjust(reference, mask)
    assert res.accepted_steps > 0
    assert (res.iterations, res.accepted_steps) == (res_ref.iterations, res_ref.accepted_steps)
    np.testing.assert_allclose(res.cost_after, res_ref.cost_after, rtol=1e-10)


def _many_view_model(n_cams=61, n_pts=600, views=8, seed=0):
    """Cameras on a ring around a point cloud; each point seen by `views` neighbouring cameras."""
    rng = np.random.default_rng(seed)
    intr = CameraIntrinsics(400.0, 400.0, 320.0, 240.0, 640, 480)
    pts = rng.normal(scale=2.0, size=(n_pts, 3))
    first = rng.integers(0, n_cams, size=n_pts)
    model = SfMModel()
    tracks = [[] for _ in range(n_pts)]
    for c in range(n_cams):
        ang = 2 * np.pi * c / n_cams
        center = 12.0 * np.array([np.cos(ang), np.sin(ang), 0.1])
        f = -center / np.linalg.norm(center)
        x = np.cross([0.0, 0.0, 1.0], f)
        x /= np.linalg.norm(x)
        R = np.stack([x, np.cross(f, x), f])
        seen = np.nonzero((c - first) % n_cams < views)[0]
        uv, _ = project_many(R, -R @ center, intr, pts[seen])
        for k, i in enumerate(seen):
            tracks[i].append((c, k))
        fs = FeatureSet(uv + rng.normal(scale=0.5, size=uv.shape), np.zeros((len(seen), 4)))
        model.add_frame(Frame(c, float(c), intr, fs, Pose.from_rt(R, -R @ center), "reference"))
    for i in range(n_pts):
        model.add_landmark(Landmark(i, pts[i] + rng.normal(scale=0.01, size=3), "reference", tracks[i]))
    return model


def test_bundle_memory_peak_stays_bounded():
    """Pair products are accumulated in chunks, never all at once."""
    model = _many_view_model()
    mask = FreezeMask(frozen_frame_ids={0}, frozen_landmark_ids=set())
    tracemalloc.start()
    try:
        res = bundle_adjust(model, mask)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.iterations > 0
    assert peak < 9 * 2**20, f"bundle_adjust peaked at {peak / 2**20:.1f} MB"


def test_stacked_retraction_matches_pose_retract():
    rng = np.random.default_rng(4)
    quats = rng.normal(size=(6, 4))
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    ts = rng.normal(size=(6, 3))
    delta = rng.normal(scale=0.3, size=(6, 6))
    delta[0, :3] = 0.0  # no rotation
    delta[1, :3] = [1e-13, 0.0, 0.0]  # the small-angle branch
    delta[2, :3] = [0.0, np.pi, 0.0]  # a half turn, which can flip the sign of w
    q_new, t_new = bundle._retract(quats, ts, delta)
    for q, t, d, qn, tn in zip(quats, ts, delta, q_new, t_new):
        ref = Pose(q, t).retract(d)
        np.testing.assert_allclose(qn, ref.q, rtol=0, atol=1e-12)
        np.testing.assert_allclose(tn, ref.t, rtol=0, atol=1e-12)


def test_bundle_rejects_mixed_intrinsics():
    model = _ring_model()
    model.frames[3].intrinsics = CameraIntrinsics(410.0, 400.0, 320.0, 240.0, 640, 480)
    with pytest.raises(ValueError, match="intrinsics"):
        bundle_adjust(model, FreezeMask(frozen_frame_ids={0}))


def test_bundle_zero_depth_observation_stays_finite():
    """Observations at exactly zero depth add a fixed penalty and no NaN or warning."""
    rng = np.random.default_rng(5)
    intr = CameraIntrinsics(400.0, 400.0, 320.0, 240.0, 640, 480)
    pts = np.column_stack([rng.uniform(-2, 2, 30), rng.uniform(-2, 2, 30), rng.uniform(4, 8, 30)])
    pts[0] = [1.0, 0.5, 0.0]  # in the z = 0 plane of every camera below
    model = SfMModel()
    for c in range(3):
        pose = Pose(t=np.array([-0.5 * c, 0.0, 0.0]))
        with np.errstate(divide="ignore", invalid="ignore"):
            uv = project_many(pose.R, pose.t, intr, pts)[0] + rng.normal(scale=0.5, size=(len(pts), 2))
        uv[0] = [320.0, 240.0]
        model.add_frame(Frame(c, float(c), intr, FeatureSet(uv, np.zeros((len(pts), 4))), pose, "registered"))
    for i, X in enumerate(pts):
        model.add_landmark(Landmark(i, X, "augmented", [(c, i) for c in range(3)]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = bundle_adjust(model, FreezeMask(frozen_frame_ids={0}))
    assert res.accepted_steps > 0
    assert np.isfinite(res.cost_after) and res.cost_after <= res.cost_before
    for f in model.frames.values():
        assert np.all(np.isfinite(f.pose.q)) and np.all(np.isfinite(f.pose.t))
    assert all(np.all(np.isfinite(lm.position)) for lm in model.landmarks.values())


def _gather_problem_all_tracks(model, mask):
    """Reference: _gather_problem walking every track of every landmark."""
    frame_ids = [fid for fid, fr in model.frames.items() if fr.pose is not None]
    frame_slot = {fid: k for k, fid in enumerate(frame_ids)}
    intr = model.frames[frame_ids[0]].intrinsics
    lm_ids = list(model.landmarks.keys())
    obs_cam, obs_lm, obs_feat = [], [], []
    for li, lid in enumerate(lm_ids):
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
    lm_free = np.array([lid not in mask.frozen_landmark_ids for lid in lm_ids], dtype=bool) & (lm_obs_count >= 2)
    frame_free &= np.bincount(obs_cam, minlength=len(frame_ids)) > 0
    keep = np.nonzero(frame_free[obs_cam] | lm_free[obs_lm])[0]
    pixels = [model.frames[fid].features.pixels for fid in frame_ids]
    obs_px = np.array([pixels[obs_cam[k]][obs_feat[k]] for k in keep], dtype=float).reshape(-1, 2)
    return frame_ids, lm_ids, frame_free, lm_free, obs_cam[keep], obs_lm[keep], obs_px, intr


def _model_with_reference_only_landmarks():
    """Ring of 8 cameras: 0-4 reference, 5-6 registered, 7 unposed.

    Two of three landmarks are reference landmarks that only reference
    frames observe; a few augmented landmarks are seen only by reference
    frames, and one registered frame observes nothing.
    """
    ring = _ring_model(n_cams=8, n_pts=60, noise=0.5)
    rng = np.random.default_rng(11)
    model = SfMModel()
    for fid, fr in ring.frames.items():
        if fid in (5, 6):
            fr = Frame(fid, fr.timestamp, fr.intrinsics, fr.features, fr.pose.retract(rng.normal(scale=1e-3, size=6)), "registered")
        elif fid == 7:
            fr = Frame(fid, fr.timestamp, fr.intrinsics, fr.features, None, "pending")
        model.add_frame(fr)
    model.add_frame(Frame(8, 8.0, ring.frames[0].intrinsics, ring.frames[0].features, ring.frames[0].pose, "registered"))
    for lid, lm in ring.landmarks.items():
        track = lm.track if lid % 3 == 0 else [o for o in lm.track if o[0] not in (5, 6)]
        origin = "augmented" if lid % 3 == 0 and lid % 2 == 0 or lid % 7 == 0 else "reference"
        X = lm.position + (rng.normal(scale=0.02, size=3) if origin == "augmented" else 0.0)
        model.add_landmark(Landmark(lid, X, origin, track))
    return model


def test_gather_problem_skips_reference_only_tracks(monkeypatch):
    from anchorloc.model import freeze_mask_for_reference

    model = _model_with_reference_only_landmarks()
    mask = freeze_mask_for_reference(model, window=len(model.frames))
    reads_free = {l for l, lm in model.landmarks.items() if any(f in (5, 6) for f, _ in lm.track)}
    assert any(l in mask.frozen_landmark_ids and l not in reads_free for l in model.landmarks)

    got = bundle._gather_problem(model, mask)
    ref = _gather_problem_all_tracks(model, mask)
    assert got[0] == ref[0] and got[1] == ref[1] and got[-1] == ref[-1]
    for g, r in zip(got[2:-1], ref[2:-1]):
        assert np.array_equal(g, r)

    reference = copy.deepcopy(model)
    res = bundle_adjust(model, mask)
    monkeypatch.setattr(bundle, "_gather_problem", _gather_problem_all_tracks)
    res_ref = bundle_adjust(reference, mask)
    assert res.accepted_steps > 0 and res == res_ref
    for fid, fr in model.frames.items():
        other = reference.frames[fid].pose
        assert (fr.pose is None) == (other is None)
        if fr.pose is not None:
            assert np.array_equal(fr.pose.q, other.q) and np.array_equal(fr.pose.t, other.t)
    for lid, lm in model.landmarks.items():
        assert np.array_equal(lm.position, reference.landmarks[lid].position)


def _poses_and_positions(model):
    return (
        {fid: (f.pose.q.copy(), f.pose.t.copy()) for fid, f in model.frames.items() if f.pose is not None},
        {lid: lm.position.copy() for lid, lm in model.landmarks.items()},
    )


def _assert_same_state(state, other):
    (poses, positions), (poses_o, positions_o) = state, other
    assert poses.keys() == poses_o.keys() and positions.keys() == positions_o.keys()
    for fid, (q, t) in poses.items():
        assert np.array_equal(q, poses_o[fid][0]) and np.array_equal(t, poses_o[fid][1])
    for lid, X in positions.items():
        assert np.array_equal(X, positions_o[lid])


def _windowed_reference_case():
    from anchorloc.model import freeze_mask_for_reference

    model = _model_with_reference_only_landmarks()
    return model, freeze_mask_for_reference(model, window=2)


# name -> (model, mask); the last two have no free landmark and no free camera
BUNDLE_CASES = {
    "ring": lambda: (
        _ring_model(noise=0.5),
        FreezeMask(frozen_frame_ids={0}, frozen_landmark_ids={0, 1, 2, 3, 4}),
    ),
    "many_view": lambda: (_many_view_model(n_cams=30, n_pts=300, views=6), FreezeMask(frozen_frame_ids={0})),
    "windowed_reference": _windowed_reference_case,
    "landmarks_frozen": lambda: (
        _ring_model(noise=0.5),
        FreezeMask(frozen_frame_ids={0, 1}, frozen_landmark_ids=set(range(40))),
    ),
    "cameras_frozen": lambda: (_ring_model(noise=0.5), FreezeMask(frozen_frame_ids=set(range(5)))),
}


@pytest.mark.parametrize("case", list(BUNDLE_CASES))
def test_bundle_matches_add_at_assembly_bit_for_bit(case, monkeypatch):
    model, mask = BUNDLE_CASES[case]()
    reference = copy.deepcopy(model)
    res = bundle_adjust(model, mask)
    monkeypatch.setattr(bundle, "_normal_equations", _normal_equations_add_at)
    monkeypatch.setattr(bundle, "_reduce", _reduce_add_at)
    monkeypatch.setattr(bundle, "_back_substitute", _back_substitute_add_at)
    res_ref = bundle_adjust(reference, mask)
    assert res.accepted_steps > 0
    assert res == res_ref
    _assert_same_state(_poses_and_positions(model), _poses_and_positions(reference))


def _bundle_adjust_loop(model, mask):
    """Reference: bundle_adjust with a Levenberg-Marquardt loop of its own."""
    from anchorloc.geom import CONVERGENCE_TOL, pose_jacobian_many

    frame_ids, lm_ids, frame_free, lm_free, obs_cam, obs_lm, obs_px, intr = bundle._gather_problem(model, mask)
    if len(obs_cam) == 0:
        return bundle.BundleResult(0.0, 0.0, 0, 0)
    quats = np.array([model.frames[fid].pose.q for fid in frame_ids])
    ts = np.array([model.frames[fid].pose.t for fid in frame_ids])
    Xs = np.array([model.landmarks[lid].position for lid in lm_ids])
    free_frame_slots = np.nonzero(frame_free)[0]
    free_lm_slots = np.nonzero(lm_free)[0]
    cam_param = -np.ones(len(frame_ids), dtype=int)
    cam_param[free_frame_slots] = np.arange(len(free_frame_slots))
    lm_param = -np.ones(len(lm_ids), dtype=int)
    lm_param[free_lm_slots] = np.arange(len(free_lm_slots))
    nF, nL = len(free_frame_slots), len(free_lm_slots)
    oc, ol = cam_param[obs_cam], lm_param[obs_lm]
    has_c, has_l = oc >= 0, ol >= 0
    cpl = bundle._coupling(oc, ol)
    d6, d3 = np.arange(6), np.arange(3)
    delta = bundle.HUBER_DELTA

    lam = bundle.INITIAL_DAMPING
    cost, r, enorm, R, good = bundle._evaluate(quats, ts, Xs, intr, obs_cam, obs_lm, obs_px, delta)
    cost_before = cost
    accepted = iterations = 0
    converged = False
    for _ in range(bundle.MAX_LM_ITERATIONS):
        iterations += 1
        w = np.where(enorm <= delta, 1.0, delta / np.maximum(enorm, 1e-12))
        sw = np.where(good, np.sqrt(w), 0.0)
        rw = r * sw[:, None]
        J = pose_jacobian_many(R, ts[obs_cam], intr, Xs[obs_lm][:, None])[:, 0]
        Jc = np.where(good[:, None, None], J, 0.0) * sw[:, None, None]
        Jl = Jc[:, :, 3:] @ R
        U, gc = bundle._normal_equations(Jc[has_c], rw[has_c], oc[has_c], nF)
        V, gl = bundle._normal_equations(Jl[has_l], rw[has_l], ol[has_l], nL)
        gmax = max(float(np.max(np.abs(gc))) if nF else 0.0, float(np.max(np.abs(gl))) if nL else 0.0)
        if gmax < 1e-12:
            iterations -= 1
            break
        W = Jc[cpl.obs].transpose(0, 2, 1) @ Jl[cpl.obs]
        stepped = False
        for _try in range(60):
            Ud = U.copy()
            Ud[:, d6, d6] += lam * U[:, d6, d6] + 1e-12
            Vd = V.copy()
            Vd[:, d3, d3] += lam * V[:, d3, d3] + 1e-12
            try:
                Vinv = np.linalg.inv(Vd) if nL else np.zeros((0, 3, 3))
                S, rhs_c = bundle._reduce(Ud, Vinv, gc, gl, W, cpl)
                delta_c = np.linalg.solve(S, rhs_c.reshape(-1)).reshape(nF, 6) if nF else np.zeros((0, 6))
                delta_l = bundle._back_substitute(Vinv, gl, W, cpl, delta_c)
            except np.linalg.LinAlgError:
                lam *= 10.0
                if lam > 1e14:
                    raise NumericalFailure("normal equations singular after damping escalation")
                continue
            q_try, t_try, X_try = quats.copy(), ts.copy(), Xs.copy()
            q_try[free_frame_slots], t_try[free_frame_slots] = bundle._retract(
                quats[free_frame_slots], ts[free_frame_slots], delta_c
            )
            X_try[free_lm_slots] += delta_l
            trial = bundle._evaluate(q_try, t_try, X_try, intr, obs_cam, obs_lm, obs_px, delta)
            if trial[0] <= cost:
                quats, ts, Xs = q_try, t_try, X_try
                decrease = cost - trial[0]
                cost, r, enorm, R, good = trial
                lam = max(lam / 10.0, 1e-12)
                accepted += 1
                stepped = True
                if decrease <= CONVERGENCE_TOL * max(cost, 1e-12):
                    converged = True
                break
            lam *= 10.0
            if lam > 1e14:
                break
        if not stepped or converged:
            break
    for slot in free_frame_slots:
        model.frames[frame_ids[slot]].pose = Pose(quats[slot].copy(), ts[slot].copy())
    for slot in free_lm_slots:
        model.landmarks[lm_ids[slot]].position = Xs[slot].copy()
    return bundle.BundleResult(cost_before, cost, iterations, accepted, free_cameras=nF, free_points=nL)


@pytest.mark.parametrize("case", ["ring", "many_view", "windowed_reference"])
def test_bundle_matches_its_own_loop_bit_for_bit(case):
    model, mask = BUNDLE_CASES[case]()
    reference = copy.deepcopy(model)
    res = bundle_adjust(model, mask)
    res_ref = _bundle_adjust_loop(reference, mask)
    assert res.accepted_steps > 0
    assert res == res_ref
    _assert_same_state(_poses_and_positions(model), _poses_and_positions(reference))


def _exact_model():
    """Three translated cameras with identity rotations and observations equal, bit
    for bit, to the projections BA computes: every residual is exactly zero."""
    rng = np.random.default_rng(6)
    intr = CameraIntrinsics(400.0, 400.0, 320.0, 240.0, 640, 480)
    pts = np.column_stack([rng.uniform(-2, 2, 20), rng.uniform(-2, 2, 20), rng.uniform(4, 8, 20)])
    model = SfMModel()
    for c in range(3):
        pose = Pose(t=np.array([-0.5 * c, 0.25 * c, 0.0]))
        uv, _ = project_many(pose.R, pose.t, intr, pts)
        model.add_frame(Frame(c, float(c), intr, FeatureSet(uv, np.zeros((len(pts), 4))), pose, "registered"))
    for i, X in enumerate(pts):
        model.add_landmark(Landmark(i, X, "augmented", [(c, i) for c in range(3)]))
    return model


def test_bundle_zero_gradient_returns_before_any_iteration():
    model = _exact_model()
    before = _poses_and_positions(model)
    res = bundle_adjust(model, FreezeMask(frozen_frame_ids={0}))
    assert (res.cost_before, res.cost_after, res.iterations, res.accepted_steps) == (0.0, 0.0, 0, 0)
    assert (res.free_cameras, res.free_points) == (2, 20)
    _assert_same_state(_poses_and_positions(model), before)


def test_bundle_singular_solve_raises_damping_and_still_descends(monkeypatch):
    model = _ring_model(noise=0.5)
    mask = FreezeMask(frozen_frame_ids={0}, frozen_landmark_ids={0, 1, 2, 3, 4})
    reference = copy.deepcopy(model)
    seen = failing_solve(monkeypatch, 3)
    res = bundle_adjust(model, mask)
    calls = len(seen)
    seen.clear()
    assert _bundle_adjust_loop(reference, mask) == res and len(seen) == calls > 3
    _assert_same_state(_poses_and_positions(model), _poses_and_positions(reference))
    assert res.accepted_steps > 0 and res.cost_after <= res.cost_before


def test_bundle_always_singular_solve_fails_and_leaves_the_model(monkeypatch):
    model = _ring_model(noise=0.5)
    before = _poses_and_positions(model)
    mask = FreezeMask(frozen_frame_ids={0}, frozen_landmark_ids={0, 1, 2, 3, 4})
    seen = failing_solve(monkeypatch, 10**6)
    with pytest.raises(NumericalFailure, match="damping escalation"):
        bundle_adjust(model, mask)
    assert len(seen) == 19  # from 1e-4, ten-fold per failure, past 1e14
    _assert_same_state(_poses_and_positions(model), before)
    seen.clear()
    with pytest.raises(NumericalFailure, match="damping escalation"):
        _bundle_adjust_loop(model, mask)
    assert len(seen) == 19


def test_bundle_gives_up_once_the_damping_passes_the_cap(monkeypatch):
    """Every trial leads uphill: the damping rises tenfold from 1e-4 per
    rejection, and once it passes 1e14 no further system is reduced; the run
    ends where it started, as BA's own loop did."""
    model = _ring_model(noise=0.5)
    before = _poses_and_positions(model)
    mask = FreezeMask(frozen_frame_ids={0}, frozen_landmark_ids={0, 1, 2, 3, 4})
    retract, reduce = bundle._retract, bundle._reduce
    reduced = []

    def uphill(quats, ts, delta):
        q, t = retract(quats, ts, delta)
        return q, t + 1.0

    def counted(*args):
        reduced.append(1)
        return reduce(*args)

    monkeypatch.setattr(bundle, "_retract", uphill)
    monkeypatch.setattr(bundle, "_reduce", counted)
    res = bundle_adjust(model, mask)
    assert (res.iterations, res.accepted_steps, res.cost_after) == (1, 0, res.cost_before)
    assert len(reduced) == 19  # 1e-4 to 1e14, then one more tenfold rise
    _assert_same_state(_poses_and_positions(model), before)
    reduced.clear()
    assert _bundle_adjust_loop(model, mask) == res and len(reduced) == 19
