import numpy as np
import pytest

from anchorloc.geom import CameraIntrinsics, Pose, project_many, so3_exp_quat, quat_to_mat
from anchorloc.matching import FeatureSet
from anchorloc.model import Frame
from anchorloc.synth import SceneConfig, anchor_scores, build_reference_model, generate_scene


@pytest.fixture
def intrinsics():
    return CameraIntrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)


def random_rotation(rng):
    w = rng.normal(size=3)
    w = w / np.linalg.norm(w) * rng.uniform(0.1, np.pi - 0.1)
    return quat_to_mat(so3_exp_quat(w))


def random_pose(rng, t_scale=2.0):
    return Pose.from_rt(random_rotation(rng), rng.normal(scale=t_scale, size=3))


def points_in_front(rng, pose, n, depth=(4.0, 12.0), spread=3.0):
    """World points that project with positive depth for the given pose."""
    cam = np.column_stack(
        [
            rng.uniform(-spread, spread, n),
            rng.uniform(-spread, spread, n),
            rng.uniform(depth[0], depth[1], n),
        ]
    )
    return (cam - pose.t) @ pose.R


SMALL_SCENE = SceneConfig(
    rng_seed=3,
    landmark_count=1200,
    aliased_group_count=20,
    aliased_group_size=4,
    n_database_frames=80,
    n_query_frames=80,
    fx=420.0,
    fy=420.0,
)


@pytest.fixture(scope="session")
def small_scene():
    return generate_scene(SMALL_SCENE)


# function-scoped: register_anchors and recursive_localize grow the model they are given
@pytest.fixture
def small_reference(small_scene):
    return build_reference_model(small_scene)


@pytest.fixture(scope="session")
def small_scores(small_scene):
    return anchor_scores(small_scene)


def query_frames(dataset):
    intr = dataset.intrinsics()
    frames = [
        Frame(sf.id, sf.timestamp, intr, sf.features, None, "pending") for sf in dataset.query
    ]
    frames.sort(key=lambda f: f.timestamp)
    return frames


def query_gt(dataset):
    return {sf.id: sf.pose.center() for sf in dataset.query}


def no_features(dim):
    """A FeatureSet with no keypoints and dim-dimensional descriptors."""
    return FeatureSet(np.zeros((0, 2)), np.zeros((0, dim)))


# ---------------------------------------------------------------------------
# scalar oracles, one point and one pose at a time, written apart from the
# stacked routines of the package that the tests compare with them


def ransac_block_edges():
    """The last iteration of each block of the RANSAC block schedule."""
    from anchorloc.solvers.pnp import _RANSAC_FIRST_BLOCK, _RANSAC_MAX_BLOCK, RANSAC_MAX_ITERATIONS

    edges, it, block = [], 0, _RANSAC_FIRST_BLOCK
    while it < RANSAC_MAX_ITERATIONS:
        it = min(it + block, RANSAC_MAX_ITERATIONS)
        edges.append(it)
        block = min(2 * block, _RANSAC_MAX_BLOCK)
    return edges


def project(intr, pose, p):
    """Pixel of one world point; the oracle of geom.project_many."""
    q = np.asarray(p, dtype=float) @ pose.R.T + pose.t
    if q[2] <= 0.0:
        raise ValueError(f"depth {q[2]:g} <= 0")
    return np.array([intr.fx * q[0] / q[2] + intr.cx, intr.fy * q[1] / q[2] + intr.cy])


def rotation_angle(Ra, Rb):
    """Geodesic angle (rad) between two rotation matrices."""
    c = (np.trace(Ra.T @ Rb) - 1.0) / 2.0
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def failing_solve(monkeypatch, calls):
    """Make np.linalg.solve raise LinAlgError on its first `calls` calls;
    returns the list that gets one entry per call."""
    solve = np.linalg.solve
    seen = []

    def flaky(*args):
        seen.append(1)
        if len(seen) <= calls:
            raise np.linalg.LinAlgError("singular matrix")
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", flaky)
    return seen


def mean_reprojection_error(model):
    """Mean pixel reprojection error over all posed observations."""
    errs = []
    for lm in model.landmarks.values():
        for fid, fidx in lm.track:
            fr = model.frames.get(fid)
            if fr is None or fr.pose is None:
                continue
            uv, z = project_many(fr.pose.R, fr.pose.t, fr.intrinsics, lm.position[None])
            if z[0] > 0:
                errs.append(np.linalg.norm(uv[0] - fr.features.pixels[fidx]))
    return float(np.mean(errs)) if errs else 0.0


def models_equal(a, b):
    """Every frame, feature, pose, landmark and binding equal, bit for bit."""
    if set(a.frames) != set(b.frames) or set(a.landmarks) != set(b.landmarks):
        return False
    for fid, fa in a.frames.items():
        fb = b.frames[fid]
        if fa.timestamp != fb.timestamp or fa.status != fb.status:
            return False
        ia, ib = fa.intrinsics, fb.intrinsics
        if (ia.fx, ia.fy, ia.cx, ia.cy, ia.width, ia.height) != (ib.fx, ib.fy, ib.cx, ib.cy, ib.width, ib.height):
            return False
        if (fa.pose is None) != (fb.pose is None):
            return False
        if fa.pose is not None:
            if not np.array_equal(fa.pose.q, fb.pose.q) or not np.array_equal(fa.pose.t, fb.pose.t):
                return False
        if not np.array_equal(fa.features.pixels, fb.features.pixels):
            return False
        if not np.array_equal(fa.features.descriptors, fb.features.descriptors):
            return False
    for lid, la in a.landmarks.items():
        lb = b.landmarks[lid]
        if la.origin != lb.origin or not np.array_equal(la.position, lb.position):
            return False
        if list(la.track) != list(lb.track):
            return False
    if a.feature_landmarks.keys() != b.feature_landmarks.keys():
        return False
    return all(np.array_equal(ids, b.feature_landmarks[fid]) for fid, ids in a.feature_landmarks.items())


def match_features_oracle(a, b, ratio):
    """(query, target, distance) columns of matching.match_features, from a
    whole distance matrix with fresh norms and np.partition's second-nearest
    distance."""
    A, B = a.descriptors, b.descriptors
    D = np.sqrt(np.maximum((A**2).sum(axis=1)[:, None] + (B**2).sum(axis=1)[None, :] - 2.0 * (A @ B.T), 0.0))
    nn = np.argmin(D, axis=1)
    nn_dist = D[np.arange(len(A)), nn]
    second = np.partition(D, 1, axis=1)[:, 1] if D.shape[1] >= 2 else np.full(len(A), np.inf)
    back = np.argmin(D, axis=0)
    q = np.flatnonzero((nn_dist < ratio * second) & (back[nn] == np.arange(len(A))))
    q = q[np.argsort(nn_dist[q], kind="stable")]
    return q, nn[q], nn_dist[q]


# ---------------------------------------------------------------------------
# dict oracles of the per-key selections that model.lift_matches_to_3d and
# pipeline._new_tracks make over match arrays; matches are (candidate id,
# query index, target index, distance) tuples in row order


def track_bindings(model):
    """(frame id, feature index) -> landmark id, read from the landmark tracks
    alone: the oracles below check code that reads feature_landmarks."""
    return {key: lid for lid, lm in model.landmarks.items() for key in lm.track}


def lift_oracle(model, matches):
    """(landmark id, query index) per landmark, ascending: the first of the
    closest matches into a feature bound to it."""
    bound = track_bindings(model)
    best = {}
    for cid, qidx, tfidx, dist in matches:
        lid = bound.get((cid, tfidx))
        if lid is None:
            continue
        cur = best.get(lid)
        if cur is None or dist < cur[1]:
            best[lid] = (qidx, dist)
    return [(lid, best[lid][0]) for lid in sorted(best)]


def best_partner_oracle(model, frame_id, matches):
    """Tracks [(frame_id, query), (candidate, target)] in query order: each
    unbound query feature with the first of its closest matches into an
    unbound feature of a posed candidate."""
    bound = track_bindings(model)
    best_partner = {}
    for cid, qidx, cfidx, dist in matches:
        if (frame_id, qidx) in bound:
            continue
        if (cid, cfidx) in bound:
            continue
        if model.frames[cid].pose is None:
            continue
        cur = best_partner.get(qidx)
        if cur is None or dist < cur[2]:
            best_partner[qidx] = (cid, cfidx, dist)
    return [[(frame_id, qidx), best_partner[qidx][:2]] for qidx in sorted(best_partner)]
