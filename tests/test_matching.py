import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorloc.geom import CameraIntrinsics, Pose
from anchorloc.matching import (
    CANDIDATE_MATCH,
    EmptyFeatureSet,
    FeatureSet,
    best_per_key,
    global_descriptor,
    match_features,
    retrieve_top_k,
    temporal_candidates,
)
from anchorloc.model import Frame, Landmark, SfMModel, lift_matches_to_3d
from anchorloc.pipeline import _new_tracks
from conftest import best_partner_oracle, lift_oracle, match_features_oracle, no_features


def _unit_rows(rng, n, d=8):
    m = rng.normal(size=(n, d))
    return m / np.linalg.norm(m, axis=1)[:, None]


def _fs(rng, n, d=8):
    return FeatureSet(rng.uniform(0, 100, (n, 2)), _unit_rows(rng, n, d))


def test_match_identity():
    rng = np.random.default_rng(0)
    a = _fs(rng, 30)
    pairs = match_features(a, a, 0.8)
    assert len(pairs) == 30
    assert np.array_equal(pairs["query"], pairs["target"]) and np.all(pairs["distance"] < 1e-6)


def test_match_ratio_rejects_ambiguous():
    rng = np.random.default_rng(1)
    a = _fs(rng, 5)
    # duplicate every target descriptor: second-nearest ties the nearest
    b = FeatureSet(
        np.vstack([a.pixels, a.pixels]), np.vstack([a.descriptors, a.descriptors])
    )
    assert len(match_features(a, b, 0.8)) == 0


def test_match_mutual_check():
    # two queries share one nearest target; only the closer one survives
    qa = np.array([[1.0, 0.0, 0.0], [np.cos(0.1), np.sin(0.1), 0.0]])
    tb = np.array([[np.cos(0.02), np.sin(0.02), 0.0], [0.0, 0.0, 1.0]])
    a = FeatureSet(np.zeros((2, 2)), qa)
    b = FeatureSet(np.zeros((2, 2)), tb)
    pairs = match_features(a, b, 1.0)
    assert list(zip(pairs["query"].tolist(), pairs["target"].tolist())) == [(0, 0)]


def test_match_sorted_by_distance():
    rng = np.random.default_rng(2)
    a = _fs(rng, 40)
    noisy = a.descriptors + rng.normal(scale=0.02, size=a.descriptors.shape)
    b = FeatureSet(a.pixels, noisy / np.linalg.norm(noisy, axis=1)[:, None])
    pairs = match_features(a, b, 0.9)
    dists = pairs["distance"].tolist()
    assert dists == sorted(dists)


def test_match_empty_inputs():
    rng = np.random.default_rng(3)
    a = _fs(rng, 4)
    assert len(match_features(a, no_features(8), 0.8)) == 0
    assert len(match_features(no_features(8), a, 0.8)) == 0


def test_match_ratio_validation():
    rng = np.random.default_rng(4)
    a = _fs(rng, 3)
    with pytest.raises(ValueError):
        match_features(a, a, 0.0)
    with pytest.raises(ValueError):
        match_features(a, a, 1.5)


def test_planted_matches_recall_precision():
    # planted correspondences with descriptor noise sigma=0.05, ratio 0.8
    rng = np.random.default_rng(5)
    base = _unit_rows(rng, 200, 32)
    na = base + rng.normal(scale=0.05, size=base.shape)
    nb = base + rng.normal(scale=0.05, size=base.shape)
    a = FeatureSet(np.zeros((200, 2)), na / np.linalg.norm(na, axis=1)[:, None])
    b = FeatureSet(np.zeros((200, 2)), nb / np.linalg.norm(nb, axis=1)[:, None])
    pairs = match_features(a, b, 0.8)
    correct = int((pairs["query"] == pairs["target"]).sum())
    assert correct / 200 >= 0.9  # recall
    assert correct / len(pairs) >= 0.95  # precision


def _noisy_copies(rng, rows, scale):
    m = rows + rng.normal(scale=scale, size=rows.shape)
    return m / np.linalg.norm(m, axis=1)[:, None]


def test_match_features_equals_partition_oracle_bit_for_bit():
    """Cached norms, in-place sqrt and the masked row minimum give the
    MATCH columns of a fresh distance matrix and np.partition, bit for bit:
    on random sets, one-row targets, and targets whose descriptors repeat
    exactly, as an aliased group's do."""
    rng = np.random.default_rng(21)
    cases = []
    for n, m in [(30, 40), (40, 30), (1, 5), (25, 1), (1, 1)]:
        cases.append((_fs(rng, n, 16), _fs(rng, m, 16)))
    base = _unit_rows(rng, 60, 16)
    # planted pairs with noise, a third of the target rows repeated exactly
    target = np.concatenate([base, base[:20]])
    cases.append((FeatureSet(np.zeros((60, 2)), _noisy_copies(rng, base, 0.05)), FeatureSet(np.zeros((80, 2)), target)))
    groups = np.repeat(base[:10], 4, axis=0)
    aliased = FeatureSet(rng.uniform(0, 100, (40, 2)), groups)
    cases.append((FeatureSet(np.zeros((40, 2)), _noisy_copies(rng, groups, 0.02)), aliased))
    cases.append((aliased, aliased))
    cases.append((FeatureSet(np.zeros((10, 2)), base[:10]), FeatureSet(np.zeros((1, 2)), base[3:4])))
    for a, b in cases:
        for ratio in (0.8, 1.0):
            got = match_features(a, b, ratio)
            q, t, d = match_features_oracle(a, b, ratio)
            assert np.array_equal(got["query"], q) and np.array_equal(got["target"], t)
            assert got["distance"].tobytes() == d.tobytes()


def test_feature_set_arrays_are_read_only_views():
    """A FeatureSet's arrays and its cached norms raise on writes, so the
    norms stay valid; the caller's arrays stay writable."""
    rng = np.random.default_rng(22)
    pixels, descriptors = rng.uniform(0, 100, (5, 2)), _unit_rows(rng, 5)
    fs = FeatureSet(pixels, descriptors)
    assert fs.sq_norms.tobytes() == (descriptors**2).sum(axis=1).tobytes()
    with pytest.raises(ValueError):
        fs.descriptors[0, 0] = 2.0
    with pytest.raises(ValueError):
        fs.pixels[0, 0] = 2.0
    with pytest.raises(ValueError):
        fs.sq_norms[0] = 2.0
    descriptors[0, 0] = 2.0
    pixels[0, 0] = 2.0
    assert np.shares_memory(fs.descriptors, descriptors)


def test_best_per_key_ties_go_to_the_earliest_row():
    keys = np.array([5, 2, 5, 2, 5, 9])
    dist = np.array([0.3, 0.1, 0.2, 0.1, 0.2, 0.0])
    assert best_per_key(keys, dist).tolist() == [1, 2, 5]
    assert len(best_per_key(keys[:0], dist[:0])) == 0


QUERY_ID = 9


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(st.data())
def test_per_key_selections_match_dict_oracles(data):
    # candidates 0-2, frame 2 unposed, and the query frame, four features
    # each; three distance values force ties
    intr = CameraIntrinsics(400.0, 400.0, 320.0, 240.0, 640, 480)
    model = SfMModel()
    for fid in (0, 1, 2, QUERY_ID):
        fs = FeatureSet(np.arange(8.0).reshape(4, 2) + fid, np.zeros((4, 2)))
        model.add_frame(Frame(fid, 0.0, intr, fs, None if fid == 2 else Pose(), "pending" if fid == 2 else "reference"))
    keys = [(fid, i) for fid in (0, 1, 2, QUERY_ID) for i in range(4)]
    slot = data.draw(st.lists(st.sampled_from([None, 0, 1, 2, 3]), min_size=len(keys), max_size=len(keys)))
    lids = data.draw(st.permutations([3, 11, 7, 0]))
    for s, lid in enumerate(lids):
        track = [key for key, k in zip(keys, slot) if k == s]
        if track:
            model.add_landmark(Landmark(lid, np.full(3, float(lid)), "reference", track))
    rows = data.draw(
        st.lists(
            st.tuples(st.sampled_from([0, 1, 2]), st.integers(0, 3), st.integers(0, 3), st.sampled_from([0.1, 0.2, 0.3])),
            max_size=30,
        )
    )
    matches = np.array(rows, dtype=CANDIDATE_MATCH)

    corrs = lift_matches_to_3d(model, model.frames[QUERY_ID].features, matches)
    assert list(zip(corrs["landmark"].tolist(), corrs["feature"].tolist())) == lift_oracle(model, rows)
    assert np.array_equal(corrs["pixel"], model.frames[QUERY_ID].features.pixels[corrs["feature"]])
    assert np.array_equal(corrs["world"], np.repeat(corrs["landmark"][:, None], 3, axis=1).astype(float))
    assert _new_tracks(model, QUERY_ID, matches) == best_partner_oracle(model, QUERY_ID, rows)


def test_global_descriptor_basics():
    rng = np.random.default_rng(6)
    f = _fs(rng, 10)
    g = global_descriptor(f)
    assert np.isclose(np.linalg.norm(g), 1.0)
    # permutation invariance
    perm = rng.permutation(10)
    g2 = global_descriptor(FeatureSet(f.pixels[perm], f.descriptors[perm]))
    np.testing.assert_allclose(g, g2, atol=1e-12)


def test_global_descriptor_degenerate_mean():
    d = np.array([[1.0, 0.0], [-1.0, 0.0]])
    g = global_descriptor(FeatureSet(np.zeros((2, 2)), d))
    np.testing.assert_allclose(g, d[0])
    with pytest.raises(EmptyFeatureSet):
        global_descriptor(no_features(2))


def test_retrieve_top_k_matches_exhaustive_sort():
    rng = np.random.default_rng(7)
    q = _unit_rows(rng, 1, 16)[0]
    db = _unit_rows(rng, 50, 16)
    got = retrieve_top_k(q, np.arange(50), db, 10)
    want = sorted(range(50), key=lambda i: (-float(db[i] @ q), i))[:10]
    assert got == want


def test_retrieve_top_k_ties_and_overflow():
    d = np.array([1.0, 0.0])
    ids, db = np.array([7, 3, 9]), np.array([d, d, d])
    assert retrieve_top_k(d, ids, db, 2) == [3, 7]
    assert retrieve_top_k(d, ids, db, 99) == [3, 7, 9]
    assert retrieve_top_k(d, np.array([], dtype=int), np.zeros((0, 2)), 4) == []
    with pytest.raises(ValueError):
        retrieve_top_k(d, ids, db, 0)


class _F:
    def __init__(self, fid, ts, status):
        self.id, self.timestamp, self.status = fid, ts, status


def test_temporal_candidates_window():
    frames = [_F(i, float(i), "registered") for i in range(10)]
    frames[4].status = "failed"
    frames[6].status = "pending"
    got = temporal_candidates(8.0, frames, 3)
    assert got == [7, 5, 3]  # most recent first, failures skipped


def test_temporal_candidates_reverse_and_exclusion():
    frames = [_F(i, float(i), "anchor") for i in range(6)]
    got = temporal_candidates(2.0, frames, 2, reverse=True)
    assert got == [3, 4]
    assert 2 not in temporal_candidates(2.0, frames, 10)
    assert temporal_candidates(0.0, frames, 5) == []
