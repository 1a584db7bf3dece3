"""Descriptor matching, retrieval, and candidate-frame selection.

Descriptors are unit-norm D-vectors; distances are Euclidean, which is
monotone in cosine similarity on the unit sphere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


class EmptyFeatureSet(Exception):
    pass


def _read_only(a):
    """A view of a that raises on writes; a itself stays writable."""
    v = a.view()
    v.flags.writeable = False
    return v


@dataclass
class FeatureSet:
    """Per-frame keypoints: (n,2) pixel array plus (n,D) unit descriptors.

    Both arrays are read-only views, so sq_norms, computed on first use
    and read-only too, cannot go stale.
    """

    pixels: np.ndarray
    descriptors: np.ndarray

    def __post_init__(self):
        self.pixels = _read_only(np.asarray(self.pixels, dtype=float).reshape(-1, 2))
        d = np.asarray(self.descriptors, dtype=float)
        if d.ndim != 2:
            d = d.reshape(len(self.pixels), -1) if len(self.pixels) else d.reshape(0, 0)
        self.descriptors = _read_only(d)

    @cached_property
    def sq_norms(self):
        """(n,) squared descriptor norms, which match_features reuses for every pair."""
        return _read_only((self.descriptors**2).sum(axis=1))

    def __len__(self):
        return len(self.pixels)


MATCH = np.dtype([("query", np.intp), ("target", np.intp), ("distance", float)])  # one row per match
CANDIDATE_MATCH = np.dtype([("candidate", np.intp), *MATCH.descr])  # candidate frame id, then a MATCH row


def records(dtype, *columns):
    """A structured array of dtype whose fields, in order, hold the columns."""
    out = np.empty(len(columns[0]), dtype)
    for name, col in zip(dtype.names, columns):
        out[name] = col
    return out


def best_per_key(keys, distance):
    """Rows of the smallest distance per distinct key, the earliest on ties, in ascending key order."""
    order = np.lexsort((distance, keys))
    _, first = np.unique(keys[order], return_index=True)
    return order[first]


def match_features(a: FeatureSet, b: FeatureSet, ratio):
    """Mutual nearest-neighbor matches from a to b passing Lowe's ratio test.

    Returns a MATCH array sorted by ascending distance, then query index.
    A match is kept only when the target's nearest neighbor is the query
    too.
    """
    if not 0.0 < ratio <= 1.0:
        raise ValueError("ratio must be in (0,1]")
    if len(a) == 0 or len(b) == 0:
        return np.empty(0, MATCH)
    # |a-b|^2 = |a|^2 + |b|^2 - 2 a.b, which holds whatever the descriptors' norms
    D = a.sq_norms[:, None] + b.sq_norms[None, :] - 2.0 * (a.descriptors @ b.descriptors.T)
    np.sqrt(np.maximum(D, 0.0, out=D), out=D)
    rows = np.arange(len(a))
    nn = np.argmin(D, axis=1)
    nn_dist = D[rows, nn]
    back = np.argmin(D, axis=0)
    # the second-nearest distance is the row minimum once the nearest is
    # masked: inf for a one-column D, and the nearest's own for a tie
    D[rows, nn] = np.inf
    second = D.min(axis=1)
    ok = (nn_dist < ratio * second) & (back[nn] == rows)
    q = np.flatnonzero(ok)
    q = q[np.argsort(nn_dist[q], kind="stable")]
    return records(MATCH, q, nn[q], nn_dist[q])


def global_descriptor(f: FeatureSet):
    """Unit-normalized mean of the local descriptors.

    Falls back to the first descriptor when the mean direction vanishes.
    """
    if len(f) == 0:
        raise EmptyFeatureSet("no features")
    m = f.descriptors.mean(axis=0)
    n = np.linalg.norm(m)
    if n < 1e-12:
        return f.descriptors[0].copy()
    return m / n


def retrieve_top_k(query, ids, descriptors, k):
    """Frame ids of the k database entries with largest inner product.

    ids: (n,) frame ids; descriptors: their (n,D) global descriptors.
    Ties break toward the smaller frame id, making the result
    deterministic.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(ids) == 0:
        return []
    scores = descriptors @ np.asarray(query, dtype=float)
    order = np.lexsort((ids, -scores))
    return [int(ids[i]) for i in order[:k]]


def temporal_candidates(current_timestamp, frames, n, reverse=False):
    """The n most recent registered/anchor frames strictly before current.

    frames: iterable of objects with .id, .timestamp, .status. With
    reverse=True the window mirrors to frames strictly after the current
    timestamp (used by the backward localization pass).
    """
    if reverse:
        eligible = [f for f in frames if f.timestamp > current_timestamp]
        eligible.sort(key=lambda f: (f.timestamp, f.id))
    else:
        eligible = [f for f in frames if f.timestamp < current_timestamp]
        eligible.sort(key=lambda f: (-f.timestamp, f.id))
    out = []
    for f in eligible:
        if f.status in ("anchor", "registered"):
            out.append(f.id)
            if len(out) == n:
                break
    return out
