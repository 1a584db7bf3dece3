"""Deterministic synthetic scene generator for an annular inspection chamber.

The scene is a torus-like annulus with landmarks on its wall. Camera
sweeps travel along the ring centerline looking outward, mimicking a
borescope being pulled around the chamber. The generator plants the
failure modes the localization pipeline must survive: texture-poor arcs
(the mapping pass only picked up a fraction of the landmarks there, so
the reference map is sparse), perceptual aliasing (groups of landmarks in
different sectors sharing one base descriptor), descriptor noise, pixel
noise, outlier identity swaps, and a unique insert-point object whose
visibility defines the anchor zone.

All randomness flows through per-purpose streams derived from the seed,
so identical configs give bit-identical datasets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geom import CameraIntrinsics, Pose, project_many
from .matching import FeatureSet
from .model import Frame, Landmark, SfMModel, triangulate_tracks
from .solvers.triangulation import ACCEPTED, TriangulationConfig

# ring centerline radius and wall (tube) radius
MAJOR_RADIUS = 100.0
MINOR_RADIUS = 30.0
# the unique insert-point object: landmark count, ring angle and angular half-spread
UNIQUE_COUNT = 80
UNIQUE_ANGLE_DEG = 0.0
UNIQUE_SPREAD_DEG = 6.0
# descriptor length and noise, pixel noise (px), share of swapped descriptors
DESCRIPTOR_DIM = 32
DESCRIPTOR_NOISE = 0.05
PIXEL_NOISE = 0.5
OUTLIER_RATE = 0.05
# look-at elevation per mapping sweep: the second sweep tilts up so the
# reference model also covers the upper wall
DB_SWEEP_Z_OFFSETS = (0.0, 18.0)
# image size in pixels; the principal point is its center
WIDTH = 640
HEIGHT = 480
# a landmark is observed between these depths, in multiples of MINOR_RADIUS
MIN_DEPTH_FACTOR = 0.15
MAX_DEPTH_FACTOR = 5.0


class ConfigInvalid(Exception):
    pass


@dataclass
class SceneConfig:
    rng_seed: int = 7
    landmark_count: int = 4000
    aliased_group_count: int = 150
    aliased_group_size: int = 8
    # (start deg, end deg, density multiplier in [0,1])
    texture_poor_arcs: list = field(default_factory=list)
    n_database_frames: int = 400
    n_query_frames: int = 300
    # (start idx, end idx, target z offset) pan pauses in the query sweep
    query_pans: list = field(default_factory=list)
    fx: float = 500.0
    fy: float = 500.0

    def __post_init__(self):
        if self.rng_seed < 0:
            raise ConfigInvalid("rng_seed must be non-negative")
        if self.landmark_count < 1 or self.n_database_frames < 2 or self.n_query_frames < 1:
            raise ConfigInvalid("counts must be positive")
        if self.aliased_group_count < 0:
            raise ConfigInvalid("aliased_group_count must be non-negative")
        if not all(math.isfinite(f) and f > 0 for f in (self.fx, self.fy)):
            raise ConfigInvalid("fx and fy must be finite and positive")
        for arc in self.texture_poor_arcs:
            if not 0.0 <= arc[2] <= 1.0:
                raise ConfigInvalid("density multiplier must be in [0,1]")
            if not (0.0 <= arc[0] < 360.0 and 0.0 <= arc[1] <= 360.0):
                raise ConfigInvalid("arc angles must be in [0,360)")
        if not all(math.isfinite(pan[2]) for pan in self.query_pans):
            raise ConfigInvalid("pan z offsets must be finite")

    def intrinsics(self):
        return CameraIntrinsics(self.fx, self.fy, WIDTH / 2.0, HEIGHT / 2.0, WIDTH, HEIGHT)


@dataclass
class SynthFrame:
    id: int
    timestamp: float
    pose: Pose
    features: FeatureSet
    feat_landmark_ids: np.ndarray  # true generator landmark per feature


@dataclass
class SyntheticDataset:
    config: SceneConfig
    landmark_positions: np.ndarray
    unique_ids: np.ndarray
    database: list  # SynthFrame, both sweeps concatenated
    query: list

    def intrinsics(self):
        return self.config.intrinsics()


def _in_arc(theta_deg, start, end):
    t = np.mod(theta_deg, 360.0)
    if start <= end:
        return (t >= start) & (t < end)
    return (t >= start) | (t < end)


def _look_at(center, target):
    f = np.asarray(target, dtype=float) - np.asarray(center, dtype=float)
    f = f / np.linalg.norm(f)
    up = np.array([0.0, 0.0, 1.0])
    x = np.cross(up, f)
    n = np.linalg.norm(x)
    if n < 1e-9:
        up = np.array([0.0, 1.0, 0.0])
        x = np.cross(up, f)
        n = np.linalg.norm(x)
    x = x / n
    y = np.cross(f, x)
    R = np.stack([x, y, f])
    return Pose.from_rt(R, -R @ center)


def _random_unit(rng, n, dim):
    d = rng.normal(size=(n, dim))
    return d / np.linalg.norm(d, axis=1)[:, None]


def _generate_landmarks(cfg: SceneConfig):
    rng = np.random.default_rng([cfg.rng_seed, 0])
    theta = rng.uniform(0.0, 2 * np.pi, cfg.landmark_count)
    phi = rng.uniform(-0.9, 0.9, cfg.landmark_count)
    # texture-poor arcs: the mapping pass only picks up a `density`
    # fraction of the landmarks there, so the reference map is sparse in
    # the arc while a live sweep still sees the full geometry
    keep_draw = rng.uniform(size=cfg.landmark_count)
    db_visible = np.ones(cfg.landmark_count, dtype=bool)
    for start, end, density in cfg.texture_poor_arcs:
        inside = _in_arc(np.degrees(theta), start, end)
        db_visible &= ~inside | (keep_draw < density)

    # unique insert-point object, appended after the regular landmarks
    u0 = np.radians(UNIQUE_ANGLE_DEG)
    spread = np.radians(UNIQUE_SPREAD_DEG)
    # the insert-point object is compact, so keep it inside the vertical
    # field of view from the ring centerline
    utheta = u0 + rng.uniform(-spread, spread, UNIQUE_COUNT)
    uphi = rng.uniform(-0.45, 0.45, UNIQUE_COUNT)
    theta = np.concatenate([theta, utheta])
    phi = np.concatenate([phi, uphi])
    db_visible = np.concatenate([db_visible, np.ones(UNIQUE_COUNT, dtype=bool)])
    n = len(theta)

    rho = MAJOR_RADIUS + MINOR_RADIUS * np.cos(phi)
    pos = np.stack([rho * np.cos(theta), rho * np.sin(theta), MINOR_RADIUS * np.sin(phi)], axis=1)

    descs = _random_unit(rng, n, DESCRIPTOR_DIM)
    unique_ids = np.arange(n - UNIQUE_COUNT, n)

    # aliasing: standardized parts repeated at regular angular stations.
    # All groups share the same grid of stations (offset half a spacing
    # from the unique object so the anchor zone stays distinctive), so the
    # stations look nearly identical to each other in descriptor space.
    n_regular = n - UNIQUE_COUNT
    if cfg.aliased_group_count and cfg.aliased_group_size > 1 and n_regular:
        group_descs = _random_unit(rng, cfg.aliased_group_count, DESCRIPTOR_DIM)
        unassigned = np.ones(n_regular, dtype=bool)
        tregular = theta[:n_regular]
        spacing = 2 * np.pi / cfg.aliased_group_size
        grid0 = np.radians(UNIQUE_ANGLE_DEG) + 0.5 * spacing
        for g in range(cfg.aliased_group_count):
            jit = rng.normal(0.0, 0.05)
            for k in range(cfg.aliased_group_size):
                target = grid0 + jit + k * spacing
                diff = np.abs(np.mod(tregular - target + np.pi, 2 * np.pi) - np.pi)
                diff[~unassigned] = np.inf
                j = int(np.argmin(diff))
                if not np.isfinite(diff[j]):
                    break
                descs[j] = group_descs[g]
                unassigned[j] = False

    return pos, descs, unique_ids, db_visible


def _sweep_poses(cfg: SceneConfig, n, stream, t0, z_offset=0.0, pans=()):
    """Camera centers along the ring centerline, looking outward.

    z_offset raises the look-at target, tilting the whole sweep toward the
    upper wall. pans are (start index, end index, target z offset)
    segments where the camera stops advancing and tilts up and back down,
    like an inspector pausing to look at the wall above.
    """
    rng = np.random.default_rng([cfg.rng_seed, 1, stream])
    phase = rng.uniform(0.0, 2 * np.pi, 4)
    amp_r = 0.03 * MINOR_RADIUS
    amp_z = 0.03 * MINOR_RADIUS
    jitter = rng.normal(0.0, 0.01, (n, 3))
    start = np.radians(UNIQUE_ANGLE_DEG)
    centers = []
    targets = []
    for i in range(n):
        th = start + 2 * np.pi * i / n
        r = MAJOR_RADIUS + amp_r * np.sin(3 * th + phase[0])
        z = amp_z * np.sin(2 * th + phase[1])
        centers.append(np.array([r * np.cos(th), r * np.sin(th), z]) + jitter[i] * 0.1)
        wall = MAJOR_RADIUS + MINOR_RADIUS
        targets.append(
            np.array(
                [
                    wall * np.cos(th + 0.02 * np.sin(th + phase[2])),
                    wall * np.sin(th + 0.02 * np.sin(th + phase[2])),
                    z_offset + 0.2 * MINOR_RADIUS * np.sin(4 * th + phase[3]),
                ]
            )
        )
    for s, e, zoff in pans:
        s = max(int(s), 0)
        e = min(int(e), n)
        for i in range(s, e):
            centers[i] = centers[s].copy()
            targets[i] = targets[i] + np.array([0.0, 0.0, zoff * np.sin(np.pi * (i - s) / max(e - s, 1))])
    return [(t0 + 0.1 * i, _look_at(centers[i], targets[i])) for i in range(n)]


def _observe(cfg: SceneConfig, intr, fid, pose, positions, descs, active=None):
    rng = np.random.default_rng([cfg.rng_seed, 2, fid])
    uv, z = project_many(pose.R, pose.t, intr, positions)
    zmin = MIN_DEPTH_FACTOR * MINOR_RADIUS
    zmax = MAX_DEPTH_FACTOR * MINOR_RADIUS
    vis = (z > zmin) & (z < zmax)
    if active is not None:
        vis &= active
    vis &= intr.in_bounds(uv)
    idx = np.nonzero(vis)[0]

    pix = uv[idx] + rng.normal(0.0, PIXEL_NOISE, (len(idx), 2))
    inb = intr.in_bounds(pix)
    idx = idx[inb]
    pix = pix[inb]

    d = descs[idx] + rng.normal(0.0, DESCRIPTOR_NOISE, (len(idx), DESCRIPTOR_DIM))
    d = d / np.maximum(np.linalg.norm(d, axis=1)[:, None], 1e-12)

    # outlier injection: swapped descriptor identities
    n_out = int(round(OUTLIER_RATE * len(idx)))
    if n_out:
        swap_pos = rng.choice(len(idx), size=n_out, replace=False)
        swap_src = rng.integers(0, len(descs), size=n_out)
        dd = descs[swap_src] + rng.normal(0.0, DESCRIPTOR_NOISE, (n_out, DESCRIPTOR_DIM))
        d[swap_pos] = dd / np.maximum(np.linalg.norm(dd, axis=1)[:, None], 1e-12)

    return FeatureSet(pix, d), idx


def generate_scene(cfg: SceneConfig) -> SyntheticDataset:
    positions, descs, unique_ids, db_visible = _generate_landmarks(cfg)
    intr = cfg.intrinsics()

    n_half = cfg.n_database_frames // 2
    z0, z1 = DB_SWEEP_Z_OFFSETS
    sweeps = [
        (0, _sweep_poses(cfg, n_half, 0, 0.0, z_offset=z0)),
        (n_half, _sweep_poses(cfg, cfg.n_database_frames - n_half, 1, 10000.0, z_offset=z1)),
    ]
    database = []
    for base, sweep in sweeps:
        for i, (ts, pose) in enumerate(sweep):
            fid = base + i
            feats, lmids = _observe(cfg, intr, fid, pose, positions, descs, db_visible)
            database.append(SynthFrame(fid, ts, pose, feats, lmids))

    query = []
    for i, (ts, pose) in enumerate(
        _sweep_poses(cfg, cfg.n_query_frames, 2, 20000.0, pans=cfg.query_pans)
    ):
        fid = 100000 + i
        feats, lmids = _observe(cfg, intr, fid, pose, positions, descs)
        query.append(SynthFrame(fid, ts, pose, feats, lmids))

    return SyntheticDataset(cfg, positions, unique_ids, database, query)


def build_reference_model(dataset: SyntheticDataset) -> SfMModel:
    """Reference SfM model from the database sweeps.

    Keeps the ground-truth database poses and triangulates landmark
    positions from the (noisy) observations.
    """
    intr = dataset.intrinsics()
    frames = [
        Frame(sf.id, sf.timestamp, intr, sf.features, sf.pose.copy(), "reference")
        for sf in dataset.database
    ]
    obs_by_lm = {}
    for sf in dataset.database:
        for fidx, lid in enumerate(sf.feat_landmark_ids):
            obs_by_lm.setdefault(int(lid), []).append((sf.id, fidx))
    return reference_model_from_tracks(frames, obs_by_lm)


def reference_model_from_tracks(frames, tracks) -> SfMModel:
    """Reference model from posed frames plus landmark-id -> observation
    lists, triangulating each track from its (noisy) pixels.

    The frames share one camera model. Tracks of one length are
    triangulated in one call; landmarks go in by id.
    """
    model = SfMModel()
    for fr in frames:
        model.add_frame(fr)
    intr = None
    for fr in model.frames.values():
        if intr is None:
            intr = fr.intrinsics
        elif fr.intrinsics != intr:
            raise ValueError(f"frame {fr.id} has another camera model than the first frame")
    tri_cfg = TriangulationConfig(min_angle_deg=0.5, max_reprojection_px=6.0)
    by_length = {}
    for lid, track in tracks.items():
        if len(track) >= 2:
            by_length.setdefault(len(track), []).append(lid)
    positions = {}
    for lids in by_length.values():
        X, code = triangulate_tracks(model.frames, [tracks[lid] for lid in lids], intr, tri_cfg)
        positions.update((lid, X[k].copy()) for k, lid in enumerate(lids) if code[k] == ACCEPTED)
    for lid in sorted(positions):
        model.add_landmark(Landmark(lid, positions[lid], "reference", list(tracks[lid])))
    return model


def anchor_scores(dataset: SyntheticDataset):
    """Per query frame, the fraction of the unique-object landmarks among its features."""
    uniq = set(int(i) for i in dataset.unique_ids)
    total = max(len(uniq), 1)
    return {
        sf.id: len(uniq.intersection(int(i) for i in sf.feat_landmark_ids)) / total
        for sf in dataset.query
    }

