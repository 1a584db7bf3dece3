"""SfM model store: frames, landmarks, tracks, spatial queries, persistence.

The same store backs the frozen reference model, the augmented model the
pipeline grows, and the baselines' query-only reconstructions. Reference
entities are distinguished by frame status / landmark origin and are never
mutated after load; solvers enforce this through freeze masks.

lift_matches_to_3d turns match rows into CORRESPONDENCE rows (feature,
landmark, pixel, world), one per landmark; merge_new_landmarks inserts
triangulated positions with their tracks. Models persist as text through
textio, which every file of the package goes through: FRAME and LANDMARK
records spell their numbers out, and each frame's FEATURES record carries
its pixels and descriptors as one block of float64 bits.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from .geom import CameraIntrinsics, Pose, quat_to_mat
from .matching import FeatureSet, best_per_key, global_descriptor, records
from .solvers.bundle import FreezeMask
from .solvers.triangulation import TriangulationConfig, triangulate_many
from .textio import FormatError, decode_floats, encode_floats, file_id, finite, fmt, read_records, write_records

FRAME_STATUSES = ("reference", "anchor", "registered", "failed", "pending")

FORMAT_HEADER = "ANCHORLOC_MODEL 2"

# one row per 2D-3D correspondence: query feature, landmark id, pixel, world position
CORRESPONDENCE = np.dtype([("feature", np.intp), ("landmark", np.intp), ("pixel", float, 2), ("world", float, 3)])


@dataclass
class Frame:
    id: int
    timestamp: float
    intrinsics: CameraIntrinsics
    features: FeatureSet
    pose: Pose | None = None
    status: str = "pending"

    def __post_init__(self):
        if self.status not in FRAME_STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        if self.status in ("reference", "anchor", "registered") and self.pose is None:
            raise ValueError(f"status {self.status} requires a pose")


@dataclass
class Landmark:
    id: int
    position: np.ndarray
    origin: str  # "reference" | "augmented"
    track: list = field(default_factory=list)  # [(frame id, feature index)]

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        if self.origin not in ("reference", "augmented"):
            raise ValueError(f"unknown origin {self.origin!r}")


class SfMModel:
    """Frames and landmarks by id, and the bindings between them.

    feature_landmarks holds every binding: one array per frame, created by
    add_frame, with the landmark id of each feature and -1 where it is
    unbound, so that a frame's bindings are read with one index. A binding
    names a feature of a frame the model holds; _landmark_ids is the one
    checked way to a feature's entry. Landmark tracks hold the same
    bindings, in the order they were made.
    """

    def __init__(self):
        self.frames: dict[int, Frame] = {}
        self.landmarks: dict[int, Landmark] = {}
        self.feature_landmarks: dict[int, np.ndarray] = {}
        self._next_landmark_id = 0

    def add_frame(self, frame: Frame):
        if frame.id in self.frames:
            raise ValueError(f"duplicate frame id {frame.id}")
        self.frames[frame.id] = frame
        self.feature_landmarks[frame.id] = np.full(len(frame.features), -1, dtype=np.intp)

    def _landmark_ids(self, key):
        """The landmark-id array of the frame of key (frame id, feature index).

        Raises ValueError unless key names a feature of a frame the model holds.
        """
        fid, fidx = key
        ids = self.feature_landmarks.get(fid)
        if ids is None:
            raise ValueError(f"feature {key}: frame {fid} is not in the model")
        if not 0 <= fidx < len(ids):
            raise ValueError(f"feature {key}: index outside [0, {len(ids)})")
        return ids

    def add_landmark(self, lm: Landmark):
        if lm.id in self.landmarks or lm.id < 0:  # -1 marks an unbound feature
            raise ValueError(f"landmark id {lm.id} is a duplicate or negative")
        if len(set(lm.track)) != len(lm.track):
            raise ValueError(f"landmark {lm.id}: track repeats an observation")
        rows = []
        for key in lm.track:
            rows.append(self._landmark_ids(key))
            if rows[-1][key[1]] >= 0:
                raise ValueError(f"feature {key} already bound")
        self.landmarks[lm.id] = lm
        for key, ids in zip(lm.track, rows):
            ids[key[1]] = lm.id
        self._next_landmark_id = max(self._next_landmark_id, lm.id + 1)

    def remove_landmark(self, lid):
        """Drop a landmark and unbind every feature of its track."""
        for fid, fidx in self.landmarks.pop(lid).track:
            self.feature_landmarks[fid][fidx] = -1

    def copy(self) -> "SfMModel":
        """A model a run can grow without touching this one.

        Frames, landmarks, tracks and bindings are new objects in the same
        insertion order, the order bundle adjustment sums in; poses,
        features and positions are shared, because every stage replaces
        them rather than writing into them.
        """
        out = SfMModel()
        out.frames = {fid: replace(f) for fid, f in self.frames.items()}
        out.landmarks = {lid: replace(lm, track=list(lm.track)) for lid, lm in self.landmarks.items()}
        out.feature_landmarks = {fid: ids.copy() for fid, ids in self.feature_landmarks.items()}
        out._next_landmark_id = self._next_landmark_id
        return out

    def observed_landmarks(self, frame_ids) -> set:
        """The ids of the landmarks bound to a feature of one of frame_ids."""
        ids = np.concatenate([np.empty(0, np.intp), *(self.feature_landmarks[fid] for fid in frame_ids)])
        return set(ids[ids >= 0].tolist())

    def new_landmark_id(self):
        lid = self._next_landmark_id
        self._next_landmark_id += 1
        return lid

    def reference_frames(self):
        return [f for f in self.frames.values() if f.status == "reference"]


# ---------------------------------------------------------------------------
# queries and mutations


def freeze_mask_for_reference(model: SfMModel, window: int) -> FreezeMask:
    """Everything loaded with the reference model stays fixed in BA, and so
    does every query frame but the last `window` in registration order (the
    insertion order of model.frames) and every augmented landmark that none
    of those frames observes: the local bundle adjustment of ORB-SLAM
    (Mur-Artal et al., T-RO 2015). A window at least as long as the
    sequence frees every query frame and every observed augmented landmark.
    """
    query = [fid for fid, f in model.frames.items() if f.status != "reference"]
    frozen_frames = {f.id for f in model.frames.values() if f.status == "reference"}
    frozen_frames.update(query[:-window])
    seen = model.observed_landmarks(query[-window:])
    frozen_landmarks = {l.id for l in model.landmarks.values() if l.origin == "reference" or l.id not in seen}
    return FreezeMask(frozen_frame_ids=frozen_frames, frozen_landmark_ids=frozen_landmarks)


def frozen_state_digest(model: SfMModel, mask: FreezeMask) -> str:
    """Hash of all frozen poses/positions, for bit-identity auditing."""
    h = hashlib.sha256()
    for fid in sorted(mask.frozen_frame_ids):
        fr = model.frames[fid]
        h.update(fr.pose.q.tobytes())
        h.update(fr.pose.t.tobytes())
    for lid in sorted(mask.frozen_landmark_ids):
        h.update(model.landmarks[lid].position.tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class ReferenceIndex:
    """What candidate gathering reads of the reference frames, built once per
    run: the reference never moves during one. ids, view_dirs and centers
    hold every reference frame in insertion order; retrieval_ids and
    descriptors the global descriptor of each one with features, by id.
    The arrays are read-only."""

    ids: np.ndarray
    view_dirs: np.ndarray
    centers: np.ndarray
    retrieval_ids: np.ndarray
    descriptors: np.ndarray

    @classmethod
    def of(cls, model: SfMModel) -> "ReferenceIndex":
        refs = model.reference_frames()
        view_dirs = centers = np.zeros((0, 3))
        if refs:
            R = quat_to_mat(np.array([f.pose.q for f in refs]).T)  # (3, 3, n)
            # each view direction Rᵀ e3 is row 2 of R; each center is -Rᵀ t
            view_dirs = R[2].T
            centers = -np.einsum("jin,nj->ni", R, np.array([f.pose.t for f in refs]))
        db = sorted((f for f in refs if len(f.features) > 0), key=lambda f: f.id)
        descriptors = np.array([global_descriptor(f.features) for f in db])
        arrays = (np.array([f.id for f in refs]), view_dirs, centers, np.array([f.id for f in db]), descriptors)
        for a in arrays:
            a.flags.writeable = False
        return cls(*arrays)


def spatial_neighbors(index: ReferenceIndex, pose: Pose, k: int, max_view_angle_deg: float):
    """k reference frames nearest to pose's center, gated on view angle.

    Ties in distance go to the smaller frame id.
    """
    ang = np.degrees(np.arccos(np.clip(index.view_dirs @ pose.view_direction(), -1.0, 1.0)))
    keep = ang <= max_view_angle_deg
    ids = index.ids[keep]
    dist = np.linalg.norm(index.centers[keep] - pose.center(), axis=1)
    return ids[np.lexsort((ids, dist))[:k]].tolist()


def bound_landmarks(model: SfMModel, frame_ids, features):
    """The landmark id of each (frame id, feature index) pair of two equal-length
    integer arrays, -1 where unbound, read from the frames' feature_landmarks
    stacked end to end."""
    fids, at = np.unique(frame_ids, return_inverse=True)
    blocks = [model.feature_landmarks[fid] for fid in fids.tolist()]
    start = np.cumsum([0] + [len(b) for b in blocks[:-1]], dtype=np.intp)
    return np.concatenate([np.empty(0, np.intp), *blocks])[start[at] + features]


def lift_matches_to_3d(model: SfMModel, query_features: FeatureSet, matches):
    """2D-3D correspondences from 2D matches into tracked target features.

    matches: a CANDIDATE_MATCH array. Matches landing on the same landmark
    collapse to the one with the smallest descriptor distance (best_per_key).
    Returns a CORRESPONDENCE array in ascending landmark id order.
    """
    bound = bound_landmarks(model, matches["candidate"], matches["target"])
    rows = np.flatnonzero(bound >= 0)
    rows = rows[best_per_key(bound[rows], matches["distance"][rows])]
    lids = bound[rows]
    feature = matches["query"][rows]
    world = np.array([model.landmarks[lid].position for lid in lids.tolist()]).reshape(-1, 3)
    return records(CORRESPONDENCE, feature, lids, query_features.pixels[feature], world)


def triangulate_tracks(frames, tracks, intr: CameraIntrinsics, cfg: TriangulationConfig):
    """triangulate_many over tracks of one length.

    frames: frame id -> posed Frame; tracks: lists of (frame id, feature
    index). Returns (X, code) with one row per track, in track order.
    """
    if not tracks:
        return np.zeros((0, 3)), np.zeros(0, dtype=np.int64)
    fids = sorted({fid for track in tracks for fid, _ in track})
    slot = {fid: k for k, fid in enumerate(fids)}
    poses = [frames[fid].pose for fid in fids]
    Rs = np.moveaxis(quat_to_mat(np.array([p.q for p in poses]).T), -1, 0)
    ts = np.array([p.t for p in poses])
    cams = np.array([[slot[fid] for fid, _ in track] for track in tracks])
    pixels = np.array([[frames[fid].features.pixels[fidx] for fid, fidx in track] for track in tracks])
    return triangulate_many(Rs[cams], ts[cams], pixels, intr, cfg)


def add_observation(model: SfMModel, lid: int, fid: int, fidx: int) -> bool:
    """Extend a landmark track; existing bindings win. Returns True if added.

    Raises ValueError, with the model unchanged, for a feature the model
    does not hold.
    """
    ids = model._landmark_ids((fid, fidx))
    if ids[fidx] >= 0:
        return False
    model.landmarks[lid].track.append((fid, fidx))
    ids[fidx] = lid
    return True


def merge_new_landmarks(model: SfMModel, positions, tracks) -> int:
    """Insert each position with its track of (frame id, feature index) as an
    augmented landmark; a track shorter than two or touching an already-bound
    feature is dropped, and one of two or more naming a feature the model
    does not hold raises ValueError before a landmark id is drawn. Returns
    the number of landmarks added.
    """
    added = 0
    for position, track in zip(positions, tracks):
        # a list, not a generator: every key is checked, also after a bound one
        if len(track) < 2 or any([model._landmark_ids(key)[key[1]] >= 0 for key in track]):
            continue
        model.add_landmark(Landmark(model.new_landmark_id(), np.array(position, dtype=float), "augmented", list(track)))
        added += 1
    return added


# ---------------------------------------------------------------------------
# persistence: versioned line-oriented text, exact round trips
#
#   FRAME <id> <timestamp> <status> <fx> <fy> <cx> <cy> <width> <height> 0|1 [<q0..q3> <t0..t2>]
#   FEATURES <id> <n> <dim> <block: the n rows u, v, descriptor as encode_floats>
#   LANDMARK <id> <origin> <x> <y> <z> <m> <frame id> <feature index> ... (m pairs)


def save_model(model: SfMModel, path):
    write_records(path, FORMAT_HEADER, _model_lines(model))


def _model_lines(model: SfMModel):
    for fid in sorted(model.frames):
        f = model.frames[fid]
        i = f.intrinsics
        parts = ["FRAME", str(fid), fmt(f.timestamp), f.status]
        parts += [fmt(i.fx), fmt(i.fy), fmt(i.cx), fmt(i.cy), str(i.width), str(i.height)]
        if f.pose is not None:
            parts.append("1")
            parts.extend(fmt(v) for v in f.pose.q)
            parts.extend(fmt(v) for v in f.pose.t)
        else:
            parts.append("0")
        yield " ".join(parts)
        n = len(f.features)
        dim = f.features.descriptors.shape[1] if n else 0
        yield f"FEATURES {fid} {n} {dim} {encode_floats(np.hstack((f.features.pixels, f.features.descriptors)))}"
    for lid in sorted(model.landmarks):
        l = model.landmarks[lid]
        parts = ["LANDMARK", str(lid), l.origin]
        parts.extend(fmt(v) for v in l.position)
        parts.append(str(len(l.track)))
        for fid, fidx in l.track:
            parts.append(str(fid))
            parts.append(str(fidx))
        yield " ".join(parts)


def load_model(path) -> SfMModel:
    model = SfMModel()
    frame = None  # the keyword arguments of the FRAME awaiting its FEATURES record
    # every fault of a record is a ValueError or IndexError, reported at its line
    ln = 1
    try:
        for ln, tok in read_records(path, FORMAT_HEADER):
            if frame is not None and tok[0] != "FEATURES":
                raise ValueError(f"FRAME {frame['id']} has no FEATURES record")
            if tok[0] == "FRAME":
                if len(tok) < 11 or tok[10] not in ("0", "1") or len(tok) != 11 + 7 * int(tok[10]):
                    raise ValueError("FRAME wants 10 fields and pose flag 0, or flag 1 and 7 pose values")
                fid = file_id(tok[1])
                fx, fy, cx, cy = (finite(v) for v in tok[4:8])
                intr = CameraIntrinsics(fx, fy, cx, cy, int(tok[8]), int(tok[9]))
                pose = None
                if tok[10] == "1":
                    vals = [finite(v) for v in tok[11:]]
                    pose = Pose(np.array(vals[:4]), np.array(vals[4:]))
                frame = dict(id=fid, timestamp=finite(tok[2]), intrinsics=intr, pose=pose, status=tok[3])
            elif tok[0] == "FEATURES":
                if frame is None or int(tok[1]) != frame["id"]:
                    raise ValueError("FEATURES without matching FRAME")
                if len(tok) != 5:
                    raise ValueError("FEATURES wants a frame id, a count, a dimension and a block")
                n, dim = int(tok[2]), int(tok[3])
                if n < 0 or dim < 0:
                    raise ValueError("negative feature count or dimension")
                rows = decode_floats(tok[4], n * (2 + dim)).reshape(n, 2 + dim)
                # C-contiguous copies, as a model built in memory holds: matching's products keep their bits
                model.add_frame(Frame(features=FeatureSet(rows[:, :2].copy(), rows[:, 2:].copy()), **frame))
                frame = None
            elif tok[0] == "LANDMARK":
                lid = file_id(tok[1])
                pos = np.array([finite(v) for v in tok[3:6]])
                n = int(tok[6])
                if len(tok) != 7 + 2 * n:
                    raise ValueError(f"LANDMARK with {n} observations has {len(tok)} tokens")
                track = [(int(tok[7 + 2 * i]), int(tok[8 + 2 * i])) for i in range(n)]
                model.add_landmark(Landmark(lid, pos, tok[2], track))
            else:
                raise ValueError(f"unknown record {tok[0]!r}")
        if frame is not None:
            raise ValueError(f"FRAME {frame['id']} has no FEATURES record")
    except (ValueError, IndexError) as e:
        raise FormatError(f"{path}: line {ln}: {e}") from e
    return model
