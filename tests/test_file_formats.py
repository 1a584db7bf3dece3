"""Property tests of the readers of every input file.

Each reader, given any file, either raises the one format error,
``textio.FormatError``, which the CLI ends with exit code 3 (run configs
raise ``ConfigError`` instead, which it ends with exit code 2), or returns
records whose numbers are all finite and whose poses have a 4-vector q and
a 3-vector t. Files are generated from scratch, made by mutating a valid
file token by token, or made by setting one number of a valid file to nan
or an infinity, which every reader must refuse; a model's feature values
sit in base64 blocks, so those are decoded, planted and encoded again.
"""

import base64
import pathlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorloc.cli import load_ground_truth, load_scores, save_ground_truth, save_scores
from anchorloc.config import _SECTIONS, ConfigError, parse_run_config
from anchorloc.geom import CameraIntrinsics, Pose
from anchorloc.matching import FeatureSet
from anchorloc.metrics import TRAJ_HEADER, TRAJ_STATUSES, TrajectoryEntry, export_trajectory, load_trajectory
from anchorloc.model import (
    FORMAT_HEADER,
    FRAME_STATUSES,
    Frame,
    Landmark,
    SfMModel,
    load_model,
    save_model,
)
from anchorloc.pipeline import PipelineConfig, _frame_seed
from anchorloc.solvers import RansacConfig
from anchorloc.textio import FormatError
from conftest import models_equal

# derandomized: every run draws the same examples, so the suite stays deterministic
FIXED = settings(derandomize=True, deadline=None, database=None, max_examples=150)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    """The one file every example writes and reads back."""
    return tmp_path_factory.mktemp("formats") / "file.txt"


# tokens a mutation may put into a file: record names, statuses, edge-case
# numbers, and short non-blank strings
TOKENS = st.one_of(
    st.sampled_from(
        ["FRAME", "FEATURES", "F", "LANDMARK", "ANCHORLOC_MODEL", TRAJ_HEADER.split()[0], *FRAME_STATUSES,
         "augmented", "-", "0", "1", "2", "-1", "999999", "0.0", "-0.0", "1e400", "nan", "inf", "-inf", "1.5"]
    ),
    st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=4),
)

# (operation, line, token, new token); line and token are taken modulo the
# file's line and token counts. Cutting and extending lines at their end
# probes the record lengths.
MUTATION = st.tuples(
    st.sampled_from(["drop_token", "set_token", "dup_token", "append_token", "cut_line", "drop_line", "dup_line"]),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    TOKENS,
)


def _mutate(text, mutations):
    lines = text.splitlines()
    for op, li, ti, new in mutations:
        if not lines:
            break
        li %= len(lines)
        tok = lines[li].split()
        if op == "drop_line":
            del lines[li]
            continue
        if op == "dup_line":
            lines.insert(li, lines[li])
            continue
        if not tok:
            continue
        ti %= len(tok)
        if op == "drop_token":
            del tok[ti]
        elif op == "set_token":
            tok[ti] = new
        elif op == "dup_token":
            tok.insert(ti, tok[ti])
        elif op == "append_token":
            tok.append(new)
        else:
            del tok[ti:]
        lines[li] = " ".join(tok)
    return "\n".join(lines) + "\n"


# tokens float() reads as nan or an infinity
NONFINITE = st.sampled_from(["nan", "-nan", "NaN", "inf", "-inf", "Infinity", "1e400", "-1e400"])


def _is_number(tok):
    try:
        float(tok)
    except ValueError:
        return False
    return True


def _inject(text, k, token):
    """text with its k-th number token (modulo their count) set to token."""
    lines = [line.split() for line in text.splitlines()]
    slots = [(i, j) for i, tok in enumerate(lines) for j, t in enumerate(tok) if _is_number(t)]
    i, j = slots[k % len(slots)]
    lines[i][j] = token
    return "\n".join(" ".join(tok) for tok in lines) + "\n"


def _finite(*values):
    return all(np.all(np.isfinite(v)) for v in values)


def _pose_ok(pose):
    return pose is None or (pose.q.shape == (4,) and pose.t.shape == (3,) and _finite(pose.q, pose.t))


def _check_model(path):
    """Load path; a model that loads must be well formed."""
    try:
        model = load_model(path)
    except FormatError:
        return
    for f in model.frames.values():
        i = f.intrinsics
        assert _pose_ok(f.pose) and _finite(f.timestamp, i.fx, i.fy, i.cx, i.cy)
        assert len(f.features.pixels) == len(f.features.descriptors)
        assert _finite(f.features.pixels, f.features.descriptors)
    seen = set()
    for lm in model.landmarks.values():
        assert lm.position.shape == (3,) and _finite(lm.position)
        for fid, fidx in lm.track:
            assert 0 <= fidx < len(model.frames[fid].features)
            assert (fid, fidx) not in seen
            seen.add((fid, fidx))


def _check_trajectory(path):
    try:
        entries = load_trajectory(path)
    except FormatError:
        return
    assert len({e.frame_id for e in entries}) == len(entries)
    for e in entries:
        assert e.status in TRAJ_STATUSES
        assert _pose_ok(e.pose) and _finite(e.timestamp, e.error if e.error is not None else 0.0)


finite = st.floats(-1e6, 1e6, allow_nan=False)
unit_quat = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(lambda q: np.linalg.norm(q) > 1e-3)
poses = st.builds(Pose, unit_quat.map(np.array), st.lists(finite, min_size=3, max_size=3).map(np.array))


@st.composite
def models(draw, min_frames=0):
    m = SfMModel()
    intr = CameraIntrinsics(
        draw(st.floats(1e-3, 1e4)), draw(st.floats(1e-3, 1e4)), draw(finite), draw(finite),
        draw(st.integers(1, 4096)), draw(st.integers(1, 4096)),
    )
    dim = draw(st.integers(1, 3))
    for fid in draw(st.lists(st.integers(-5, 10**6), min_size=min_frames, max_size=4, unique=True)):
        status = draw(st.sampled_from(FRAME_STATUSES))
        needs_pose = status in ("reference", "anchor", "registered")
        pose = draw(poses) if needs_pose or draw(st.booleans()) else None
        n = draw(st.integers(0, 3))
        # save_model writes dimension 0 for a frame without features
        desc = np.array(draw(st.lists(st.lists(finite, min_size=dim, max_size=dim), min_size=n, max_size=n)))
        pix = np.array(draw(st.lists(st.lists(finite, min_size=2, max_size=2), min_size=n, max_size=n)))
        fs = FeatureSet(pix.reshape(n, 2), desc.reshape(n, dim if n else 0))
        m.add_frame(Frame(fid, draw(finite), intr, fs, pose, status))
    keys = draw(st.permutations([(f.id, i) for f in m.frames.values() for i in range(len(f.features))]))
    lid = 0
    while keys:
        k = draw(st.integers(1, len(keys)))
        pos = np.array(draw(st.lists(finite, min_size=3, max_size=3)))
        m.add_landmark(Landmark(lid, pos, draw(st.sampled_from(["reference", "augmented"])), keys[:k]))
        keys = keys[k:]
        lid += draw(st.integers(1, 3))
    return m


def _renormalized(m):
    """m with every pose rebuilt from its q and t, as load_model rebuilds them."""
    for f in m.frames.values():
        if f.pose is not None:
            f.pose = Pose(f.pose.q, f.pose.t)
    return m


@FIXED
@given(models())
def test_model_save_load_round_trip(path, m):
    save_model(m, path)
    back = load_model(path)
    # load_model normalizes each q again, which can move its last bit
    assert models_equal(_renormalized(m), back)


@FIXED
@given(models(min_frames=1), st.lists(MUTATION, min_size=1, max_size=3))
def test_load_model_mutated(path, m, mutations):
    save_model(m, path)
    path.write_text(_mutate(path.read_text(), mutations))
    _check_model(path)


@FIXED
@given(st.lists(st.lists(TOKENS, max_size=20).map(" ".join), max_size=8))
def test_load_model_generated(path, lines):
    path.write_text("\n".join([FORMAT_HEADER, *lines]) + "\n")
    _check_model(path)


@FIXED
@given(models(min_frames=1), st.integers(0, 10**6), NONFINITE)
def test_load_model_rejects_nonfinite(path, m, k, token):
    save_model(m, path)
    path.write_text(_inject(path.read_text(), k, token))
    with pytest.raises(FormatError):
        load_model(path)


def _plant_in_block(text, k, value):
    """text with the k-th float64 (modulo their count) of its FEATURES blocks set to value."""
    lines = [line.split() for line in text.splitlines()]
    blocks = [tok for tok in lines if tok[0] == "FEATURES" and tok[4] != "-"]
    values = [np.frombuffer(base64.b64decode(tok[4]), "<f8").copy() for tok in blocks]
    slots = [(i, j) for i, v in enumerate(values) for j in range(len(v))]
    i, j = slots[k % len(slots)]
    values[i][j] = value
    blocks[i][4] = base64.b64encode(values[i].tobytes()).decode()
    return "\n".join(" ".join(tok) for tok in lines) + "\n"


@FIXED
@given(
    models(min_frames=1).filter(lambda m: any(len(f.features) for f in m.frames.values())),
    st.integers(0, 10**6),
    st.sampled_from([np.nan, np.inf, -np.inf]),
)
def test_load_model_rejects_nonfinite_block_value(path, m, k, value):
    save_model(m, path)
    path.write_text(_plant_in_block(path.read_text(), k, value))
    with pytest.raises(FormatError):
        load_model(path)


trajectory_entries = st.builds(
    TrajectoryEntry,
    st.integers(-(10**6), 10**6),
    finite,
    st.sampled_from(["registered", "anchor", "failed"]),
    st.none() | poses,
    st.none() | st.floats(0.0, 1e6),
)
trajectories = st.lists(trajectory_entries, max_size=4)


@FIXED
@given(trajectories, st.lists(MUTATION, max_size=3))
def test_load_trajectory_mutated(path, es, mutations):
    export_trajectory(es, path)
    path.write_text(_mutate(path.read_text(), mutations))
    _check_trajectory(path)


@FIXED
@given(st.lists(st.lists(TOKENS, min_size=9, max_size=12).map(" ".join), max_size=6))
def test_load_trajectory_generated(path, lines):
    path.write_text("\n".join([TRAJ_HEADER, *lines]) + "\n")
    _check_trajectory(path)


@FIXED
@given(st.lists(trajectory_entries, max_size=4, unique_by=lambda e: e.frame_id), st.integers(0, 10**6), NONFINITE)
def test_load_trajectory_rejects_nonfinite(path, es, k, token):
    export_trajectory(es, path)
    assert len(load_trajectory(path)) == len(es)
    path.write_text(_inject(path.read_text(), k, token))
    with pytest.raises(FormatError):
        load_trajectory(path)


@FIXED
@given(st.lists(trajectory_entries, min_size=1, max_size=4, unique_by=lambda e: e.frame_id), st.integers(0, 10**6),
       TOKENS)
def test_load_trajectory_checks_status(path, es, k, token):
    """A valid trajectory with the status token (token 9) of one line set to token."""
    export_trajectory(es, path)
    lines = path.read_text().splitlines()
    i = 1 + k % len(es)
    tok = lines[i].split()
    tok[9] = token
    lines[i] = " ".join(tok)
    path.write_text("\n".join(lines) + "\n")
    if token in TRAJ_STATUSES:
        assert load_trajectory(path)[i - 1].status == token
    else:
        with pytest.raises(FormatError):
            load_trajectory(path)


# ---------------------------------------------------------------------------
# run configs, anchor scores and ground truth

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
CONFIG_KEYS = [prefix + name for prefix, fields in _SECTIONS.items() for name in fields]
NUMBERS = st.sampled_from(["0", "1", "-5", "0.15", "1.5", "28", "360", "1e400", "inf", "-inf", "nan", "x"])
# the list values: colon-joined triples, comma-separated
LIST_KEYS = ["scene.texture_poor_arcs", "scene.query_pans"]
LISTS = st.lists(st.lists(NUMBERS, min_size=2, max_size=3).map(":".join), min_size=1, max_size=2).map(", ".join)
CONFIG_LINES = st.one_of(
    st.builds("{} = {}".format, st.sampled_from(CONFIG_KEYS), NUMBERS | TOKENS),
    st.builds("{} = {}".format, st.sampled_from(LIST_KEYS), LISTS),
    st.lists(TOKENS, max_size=4).map(" ".join),
)

def _check_config(path):
    """Parse path; a config that parses must be one synth and the localizer can run."""
    try:
        scene, pipe = parse_run_config(path)
    except ConfigError:
        return
    intr = scene.intrinsics()
    assert np.isfinite([intr.fx, intr.fy]).all() and min(intr.fx, intr.fy) > 0
    assert pipe == PipelineConfig(RansacConfig(rng_seed=pipe.ransac.rng_seed))
    # any seed gives every frame a RANSAC stream
    np.random.default_rng(_frame_seed(pipe, 0))


@FIXED
@given(st.lists(CONFIG_LINES, max_size=8))
def test_parse_run_config_generated(path, lines):
    # parsing stops at the first bad line, so each line is also tried alone
    for text in [*lines, "\n".join(lines)]:
        path.write_text(text + "\n")
        _check_config(path)


@FIXED
@given(st.sampled_from(sorted(CONFIGS.glob("*.cfg"))), st.lists(MUTATION, max_size=3))
def test_parse_run_config_mutated(path, cfg, mutations):
    path.write_text(_mutate(cfg.read_text(), mutations))
    _check_config(path)


def _load_or_exit_io(load, path):
    """load(path), or None where it raises the format error, which the CLI ends with exit code 3."""
    try:
        return load(path)
    except FormatError:
        return None


frame_ids = st.integers(-(10**6), 10**6)


@FIXED
@given(st.dictionaries(frame_ids, st.floats(0.0, 1.0), max_size=4), st.lists(MUTATION, max_size=3))
def test_load_scores_mutated(path, scores, mutations):
    save_scores(scores, path)
    path.write_text(_mutate(path.read_text(), mutations))
    out = _load_or_exit_io(load_scores, path)
    if not mutations:
        assert out == scores
    elif out is not None:
        assert all(isinstance(k, int) and isinstance(v, float) and _finite(v) for k, v in out.items())


@FIXED
@given(st.lists(st.lists(TOKENS, max_size=4).map(" ".join), max_size=6))
def test_load_scores_generated(path, lines):
    path.write_text("\n".join(["ANCHORLOC_SCORES 1", *lines]) + "\n")
    out = _load_or_exit_io(load_scores, path)
    assert _finite(list((out or {}).values()))


@FIXED
@given(st.dictionaries(frame_ids, st.floats(0.0, 1.0), max_size=4), st.integers(0, 10**6), NONFINITE)
def test_load_scores_rejects_nonfinite(path, scores, k, token):
    save_scores(scores, path)
    path.write_text(_inject(path.read_text(), k, token))
    assert _load_or_exit_io(load_scores, path) is None


ground_truth = st.lists(
    st.builds(SimpleNamespace, id=frame_ids, timestamp=finite, pose=poses),
    max_size=4,
    unique_by=lambda f: f.id,
)


def _check_ground_truth(path):
    out = _load_or_exit_io(load_ground_truth, path)
    for ts, pose in (out or {}).values():
        assert isinstance(ts, float) and _finite(ts) and _pose_ok(pose)
    return out


@FIXED
@given(ground_truth, st.lists(MUTATION, max_size=3))
def test_load_ground_truth_mutated(path, frames, mutations):
    save_ground_truth(frames, path)
    path.write_text(_mutate(path.read_text(), mutations))
    out = _check_ground_truth(path)
    if not mutations:
        assert sorted(out) == sorted(f.id for f in frames)


@FIXED
@given(st.lists(st.lists(TOKENS, min_size=8, max_size=10).map(" ".join), max_size=6))
def test_load_ground_truth_generated(path, lines):
    path.write_text("\n".join(["ANCHORLOC_GT 1", *lines]) + "\n")
    _check_ground_truth(path)


@FIXED
@given(ground_truth, st.integers(0, 10**6), NONFINITE)
def test_load_ground_truth_rejects_nonfinite(path, frames, k, token):
    save_ground_truth(frames, path)
    path.write_text(_inject(path.read_text(), k, token))
    assert _load_or_exit_io(load_ground_truth, path) is None
