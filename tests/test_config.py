import pathlib
import re

import pytest

from anchorloc import synth
from anchorloc.config import _SECTIONS, ConfigError, parse_run_config

ROOT = pathlib.Path(__file__).resolve().parents[1]

# the pipeline keys that are now module constants (see README.md)
REMOVED_KEYS = [
    "pipeline.n_temporal",
    "pipeline.k_retrieval",
    "pipeline.k_spatial",
    "pipeline.ba_period",
    "pipeline.min_2d3d",
    "pipeline.anchor_threshold",
    "pipeline.match_ratio",
    "pipeline.max_view_angle_deg",
    "pipeline.ransac.max_iterations",
    "pipeline.ransac.inlier_threshold",
    "pipeline.ransac.min_inliers",
    "pipeline.ransac.confidence",
    "pipeline.bundle.max_lm_iterations",
    "pipeline.bundle.initial_damping",
    "pipeline.bundle.damping_up",
    "pipeline.bundle.damping_down",
    "pipeline.bundle.convergence_tol",
    "pipeline.bundle.huber_delta",
    "pipeline.triangulation.min_angle_deg",
    "pipeline.triangulation.max_reprojection_px",
]
# the scene keys that are now synth constants (see README.md)
FORMER_SCENE_KEYS = [
    "scene.major_radius",
    "scene.minor_radius",
    "scene.unique_count",
    "scene.unique_angle_deg",
    "scene.unique_spread_deg",
    "scene.descriptor_dim",
    "scene.descriptor_noise",
    "scene.pixel_noise",
    "scene.outlier_rate",
    "scene.db_sweep_z_offsets",
    "scene.width",
    "scene.height",
    "scene.max_depth_factor",
    "scene.min_depth_factor",
]


def _write(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return p


def test_parse_full_config(tmp_path):
    p = _write(
        tmp_path,
        """
        # comment line
        scene.rng_seed = 42
        scene.landmark_count = 1234   # trailing comment
        scene.texture_poor_arcs = 120:210:0.15, 300:330:0.5
        scene.query_pans = 230:252:28
        scene.fx = 420
        scene.fy = 430.5
        pipeline.ransac.rng_seed = 5
        """,
    )
    scene, pipe = parse_run_config(p)
    assert scene.rng_seed == 42
    assert scene.landmark_count == 1234
    assert scene.texture_poor_arcs == [(120.0, 210.0, 0.15), (300.0, 330.0, 0.5)]
    assert scene.query_pans == [(230, 252, 28.0)]
    assert (scene.fx, scene.fy) == (420.0, 430.5)
    assert scene.intrinsics().width == synth.WIDTH
    assert pipe.ransac.rng_seed == 5
    assert pipe.ransac.inlier_threshold == 4.0


def test_defaults_when_empty(tmp_path):
    scene, pipe = parse_run_config(_write(tmp_path, "# nothing here\n"))
    assert scene.landmark_count == 4000
    assert pipe.ransac.rng_seed == 0


def test_unknown_keys_rejected(tmp_path):
    for line in (
        "scene.bogus = 1",
        "pipeline.bogus = 1",
        "pipeline.ransac.bogus = 1",
        "nonsense = 1",
        "pipeline.ransac = 1",
        # removed options: the mutual check and the backward pass always run
        "pipeline.mutual_match = true",
        "pipeline.backward_pass = false",
    ):
        with pytest.raises(ConfigError):
            parse_run_config(_write(tmp_path, line + "\n"))


def _accepted_keys():
    return [prefix + name for prefix, fields in _SECTIONS.items() for name in fields]


def test_only_scene_keys_and_the_ransac_seed_accepted(tmp_path):
    keys = _accepted_keys()
    assert [k for k in keys if not k.startswith("scene.")] == ["pipeline.ransac.rng_seed"]
    assert len(REMOVED_KEYS) == 20
    for key in REMOVED_KEYS:
        with pytest.raises(ConfigError, match="unknown key"):
            parse_run_config(_write(tmp_path, f"{key} = 1\n"))


def test_former_scene_keys_are_unknown(tmp_path):
    assert len(FORMER_SCENE_KEYS) == 14 and len(_accepted_keys()) == 11
    for key in FORMER_SCENE_KEYS:
        with pytest.raises(ConfigError, match="unknown key"):
            parse_run_config(_write(tmp_path, f"{key} = 1\n"))


def test_every_key_is_set_by_a_config_or_workload():
    """A key that no shipped config or benchmark workload sets is a setting
    nothing varies; it belongs in a module constant."""
    sources = [*sorted((ROOT / "configs").glob("*.cfg")), ROOT / "perfbench" / "workloads.py"]
    text = "\n".join(p.read_text() for p in sources)
    unset = [key for key in _accepted_keys() if not re.search(re.escape(key) + r"\s*=", text)]
    assert not unset, f"keys set by no config or workload: {unset}"


def test_malformed_lines_rejected(tmp_path):
    with pytest.raises(ConfigError):
        parse_run_config(_write(tmp_path, "scene.rng_seed 7\n"))
    with pytest.raises(ConfigError):
        parse_run_config(_write(tmp_path, "scene.texture_poor_arcs = 10:20\n"))
    with pytest.raises(ConfigError):
        parse_run_config(_write(tmp_path, "scene.query_pans = 1:2:3:4\n"))
    # numbers that do not parse are config errors too, not raw ValueErrors
    with pytest.raises(ConfigError, match="run.cfg:1"):
        parse_run_config(_write(tmp_path, "scene.landmark_count = abc\n"))
    with pytest.raises(ConfigError, match="run.cfg:1"):
        parse_run_config(_write(tmp_path, "scene.texture_poor_arcs = 1:2:x\n"))
    # an infinite pan bound has no frame index
    with pytest.raises(ConfigError, match="run.cfg:1"):
        parse_run_config(_write(tmp_path, "scene.query_pans = inf:1:1\n"))


def test_invalid_values_surface_as_config_errors(tmp_path):
    # dataclass invariants are reported as ConfigError, not raw exceptions
    with pytest.raises(ConfigError, match="density"):
        parse_run_config(_write(tmp_path, "scene.texture_poor_arcs = 0:90:1.5\n"))
    with pytest.raises(ConfigError, match="fx and fy"):
        parse_run_config(_write(tmp_path, "scene.fy = -420\n"))
    for value in ("1.5", "abc"):
        with pytest.raises(ConfigError, match="rng_seed"):
            parse_run_config(_write(tmp_path, f"pipeline.ransac.rng_seed = {value}\n"))


def test_shipped_configs_parse():
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1] / "configs"
    scene, _ = parse_run_config(root / "adversarial.cfg")
    assert scene.texture_poor_arcs == [(120.0, 210.0, 0.15)]
    assert scene.query_pans == [(230, 252, 28.0)]
    demo_scene, _ = parse_run_config(root / "demo.cfg")
    assert demo_scene.n_query_frames <= scene.n_query_frames
