import shutil

import pytest

from anchorloc.cli import main
from anchorloc.metrics import TRAJ_HEADER
from test_config import FORMER_SCENE_KEYS

CFG = """
scene.rng_seed = 11
scene.landmark_count = 2200
scene.aliased_group_count = 20
scene.aliased_group_size = 4
scene.n_database_frames = 60
scene.n_query_frames = 40
scene.fx = 420
scene.fy = 420
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Dataset + reference model built once through the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "run.cfg"
    cfg.write_text(CFG)
    assert main(["synth", "--config", str(cfg), "--out", str(root / "data")]) == 0
    assert (
        main(
            [
                "build-ref",
                "--dataset",
                str(root / "data"),
                "--out",
                str(root / "ref.txt"),
            ]
        )
        == 0
    )
    return root


def _localize(workdir, method, out, extra=()):
    data = workdir / "data"
    argv = [
        "localize",
        "--method",
        method,
        "--sequence",
        str(data / "query.txt"),
        "--config",
        str(workdir / "run.cfg"),
        "--out",
        str(out),
        "--gt",
        str(data / "gt_query.txt"),
    ]
    if method in ("proposed", "single"):
        argv += ["--model", str(workdir / "ref.txt")]
    if method == "proposed":
        argv += ["--anchors", str(data / "anchor_scores.txt")]
    return main(argv + list(extra))


def test_proposed_runs_deterministic(workdir, capsys):
    assert _localize(workdir, "proposed", workdir / "run1") == 0
    assert _localize(workdir, "proposed", workdir / "run2") == 0
    capsys.readouterr()
    t1 = (workdir / "run1" / "trajectory_proposed.txt").read_bytes()
    t2 = (workdir / "run2" / "trajectory_proposed.txt").read_bytes()
    assert t1 == t2
    e1 = (workdir / "run1" / "events_proposed.log").read_bytes()
    e2 = (workdir / "run2" / "events_proposed.log").read_bytes()
    assert e1 == e2


def test_baseline_methods_and_eval_table(workdir, capsys):
    assert _localize(workdir, "single", workdir / "run_single") == 0
    assert _localize(workdir, "onthefly", workdir / "run_fly") == 0
    _localize(workdir, "proposed", workdir / "run1")
    capsys.readouterr()
    code = main(
        [
            "eval",
            "--gt",
            str(workdir / "data" / "gt_query.txt"),
            "--out",
            str(workdir / "table.txt"),
            str(workdir / "run1" / "trajectory_proposed.txt"),
            str(workdir / "run_single" / "trajectory_single.txt"),
            str(workdir / "run_fly" / "trajectory_onthefly.txt"),
        ]
    )
    assert code == 0
    table = (workdir / "table.txt").read_text()
    out = capsys.readouterr().out
    assert table.strip() == out.strip()
    lines = table.splitlines()
    assert lines[0].startswith("Method")
    assert {l.split()[0] for l in lines[2:]} == {"proposed", "single", "onthefly"}


def test_export_ply(workdir, capsys):
    ply = workdir / "cloud.ply"
    assert main(["export", "--model", str(workdir / "ref.txt"), "--ply", str(ply)]) == 0
    capsys.readouterr()
    head = ply.read_text().splitlines()[:2]
    assert head == ["ply", "format ascii 1.0"]


def test_exit_code_config_error(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("scene.bogus = 1\n")
    assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "d")]) == 2
    bad.write_text("scene.landmark_count = abc\n")
    assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "d")]) == 2
    # scene values that would crash synth or give it a broken dataset, and
    # the keys that became synth constants
    for line in (
        "scene.fx = nan",
        "scene.fx = inf",
        "scene.fy = 0",
        "scene.aliased_group_count = -3",
        "scene.query_pans = 5:10:nan",
        *(f"{key} = 1" for key in FORMER_SCENE_KEYS),
    ):
        bad.write_text(line + "\n")
        assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "d")]) == 2, line
    assert not (tmp_path / "d").exists()
    # a negative scene seed, from the config or from --seed
    bad.write_text("scene.rng_seed = -3\n")
    assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "d")]) == 2
    assert main(["synth", "--config", str(workdir / "run.cfg"), "--seed", "-1", "--out", str(tmp_path / "d")]) == 2
    # a RANSAC seed that is no integer ends the run before the localizer starts
    for line in ("pipeline.ransac.rng_seed = 1.5", "pipeline.ransac.rng_seed = abc"):
        bad.write_text(CFG + line + "\n")
        assert _localize(workdir, "proposed", tmp_path / "out", extra=["--config", str(bad)]) == 2
    assert not (tmp_path / "out").exists()
    capsys.readouterr()


def test_exit_code_io_error(workdir, tmp_path, capsys):
    assert (
        main(
            [
                "export",
                "--model",
                str(tmp_path / "missing.txt"),
                "--ply",
                str(tmp_path / "x.ply"),
            ]
        )
        == 3
    )
    capsys.readouterr()


def test_exit_code_pipeline_error(workdir, tmp_path, capsys):
    # an anchor-score file with all zeros means no anchor clears the threshold
    scores = tmp_path / "zero_scores.txt"
    lines = ["ANCHORLOC_SCORES 1"]
    lines += [f"{100000 + i} 0.0" for i in range(40)]
    scores.write_text("\n".join(lines) + "\n")
    code = _localize(
        workdir,
        "proposed",
        tmp_path / "out",
        extra=["--anchors", str(scores)],
    )
    assert code == 4
    capsys.readouterr()


# case -> (file under the fixture's workdir, localize flag taking it, None
# for build-ref, "eval", "eval_trajectory" or "export", prefix of the last
# line to edit, token index, bad value or None to drop the token)
BAD_INPUTS = {
    "score": ("data/anchor_scores.txt", "--anchors", "", 1, "high"),
    "score_nan": ("data/anchor_scores.txt", "--anchors", "", 1, "nan"),
    "score_inf": ("data/anchor_scores.txt", "--anchors", "", 1, "inf"),
    # a third token: the last line reads "<id> 100039 0.5"
    "score_extra_token": ("data/anchor_scores.txt", "--anchors", "", 1, "100039 0.5"),
    "score_repeat": ("data/anchor_scores.txt", "--anchors", "", 0, "100000"),
    "gt": ("data/gt_query.txt", "--gt", "", 3, "x"),
    "gt_repeat": ("data/gt_query.txt", "--gt", "", 0, "100000"),
    "gt_inf": ("data/gt_query.txt", "--gt", "", 2, "inf"),
    # the ground truth written as a trajectory of registered frames, its last line edited
    "trajectory_pose_nan": ("data/gt_query.txt", "eval_trajectory", "", 2, "nan"),
    "trajectory_repeat": ("data/gt_query.txt", "eval_trajectory", "", 0, "100000"),
    # export_trajectory writes only anchor, registered and failed
    "trajectory_status_bogus": ("data/gt_query.txt", "eval_trajectory", "", 9, "bogus"),
    # a model the localizer never reads: its one-camera check would catch this
    "model_focal_nan": ("ref.txt", "export", "FRAME", 4, "nan"),
    "landmark_feature": ("ref.txt", "--model", "LANDMARK", 8, "999999"),
    # ids live in int64 arrays while a frame is matched and lifted
    "landmark_id_range": ("ref.txt", "--model", "LANDMARK", 1, str(2**63)),
    "track_fields": ("data/tracks_db.txt", None, "", 2, None),
    "track_feature": ("data/tracks_db.txt", None, "", 1, "999999"),
    # (last frame, feature 0) is listed on an earlier line too
    "track_repeat": ("data/tracks_db.txt", None, "", 1, "0"),
    # a posed FRAME with 6 pose values
    "database_pose_values": ("data/database.txt", None, "FRAME", 17, None),
    "eval_no_common_frame": ("data/gt_query.txt", "eval", "", 0, "999999"),
    "model_version": ("ref.txt", "--model", "ANCHORLOC_MODEL", 1, "x"),
    # the last frame's features replaced by a block of one float64 value
    "features_block": ("ref.txt", "--model", "FEATURES", 4, "AAAAAAAAAAA="),
    "database_features_block": ("data/database.txt", None, "FEATURES", 4, "not*base64"),
    "export_features_block": ("ref.txt", "export", "FEATURES", 4, "AAAA"),
    "sequence_last_status": ("data/query.txt", "--sequence", "FRAME", 3, "bogus"),
    # bundle adjustment models one camera: a frame with another focal length
    "database_camera": ("data/database.txt", None, "FRAME", 4, "421.0"),
    "sequence_camera": ("data/query.txt", "--sequence", "FRAME", 4, "421.0"),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_exit_code_bad_input_file(workdir, tmp_path, capsys, case):
    rel, flag, prefix, k, value = BAD_INPUTS[case]
    lines = (workdir / rel).read_text().splitlines()
    if flag == "eval_trajectory":
        lines = [TRAJ_HEADER, *(f"{line} registered -" for line in lines[1:])]
    i = max(i for i in range(len(lines)) if lines[i].startswith(prefix))
    original = lines[i]
    tok = original.split()
    if value is None:
        del tok[k]
    else:
        tok[k] = value
    lines[i] = " ".join(tok)
    bad = tmp_path / rel.split("/")[-1]
    bad.write_text("\n".join(lines) + "\n")
    if flag is None:
        for name in ("database.txt", "tracks_db.txt"):
            if not (tmp_path / name).exists():
                shutil.copy(workdir / "data" / name, tmp_path)
        code = main(["build-ref", "--dataset", str(tmp_path), "--out", str(tmp_path / "out.txt")])
    elif flag == "eval":
        # a trajectory of the one frame the edit took out of the ground truth
        traj = tmp_path / "trajectory.txt"
        traj.write_text(f"{TRAJ_HEADER}\n{original} registered -\n")
        code = main(["eval", "--gt", str(bad), str(traj)])
    elif flag == "eval_trajectory":
        code = main(["eval", "--gt", str(workdir / rel), str(bad)])
    elif flag == "export":
        code = main(["export", "--model", str(bad), "--ply", str(tmp_path / "x.ply")])
    else:
        # the later flag overrides the fixture's file
        code = _localize(workdir, "proposed", tmp_path / "out", extra=[flag, str(bad)])
    assert code == 3
    capsys.readouterr()


# case -> (expected exit code, argv given the workdir, the undecodable file
# and a scratch directory)
NON_UTF8_INPUTS = {
    "config": (2, lambda w, bad, tmp: ["synth", "--config", bad, "--out", tmp / "d"]),
    "model": (3, lambda w, bad, tmp: ["export", "--model", bad, "--ply", tmp / "x.ply"]),
    "sequence": (3, lambda w, bad, tmp: _localize_argv(w, tmp / "out", ["--sequence", bad])),
    "gt": (3, lambda w, bad, tmp: _localize_argv(w, tmp / "out", ["--gt", bad])),
    "score": (3, lambda w, bad, tmp: _localize_argv(w, tmp / "out", ["--anchors", bad])),
    "tracks": (3, lambda w, bad, tmp: ["build-ref", "--dataset", bad.parent, "--out", tmp / "r.txt"]),
    "trajectory": (3, lambda w, bad, tmp: ["eval", "--gt", w / "data" / "gt_query.txt", bad]),
}


def _localize_argv(workdir, out, extra):
    data = workdir / "data"
    return [
        "localize", "--sequence", data / "query.txt", "--config", workdir / "run.cfg", "--out", out,
        "--gt", data / "gt_query.txt", "--model", workdir / "ref.txt",
        "--anchors", data / "anchor_scores.txt", *extra,
    ]


@pytest.mark.parametrize("case", list(NON_UTF8_INPUTS))
def test_exit_code_non_utf8_input(workdir, tmp_path, capsys, case):
    code, argv = NON_UTF8_INPUTS[case]
    shutil.copy(workdir / "data" / "database.txt", tmp_path)
    bad = tmp_path / "tracks_db.txt"  # the name build-ref reads; the other commands take any
    bad.write_bytes(b"\xff\xfe not text\n")
    assert main([str(a) for a in argv(workdir, bad, tmp_path)]) == code
    capsys.readouterr()


@pytest.mark.parametrize("method, code", [("onthefly", 3), ("single", 0)])
def test_localize_mixed_cameras(workdir, tmp_path, capsys, method, code):
    """onthefly bundle-adjusts the sequence with one camera; single uses each frame's own."""
    seq = tmp_path / "query.txt"
    seq.write_text((workdir / "data" / "query.txt").read_text().replace(" 420.0 420.0 ", " 421.0 420.0 ", 1))
    assert _localize(workdir, method, tmp_path / "out", extra=["--sequence", str(seq)]) == code
    capsys.readouterr()


def test_localize_sequence_reusing_reference_id(workdir, tmp_path, capsys):
    """The augmented model holds reference and sequence frames under one id each."""
    seq = tmp_path / "query.txt"
    text = (workdir / "data" / "query.txt").read_text()
    seq.write_text(text.replace("FRAME 100000 ", "FRAME 5 ", 1).replace("FEATURES 100000 ", "FEATURES 5 ", 1))
    assert _localize(workdir, "proposed", tmp_path / "out", extra=["--sequence", str(seq)]) == 3
    assert "frame id 5" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("method, flag", [("proposed", "--anchors"), ("onthefly", "--gt")])
def test_localize_missing_flag_writes_nothing(workdir, tmp_path, capsys, method, flag):
    """A missing required flag exits 2 before --out is created."""
    data = workdir / "data"
    argv = [
        "localize", "--method", method, "--sequence", data / "query.txt", "--config", workdir / "run.cfg",
        "--out", tmp_path / "out", "--model", workdir / "ref.txt",
        "--anchors", data / "anchor_scores.txt", "--gt", data / "gt_query.txt",
    ]
    i = argv.index(flag)
    del argv[i : i + 2]
    assert main([str(a) for a in argv]) == 2
    assert f"{flag} is required" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("method", ["proposed", "single"])
def test_exit_code_missing_model(workdir, tmp_path, capsys, method):
    data = workdir / "data"
    argv = [
        "localize", "--method", method, "--sequence", data / "query.txt", "--config", workdir / "run.cfg",
        "--out", tmp_path / "out", "--anchors", data / "anchor_scores.txt",
    ]
    assert main([str(a) for a in argv]) == 2
    assert "--model is required" in capsys.readouterr().err
