import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "scripts"))
import sweep_accuracy  # noqa: E402
from sweep_accuracy import paired_differences, parse_seeds  # noqa: E402


def test_parse_seeds_ranges_and_lists():
    assert parse_seeds("1-5") == [1, 2, 3, 4, 5]
    assert parse_seeds("7") == [7]
    assert parse_seeds("1,3,10-12") == [1, 3, 10, 11, 12]
    with pytest.raises(ValueError):
        parse_seeds("a-b")


def test_paired_differences_are_per_seed_percentages_of_the_parent():
    parent = [{"median": 0.05}, {"median": 0.04}, {"median": 0.02}]
    change = [{"median": 0.051}, {"median": 0.038}, {"median": 0.02}]
    diffs, s = paired_differences(parent, change)
    assert diffs == pytest.approx([2.0, -5.0, 0.0])
    assert s["mean"] == pytest.approx(-1.0)
    assert (s["min"], s["max"]) == (pytest.approx(-5.0), pytest.approx(2.0))
    assert s["stdev"] == pytest.approx(3.605551, rel=1e-6)
    assert s["signs"] == (1, 1, 1)


def test_scene_seeds_vary_the_scene_seed_in_alternating_runs(monkeypatch, capsys):
    runs = []

    def fake_sweep(root, seed, varied="ransac", method="proposed"):
        runs.append((root.name, seed, varied))
        return {"registered": 300, "frames": 300, "median": 0.05, "largest": 0.2, "wall_s": 1.0,
                "fingerprint": "0" * 64}

    monkeypatch.setattr(sweep_accuracy, "run_sweep", fake_sweep)
    sweep_accuracy.main(["parent", "change", "--scene-seeds", "3,5"])
    assert runs == [("parent", 3, "scene"), ("change", 3, "scene"), ("parent", 5, "scene"), ("change", 5, "scene")]
    assert capsys.readouterr().out.startswith("scene seed")
    runs.clear()
    sweep_accuracy.main(["parent", "change", "--seeds", "2"])
    assert runs == [("parent", 2, "ransac"), ("change", 2, "ransac")]
    with pytest.raises(SystemExit):
        sweep_accuracy.main(["parent", "change", "--seeds", "1", "--scene-seeds", "1"])


def test_method_picks_the_localizer_of_every_run(monkeypatch, capsys):
    runs = []

    def fake_sweep(root, seed, varied="ransac", method="proposed"):
        runs.append((root.name, seed, method))
        return {"registered": 240, "frames": 300, "median": 0.05, "largest": 1.2, "wall_s": 1.0,
                "fingerprint": "f" * 64}

    monkeypatch.setattr(sweep_accuracy, "run_sweep", fake_sweep)
    sweep_accuracy.main(["parent", "change", "--seeds", "4", "--method", "single"])
    assert runs == [("parent", 4, "single"), ("change", 4, "single")]
    assert "method single" in capsys.readouterr().out.splitlines()[0]
    runs.clear()
    sweep_accuracy.main(["parent", "change", "--seeds", "4"])
    assert runs == [("parent", 4, "proposed"), ("change", 4, "proposed")]
    runs.clear()
    sweep_accuracy.main(["parent", "change", "--seeds", "4", "--method", "onthefly"])
    assert runs == [("parent", 4, "onthefly"), ("change", 4, "onthefly")]
    with pytest.raises(SystemExit):
        sweep_accuracy.main(["parent", "change", "--method", "sfm"])


def test_fingerprints_are_printed_per_run_and_compared_per_seed(monkeypatch, capsys):
    """Each run's line ends in its fingerprint's first 12 hex digits; the last
    line counts the seeds whose parent and change fingerprints are equal."""
    digests = {("parent", 1): "ab" * 32, ("change", 1): "ab" * 32, ("parent", 2): "cd" * 32, ("change", 2): "ce" * 32}

    def fake_sweep(root, seed, varied="ransac", method="proposed"):
        return {"registered": 300, "frames": 300, "median": 0.05, "largest": 0.2, "wall_s": 1.0,
                "fingerprint": digests[root.name, seed]}

    monkeypatch.setattr(sweep_accuracy, "run_sweep", fake_sweep)
    sweep_accuracy.main(["parent", "change", "--seeds", "1,2"])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[-1] for line in lines[2:6]] == ["ab" * 6, "ab" * 6, "cd" * 6, "cececececece"]
    assert lines[1].endswith("fingerprint")
    assert lines[-1] == "fingerprints equal on 1 of 2 seeds"


def test_run_sweep_fingerprints_the_frames_of_a_real_run(tmp_path):
    """A checkout whose adversarial.cfg is the small demo config: run_sweep's
    fingerprint is the sha256 over each reported frame's id, status and pose
    bytes, as the same run in this process gives them."""
    import hashlib
    from dataclasses import replace

    from anchorloc import baselines, config, synth
    from anchorloc.model import Frame

    root = pathlib.Path(__file__).resolve().parents[1]
    (tmp_path / "src").symlink_to(root / "src")
    (tmp_path / "configs").mkdir()
    (tmp_path / "configs" / "adversarial.cfg").write_text((root / "configs" / "demo.cfg").read_text())
    run = sweep_accuracy.run_sweep(tmp_path, 0, method="single")

    scene, cfg = config.parse_run_config(root / "configs" / "demo.cfg")
    cfg = replace(cfg, ransac=replace(cfg.ransac, rng_seed=0))
    ds = synth.generate_scene(scene)
    frames = [Frame(sf.id, sf.timestamp, ds.intrinsics(), sf.features, None, "pending") for sf in ds.query]
    entries = baselines.single_image_localize(synth.build_reference_model(ds), frames, cfg).frames
    expected = hashlib.sha256()
    for e in entries:
        expected.update(f"{e.frame_id} {e.status}\n".encode())
        if e.pose is not None:
            expected.update(e.pose.q.tobytes() + e.pose.t.tobytes())
    assert run["fingerprint"] == expected.hexdigest()
    assert (run["frames"], run["registered"]) == (len(entries), sum(e.pose is not None for e in entries))
