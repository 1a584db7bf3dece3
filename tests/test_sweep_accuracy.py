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
        return {"registered": 300, "frames": 300, "median": 0.05, "largest": 0.2, "wall_s": 1.0}

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
        return {"registered": 240, "frames": 300, "median": 0.05, "largest": 1.2, "wall_s": 1.0}

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
