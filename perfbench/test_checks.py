"""The benchmark's output checks reject wrong outputs.

Each test runs a workload on a scene the size of the unit tests' small
scene. The first three spoil one output after the operation and expect
that operation to count as failed; the last leaves a layer untraced and
expects the trace not to add up.
"""

import numpy as np

from anchorloc.synth import SceneConfig
from perfbench import checks, tracing, workloads

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

SMALL_CFG = """
scene.rng_seed = 3
scene.landmark_count = 1200
scene.aliased_group_count = 20
scene.aliased_group_size = 4
scene.n_database_frames = 80
scene.n_query_frames = 80
scene.fx = 420
scene.fy = 420
"""


def small_proposed():
    return workloads.Localization("proposed", scene=SMALL_SCENE, windows=((0, 80),))


def test_moved_pose_fails_its_operation():
    def move_one_pose(index, inputs, poses):
        if index == 1:
            fid = min(f for f, qt in poses.items() if qt is not None)
            q, t = poses[fid]
            # moving the center c = -R^T t by d moves t by -R d
            poses[fid] = (q, t - checks.rotation(q) @ np.array([2.0, 0.0, 0.0]))

    result = workloads.run(small_proposed(), seed=1, seconds=0, tamper=move_one_pose)
    first, second = result.rounds
    assert first.ops[0].problems == []
    assert second.ops[0].problems
    assert any("error" in p for p in second.ops[0].problems)
    assert any("differ from round 1" in p for p in second.ops[0].problems)
    assert result.failed == 1


def test_reference_landmark_changed_in_last_bit_fails_its_operation():
    def nudge_reference_landmark(index, inputs, poses):
        ref = inputs["reference"]
        lid = min(l.id for l in ref.landmarks.values() if l.origin == "reference")
        pos = ref.landmarks[lid].position
        pos[0] = np.nextafter(pos[0], np.inf)

    result = workloads.run(small_proposed(), seed=1, seconds=0, tamper=nudge_reference_landmark, min_rounds=1)
    assert result.rounds[0].ops[0].problems == ["reference poses or landmarks changed"]
    assert result.failed == 1


def test_second_cli_run_with_other_trajectory_bytes_fails_its_operation(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_CFG)

    def change_trajectory(index, rdir):
        if index == 1:
            path = rdir / "out_single" / "trajectory_single.txt"
            text = path.read_text()
            path.write_text(text.replace(" registered ", " registered  ", 1))

    result = workloads.run(workloads.CliDemo(cfg, workdir=tmp_path / "cli"), seed=1, seconds=0, tamper=change_trajectory)
    first, second = result.rounds
    assert [op.problems for op in first.ops] == [[]] * 6
    failed = {op.name: op.problems for op in second.ops if op.problems}
    assert failed == {"localize-single": ["trajectory_single.txt differs from round 1 in round 2"]}
    assert result.failed == 1


def test_untraced_top_level_call_fails_the_trace(monkeypatch):
    def traced_round(targets):
        monkeypatch.setattr(tracing, "TARGETS", targets)
        tracer = tracing.Tracer()
        with tracer.installed():
            result = workloads.run(small_proposed(), seed=1, seconds=0, tracer=tracer, min_rounds=1)
        assert result.failed == 0
        r = result.rounds[0]
        return tracing.coverage_problems([tracing.summarize(r.spans, r.counts, r.wall_s)])

    assert traced_round(tracing.TARGETS) == []
    problems = traced_round([t for t in tracing.TARGETS if t[1] != "build_reference_model"])
    assert len(problems) == 1 and "in no span" in problems[0]
