"""End-to-end acceptance gate.

Each test pins one release criterion: full-scenario registration rates
and accuracy, frozen-reference bit-identity, solver correctness at scale,
bundle convergence, Jacobian correctness, CLI determinism, metric
arithmetic, and recovery from a full occlusion gap.
"""

import pathlib
import time
from dataclasses import replace

import numpy as np
import pytest

from anchorloc.baselines import onthefly_sfm, single_image_localize
from anchorloc.cli import main as cli_main
from anchorloc.config import parse_run_config
from anchorloc.geom import Pose, pose_jacobian_many, project_many
from anchorloc.matching import global_descriptor, retrieve_top_k
from anchorloc.metrics import TrajectoryEntry, compute_metrics, position_error
from anchorloc.model import Frame
from anchorloc.pipeline import _BA_WINDOW, PipelineConfig, detector_from_scores, run_pipeline
from anchorloc.solvers import (
    FreezeMask,
    RansacConfig,
    TriangulationConfig,
    bundle_adjust,
    ransac_pnp,
    triangulate_many,
    umeyama_similarity,
)
from anchorloc.solvers.pnp import solve_p3p_block
from anchorloc.solvers.triangulation import ACCEPTED
from anchorloc.synth import DESCRIPTOR_DIM, anchor_scores, build_reference_model, generate_scene
from conftest import (
    SMALL_SCENE,
    mean_reprojection_error,
    no_features,
    points_in_front,
    project,
    query_gt,
    random_pose,
    random_rotation,
    rotation_angle,
)
from test_solvers_bundle import _ring_model

ROOT = pathlib.Path(__file__).resolve().parents[1]
RUNTIME_BUDGET_S = 300.0


def _query_frames(dataset):
    intr = dataset.intrinsics()
    return [
        Frame(sf.id, sf.timestamp, intr, sf.features, None, "pending")
        for sf in dataset.query
    ]


@pytest.fixture(scope="session")
def scenario():
    """The shipped full-scale scenario, all three methods, timed by stage."""
    stages = {}
    t0 = last = time.perf_counter()

    def lap(name):
        nonlocal last
        now = time.perf_counter()
        stages[name] = now - last
        last = now

    scene_cfg, pipe_cfg = parse_run_config(ROOT / "configs" / "adversarial.cfg")
    dataset = generate_scene(scene_cfg)
    reference = build_reference_model(dataset)
    scores = anchor_scores(dataset)
    gt = query_gt(dataset)
    lap("synth+build-ref")

    single = single_image_localize(reference, _query_frames(dataset), pipe_cfg)
    lap("single")
    _, onthefly = onthefly_sfm(_query_frames(dataset), pipe_cfg, gt)
    lap("onthefly")
    proposed = run_pipeline(reference, _query_frames(dataset), detector_from_scores(scores), pipe_cfg)
    lap("proposed")
    elapsed = time.perf_counter() - t0
    return {
        "dataset": dataset,
        "reference": reference,
        "gt": gt,
        "proposed": proposed,
        "single": single,
        "onthefly": onthefly,
        "elapsed": elapsed,
        "stage_elapsed": stages,
    }


def _proposed_registered_ids(result):
    return {
        e.frame_id for e in result.frame_events if e.status in ("anchor", "registered")
    }


def test_scenario_registration_rates_and_accuracy(scenario):
    n = len(scenario["dataset"].query)
    proposed_ids = _proposed_registered_ids(scenario["proposed"])
    assert len(proposed_ids) >= 0.99 * n

    gt = scenario["gt"]
    errs = np.array(
        [
            position_error(e.pose, gt[e.frame_id])
            for e in scenario["proposed"].frame_events
            if e.status in ("anchor", "registered") and e.pose is not None and e.frame_id in gt
        ]
    )
    # scene major radius is 100, so 1% of it is 1.0 scene units
    assert np.median(errs) <= 1.0

    single_n = sum(1 for r in scenario["single"].frames if r.status == "registered")
    assert single_n <= 0.80 * n

    fly_n = sum(1 for r in scenario["onthefly"].frames if r.status == "registered")
    assert fly_n < len(proposed_ids)


def test_scenario_runtime_budget(scenario):
    stages = ", ".join(f"{k} {v:.1f} s" for k, v in scenario["stage_elapsed"].items())
    assert scenario["elapsed"] <= RUNTIME_BUDGET_S, f"stages: {stages}"


def test_scenario_frozen_reference_bit_identity(scenario):
    events = scenario["proposed"].ba_events
    assert len(events) >= 30
    for ev in events:
        assert ev.frozen_digest_before == ev.frozen_digest_after


def test_scenario_bundle_cost_never_increases(scenario):
    for ev in scenario["proposed"].ba_events:
        assert ev.cost_after <= ev.cost_before


def test_scenario_bundle_window_bounds_free_cameras(scenario):
    free = [ev.free_cameras for ev in scenario["proposed"].ba_events]
    assert max(free) == _BA_WINDOW


def test_scenario_retrieval_aliased_sector_top1_below_080(scenario):
    """Retrieval alone is ambiguous away from the unique object."""
    dataset = scenario["dataset"]
    cfg = dataset.config
    db_ids = np.array([sf.id for sf in dataset.database])
    db_descriptors = np.array([global_descriptor(sf.features) for sf in dataset.database])
    db_angle = {}
    for sf in dataset.database:
        c = sf.pose.center()
        db_angle[sf.id] = np.arctan2(c[1], c[0])
    station_spacing = 2 * np.pi / cfg.aliased_group_size

    hits = []
    for sf in dataset.query:
        c = sf.pose.center()
        ang = np.arctan2(c[1], c[0])
        # aliased sectors: away from the unique insert-point object at angle 0
        if abs(np.mod(np.degrees(ang) + 180.0, 360.0) - 180.0) < 30.0:
            continue
        top = retrieve_top_k(global_descriptor(sf.features), db_ids, db_descriptors, 1)
        diff = np.abs(np.mod(db_angle[top[0]] - ang + np.pi, 2 * np.pi) - np.pi)
        hits.append(diff < station_spacing / 2.0)
    assert len(hits) > 100
    assert np.mean(hits) < 0.80


# ---------------------------------------------------------------------------
# solver oracles at scale


def test_p3p_rotation_error_at_scale(intrinsics):
    rng = np.random.default_rng(100)
    poses, world, pixels = [], [], []
    for _ in range(1000):
        pose = random_pose(rng)
        pts = points_in_front(rng, pose, 3)
        poses.append(pose)
        world.append(pts)
        pixels.append([project(intrinsics, pose, p) for p in pts])
    # one block of 1,000 samples, as RANSAC solves its blocks
    rows, R, _, degenerate = solve_p3p_block(np.array(world), np.array(pixels), intrinsics)
    assert not degenerate.any()
    for i, pose in enumerate(poses):
        cands = R[rows == i]
        assert len(cands)
        assert min(rotation_angle(Rc, pose.R) for Rc in cands) < 1e-6


def test_ransac_pnp_recovers_planted_inliers_at_scale(intrinsics):
    rng = np.random.default_rng(101)
    cfg = RansacConfig(rng_seed=9)
    for trial in range(1000):
        pose = random_pose(rng)
        pts = points_in_front(rng, pose, 30)
        pixels = np.array([project(intrinsics, pose, p) for p in pts])
        outliers = rng.choice(30, size=9, replace=False)  # 30% planted outliers
        for i in outliers:
            # push far past the inlier threshold in a random direction
            off = rng.uniform(5.0, 50.0, 2) * rng.choice([-1.0, 1.0], 2)
            pixels[i] = pixels[i] + off * cfg.inlier_threshold
        _, inliers = ransac_pnp(pts, pixels, intrinsics, replace(cfg, rng_seed=trial))
        assert sorted(inliers) == sorted(set(range(30)) - set(outliers))


def test_triangulation_error_at_scale(intrinsics):
    rng = np.random.default_rng(102)
    points, Rs, ts, pixels = [], [], [], []
    for _ in range(1000):
        X = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(8, 25)])
        poses = []
        for k in range(2):
            c = np.array([3.0 * k - 1.5, rng.normal(0, 0.3), 0.0])
            f = X - c
            f /= np.linalg.norm(f)
            up = np.array([0.0, 1.0, 0.0])
            x = np.cross(up, f)
            x /= np.linalg.norm(x)
            y = np.cross(f, x)
            R = np.stack([x, y, f])
            poses.append(Pose.from_rt(R, -R @ c))
        points.append(X)
        Rs.append([p.R for p in poses])
        ts.append([p.t for p in poses])
        pixels.append([project(intrinsics, p, X) for p in poses])
    # the 1,000 two-view problems in one stacked call
    got, code = triangulate_many(
        np.array(Rs), np.array(ts), np.array(pixels), intrinsics, TriangulationConfig(min_angle_deg=0.1)
    )
    assert np.all(code == ACCEPTED)
    assert np.linalg.norm(got - np.array(points), axis=1).max() < 1e-8


def test_umeyama_error_at_scale():
    rng = np.random.default_rng(103)
    for _ in range(1000):
        src = rng.normal(scale=3.0, size=(10, 3))
        s = rng.uniform(0.2, 5.0)
        R = random_rotation(rng)
        t = rng.normal(scale=10.0, size=3)
        sim = umeyama_similarity(src, s * src @ R.T + t)
        assert abs(sim.scale - s) < 1e-9 * max(1.0, s)
        # arccos-based angle saturates around sqrt(eps); compare entries
        assert np.abs(sim.R - R).max() < 1e-9
        assert np.linalg.norm(sim.t - t) < 1e-9 * max(1.0, np.linalg.norm(t))


# ---------------------------------------------------------------------------
# bundle adjustment convergence


def test_bundle_perturb_and_recover():
    model = _ring_model()
    model.frames[2].status = "registered"
    mask = FreezeMask(
        frozen_frame_ids={0, 1, 3, 4}, frozen_landmark_ids=set(model.landmarks)
    )
    pose = model.frames[2].pose
    tweak = np.concatenate([np.radians(0.5) * np.array([0.0, 1.0, 0.0]), np.zeros(3)])
    model.frames[2].pose = Pose(pose.q.copy(), pose.t * 1.01).retract(tweak)
    res = bundle_adjust(model, mask)
    assert res.cost_after <= res.cost_before
    assert res.iterations <= 25
    assert mean_reprojection_error(model) < 1e-6


# ---------------------------------------------------------------------------
# analytic Jacobians


def test_jacobians_match_central_differences_at_scale(intrinsics):
    rng = np.random.default_rng(104)
    h = 1e-6
    checked = 0
    while checked < 1000:
        pose = random_pose(rng)
        p = points_in_front(rng, pose, 1)[0]
        uv = project(intrinsics, pose, p)
        if not intrinsics.in_bounds(uv):
            continue
        # the pose block as the solvers take it, the point block as bundle adjustment forms it
        J_pose = pose_jacobian_many(pose.R, pose.t, intrinsics, p[None])[0]
        J_point = J_pose[:, 3:] @ pose.R

        def residual(at, x):
            return project_many(at.R, at.t, intrinsics, x[None])[0][0] - uv

        num_pose = np.zeros((2, 6))
        for k in range(6):
            d = np.zeros(6)
            d[k] = h
            num_pose[:, k] = (residual(pose.retract(d), p) - residual(pose.retract(-d), p)) / (2 * h)
        num_point = np.zeros((2, 3))
        for k in range(3):
            d = np.zeros(3)
            d[k] = h
            num_point[:, k] = (residual(pose, p + d) - residual(pose, p - d)) / (2 * h)
        for J, num in ((J_pose, num_pose), (J_point, num_point)):
            scale = max(1.0, np.abs(num).max())
            assert np.abs(J - num).max() / scale < 1e-5
        checked += 1


# ---------------------------------------------------------------------------
# CLI determinism


def test_cli_localize_byte_identical(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "scene.rng_seed = 11\n"
        "scene.landmark_count = 2200\n"
        "scene.aliased_group_count = 20\n"
        "scene.aliased_group_size = 4\n"
        "scene.n_database_frames = 60\n"
        "scene.n_query_frames = 40\n"
        "scene.fx = 420\n"
        "scene.fy = 420\n"
    )
    data = tmp_path / "data"
    assert cli_main(["synth", "--config", str(cfg), "--out", str(data)]) == 0
    ref = tmp_path / "ref.txt"
    assert cli_main(["build-ref", "--dataset", str(data), "--out", str(ref)]) == 0
    for run in ("run1", "run2"):
        code = cli_main(
            [
                "localize",
                "--method",
                "proposed",
                "--model",
                str(ref),
                "--sequence",
                str(data / "query.txt"),
                "--anchors",
                str(data / "anchor_scores.txt"),
                "--gt",
                str(data / "gt_query.txt"),
                "--config",
                str(cfg),
                "--out",
                str(tmp_path / run),
            ]
        )
        assert code == 0
    capsys.readouterr()
    for name in ("trajectory_proposed.txt", "events_proposed.log"):
        b1 = (tmp_path / "run1" / name).read_bytes()
        b2 = (tmp_path / "run2" / name).read_bytes()
        assert b1 == b2


# ---------------------------------------------------------------------------
# metric arithmetic


def test_metric_arithmetic_exact():
    gt = {i: np.zeros(3) for i in range(2280)}
    ok = [
        TrajectoryEntry(i, float(i), "registered", Pose(), 0.0) for i in range(2247)
    ]
    bad = [TrajectoryEntry(i, float(i), "failed") for i in range(2247, 2280)]
    rep = compute_metrics(ok + bad, gt)
    assert rep.registered == 2247 and rep.total == 2280
    assert round(100.0 * rep.fraction, 1) == 98.6

    gt3 = {i: np.zeros(3) for i in range(3)}
    entries = [
        TrajectoryEntry(0, 0.0, "registered", Pose(np.array([1.0, 0, 0, 0]), np.array([-1.0, 0, 0]))),
        TrajectoryEntry(1, 1.0, "registered", Pose(np.array([1.0, 0, 0, 0]), np.array([0, -2.0, 0]))),
        TrajectoryEntry(2, 2.0, "registered", Pose(np.array([1.0, 0, 0, 0]), np.array([0, 0, -9.0]))),
    ]
    rep3 = compute_metrics(entries, gt3)
    assert rep3.mae == 4.0 and rep3.median == 2.0


# ---------------------------------------------------------------------------
# occlusion-gap recovery


def test_occlusion_gap_fails_and_recovers(small_reference, small_scene, small_scores):
    intr = small_scene.intrinsics()
    gap = range(30, 50)
    seq = []
    for i, sf in enumerate(small_scene.query):
        feats = no_features(DESCRIPTOR_DIM) if i in gap else sf.features
        seq.append(Frame(sf.id, sf.timestamp, intr, feats, None, "pending"))
    result = run_pipeline(
        small_reference, seq, detector_from_scores(small_scores), PipelineConfig()
    )
    status = {e.frame_id: e.status for e in result.frame_events}
    gap_ids = {small_scene.query[i].id for i in gap}
    failed = {fid for fid, s in status.items() if s == "failed"}
    assert failed == gap_ids
    # back on track within 3 frames after the gap
    after = [small_scene.query[i].id for i in range(50, 53)]
    assert any(status[fid] in ("registered", "anchor") for fid in after)
