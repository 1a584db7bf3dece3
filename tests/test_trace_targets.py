"""The benchmark's tracer wraps functions by (module, attribute) name; each must resolve."""

import importlib

import numpy as np

from anchorloc import pipeline
from anchorloc.geom import CameraIntrinsics, Pose
from anchorloc.matching import FeatureSet
from anchorloc.model import Frame, Landmark, SfMModel
from perfbench.tracing import TARGETS, Tracer


def test_every_trace_target_resolves_to_a_callable():
    missing = []
    for module, attr, *_ in TARGETS:
        fn = getattr(importlib.import_module(module), attr, None)
        if not callable(fn):
            missing.append(f"{module}.{attr}")
    assert not missing, f"perfbench.tracing.TARGETS names no callable at: {', '.join(missing)}"


def test_pair_and_correspondence_counts_are_record_lengths():
    # the tracer counts len() of what match_features and lift_matches_to_3d
    # return; that must be the number of pairs and of correspondences
    rng = np.random.default_rng(0)
    d = rng.normal(size=(30, 8))
    fs = FeatureSet(rng.uniform(0, 100, (30, 2)), d / np.linalg.norm(d, axis=1)[:, None])
    intr = CameraIntrinsics(400.0, 400.0, 320.0, 240.0, 640, 480)
    model = SfMModel()
    model.add_frame(Frame(0, 0.0, intr, fs, Pose(), "reference"))
    for i in range(10):
        model.add_landmark(Landmark(i, np.zeros(3), "reference", [(0, i)]))
    frame = Frame(1, 1.0, intr, fs)
    with Tracer().installed() as tracer:
        matches, corrs, _, _ = pipeline.match_lift_pnp(model, frame, [0], pipeline.PipelineConfig())
    assert len(matches) == matches["query"].size == 30
    assert len(corrs) == corrs["landmark"].size == 10
    assert tracer.counts["matching.match_features.pairs"] == 30
    assert tracer.counts["model.lift_matches_to_3d.corrs"] == 10
