import numpy as np
import pytest

from anchorloc.baselines import (
    InitializationFailure,
    onthefly_sfm,
    single_image_localize,
)
from anchorloc.pipeline import K_RETRIEVAL, PipelineConfig
from conftest import query_frames, query_gt


def _errors(report, gt):
    return {
        r.frame_id: float(np.linalg.norm(r.pose.center() - gt[r.frame_id]))
        for r in report.frames
        if r.status == "registered" and r.frame_id in gt
    }


def test_single_image_localizes_most_frames(small_scene, small_reference):
    seq = query_frames(small_scene)
    gt = query_gt(small_scene)
    report = single_image_localize(small_reference, seq, PipelineConfig())
    assert len(report.frames) == len(seq)
    errs = _errors(report, gt)
    assert len(errs) >= 0.7 * len(seq)
    assert np.median(list(errs.values())) < 1.0
    # every frame reports the retrieval candidates it was matched against
    assert {r.n_candidates for r in report.frames} == {K_RETRIEVAL}
    # stateless: the reference model is untouched
    assert all(f.status == "reference" for f in small_reference.frames.values())


def test_onthefly_registers_sweep_after_alignment():
    # a denser scene than the shared fixture: pure incremental SfM needs
    # more features per frame than map-based localization to keep its
    # chain alive
    from anchorloc.synth import SceneConfig, generate_scene

    dense = generate_scene(
        SceneConfig(
            rng_seed=11,
            landmark_count=2500,
            aliased_group_count=40,
            aliased_group_size=6,
            n_database_frames=120,
            n_query_frames=80,
            fx=420.0,
            fy=420.0,
        )
    )
    seq = query_frames(dense)
    gt = query_gt(dense)
    model, report = onthefly_sfm(seq, PipelineConfig(), gt)
    errs = _errors(report, gt)
    assert len(errs) >= 0.9 * len(seq)
    # aligned reconstruction lands near ground truth (scene units are
    # large: the chamber's major radius is 100)
    assert np.median(list(errs.values())) < 2.0
    # the returned model contains only query frames
    assert set(model.frames) <= {f.id for f in seq}
    # it registers copies; the caller's frames stay as they were
    assert all(f.status == "pending" and f.pose is None for f in seq)


def test_onthefly_needs_two_frames(small_scene):
    seq = query_frames(small_scene)[:1]
    with pytest.raises(InitializationFailure):
        onthefly_sfm(seq, PipelineConfig(), {})


def test_onthefly_init_failure_on_degenerate_sequence(small_scene):
    # two copies of the same frame: zero baseline, no triangulation support
    f = query_frames(small_scene)[0]
    twin = type(f)(f.id + 1, f.timestamp + 0.1, f.intrinsics, f.features, None, "pending")
    with pytest.raises(InitializationFailure):
        onthefly_sfm([f, twin], PipelineConfig(), {})
