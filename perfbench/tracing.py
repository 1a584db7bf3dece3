"""Spans around the calls into each layer of anchorloc, recorded from outside.

The package's modules import each other's functions by name
(``from .solvers import bundle_adjust``), so a timer must replace the name
in the module that calls it: ``anchorloc.pipeline.bundle_adjust`` and
``anchorloc.baselines.bundle_adjust`` are wrapped separately, and wrapping
``anchorloc.solvers.bundle.bundle_adjust`` alone would catch nothing.

A span is ``[name, start, end, parent index, exception name or None]``.
Spans stay in memory until the run ends, one list per round. A span named
``bench.*`` is work the benchmark itself does inside the traced region
(building query frames, hashing the reference, counting free parameters
before a bundle adjustment); it is reported as benchmark overhead, not as
a layer. Every other moment of a round's wall time must fall in some span:
``coverage_problems`` fails a run whose spans leave more than a small gap.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import time
from collections import defaultdict


def _count_free(tracer, args):
    """Free cameras and points of a bundle adjustment, from its inputs."""
    model, mask = args[0], args[1]
    cams = sum(1 for f in model.frames.values() if f.pose is not None and f.id not in mask.frozen_frame_ids)
    pts = sum(1 for lid in model.landmarks if lid not in mask.frozen_landmark_ids)
    tracer.add("solvers.bundle.bundle_adjust.free_cameras", cams)
    tracer.add("solvers.bundle.bundle_adjust.free_points", pts)


def _count_ba(tracer, args, out):
    tracer.add("solvers.bundle.bundle_adjust.iterations", out.iterations)
    tracer.add("solvers.bundle.bundle_adjust.accepted_steps", out.accepted_steps)


def _counter(key, of):
    def count(tracer, args, out):
        tracer.add(key, of(args, out))

    return count


def _file_bytes(key, arg):
    def count(tracer, args, out):
        tracer.add(key, os.path.getsize(args[arg]))

    return count


_PAIRS = _counter("matching.match_features.pairs", lambda a, out: len(out))
_CORRS = _counter("model.lift_matches_to_3d.corrs", lambda a, out: len(out))
_HYPS = _counter("solvers.pnp.solve_p3p_block.hypotheses", lambda a, out: len(a[0]))
_TRI = _counter("solvers.triangulation.triangulate.accepted", lambda a, out: 1)

# (module, attribute, span name, counter after the call, bench work before it)
TARGETS = [
    ("anchorloc.synth", "generate_scene", "synth.generate_scene", None, None),
    ("anchorloc.synth", "build_reference_model", "synth.build_reference_model", None, None),
    ("anchorloc.synth", "anchor_scores", "synth.anchor_scores", None, None),
    ("anchorloc.cli", "generate_scene", "synth.generate_scene", None, None),
    ("anchorloc.pipeline", "match_features", "matching.match_features", _PAIRS, None),
    ("anchorloc.baselines", "match_features", "matching.match_features", _PAIRS, None),
    # pipeline.retrieve_candidates imports retrieve_top_k at call time
    ("anchorloc.matching", "retrieve_top_k", "matching.retrieve_top_k", None, None),
    ("anchorloc.baselines", "retrieve_top_k", "matching.retrieve_top_k", None, None),
    ("anchorloc.pipeline", "temporal_candidates", "matching.temporal_candidates", None, None),
    ("anchorloc.pipeline", "spatial_neighbors", "model.spatial_neighbors", None, None),
    ("anchorloc.pipeline", "lift_matches_to_3d", "model.lift_matches_to_3d", _CORRS, None),
    ("anchorloc.baselines", "lift_matches_to_3d", "model.lift_matches_to_3d", _CORRS, None),
    ("anchorloc.pipeline", "frozen_state_digest", "model.frozen_state_digest", None, None),
    ("anchorloc.cli", "load_model", "model.load_model", _file_bytes("model.load_model.bytes", 0), None),
    ("anchorloc.cli", "save_model", "model.save_model", _file_bytes("model.save_model.bytes", 1), None),
    ("anchorloc.pipeline", "ransac_pnp", "solvers.pnp.ransac_pnp", None, None),
    ("anchorloc.baselines", "ransac_pnp", "solvers.pnp.ransac_pnp", None, None),
    ("anchorloc.solvers.pnp", "solve_p3p_block", "solvers.pnp.solve_p3p_block", _HYPS, None),
    ("anchorloc.solvers.pnp", "refine_pose", "solvers.pnp.refine_pose", None, None),
    ("anchorloc.pipeline", "bundle_adjust", "solvers.bundle.bundle_adjust", _count_ba, _count_free),
    ("anchorloc.baselines", "bundle_adjust", "solvers.bundle.bundle_adjust", _count_ba, _count_free),
    # synth.reference_model_from_tracks also triangulates; that work stays
    # in the synth layer's own time, so these count localization only
    ("anchorloc.pipeline", "triangulate", "solvers.triangulation.triangulate", _TRI, None),
    ("anchorloc.baselines", "triangulate", "solvers.triangulation.triangulate", _TRI, None),
    ("anchorloc.baselines", "estimate_relative_pose", "solvers.twoview.estimate_relative_pose", None, None),
    ("anchorloc.pipeline", "detector_from_scores", "pipeline.detector_from_scores", None, None),
    ("anchorloc.pipeline", "register_anchors", "pipeline.register_anchors", None, None),
    ("anchorloc.pipeline", "recursive_localize", "pipeline.recursive_localize", None, None),
    ("anchorloc.pipeline", "run_pipeline", "pipeline.run_pipeline", None, None),
    ("anchorloc.cli", "run_pipeline", "pipeline.run_pipeline", None, None),
    ("anchorloc.baselines", "single_image_localize", "baselines.single_image_localize", None, None),
    ("anchorloc.cli", "single_image_localize", "baselines.single_image_localize", None, None),
    ("anchorloc.baselines", "onthefly_sfm", "baselines.onthefly_sfm", None, None),
    ("anchorloc.cli", "onthefly_sfm", "baselines.onthefly_sfm", None, None),
]


# wall time of a round that no span may leave uncovered
MAX_GAP_S = 1e-3
MAX_GAP_SHARE = 0.005


class Tracer:
    """Span recorder; one per traced run, passed to whatever records."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []

    def take(self):
        """The spans and counts recorded so far; recording starts afresh."""
        taken = self.spans, self.counts
        self.spans, self.counts = [], defaultdict(float)
        return taken

    def add(self, key, value):
        self.counts[key] += value

    @contextlib.contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, after=None, before=None):
        def traced(*args, **kwargs):
            if before is not None:
                with self.span("bench.count"):
                    before(self, args)
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception as e:
                rec[4] = type(e).__name__
                raise
            finally:
                self._close(rec)
            if after is not None:
                after(self, args, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every target name by its traced wrapper; restore on exit."""
        saved = []
        try:
            for mod_name, attr, name, after, before in TARGETS:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self.wrap(fn, name, after, before))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)



def write_spans(path, rounds):
    """One JSON line per span; ids and parents count within a round."""
    with open(path, "w") as fh:
        for k, r in enumerate(rounds):
            for i, (name, start, end, parent, exc) in enumerate(r.spans):
                fh.write(
                    json.dumps(
                        {"round": k + 1, "id": i, "name": name, "start": start,
                         "end": end, "parent": parent, "error": exc}
                    )
                    + "\n"
                )


def layer_of(name):
    """Layer a span belongs to: the span name without its function."""
    if name.startswith("baselines."):
        return name  # each baseline is its own layer
    return name.rsplit(".", 1)[0]


def summarize(spans, counts, wall_s):
    """Per-layer metrics of one traced round.

    spans: the round's spans (parents index into the same list, or -1 for
    a top-level span). Self time is a span's duration minus its
    children's durations; children never overlap because the program is
    single-threaded. ``bench.*`` spans have no children; their time is the
    benchmark's overhead. What is left of the wall time, ``uncovered_s``,
    is time spent outside every span.
    """
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    out = defaultdict(float)
    out.update(counts)
    layer_self = defaultdict(float)
    bench_s = 0.0
    for i, (name, start, end, parent, exc) in enumerate(spans):
        dur = end - start
        if name.startswith("bench."):
            bench_s += dur
            continue
        layer_self[layer_of(name)] += dur - child_s[i]
        out[f"{name}.calls"] += 1
        out[f"{name}.time_s"] += dur
        out[f"{name}.max_call_s"] = max(out[f"{name}.max_call_s"], dur)
        if exc is not None and name == "solvers.pnp.ransac_pnp":
            out["solvers.pnp.ransac_pnp.failed"] += 1
    for layer, s in layer_self.items():
        out[f"{layer}.self_s"] = s
    out["trace.wall_s"] = wall_s
    out["trace.layers_self_s"] = sum(layer_self.values())
    out["trace.bench_overhead_s"] = bench_s
    out["trace.uncovered_s"] = wall_s - out["trace.layers_self_s"] - bench_s
    out["trace.spans"] = len(spans)
    return dict(out)


def coverage_problems(summaries):
    """Each round's layer self times plus the overhead must fill its wall time."""
    problems = []
    for i, s in enumerate(summaries):
        gap, wall = s["trace.uncovered_s"], s["trace.wall_s"]
        if not abs(gap) <= max(MAX_GAP_S, MAX_GAP_SHARE * wall):
            problems.append(f"round {i + 1}: {gap:.3g} s of the {wall:.3g} s traced wall time is in no span")
    return problems
