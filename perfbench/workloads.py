"""The benchmark's workloads and the loop that runs whole rounds of them.

A round is one set-up followed by the timed operations that use it. Every
localization needs a fresh reference model and fresh query frames, because
``run_pipeline`` adds the query frames and new landmarks to the model it is
given and sets ``pose`` and ``status`` on the caller's frames.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import shutil
import time
from pathlib import Path

import numpy as np

from anchorloc import baselines, cli, config, pipeline, synth
from anchorloc.model import Frame

from . import checks

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
ADVERSARIAL_CFG = ROOT / "configs" / "adversarial.cfg"
DEMO_CFG = ROOT / "configs" / "demo.cfg"

# The first 120 of the 300 query frames of the adversarial sweep: the
# anchors at its start and the start of the texture-poor arc.
# The whole sweep takes 29-37 s with `proposed` and 88-105 s with
# `onthefly`, too long to repeat within a run (see README.md).
ADVERSARIAL_WINDOW = (0, 120)
# onthefly localizes the same frames as two sequences of 60, each with two
# RANSAC seeds: the error and the work of one trajectory are set by its
# drift and its retries, which the seed moves too far for a steady figure;
# four trajectories pooled move much less (see README.md).
ONTHEFLY_WINDOWS = ((0, 60), (60, 120))
ONTHEFLY_RANSAC_SEEDS = 2


@dataclasses.dataclass
class Op:
    """One operation of a round: its name, wall time and problems."""

    name: str
    seconds: float
    problems: list


@dataclasses.dataclass
class Round:
    setup_s: float
    ops: list
    frames_per_s: float
    registered: int
    median_error: float
    wall_s: float = 0.0
    spans: list = dataclasses.field(default_factory=list)
    counts: dict = dataclasses.field(default_factory=dict)


def bench_span(tracer, name):
    """A ``bench.*`` span around the benchmark's own work, when tracing."""
    return tracer.span(f"bench.{name}") if tracer else contextlib.nullcontext()


class Localization:
    """One method on windows of the adversarial query sweep.

    Each window is localized with ``ransac_seeds`` RANSAC seeds, one
    operation each, on fresh frames. The operations share one set-up, so
    only ``onthefly``, which takes no reference model, is given more than
    one.
    """

    def __init__(self, method, windows=(ADVERSARIAL_WINDOW,), ransac_seeds=1, scene=None):
        self.method = method
        self.windows = windows
        self.ransac_seeds = ransac_seeds
        self.scene_override = scene
        self.first_fingerprints = {}
        self.tracer = None

    def load(self, seed):
        """seed picks the localizer's RANSAC streams; the scene is the config's.

        Operation j of a window uses RANSAC seed ransac_seeds * seed + j, so
        no two seeds share a stream and one RANSAC seed is seed itself.
        """
        scene, cfg = config.parse_run_config(ADVERSARIAL_CFG)
        self.scene = scene if self.scene_override is None else self.scene_override
        self.runs = [
            (window, dataclasses.replace(cfg, ransac=dataclasses.replace(cfg.ransac, rng_seed=self.ransac_seeds * seed + j)))
            for window in self.windows
            for j in range(self.ransac_seeds)
        ]
        self.first_fingerprints = {}

    def setup(self):
        ds = synth.generate_scene(self.scene)
        with bench_span(self.tracer, "frames"):
            intr = ds.intrinsics()
            frames = [
                [Frame(sf.id, sf.timestamp, intr, sf.features, None, "pending") for sf in ds.query[a:b]]
                for (a, b), _ in self.runs
            ]
        inputs = {"dataset": ds, "frames": frames}
        if self.method != "onthefly":
            inputs["reference"] = synth.build_reference_model(ds)
        if self.method == "proposed":
            inputs["scores"] = synth.anchor_scores(ds)
        if self.method == "onthefly":
            # onthefly aligns its reconstruction to these centers at the end
            with bench_span(self.tracer, "gt"):
                inputs["gt"] = {sf.id: sf.pose.center() for sf in ds.query}
        return inputs

    def gt_centers(self, inputs):
        return {sf.id: checks.camera_center(sf.pose.q, sf.pose.t) for sf in inputs["dataset"].query}

    def localize(self, inputs, frames, cfg):
        """Returns (reported frame ids, frame id -> (q, t) or None, BA events)."""
        if self.method == "proposed":
            detector = pipeline.detector_from_scores(inputs["scores"])
            res = pipeline.run_pipeline(inputs["reference"], frames, detector, cfg)
            with bench_span(self.tracer, "poses"):
                ids = [ev.frame_id for ev in res.frame_events]
                poses = {}
                for ev in res.frame_events:
                    fr = res.model.frames.get(ev.frame_id)
                    ok = ev.status in checks.REGISTERED and fr is not None and fr.pose is not None
                    poses[ev.frame_id] = (fr.pose.q.copy(), fr.pose.t.copy()) if ok else None
            return ids, poses, res.ba_events
        if self.method == "single":
            report = baselines.single_image_localize(inputs["reference"], frames, cfg)
        else:
            _, report = baselines.onthefly_sfm(frames, cfg, inputs["gt"])
        with bench_span(self.tracer, "poses"):
            ids = [r.frame_id for r in report.frames]
            poses = {
                r.frame_id: (r.pose.q.copy(), r.pose.t.copy()) if r.status == "registered" and r.pose is not None else None
                for r in report.frames
            }
        return ids, poses, []

    def round(self, index, tracer=None, tamper=None):
        self.tracer = tracer
        t0 = time.perf_counter()
        inputs = self.setup()
        t1 = time.perf_counter()
        ref = inputs.get("reference")
        if self.method == "proposed":
            with bench_span(tracer, "digest"):
                ref_frames = [f.id for f in ref.frames.values() if f.status == "reference"]
                ref_landmarks = [l.id for l in ref.landmarks.values() if l.origin == "reference"]
                digest_before = checks.reference_digest(ref, ref_frames, ref_landmarks)
        results = []
        for frames, (_, cfg) in zip(inputs["frames"], self.runs):
            problems = []
            t2 = time.perf_counter()
            try:
                ids, poses, ba_events = self.localize(inputs, frames, cfg)
            except Exception as e:  # a raising localization is a failed operation
                ids, poses, ba_events = [], {}, []
                problems.append(f"raised {type(e).__name__}: {e}")
            results.append((frames, ids, poses, ba_events, problems, time.perf_counter() - t2))
        t3 = time.perf_counter()

        gt = self.gt_centers(inputs)
        ops, all_errors = [], []  # frames repeat between a window's seeds
        for k, (frames, ids, poses, ba_events, problems, op_s) in enumerate(results):
            if tamper is not None:
                tamper(index, inputs, poses)
            query_ids = [f.id for f in frames]
            errors = checks.frame_errors(poses, gt)
            all_errors += errors.values()
            if not problems:
                problems += checks.check_reported_once(ids, query_ids)
                problems += checks.check_accuracy(errors, len(query_ids), self.method == "proposed")
                problems += checks.check_bundle_costs(ba_events)
                if self.method == "proposed":
                    if checks.reference_digest(ref, ref_frames, ref_landmarks) != digest_before:
                        problems.append("reference poses or landmarks changed")
                fp = checks.pose_fingerprint(poses)
                if self.first_fingerprints.setdefault(k, fp) != fp:
                    problems.append(f"poses differ from round 1 in round {index + 1}")
            ops.append(Op(f"localize-{self.method}", op_s, problems))
        return Round(
            setup_s=t1 - t0,
            ops=ops,
            frames_per_s=sum(len(r[0]) for r in results) / sum(op.seconds for op in ops),
            registered=len(all_errors),
            median_error=float(np.median(all_errors)) if all_errors else float("nan"),
            wall_s=t3 - t0,
        )

    def setup_only(self):
        t0 = time.perf_counter()
        self.setup()
        return time.perf_counter() - t0, []

    def close(self):
        pass


class CliDemo:
    """The README walkthrough through ``anchorloc.cli.main``, in process."""

    LOCALIZE_FILES = ("trajectory_{m}.txt", "events_{m}.log")
    METHODS = ("proposed", "single")

    def __init__(self, cfg_path=DEMO_CFG, workdir=None):
        self.cfg_path = cfg_path
        self.workdir_override = workdir
        self.first_bytes = None

    def load(self, seed):
        self.workdir = self.workdir_override or OUT / f"cli-demo-seed{seed}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        scene, _ = config.parse_run_config(self.cfg_path)
        # the config the commands read: the demo config plus this run's RANSAC seed
        self.cfg = self.workdir / "run.cfg"
        self.cfg.write_text(Path(self.cfg_path).read_text() + f"\npipeline.ransac.rng_seed = {seed}\n")
        ds = synth.generate_scene(scene)
        self.query_ids = [sf.id for sf in ds.query]
        self.gt = {sf.id: checks.camera_center(sf.pose.q, sf.pose.t) for sf in ds.query}
        self.first_bytes = None
        self.tracer = None

    def command(self, argv, problems):
        """Run one command; returns (seconds, captured stdout)."""
        out = io.StringIO()
        span = self.tracer.span(f"cli.{argv[0]}") if self.tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([str(a) for a in argv])
        except Exception as e:  # a raising command is a failed operation
            problems.append(f"{argv[0]} raised {type(e).__name__}: {e}")
            code = None
        seconds = time.perf_counter() - t0
        if code not in (0, None):
            problems.append(f"{argv[0]} exited {code}")
        return seconds, out.getvalue()

    def setup_commands(self, rdir):
        ops = []
        for argv in (
            ["synth", "--config", self.cfg, "--out", rdir / "data"],
            ["build-ref", "--dataset", rdir / "data", "--out", rdir / "ref.txt"],
        ):
            problems = []
            seconds, _ = self.command(argv, problems)
            ops.append(Op(argv[0], seconds, problems))
        return ops

    def round(self, index, tracer=None, tamper=None):
        self.tracer = tracer
        rdir = self.workdir / f"round{index + 1}"
        shutil.rmtree(rdir, ignore_errors=True)
        data = rdir / "data"
        t0 = time.perf_counter()
        setup_ops = self.setup_commands(rdir)
        t1 = time.perf_counter()
        ops = []
        for m in self.METHODS:
            argv = ["localize", "--method", m, "--model", rdir / "ref.txt", "--sequence", data / "query.txt",
                    "--gt", data / "gt_query.txt", "--config", self.cfg, "--out", rdir / f"out_{m}"]
            if m == "proposed":
                argv += ["--anchors", data / "anchor_scores.txt"]
            problems = []
            seconds, _ = self.command(argv, problems)
            ops.append(Op(f"localize-{m}", seconds, problems))
        trajs = [rdir / f"out_{m}" / f"trajectory_{m}.txt" for m in self.METHODS]
        problems = []
        seconds, table = self.command(["eval", "--gt", data / "gt_query.txt", *trajs], problems)
        eval_op = Op("eval", seconds, problems)
        ops.append(eval_op)
        ply = rdir / "cloud.ply"
        problems = []
        seconds, _ = self.command(["export", "--model", rdir / "out_proposed" / "augmented_model.txt", "--ply", ply], problems)
        ops.append(Op("export", seconds, problems))
        t2 = time.perf_counter()
        if tamper is not None:
            tamper(index, rdir)

        outputs = {}
        for m in self.METHODS:
            for pattern in self.LOCALIZE_FILES:
                path = rdir / f"out_{m}" / pattern.format(m=m)
                outputs[path.name] = path.read_bytes() if path.exists() else None
        counts = checks.parse_eval_counts(table)
        registered = median = None
        for m, op in zip(self.METHODS, ops):
            if op.problems:
                continue
            try:
                ids, poses = checks.parse_trajectory(outputs[f"trajectory_{m}.txt"].decode())
            except (AttributeError, ValueError) as e:
                op.problems.append(f"trajectory_{m}.txt unreadable: {e}")
                continue
            errors = checks.frame_errors(poses, self.gt)
            op.problems += checks.check_reported_once(ids, self.query_ids)
            op.problems += checks.check_accuracy(errors, len(self.query_ids), proposed=False)
            if counts.get(m) != len(errors):
                eval_op.problems.append(f"eval reports {counts.get(m)} registered for {m}, trajectory has {len(errors)}")
            if m == "proposed":
                registered = len(errors)
                median = float(np.median(list(errors.values()))) if errors else float("nan")
        if self.first_bytes is None:
            self.first_bytes = outputs
        else:
            for m, op in zip(self.METHODS, ops):
                for pattern in self.LOCALIZE_FILES:
                    name = pattern.format(m=m)
                    if outputs[name] != self.first_bytes[name]:
                        op.problems.append(f"{name} differs from round 1 in round {index + 1}")
        shutil.rmtree(rdir, ignore_errors=True)
        op_s = sum(op.seconds for op in ops)
        return Round(
            setup_s=t1 - t0,
            ops=setup_ops + ops,
            frames_per_s=len(self.query_ids) / op_s,
            registered=registered if registered is not None else 0,
            median_error=median if median is not None else float("nan"),
            wall_s=t2 - t0,
        )

    def setup_only(self):
        rdir = self.workdir / "setup-sample"
        t0 = time.perf_counter()
        ops = self.setup_commands(rdir)
        seconds = time.perf_counter() - t0
        shutil.rmtree(rdir, ignore_errors=True)
        return seconds, ops

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {
    "proposed-adversarial": lambda: Localization("proposed"),
    "single-adversarial": lambda: Localization("single"),
    "onthefly-adversarial": lambda: Localization("onthefly", ONTHEFLY_WINDOWS, ONTHEFLY_RANSAC_SEEDS),
    "cli-demo": lambda: CliDemo(),
}

MIN_ROUNDS = 2  # a second round checks that poses repeat bit for bit
SETUP_SAMPLES = 3


@dataclasses.dataclass
class RunResult:
    rounds: list
    setup_samples: list
    extra_ops: list

    @property
    def ops(self):
        return [op for r in self.rounds for op in r.ops] + self.extra_ops

    @property
    def attempted(self):
        return len(self.ops)

    @property
    def failed(self):
        return sum(1 for op in self.ops if op.problems)

    def problems(self):
        return [f"{op.name}: {p}" for op in self.ops for p in op.problems]


def run(workload, seed, seconds, tracer=None, tamper=None, min_rounds=MIN_ROUNDS):
    """Whole rounds until `seconds` have passed and at least `min_rounds` ran.

    With a tracer, each round keeps the spans and counts recorded during it.
    """
    workload.load(seed)
    rounds = []
    start = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
        if tracer:
            tracer.take()  # drop what loading recorded
        r = workload.round(len(rounds), tracer, tamper)
        if tracer:
            r.spans, r.counts = tracer.take()
        rounds.append(r)
    samples = [r.setup_s for r in rounds]
    extra_ops = []
    while len(samples) < SETUP_SAMPLES:
        s, ops = workload.setup_only()
        samples.append(s)
        extra_ops += ops
    workload.close()
    return RunResult(rounds, samples, extra_ops)
