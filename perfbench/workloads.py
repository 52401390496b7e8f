"""The three closed-loop workloads: one caller waits for each step or grid.

A run repeats identical passes while the next one fits in its time budget:

  tracker-wide, costed-narrow
      one pass plays the seeded stream through each phase's learner in turn,
      a fresh learner per phase, timing every `step` call;
  grid-sparse
      one pass is `cli.main(["run", ...])` over the seeded dataset file.

Every reported time is calibrated to host speed (see calibrate.py); the
detail line also gives the raw times and the speed factors.  The untraced run
reaches csdpp only through `csdpp.__all__` and `cli.main`.  The traced run
alternates untraced and traced passes, so that it measures its own overhead,
and starts with a self-check of the span split.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import calibrate
import inputs
import spans

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass(frozen=True)
class StreamSpec:
    tag: int
    d: int
    k: int
    m_frac: float
    phases: tuple[tuple[str, str], ...]  # (algorithm, cost) played in order
    steps: int                            # stream length, played by every phase
    prototypes: int
    positives: int | None                 # +1 labels per prototype; None: uniform signs


@dataclass(frozen=True)
class GridSpec:
    tag: int
    rows: int
    d: int
    k: int
    nnz: int
    prototypes: int
    algorithms: tuple[str, ...]
    costs: tuple[str, ...]
    repeats: int
    limit: int
    m_frac: float = 0.25


# Stream lengths are set so that a 25 s run holds one tracker-wide pass or
# about four costed-narrow passes at today's speed; the grid's --limit so that
# it holds three grid passes, most of whose time is per-job set-up.
STREAMS = {
    # 40 label prototypes > M+1 = 26 frame rows, so updates leave the span.
    "tracker-wide": StreamSpec(1, 100, 100, 0.25, (("dpp-pbc", "hamming"), ("dpp-pbt", "hamming")), 100, 40, None),
    # 10 of 200 labels positive (5%), M = 4.
    "costed-narrow": StreamSpec(2, 50, 200, 0.02, (("cs-dpp-pbc", "f1"), ("cs-dpp-pbt", "rank")), 400, 24, 10),
}

GRID = GridSpec(
    tag=3, rows=4000, d=500, k=20, nnz=25, prototypes=12,
    algorithms=("dpp-pbc", "dpp-pbt", "dpp-naive", "cs-dpp-pbc", "cs-dpp-pbt", "o-br", "o-rand"),
    costs=("hamming", "f1"), repeats=2, limit=100,
)


@dataclass
class Outcome:
    """What a run measured and checked; `run.py` turns it into the result line."""

    metrics: dict = field(default_factory=dict)   # name -> (value, unit)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    detail: dict = field(default_factory=dict)

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest of p99.9/p99/p95/p90/p75/p50 with
    at least ten samples beyond it; the maximum when there are fewer than 11."""
    n = len(samples)
    ordered = sorted(samples)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            return float(np.percentile(ordered, pct)), pct, n
    return ordered[-1], 100.0, n


SETUP_PROBES = 7


def setup_time(learners: list, dataset: str | None = None) -> list[float]:
    """Calibrated seconds to import csdpp in a fresh process, parse `dataset`
    if given and construct each (algorithm, cost, m_frac, d, K) learner; once
    per probe."""
    src = os.path.join(os.path.dirname(HERE), "src")
    env = dict(os.environ, PYTHONPATH=src)
    spec = json.dumps({"learners": learners, "dataset": dataset})
    argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), spec]
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120, check=True)
        setup, kernel = (float(v) for v in proc.stdout.split())
        times.append(setup * calibrate.REFERENCE_S / kernel)
    return times


def _peak_rss_mb(children_workers: int = 0) -> float:
    """Own peak RSS plus `children_workers` times the largest child's peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children_workers * child) / 1024.0


def _find(obj, cls, depth: int = 2):
    """The first attribute of type `cls` reachable from obj within `depth` hops."""
    values = list(getattr(obj, "__dict__", {}).values())
    for value in values:
        if isinstance(value, cls):
            return value
    if depth > 1:
        for value in values:
            if hasattr(value, "__dict__") and not isinstance(value, type):
                found = _find(value, cls, depth - 1)
                if found is not None:
                    return found
    return None


# --- stream workloads ---------------------------------------------------------


@dataclass
class StreamPass:
    latencies: list            # per phase, raw seconds per step call
    scaled: list               # per phase, the same calibrated to host speed
    wall: float                # raw learner construction + step calls
    scaled_wall: float
    factor: float              # median calibration factor over the pass
    elapsed: float             # real time the pass took, checks and calibration included
    digest: str                # sha256 of the prediction sequence
    prefix_digest: str         # the same over each phase's first REPLAY_STEPS steps
    avg_cost: float


REPLAY_STEPS = 10


def play_pass(csdpp, spec: StreamSpec, data: inputs.DenseStream, seed: int, out: Outcome,
              tracer: spans.Tracer | None = None, steps: int | None = None,
              calibrated: bool = True) -> StreamPass:
    began = time.perf_counter()
    latencies: list[list[float]] = []
    scaled: list[list[float]] = []
    factors: list[float] = []
    costs: list[float] = []
    digest, prefix = hashlib.sha256(), hashlib.sha256()
    wall = scaled_wall = 0.0
    for algo, cost in spec.phases:
        start = time.perf_counter()
        learner = csdpp.make_learner(
            csdpp.LearnerConfig(algorithm=algo, cost=cost, m_frac=spec.m_frac, seed=seed), spec.d, spec.k
        )
        construct = time.perf_counter() - start
        latencies.append([])
        refs = []
        for t in range(spec.steps if steps is None else steps):
            if tracer is not None:
                tracer.request += 1
            start = time.perf_counter()
            try:
                record = learner.step(data.x[t], data.y[t])
            except Exception as exc:  # a failed step counts; the other phases still run
                out.check(False, f"{algo} step {t + 1} raised {exc!r}")
                break
            latencies[-1].append(time.perf_counter() - start)
            if calibrated:
                refs.append(calibrate.time_kernel())
            y_hat = np.asarray(record.y_hat)
            cost_value = float(record.incurred_cost)
            out.check(
                y_hat.shape == (spec.k,) and bool(np.all(np.abs(y_hat) == 1)) and 0.0 <= cost_value <= 1.0,
                f"{algo} step {t + 1}: prediction outside {{-1,+1}}^K or cost {cost_value} outside [0, 1]",
            )
            digest.update(y_hat.astype(np.int8).tobytes())
            if t < REPLAY_STEPS:
                prefix.update(y_hat.astype(np.int8).tobytes())
            costs.append(cost_value)
        phase_factors = calibrate.factors(refs) if refs else [1.0] * len(latencies[-1])
        scaled.append([t * f for t, f in zip(latencies[-1], phase_factors)])
        factors += phase_factors
        wall += construct + sum(latencies[-1])
        scaled_wall += construct * (statistics.median(phase_factors) if phase_factors else 1.0) + sum(scaled[-1])
        tracker = _find(learner, csdpp.CappedMsgState)
        try:
            tracker.validate()
            valid = True
        except (AttributeError, ValueError):
            valid = False
        out.check(valid, f"{algo}: tracker missing or fails validate()")
    return StreamPass(
        latencies, scaled, wall, scaled_wall, statistics.median(factors) if factors else 1.0,
        time.perf_counter() - began, digest.hexdigest(), prefix.hexdigest(),
        float(np.mean(costs)) if costs else float("nan"),
    )


def repeat_passes(play, seconds: float, traced: bool, spool: str | None = None, least: int = 1):
    """Run passes while another, as long as the last, fits in `seconds` of real time.

    At least `least` untraced passes; a traced run alternates untraced and traced passes and
    makes at least one of each.  Returns (passes, traced passes, merged trace
    summary, absent layers).
    """
    passes, traced_passes = [], []
    summary, absent = spans.empty_summary(), []
    spent = 0.0
    while True:
        if traced and len(traced_passes) < len(passes):
            tracer = spans.Tracer()
            installed = spans.install(tracer, spool)
            absent = installed.absent
            try:
                result = play(tracer)
            finally:
                installed.uninstall()
            spans.merge(summary, tracer.summarize())
            if spool is not None:
                spans.merge(summary, spans.collect_spool(spool))
            traced_passes.append(result)
        else:
            result = play(None)
            passes.append(result)
        spent += result.elapsed
        if len(passes) >= least and (traced_passes or not traced) and spent + result.elapsed > seconds:
            return passes, traced_passes, summary, absent


def run_stream(csdpp, workload: str, seed: int, seconds: float, traced: bool) -> Outcome:
    spec = STREAMS[workload]
    data = inputs.dense_stream(seed, spec.tag, spec.d, spec.k, spec.steps, spec.prototypes, spec.positives)
    out = Outcome()
    out.detail["inputs_sha256"] = data.sha256
    if traced:
        out.detail["self_check"] = self_check(csdpp)
        out.check(out.detail["self_check"]["passed"] is not False, "span self-check failed")

    passes, traced_passes, summary, absent = repeat_passes(
        lambda tracer: play_pass(csdpp, spec, data, seed, out, tracer), seconds, traced)
    reference = passes[0]
    for i, p in enumerate(passes[1:] + traced_passes, start=2):
        out.check(p.digest == reference.digest, f"pass {i} predictions differ from pass 1")
    replay = play_pass(csdpp, spec, data, seed, out, steps=REPLAY_STEPS, calibrated=False)
    out.check(replay.digest == reference.prefix_digest, "replayed prefix predictions differ from pass 1")
    out.detail["predictions_sha256"] = reference.digest
    out.detail["pass_walls_s"] = [round(p.scaled_wall, 4) for p in passes + traced_passes]
    out.detail["speed_factors"] = [round(p.factor, 4) for p in passes + traced_passes]

    if traced:
        steps = sum(len(phase) for p in traced_passes for phase in p.latencies)
        walls = (statistics.median(p.scaled_wall for p in traced_passes),
                 statistics.median(p.scaled_wall for p in passes))
        factor = statistics.median(p.factor for p in traced_passes)
        out.metrics.update(layer_metrics(summary, steps, 0, walls, factor))
        out.detail["absent"] = absent
        return out

    phases = [[t for p in passes for t in p.scaled[i]] for i in range(len(spec.phases))]
    latencies = [t for phase in phases for t in phase]
    raw = [t for p in passes for phase in p.latencies for t in phase]
    tail_value, pct, n = tail(latencies)
    out.detail["step_tail"] = {"percentile": pct, "samples": n}
    out.detail["raw"] = {"steps_per_s": len(raw) / sum(raw), "grid_wall_s": statistics.median(p.wall for p in passes)}
    out.metrics["steps_per_s"] = (len(latencies) / sum(latencies), "1/s")
    # The phases' latencies form separate modes; a median of the mixture would jump between them.
    out.metrics["step_p50_us"] = (statistics.fmean(statistics.median(ph) for ph in phases) * 1e6, "us")
    out.metrics["step_tail_us"] = (tail_value * 1e6, "us")
    out.metrics["grid_wall_s"] = (statistics.median(p.scaled_wall for p in passes), "s")
    out.metrics["avg_cost"] = (reference.avg_cost, "cost")
    out.metrics["peak_rss_mb"] = (_peak_rss_mb(), "MB")
    learners = [(algo, cost, spec.m_frac, spec.d, spec.k) for algo, cost in spec.phases]
    out.metrics["setup_s"] = (statistics.median(setup_time(learners)), "s")
    return out


SELF_CHECK_DELAY_S = 0.005


def self_check(csdpp) -> dict:
    """Busy-wait SELF_CHECK_DELAY_S inside every linalg.project_capped_simplex span.

    Compared with a run without the delay, that layer's self time must gain
    between 0.95 and 1.5 times the injected total, and the self times of its
    parent online_pca.update and of learners.step each less than 10% of it.
    """
    spec = StreamSpec(0, 20, 10, 0.3, (("dpp-pbc", "hamming"),), 20, 6, None)
    data = inputs.dense_stream(0, 0, spec.d, spec.k, spec.steps, spec.prototypes, None)
    child, parents = "linalg.project_capped_simplex", ("online_pca.update", "learners.step")
    runs = []
    for delay in (0.0, SELF_CHECK_DELAY_S):
        tracer = spans.Tracer()
        tracer.delays_ns[child] = int(delay * 1e9)
        installed = spans.install(tracer)
        try:
            play_pass(csdpp, spec, data, 0, Outcome(), tracer, calibrated=False)
        finally:
            installed.uninstall()
        if set(installed.absent) & {child, *parents}:
            return {"passed": None, "skipped": f"absent: {sorted(set(installed.absent) & {child, *parents})}"}
        runs.append(tracer.summarize()["layers"])
    base, delayed = runs
    injected = delayed[child]["calls"] * SELF_CHECK_DELAY_S
    gain = {name: (delayed[name]["self_ns"] - base[name]["self_ns"]) / 1e9 for name in (child, *parents)}
    passed = 0.95 * injected <= gain[child] <= 1.5 * injected and all(gain[p] < 0.1 * injected for p in parents)
    return {"passed": passed, "injected_s": injected, "self_gain_s": gain}


# --- grid workload ------------------------------------------------------------


def _grid_argv(dataset: str, output: str, seed: int, workers: int) -> list[str]:
    argv = ["run", "--dataset", dataset, "--output", output, "--seed", str(seed),
            "--repeats", str(GRID.repeats), "--limit", str(GRID.limit), "--m-frac", str(GRID.m_frac),
            "--workers", str(workers)]
    for algo in GRID.algorithms:
        argv += ["--algo", algo]
    for cost in GRID.costs:
        argv += ["--cost", cost]
    return argv


def _expected_files() -> tuple[list[str], list[str]]:
    csvs, summaries = [], []
    for algo in GRID.algorithms:
        for cost in GRID.costs:
            stem = f"{algo}_{cost}_mf{GRID.m_frac:g}_p0"
            summaries.append(f"{stem}_summary.json")
            csvs += [f"{stem}_r{r}.csv" for r in range(GRID.repeats)]
    return csvs, summaries


@dataclass
class GridPass:
    wall: float                # raw seconds of `cli.main`
    factor: float              # calibration factor sampled while it ran
    elapsed: float
    digest: str                # sha256 of every artifact, names included
    avg_cost: float

    @property
    def scaled_wall(self) -> float:
        return self.wall * self.factor


def grid_pass(cli, dataset: str, output: str, seed: int, workers: int, out: Outcome) -> GridPass:
    shutil.rmtree(output, ignore_errors=True)
    argv = _grid_argv(dataset, output, seed, workers)
    errors = io.StringIO()
    sampler = calibrate.Sampler()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(errors):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # the run failed; its cells are counted below
        code = repr(exc)
    wall = time.perf_counter() - start
    factor = sampler.stop()
    out.check(code == 0, f"csdpp run exited with {code!r}: {errors.getvalue().strip()[-300:]}")

    csvs, summaries = _expected_files()
    for name in csvs:
        out.check(os.path.isfile(os.path.join(output, name)), f"missing cell trace {name}")
    finals = []
    for name in summaries:
        try:
            with open(os.path.join(output, name), encoding="utf-8") as fh:
                finals.append(float(json.load(fh)["mean_final_avg_cost"]))
            ok = 0.0 <= finals[-1] <= 1.0
        except (OSError, ValueError, KeyError):
            ok = False
        out.check(ok, f"missing or invalid summary {name}")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(output)) if os.path.isdir(output) else []:
        with open(os.path.join(output, name), "rb") as fh:
            digest.update(name.encode() + b"\0" + fh.read() + b"\0")
    shutil.rmtree(output, ignore_errors=True)
    return GridPass(wall, factor, time.perf_counter() - start, digest.hexdigest(),
                    float(np.mean(finals)) if finals else float("nan"))


def run_grid(csdpp, seed: int, seconds: float, traced: bool, scratch: str, workers: int) -> Outcome:
    from csdpp import cli

    out = Outcome()
    text = inputs.sparse_labels_text(seed, GRID.tag, GRID.rows, GRID.d, GRID.k, GRID.nnz, GRID.prototypes)
    out.detail["inputs_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    out.detail["workers"] = workers
    dataset = os.path.join(scratch, "grid.txt")
    with open(dataset, "w", encoding="utf-8") as fh:
        fh.write(text)
    output = os.path.join(scratch, "results")
    spool = os.path.join(scratch, "spool")
    os.makedirs(spool, exist_ok=True)
    if traced:
        out.detail["self_check"] = self_check(csdpp)
        out.check(out.detail["self_check"]["passed"] is not False, "span self-check failed")

    passes, traced_passes, summary, absent = repeat_passes(
        lambda tracer: grid_pass(cli, dataset, output, seed, workers, out), seconds, traced, spool, least=2)
    reference = passes[0]
    for i, p in enumerate(passes[1:] + traced_passes, start=2):
        out.check(p.digest == reference.digest, f"pass {i} artifacts differ from pass 1")
    out.detail["artifacts_sha256"] = reference.digest
    out.detail["pass_walls_s"] = [round(p.scaled_wall, 4) for p in passes + traced_passes]
    out.detail["speed_factors"] = [round(p.factor, 4) for p in passes + traced_passes]
    steps_per_pass = len(GRID.algorithms) * len(GRID.costs) * GRID.repeats * min(GRID.limit, GRID.rows)

    if traced:
        steps = steps_per_pass * len(traced_passes)
        walls = (statistics.median(p.scaled_wall for p in traced_passes),
                 statistics.median(p.scaled_wall for p in passes))
        factor = statistics.median(p.factor for p in traced_passes)
        out.metrics.update(layer_metrics(summary, steps, len(traced_passes), walls, factor))
        out.detail["absent"] = absent
        return out

    walls = [p.scaled_wall for p in passes]
    out.detail["raw"] = {"grid_wall_s": statistics.median(p.wall for p in passes)}
    per_step = [w / steps_per_pass for w in walls]
    tail_value, pct, n = tail(per_step)
    out.detail["step_tail"] = {"percentile": pct, "samples": n, "per": "grid pass, wall / steps"}
    out.metrics["steps_per_s"] = (steps_per_pass * len(walls) / sum(walls), "1/s")
    out.metrics["step_p50_us"] = (statistics.median(per_step) * 1e6, "us")
    out.metrics["step_tail_us"] = (tail_value * 1e6, "us")
    out.metrics["grid_wall_s"] = (statistics.median(walls), "s")
    out.metrics["avg_cost"] = (reference.avg_cost, "cost")
    out.metrics["peak_rss_mb"] = (_peak_rss_mb(workers), "MB")
    learners = [(algo, cost, GRID.m_frac, GRID.d, GRID.k) for algo in GRID.algorithms for cost in GRID.costs]
    out.metrics["setup_s"] = (statistics.median(setup_time(learners, dataset)), "s")
    return out


# --- per-layer metrics ----------------------------------------------------------

PER_STEP_US = {  # metric -> (layer, "incl" | "self")
    "linalg.symmetric_eigen.us": ("linalg.symmetric_eigen", "incl"),
    "linalg.project_capped_simplex.us": ("linalg.project_capped_simplex", "incl"),
    "online_pca.update.self_us": ("online_pca.update", "self"),
    "online_pca.sample_projection.us": ("online_pca.sample_projection", "incl"),
    "costs.label_weights.us": ("costs.label_weights", "incl"),
    "costs.price.us": ("costs.price", "incl"),
    "regressor.predict.us": ("regressor.predict", "incl"),
    "regressor.update.us": ("regressor.update", "incl"),
    "learners.step.self_us": ("learners.step", "self"),
    "learners.decode.us": ("learners.decode", "incl"),
}

PER_PASS_S = {
    "stream.parse_dataset.s": "stream.parse_dataset",
    "stream.build_stream.s": "stream.build_stream",
    "evaluation.write.s": "evaluation.write",
}


def layer_metrics(summary: dict, steps: int, grid_passes: int, walls: tuple[float, float],
                  factor: float) -> dict:
    """Per-layer metrics from a merged trace summary.

    Times per learner step for the step layers, per grid pass for the grid
    layers, calibrated by `factor`.  A layer that is absent or never ran
    reports 0.  `walls` are the median (traced, untraced) pass times.
    """
    layers, counters = summary["layers"], summary["counters"]
    per_step = 1.0 / max(steps, 1)
    per_pass = 1.0 / max(grid_passes, 1)

    def layer(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0)

    metrics = {}
    for metric, (name, kind) in PER_STEP_US.items():
        metrics[metric] = (layer(name, f"{kind}_ns") / 1e3 * factor * per_step, "us/step")
    eigen_calls = layer("linalg.symmetric_eigen", "calls")
    metrics["linalg.symmetric_eigen.calls"] = (eigen_calls * per_step, "calls/step")
    metrics["linalg.symmetric_eigen.dim"] = (
        counters.get("linalg.symmetric_eigen.dim_sum", 0) / max(eigen_calls, 1), "rows")
    metrics["online_pca.in_span_frac"] = (
        counters.get("online_pca.in_span", 0) / max(layer("online_pca.update", "calls"), 1), "frac")
    metrics["costs.label_weights.calls"] = (layer("costs.label_weights", "calls") * per_step, "calls/step")
    for metric, name in PER_PASS_S.items():
        metrics[metric] = (layer(name, "incl_ns") / 1e9 * factor * per_pass, "s/pass")
    metrics["stream.normalize_features.calls"] = (
        layer("stream.normalize_features", "calls") * per_pass, "calls/pass")
    jobs = counters.get("cli.jobs", 0)
    metrics["cli.jobs"] = (jobs * per_pass, "jobs/pass")
    metrics["cli.job_payload_bytes"] = (counters.get("cli.job_payload_bytes", 0) / max(jobs, 1), "B/job")
    metrics["evaluation.bytes_written"] = (counters.get("evaluation.bytes_written", 0) * per_pass, "B/pass")
    traced_wall, untraced_wall = walls
    metrics["trace_overhead_frac"] = (traced_wall / untraced_wall - 1.0, "frac")
    return metrics
