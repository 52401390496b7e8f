"""Command-line entry point.

    csdpp run    --dataset data.txt --algo cs-dpp-pbc --cost f1 --m-frac 0.25 ...
    csdpp verify [suite ...] [--trials N] [--seed S] [--cost NAME]

`run` executes the (algorithm x cost x m-frac x noise x repeat) experiment
grid over one dataset; each cell writes an average-cost CSV, and each repeat
group writes a JSON summary (mean and standard error of the final average
cost).  Repeat r runs with seed base+r for both the stream shuffle/noise and
the learner.  The parent parses and normalizes the dataset once and builds one
stream per (noise, repeat), which every algorithm/cost/m-frac cell shares.
Cells whose learners predict alike share one play: a cost-blind plan (all but
the cost-weighted cs-dpp-* ones) plays once per (algorithm, M, noise, repeat),
o-br once per (noise, repeat), and a cs-dpp-* cell under hamming joins its
dpp-* twin (criterion 07).  A job plays one trajectory and prices its
predictions under every cost it serves, with the cost call the learner makes,
so no output byte depends on the grouping.  A job carries only its stream, its
LearnerConfig and its cells' CSV headers, so jobs may run in a worker pool
(--workers or CSDPP_WORKERS).  Given the same spec and seed the outputs are
byte-identical.  A failed cell repeat (an unwritable CSV and a crashed pool
worker included) is named on stderr, once for every cell a failed play served;
the CSVs of finished repeats stay on disk and no summaries are written.

Each `run` setting is one row of `_SETTINGS`.  A --config JSON object sets it
by its flag's name ("_" or "-" alike, "lam" for "lambda", "normalize": false
for --no-normalize); explicit flags win.  A config key takes exactly what its
flag takes and gets the same usage error, before any output is written; a grid
axis also takes one value, and limit, workers and order_seed null (unset).
Ranges: repeats, limit, workers >= 1; seed, order_seed >= 0; eta, sgd_step >= 0
and lambda > 0, all finite; m_frac in (0, 1]; noise_p in [0, 1].  Two grid
axis values naming one cell are a usage error too.

Exit codes: 0 ok, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from . import evaluation, stream, verify
from .costs import available_costs, get_cost
from .learners import ALGORITHMS, LearnerConfig, make_learner, play, trajectory
from .stream import StreamConfig, build_stream, parse_dataset


@dataclass(frozen=True)
class _Setting:
    """One `run` setting.  Its config key is its name with "_" for "-"; a bool is a --no-<name> switch."""

    name: str
    kind: object                # int, float (finite), str, bool, or the allowed values (or their source)
    help: str | None = None
    axis: bool = False          # a grid axis: a repeatable flag, a list or one value in a config
    range: str | None = None    # a key of _RANGES
    feeds: tuple | None = None  # (LearnerConfig or StreamConfig, field), whose default it takes
    default: object = None      # if it feeds neither; a setting whose default is None takes null
    recorded: bool = False      # written to each CSV header

    @property
    def key(self) -> str:
        return self.name.replace("-", "_")

    @property
    def flag(self) -> str:
        return f"--no-{self.name}" if self.kind is bool else f"--{self.name}"

    @property
    def initial(self):
        return getattr(*self.feeds) if self.feeds else self.default


_RANGES = {"be >= 0": lambda v: v >= 0, "be >= 1": lambda v: v >= 1, "be > 0": lambda v: v > 0,
           "lie in (0, 1]": lambda v: 0 < v <= 1, "lie in [0, 1]": lambda v: 0 <= v <= 1}
_KINDS = {int: ("an integer", int), float: ("a finite number", (int, float)), str: ("a string", str),
          bool: ("true or false", bool)}  # kind -> (what a value must be, the JSON types that fit)
_SETTINGS = (
    _Setting("algo", ALGORITHMS, "repeatable", axis=True, feeds=(LearnerConfig, "algorithm")),
    _Setting("cost", available_costs, "repeatable; see `verify` for names", axis=True,
             feeds=(LearnerConfig, "cost")),
    _Setting("m-frac", float, "code dim as a fraction of K", axis=True, range="lie in (0, 1]",
             feeds=(LearnerConfig, "m_frac")),
    _Setting("noise-p", float, "positive-label flip probability", axis=True, range="lie in [0, 1]",
             feeds=(StreamConfig, "noise_p")),
    _Setting("repeats", int, range="be >= 1", default=1),
    _Setting("seed", int, range="be >= 0", feeds=(LearnerConfig, "seed")),
    _Setting("limit", int, "truncate the stream", range="be >= 1", feeds=(StreamConfig, "limit")),
    _Setting("normalize", bool, "skip feature normalization", default=True, recorded=True),
    _Setting("eta", float, "encoder step-size scale", range="be >= 0",
             feeds=(LearnerConfig, "eta_scale"), recorded=True),
    _Setting("lambda", float, "ridge strength", range="be > 0", feeds=(LearnerConfig, "lam"), recorded=True),
    _Setting("engine", ("ridge", "sgd", "auto"), feeds=(LearnerConfig, "engine"), recorded=True),
    _Setting("sgd-step", float, "SGD step-size scale", range="be >= 0",
             feeds=(LearnerConfig, "sgd_step_scale"), recorded=True),
    _Setting("label-order", ("native", "random"), feeds=(LearnerConfig, "label_order"), recorded=True),
    _Setting("order-seed", int, range="be >= 0", feeds=(LearnerConfig, "order_seed"), recorded=True),
    _Setting("output", str, "output directory (default ./results)", default="results"),
    _Setting("workers", int, "worker pool size (env CSDPP_WORKERS)", range="be >= 1"),
)
_BY_KEY = {setting.key: setting for setting in _SETTINGS}
_BY_KEY["lam"] = _BY_KEY["lambda"]  # a config spelling kept from earlier releases


def _problem(setting: _Setting, value) -> str | None:
    """What is wrong with one value of setting, or None; flag and config values alike."""
    kind = setting.kind
    if value is None and setting.initial is None:
        return None
    if kind in _KINDS:
        what, types = _KINDS[kind]
        if not isinstance(value, types) or (isinstance(value, bool) and kind is not bool) \
                or (kind is float and not abs(value) < math.inf):
            return f"must be {what}, got {value!r}"
    else:
        choices = list(kind() if callable(kind) else kind)
        if value not in choices:
            return f"must be one of {choices}, got {value!r}"
    if setting.range is not None and not _RANGES[setting.range](value):
        return f"must {setting.range}, got {value!r}"
    return None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="csdpp", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute an experiment grid over one dataset")
    run.add_argument("--dataset", required=True, help="path to the dataset file")
    run.add_argument("--format", choices=["sparse-labels", "arff"], default="sparse-labels")
    run.add_argument("--label-names", help="companion label list file (arff only)")
    run.add_argument("--config", help="JSON config file; explicit flags win")
    for s in _SETTINGS:
        if s.kind is bool:
            run.add_argument(s.flag, dest=s.key, action="store_false", default=None, help=s.help)
        else:
            run.add_argument(s.flag, dest=s.key, action="append" if s.axis else "store", help=s.help,
                             choices=s.kind if isinstance(s.kind, tuple) else None,
                             type=s.kind if s.kind in (int, float) else None)

    ver = sub.add_parser("verify", help="run the property self-check suites")
    ver.add_argument("suites", nargs="*", metavar="suite", help=f"default: all of {sorted(verify.SUITES)}")
    ver.add_argument("--trials", type=int, default=None, help="override randomized trial counts")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--cost", action="append", help="restrict lemma3 to these costs")
    ver.add_argument("--mutant", help="inject the named defect (self-test of the suites)")
    return parser


def _resolve_settings(args: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    """Each setting's value by layers, defaults < JSON config < explicit flags; every given value is checked."""
    given = []  # (setting, value, how the user named it), the config's first so that flags win
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config file: {exc}")
        if not isinstance(loaded, dict):
            parser.error(f"config file must hold a JSON object, got {loaded!r}")
        for raw, value in loaded.items():
            if raw.replace("-", "_") not in _BY_KEY:
                parser.error(f"unknown config key {raw!r}")
            given.append((_BY_KEY[raw.replace("-", "_")], value, f"config key {raw}"))
    given += [(s, getattr(args, s.key), s.flag) for s in _SETTINGS if getattr(args, s.key) is not None]
    merged = {s.key: [s.initial] if s.axis else s.initial for s in _SETTINGS}
    for setting, value, label in given:
        values = value if setting.axis and isinstance(value, list) else [value]  # an axis may take one value
        if not values:
            parser.error(f"{label} needs at least one value")
        named: dict[str, object] = {}  # a value as a cell stem spells it -> the value
        for one in values:
            problem = _problem(setting, one)
            if problem:
                parser.error(f"{label} {problem}")
            name = format(one, "g" if setting.kind is float else "")
            if name in named:
                parser.error(f"{setting.flag} values {named[name]!r} and {one!r} "
                             f"name the same cells ({name}); give each value once")
            named[name] = one
        merged[setting.key] = values if setting.axis else value
    return merged


def _run_repeat(payload: dict) -> list[tuple]:
    """Play one learner trajectory over its prebuilt stream; a worker process may run it.

    Returns one (final average cost, error) pair per cell the play serves, in
    order, so that a CSV that cannot be written fails only its own cell.
    """
    config = payload["config"]
    learner = make_learner(config, *payload["shape"])
    records = play(learner, payload["stream"])
    played = {"m": learner.m, "steps": len(records)}
    return [_outcome(_write_cell, cell, records, payload["stream"], config.cost, played)
            for cell in payload["cells"]]


def _write_cell(cell: dict, records: list, instances: list, played_cost: str, played: dict) -> float:
    """Write one cell's CSV; the learner priced its predictions under played_cost only."""
    price = None if cell["cost"] == played_cost else get_cost(cell["cost"])
    trace = evaluation.CostTrace()
    for rec, inst in zip(records, instances):
        trace.track(rec.incurred_cost if price is None else price(inst.labels, rec.y_hat))
    evaluation.write_cost_csv(cell["csv"], trace, {**cell["header"], **played})
    return trace.final_average


def _outcome(call, *args) -> tuple:
    """(result, None) from call(*args), or (None, exc) for a failure that ends only its cell."""
    try:
        return call(*args), None
    # a crashed pool worker raises BrokenProcessPool, a RuntimeError; an unwritable CSV an OSError
    except (ValueError, RuntimeError, OSError) as exc:
        return None, exc


def _execute(jobs: list[dict], workers: int) -> list[tuple]:
    """Run every job, in a pool when workers > 1; one (result, error) pair per job, in order."""
    if workers <= 1:
        return [_outcome(_run_repeat, job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        submitted = [_outcome(pool.submit, _run_repeat, job) for job in jobs]
        return [(None, exc) if exc is not None else _outcome(future.result) for future, exc in submitted]


def _cmd_run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    merged = _resolve_settings(args, parser)
    workers = merged["workers"]
    if workers is None:
        env_workers = os.environ.get("CSDPP_WORKERS", "1")
        try:
            workers = int(env_workers)
        except ValueError:
            print(f"error: CSDPP_WORKERS must be an integer, got {env_workers!r}", file=sys.stderr)
            return 1
        if workers < 1:
            print(f"error: CSDPP_WORKERS must be >= 1, got {workers}", file=sys.stderr)
            return 1
    try:
        with open(args.dataset, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read dataset: {exc}", file=sys.stderr)
        return 1
    label_names = None
    if args.format == "arff":
        if not args.label_names:
            parser.error("--format arff requires --label-names")
        try:
            with open(args.label_names, encoding="utf-8") as fh:
                label_names = [line.strip() for line in fh if line.strip()]
        except OSError as exc:
            print(f"error: cannot read label names: {exc}", file=sys.stderr)
            return 1
    try:
        instances, d, k = parse_dataset(text, args.format, label_names)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not instances:
        print("error: the dataset has no instances", file=sys.stderr)
        return 1
    if merged["normalize"]:
        instances = stream.normalize_features(instances)

    out_dir = merged["output"]
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return 1
    fed = {LearnerConfig: {}, StreamConfig: {}}  # each config's keyword arguments from the non-axis settings
    for s in _SETTINGS:
        if s.feeds and not s.axis:
            fed[s.feeds[0]][s.feeds[1]] = merged[s.key]
    # a repeat's stream depends only on (seed + repeat, noise_p, limit): every cell shares it
    streams = {
        (noise_p, repeat): build_stream(
            instances, StreamConfig(**fed[StreamConfig], seed=merged["seed"] + repeat, noise_p=noise_p)
        )
        for noise_p in merged["noise_p"]
        for repeat in range(merged["repeats"])
    }
    base_config = LearnerConfig(**fed[LearnerConfig])
    base_header = {s.key: merged[s.key] for s in _SETTINGS if s.recorded}
    plays: dict[tuple, dict] = {}  # (trajectory, noise_p, repeat) -> the job that plays it
    served = []  # (stem, repeat, play key, slot in the play's cells), in grid order
    for algo, cost, m_frac, noise_p in itertools.product(
        merged["algo"], merged["cost"], merged["m_frac"], merged["noise_p"]
    ):
        stem = f"{algo}_{cost}_mf{m_frac:g}_p{noise_p:g}"
        for repeat in range(merged["repeats"]):
            seed = merged["seed"] + repeat
            cell = {"algorithm": algo, "cost": cost, "m_frac": m_frac, "seed": seed}
            key = (trajectory(replace(base_config, **cell), k), noise_p, repeat)
            job = plays.setdefault(
                key,
                {
                    "stream": streams[noise_p, repeat],
                    "shape": (d, k),
                    "config": replace(key[0], cost=cost),
                    "cells": [],
                },
            )
            served.append((stem, repeat, key, len(job["cells"])))
            job["cells"].append(
                {
                    "cost": cost,
                    "header": {**base_header, **cell, "noise_p": noise_p, "repeat": repeat},
                    "csv": os.path.join(out_dir, f"{stem}_r{repeat}.csv"),
                }
            )
    outcomes = dict(zip(plays, _execute(list(plays.values()), workers)))
    results = []  # (stem, repeat, final, error) per cell repeat
    for stem, repeat, key, slot in served:
        cell_outcomes, exc = outcomes[key]
        results.append((stem, repeat, *(cell_outcomes[slot] if exc is None else (None, exc))))
    failed = [(stem, repeat, exc) for stem, repeat, _, exc in results if exc is not None]
    for stem, repeat, exc in failed:
        print(f"error: cell {stem} repeat {repeat}: {exc}", file=sys.stderr)
    if failed:
        print(f"error: {len(failed)} of {len(results)} cell repeats failed", file=sys.stderr)
        return 1

    by_stem: dict[str, list] = {}  # results run in grid order, so each stem's repeats in order
    for stem, _, final, _ in results:
        by_stem.setdefault(stem, []).append(final)
    for stem, finals in by_stem.items():
        summary = {**evaluation.summarize_finals(finals), "cell": stem, "seed_base": merged["seed"]}
        path = os.path.join(out_dir, f"{stem}_summary.json")
        try:
            evaluation.write_json(path, summary)
        except OSError as exc:
            print(f"error: cannot write summary {path}: {exc}", file=sys.stderr)
            return 1
    print(f"wrote {len(results)} cost traces and {len(by_stem)} summaries to {out_dir}")
    return 0


def _cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    for name in args.suites:
        if name not in verify.SUITES:
            parser.error(f"unknown suite {name!r}; available: {sorted(verify.SUITES)}")
    if args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")
    if args.trials is not None and args.trials < 1:
        parser.error(f"--trials must be >= 1, got {args.trials}")
    for name in args.cost or []:
        if name not in available_costs():
            parser.error(f"unknown cost {name!r}; available: {available_costs()}")
    if args.mutant is not None and args.mutant not in verify.MUTANTS.values():
        parser.error(f"unknown mutant {args.mutant!r}; available: {sorted(verify.MUTANTS.values())}")
    kwargs: dict = {"seed": args.seed, "mutant": args.mutant}
    if args.trials is not None:
        kwargs.update(
            trials=args.trials, random_trials=args.trials, condition_trials=args.trials
        )
    else:
        kwargs.update(condition_trials=1000)
    if args.cost:
        kwargs["cost_names"] = args.cost
    reports = verify.run_suites(args.suites or None, **kwargs)
    print(json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True, default=str))
    return 0 if all(r.passed for r in reports) else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args, parser)
    return _cmd_verify(args, parser)


if __name__ == "__main__":
    sys.exit(main())
