"""Command-line entry point.

    csdpp run    --dataset data.txt --algo cs-dpp-pbc --cost f1 --m-frac 0.25 ...
    csdpp verify [suite ...] [--trials N] [--seed S] [--cost NAME]

`run` executes the (algorithm x cost x m-frac x noise x repeat) experiment
grid over one dataset; each cell writes an average-cost CSV, and each repeat
group writes a JSON summary (mean and standard error of the final average
cost).  Repeat r runs with seed base+r for both the stream shuffle/noise and
the learner.  The parent parses and normalizes the dataset once and builds one
stream per (noise, repeat), which every algorithm/cost/m-frac cell shares.
Cells whose learner ignores the cost (every plan but the cost-weighted
cs-dpp-* ones) share one play per (algorithm, m-frac, noise, repeat), and a
cs-dpp-* cell under hamming shares its dpp-* twin's play (criterion 07): a
job plays one such trajectory and prices its predictions under every cost it
serves, with the same cost call the learner makes, so no output byte depends
on the grouping.  A job carries only its stream, its LearnerConfig and its
cells' CSV headers, so jobs are independent and may run in a worker pool
(--workers or CSDPP_WORKERS).
Given the same spec and seed the outputs are byte-identical.
A failed cell repeat (an unwritable CSV and a crashed pool worker included) is
named on stderr, once for every cell a failed play served; the CSVs of
finished repeats stay on disk and no summaries are written.  A grid axis value
given twice, or two values naming one cell, is a usage error.

Exit codes: 0 ok, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

from . import evaluation, stream, verify
from .costs import available_costs, get_cost
from .learners import ALGORITHMS, LearnerConfig, make_learner, play, trajectory
from .stream import StreamConfig, build_stream, parse_dataset

_GRID_DEFAULTS = {
    "algo": ["cs-dpp-pbc"],
    "cost": ["hamming"],
    "m_frac": [0.25],
    "noise_p": [0.0],
}
_INT_KEYS = ("repeats", "seed", "limit", "workers", "order_seed")
_OPTIONAL_KEYS = ("limit", "workers", "order_seed")  # null in a config means "unset"
_NUMBER_KEYS = ("eta", "lam", "sgd_step")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="csdpp", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute an experiment grid over one dataset")
    run.add_argument("--dataset", required=True, help="path to the dataset file")
    run.add_argument("--format", choices=["sparse-labels", "arff"], default="sparse-labels")
    run.add_argument("--label-names", help="companion label list file (arff only)")
    run.add_argument("--config", help="JSON config file; explicit flags win")
    run.add_argument("--algo", action="append", choices=ALGORITHMS, help="repeatable")
    run.add_argument("--cost", action="append", help="repeatable; see `verify` for names")
    run.add_argument("--m-frac", action="append", type=float, help="code dim as a fraction of K")
    run.add_argument("--noise-p", action="append", type=float, help="positive-label flip probability")
    run.add_argument("--repeats", type=int, default=None)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--limit", type=int, default=None, help="truncate the stream")
    run.add_argument("--no-normalize", action="store_true", help="skip feature normalization")
    run.add_argument("--eta", type=float, default=None, help="encoder step-size scale")
    run.add_argument("--lambda", dest="lam", type=float, default=None, help="ridge strength")
    run.add_argument("--engine", choices=["ridge", "sgd", "auto"], default=None)
    run.add_argument("--sgd-step", type=float, default=None, help="SGD step-size scale")
    run.add_argument("--label-order", choices=["native", "random"], default=None)
    run.add_argument("--order-seed", type=int, default=None)
    run.add_argument("--output", default=None, help="output directory (default ./results)")
    run.add_argument("--workers", type=int, default=None, help="worker pool size (env CSDPP_WORKERS)")

    ver = sub.add_parser("verify", help="run the property self-check suites")
    ver.add_argument("suites", nargs="*", metavar="suite", help=f"default: all of {sorted(verify.SUITES)}")
    ver.add_argument("--trials", type=int, default=None, help="override randomized trial counts")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--cost", action="append", help="restrict lemma3 to these costs")
    ver.add_argument("--mutant", help="inject the named defect (self-test of the suites)")
    return parser


def _merge_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    """Layer resolution: hard defaults < JSON config < explicit flags."""
    merged = {
        "repeats": 1,
        "seed": 0,
        "limit": None,
        "normalize": True,
        "eta": 2.0,
        "lam": 1.0,
        "engine": "ridge",
        "sgd_step": 1.0,
        "label_order": "native",
        "order_seed": None,
        "output": "results",
        "workers": None,
        **_GRID_DEFAULTS,
    }
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config file: {exc}")
        for key, value in loaded.items():
            key = key.replace("-", "_")
            if key == "lambda":
                key = "lam"
            if key not in merged:
                parser.error(f"unknown config key {key!r}")
            if key in _GRID_DEFAULTS and not isinstance(value, list):
                value = [value]  # a grid axis may be given as a single value
            merged[key] = value
    for key in ("algo", "cost", "m_frac", "noise_p"):
        flag_val = getattr(args, key)
        if flag_val:
            merged[key] = flag_val
    for key in ("repeats", "seed", "limit", "eta", "lam", "engine", "sgd_step",
                "label_order", "order_seed", "output", "workers"):
        flag_val = getattr(args, key)
        if flag_val is not None:
            merged[key] = flag_val
    if args.no_normalize:
        merged["normalize"] = False
    for key in _INT_KEYS:
        if not (_is_int(merged[key]) or (merged[key] is None and key in _OPTIONAL_KEYS)):
            parser.error(f"{key} must be an integer, got {merged[key]!r}")
    for key in _NUMBER_KEYS:
        if not _is_number(merged[key]):
            parser.error(f"{key} must be a number, got {merged[key]!r}")
    for key in ("algo", "cost"):
        for value in merged[key]:
            if not isinstance(value, str):
                parser.error(f"{key} values must be strings, got {value!r}")
    for key in ("m_frac", "noise_p"):
        for value in merged[key]:
            if not _is_number(value):
                parser.error(f"{key} values must be numbers, got {value!r}")
    for key, spec in (("algo", ""), ("cost", ""), ("m_frac", "g"), ("noise_p", "g")):
        named: dict[str, object] = {}  # a value as a cell stem spells it -> the value
        for value in merged[key]:
            name = format(value, spec)
            if name in named:
                parser.error(f"--{key.replace('_', '-')} values {named[name]!r} and {value!r} "
                             f"name the same cells ({name}); give each value once")
            named[name] = value
    if merged["workers"] is not None and merged["workers"] < 1:
        parser.error(f"workers must be >= 1, got {merged['workers']}")
    if merged["repeats"] < 1:
        parser.error("--repeats must be >= 1")
    for frac in merged["m_frac"]:
        if not 0.0 < frac <= 1.0:
            parser.error(f"--m-frac must lie in (0, 1], got {frac}")
    for noise_p in merged["noise_p"]:
        if not 0.0 <= noise_p <= 1.0:
            parser.error(f"--noise-p must lie in [0, 1], got {noise_p}")
    if merged["limit"] is not None and merged["limit"] < 1:
        parser.error(f"--limit must be >= 1, got {merged['limit']}")
    for name in merged["cost"]:
        if name not in available_costs():
            parser.error(f"unknown cost {name!r}; available: {available_costs()}")
    for algo in merged["algo"]:
        if algo not in ALGORITHMS:
            parser.error(f"unknown algorithm {algo!r}; available: {list(ALGORITHMS)}")
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
    merged = _merge_config(args, parser)
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
    # a repeat's stream depends only on (seed + repeat, noise_p, limit): every cell shares it
    streams = {
        (noise_p, repeat): build_stream(
            instances, StreamConfig(seed=merged["seed"] + repeat, noise_p=noise_p, limit=merged["limit"])
        )
        for noise_p in merged["noise_p"]
        for repeat in range(merged["repeats"])
    }
    base_config = LearnerConfig(
        lam=merged["lam"],
        eta_scale=merged["eta"],
        engine=merged["engine"],
        sgd_step_scale=merged["sgd_step"],
        label_order=merged["label_order"],
        order_seed=merged["order_seed"],
    )
    base_header = {
        "lambda": merged["lam"],
        **{key: merged[key] for key in ("eta", "engine", "sgd_step", "label_order", "order_seed", "normalize")},
    }
    plays: dict[tuple, dict] = {}  # (trajectory, noise_p, repeat) -> the job that plays it
    served = []  # (stem, repeat, play key, slot in the play's cells), in grid order
    for algo, cost, m_frac, noise_p in itertools.product(
        merged["algo"], merged["cost"], merged["m_frac"], merged["noise_p"]
    ):
        stem = f"{algo}_{cost}_mf{m_frac:g}_p{noise_p:g}"
        for repeat in range(merged["repeats"]):
            seed = merged["seed"] + repeat
            cell = {"algorithm": algo, "cost": cost, "m_frac": m_frac, "seed": seed}
            key = (trajectory(replace(base_config, **cell)), noise_p, repeat)
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

    by_stem: dict[str, list] = {}
    for stem, repeat, final, _ in results:
        by_stem.setdefault(stem, []).append((repeat, final))
    for stem, finals in by_stem.items():
        finals.sort()
        summary = evaluation.summarize_finals([f for _, f in finals])
        summary["cell"] = stem
        summary["seed_base"] = merged["seed"]
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
