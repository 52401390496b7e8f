"""Command-line entry point.

    csdpp run    --dataset data.txt --algo cs-dpp-pbc --cost f1 --m-frac 0.25 ...
    csdpp verify [suite ...] [--trials N] [--seed S] [--cost NAME]

`run` executes the (algorithm x cost x m-frac x noise x repeat) experiment
grid over one dataset; each cell writes an average-cost CSV, and each repeat
group writes a JSON summary (mean and standard error of the final average
cost).  Repeat r runs with seed base+r for both the stream shuffle/noise and
the learner.  Cells are independent and may run in a worker pool (--workers or
CSDPP_WORKERS).  Given the same spec and seed the outputs are byte-identical.
A failed cell repeat (including a crashed pool worker) is named on stderr;
the CSVs of finished repeats stay on disk and no summaries are written.

Exit codes: 0 ok, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from . import evaluation, verify
from .costs import available_costs, get_cost
from .learners import ALGORITHMS, LearnerConfig, make_learner, play
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
    if merged["workers"] is not None and merged["workers"] < 1:
        parser.error(f"workers must be >= 1, got {merged['workers']}")
    if merged["repeats"] < 1:
        parser.error("--repeats must be >= 1")
    for frac in merged["m_frac"]:
        if not 0.0 < frac <= 1.0:
            parser.error(f"--m-frac must lie in (0, 1], got {frac}")
    for name in merged["cost"]:
        try:
            get_cost(name)
        except ValueError:
            parser.error(f"unknown cost {name!r}; available: {available_costs()}")
    for algo in merged["algo"]:
        if algo not in ALGORITHMS:
            parser.error(f"unknown algorithm {algo!r}; available: {list(ALGORITHMS)}")
    return merged


def _run_repeat(payload: dict) -> dict:
    """One experiment cell repeat; isolated so a worker process can run it."""
    instances = payload["instances"]
    spec = payload["spec"]
    cell_seed = spec["seed"] + spec["repeat"]
    stream = build_stream(
        instances,
        StreamConfig(
            seed=cell_seed, noise_p=spec["noise_p"], limit=spec["limit"], normalize=spec["normalize"]
        ),
    )
    if not stream:
        raise RuntimeError("stream is empty after truncation")
    d = stream[0].features.size
    k = stream[0].labels.size
    config = LearnerConfig(
        algorithm=spec["algo"],
        m_frac=spec["m_frac"],
        cost=spec["cost"],
        seed=cell_seed,
        lam=spec["lam"],
        eta_scale=spec["eta"],
        engine=spec["engine"],
        sgd_step_scale=spec["sgd_step"],
        label_order=spec["label_order"],
        order_seed=spec["order_seed"],
    )
    learner = make_learner(config, d, k)
    records = play(learner, stream)
    trace = evaluation.trace_from_records(records)
    header = {
        "algorithm": spec["algo"],
        "cost": spec["cost"],
        "m": learner.m,
        "m_frac": spec["m_frac"],
        "noise_p": spec["noise_p"],
        "repeat": spec["repeat"],
        "seed": cell_seed,
        "eta": spec["eta"],
        "lambda": spec["lam"],
        "engine": spec["engine"],
        "sgd_step": spec["sgd_step"],
        "label_order": spec["label_order"],
        "order_seed": spec["order_seed"],
        "steps": len(stream),
        "normalize": spec["normalize"],
    }
    evaluation.write_cost_csv(spec["csv_path"], trace, header)
    return {"repeat": spec["repeat"], "final": trace.final_average, "csv": spec["csv_path"]}


def _outcome(call, *args) -> tuple:
    """(result, None) from call(*args), or (None, exc) for a failure that ends only its cell."""
    try:
        return call(*args), None
    except (ValueError, RuntimeError) as exc:  # a crashed pool worker raises BrokenProcessPool, a RuntimeError
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
        instances, _, _ = parse_dataset(text, args.format, label_names)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out_dir = merged["output"]
    os.makedirs(out_dir, exist_ok=True)
    jobs = []
    for algo in merged["algo"]:
        for cost in merged["cost"]:
            for m_frac in merged["m_frac"]:
                for noise_p in merged["noise_p"]:
                    for repeat in range(merged["repeats"]):
                        stem = f"{algo}_{cost}_mf{m_frac:g}_p{noise_p:g}"
                        jobs.append(
                            {
                                "instances": instances,
                                "spec": {
                                    "algo": algo,
                                    "cost": cost,
                                    "m_frac": m_frac,
                                    "noise_p": noise_p,
                                    "repeat": repeat,
                                    "seed": merged["seed"],
                                    "limit": merged["limit"],
                                    "normalize": merged["normalize"],
                                    "eta": merged["eta"],
                                    "lam": merged["lam"],
                                    "engine": merged["engine"],
                                    "sgd_step": merged["sgd_step"],
                                    "label_order": merged["label_order"],
                                    "order_seed": merged["order_seed"],
                                    "csv_path": os.path.join(out_dir, f"{stem}_r{repeat}.csv"),
                                    "stem": stem,
                                },
                            }
                        )
    outcomes = _execute(jobs, workers)
    failed = [(job["spec"], exc) for job, (_, exc) in zip(jobs, outcomes) if exc is not None]
    for spec, exc in failed:
        print(f"error: cell {spec['stem']} repeat {spec['repeat']}: {exc}", file=sys.stderr)
    if failed:
        print(f"error: {len(failed)} of {len(jobs)} cell repeats failed", file=sys.stderr)
        return 1

    by_stem: dict[str, list] = {}
    for job, (result, _) in zip(jobs, outcomes):
        by_stem.setdefault(job["spec"]["stem"], []).append((result["repeat"], result["final"]))
    for stem, finals in by_stem.items():
        finals.sort()
        summary = evaluation.summarize_finals([f for _, f in finals])
        summary["cell"] = stem
        summary["seed_base"] = merged["seed"]
        evaluation.write_json(os.path.join(out_dir, f"{stem}_summary.json"), summary)
    print(f"wrote {len(jobs)} cost traces and {len(by_stem)} summaries to {out_dir}")
    return 0


def _cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    for name in args.suites:
        if name not in verify.SUITES:
            parser.error(f"unknown suite {name!r}; available: {sorted(verify.SUITES)}")
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
