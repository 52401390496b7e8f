"""Command-line entry point.

    csdpp run    --dataset data.txt --algo cs-dpp-pbc --cost f1 --m-frac 0.25 ...
    csdpp verify [suite ...] [--trials N] [--seed S] [--cost NAME]

`run` executes the (algorithm x cost x m-frac x noise x repeat) experiment
grid over one dataset; each cell writes an average-cost CSV, and each repeat
group writes a JSON summary (mean and standard error of the final average
cost).  Repeat r runs with seed base+r for both the stream shuffle/noise and
the learner.  The parent parses and normalizes the dataset once into a
compact row store (`stream.RowStore`), plans every cell repeat once into one
table in grid order, and builds one stream per (noise, repeat), which every
algorithm/cost/m-frac cell shares: a row order and a label matrix over the
store (`stream.Stream`), so neither the parent nor a worker keeps a dense
row.  The cell spec handed to a play carries its row's index, and each job's
outcome is written straight into the rows of the cells its plays served.
Cells whose learners predict alike share one play: a cost-blind plan (all but
the cost-weighted cs-dpp-* ones) plays once per (algorithm, M, noise, repeat),
o-br once per (noise, repeat), and a cs-dpp-* cell under hamming joins its
dpp-* twin (criterion 07).  A play prices its predictions under every cost it
serves: the cost it was played under by the learner's own call, each other one
by one batch call over the whole play on the stream's label matrix
(`CostFunction.each`).  A job plays every trajectory of one stream in lockstep
(`learners.Lockstep`): each step updates the ridge accumulator once for every
ridge head and the uniform-weighted tracker once per M for dpp-pbc, dpp-pbt
and dpp-naive.  When there are fewer streams than workers, each stream's plays
are cut into at most ceil(workers / streams) jobs, so that the spare workers
get work; the cut never splits the plays of one tracker.  No output byte
depends on the grouping or on the cut.  A job carries its stream once, as the
CSR entries of the rows it plays, its plays' LearnerConfigs and their cells'
CSV headers, so jobs may run in a worker pool (--workers or CSDPP_WORKERS).
Given the same spec and seed the outputs are byte-identical.  A failed cell
repeat is named on stderr, once for every cell a failed play served: a
learner that cannot be built or whose step fails fails its own play's cells,
an unwritable CSV its own cell, and a crashed pool worker every cell of its
job.  The CSVs of finished repeats stay on disk and no summaries are
written.  Every other
runtime failure (an unreadable or undecodable dataset or label-name file, a bad
CSDPP_WORKERS, a dataset that does not parse or has no instances, a feature
whose max - min overflows float64, an output directory or a summary that cannot
be written) raises `_Stop`, which `_cmd_run` prints as the run's one error
line; all but the summary stop the run before any CSV is written.

Each `run` setting is one row of `_SETTINGS`.  A --config JSON object sets it
by its flag's name ("_" or "-" alike, "lam" for "lambda", "normalize": false
for --no-normalize); explicit flags win.  A config key takes exactly what its
flag takes and gets the same usage error, before any output is written; a grid
axis also takes one value, and limit, workers and order_seed null (unset).
Ranges: repeats, limit, workers >= 1; seed, order_seed >= 0; eta, sgd_step >= 0
and lambda > 0, all finite; m_frac in (0, 1]; noise_p in [0, 1].  Two grid
axis values naming one cell, and two config keys naming one setting, are usage
errors too, and so are --format arff without --label-names and --label-names
with any other format; every usage error comes before the dataset is read.

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
from .learners import ALGORITHMS, LearnerConfig, Lockstep, play, tracker_key, trajectory
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
    ver.add_argument("--trials", type=int, default=None, help="set each suite's trial counts; horizons stay fixed")
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
        spelled: dict[str, str] = {}  # setting key -> the config key that set it
        for raw, value in loaded.items():
            setting = _BY_KEY.get(raw.replace("-", "_"))
            if setting is None:
                parser.error(f"unknown config key {raw!r}")
            if setting.key in spelled:
                parser.error(f"config keys {spelled[setting.key]!r} and {raw!r} both set {setting.flag}; "
                             f"give it once")
            spelled[setting.key] = raw
            given.append((setting, value, f"config key {raw}"))
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


def _lockstep_groups(keys: list, parts: int, k: int) -> list[list]:
    """Cut one stream's play keys into at most `parts` lockstep groups.

    Plays that share a tracker stay together; the units are dealt, largest
    first, to the group with the fewest plays (the first of equals), so the
    cut depends only on the keys.
    """
    units: dict = {}  # a shared tracker's key, or a play's index -> the plays of one unit
    for i, key in enumerate(keys):
        units.setdefault(tracker_key(key[0], k) or i, []).append(key)
    groups: list[list] = [[] for _ in range(min(parts, len(units)))]
    for unit in sorted(units.values(), key=len, reverse=True):
        min(groups, key=len).extend(unit)
    return groups


def _run_repeat(payload: dict) -> list[list[tuple]]:
    """Play a job's learner trajectories in lockstep over its prebuilt stream; a worker process may run it.

    Returns, per play, one (final average cost, error) pair per cell it serves,
    in order: a learner that cannot be built or whose step fails fails only its
    own play's cells, and a CSV that cannot be written only its own cell.
    """
    instances, plays = payload["stream"], payload["plays"]
    # a store, or a stream over one, carries its label matrix; a list of instances does not
    truth = [inst.labels for inst in instances] if isinstance(instances, list) else instances.labels
    bundle = Lockstep()
    slots, errors = [], []  # per play: its learner's slot in the bundle, the error that kept it out
    for spec in plays:
        slot, exc = _outcome(bundle.add, spec["config"], *payload["shape"])
        slots.append(slot)
        errors.append(exc)
    steps = play(bundle, instances)
    outcomes = []
    for spec, slot, exc in zip(plays, slots, errors):
        if slot is not None:
            exc = bundle.errors[slot]
        if exc is not None:
            outcomes.append([(None, exc)] * len(spec["cells"]))
            continue
        records = [step[slot] for step in steps]
        played = {"m": bundle.learners[slot].m, "steps": len(records)}
        outcomes.append([_outcome(_write_cell, cell, records, truth, spec["config"].cost, played)
                         for cell in spec["cells"]])
    return outcomes


def _write_cell(cell: dict, records: list, truth, played_cost: str, played: dict) -> float:
    """Write one cell's CSV; the learner priced its predictions under played_cost only.

    `truth` holds the stream's label vectors, in step order.
    """
    if cell["cost"] == played_cost:
        costs = [rec.incurred_cost for rec in records]
    else:  # every step of the play re-priced at once
        costs = get_cost(cell["cost"]).each(truth, [rec.y_hat for rec in records])
    trace = evaluation.CostTrace()
    for cost in costs:
        trace.track(cost)
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


class _Stop(Exception):
    """A failure that ends `csdpp run`: its message becomes the run's one stopping error line."""


def _read(path: str, what: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _Stop(f"cannot read {what}: {exc}")


def _cmd_run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    merged = _resolve_settings(args, parser)
    if args.format == "arff" and not args.label_names:
        parser.error("--format arff requires --label-names")
    if args.format != "arff" and args.label_names is not None:
        parser.error(f"--label-names applies only to --format arff, not {args.format}")
    out_dir, workers = merged["output"], merged["workers"]
    try:
        if workers is None:
            env_workers = os.environ.get("CSDPP_WORKERS", "1")
            try:
                workers = int(env_workers)
            except ValueError:
                raise _Stop(f"CSDPP_WORKERS must be an integer, got {env_workers!r}")
            if workers < 1:
                raise _Stop(f"CSDPP_WORKERS must be >= 1, got {workers}")
        text = _read(args.dataset, "dataset")
        label_names = None if args.label_names is None else [
            line.strip() for line in _read(args.label_names, "label names").split("\n") if line.strip()]
        try:
            instances, d, k = parse_dataset(text, args.format, label_names)
            if not instances:
                raise _Stop("the dataset has no instances")
            if merged["normalize"]:
                instances = stream.normalize_features(instances)
        except ValueError as exc:  # a malformed dataset, or a feature that cannot be normalized
            raise _Stop(str(exc))
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise _Stop(f"cannot create output directory: {exc}")
        fed = {LearnerConfig: {}, StreamConfig: {}}  # each config's keyword arguments from the non-axis settings
        for s in _SETTINGS:
            if s.feeds and not s.axis:
                fed[s.feeds[0]][s.feeds[1]] = merged[s.key]
        base_config = LearnerConfig(**fed[LearnerConfig])
        base_header = {s.key: merged[s.key] for s in _SETTINGS if s.recorded}
        cells = []  # per cell repeat, in grid order: [stem, repeat, final average cost, error]
        plays: dict[tuple, dict] = {}  # (noise_p, repeat) -> trajectory -> the play of it, over that stream
        for algo, cost, m_frac, noise_p in itertools.product(
            merged["algo"], merged["cost"], merged["m_frac"], merged["noise_p"]
        ):
            stem = f"{algo}_{cost}_mf{m_frac:g}_p{noise_p:g}"
            for repeat in range(merged["repeats"]):
                cell = {"algorithm": algo, "cost": cost, "m_frac": m_frac, "seed": merged["seed"] + repeat}
                key = trajectory(replace(base_config, **cell), k)
                spec = plays.setdefault((noise_p, repeat), {}).setdefault(
                    key, {"config": replace(key, cost=cost), "cells": []})
                spec["cells"].append(
                    {
                        "index": len(cells),
                        "cost": cost,
                        "header": {**base_header, **cell, "noise_p": noise_p, "repeat": repeat},
                        "csv": os.path.join(out_dir, f"{stem}_r{repeat}.csv"),
                    }
                )
                cells.append([stem, repeat, None, None])
        jobs = []
        for (noise_p, repeat), stream_plays in plays.items():
            # a repeat's stream depends only on (seed + repeat, noise_p, limit): every cell shares it
            shared = build_stream(
                instances, StreamConfig(**fed[StreamConfig], seed=merged["seed"] + repeat, noise_p=noise_p)
            )
            jobs += [{"stream": shared, "shape": (d, k), "plays": [spec for _, spec in group]}
                     for group in _lockstep_groups(list(stream_plays.items()), -(-workers // len(plays)), k)]
        for job, (per_play, exc) in zip(jobs, _execute(jobs, workers)):
            for i, spec in enumerate(job["plays"]):
                for j, cell in enumerate(spec["cells"]):  # a failed job fails every cell of its plays
                    cells[cell["index"]][2:] = (None, exc) if exc is not None else per_play[i][j]
        failed = [row for row in cells if row[3] is not None]
        for stem, repeat, _, exc in failed:
            print(f"error: cell {stem} repeat {repeat}: {exc}", file=sys.stderr)
        if failed:
            raise _Stop(f"{len(failed)} of {len(cells)} cell repeats failed")
        for stem, rows in itertools.groupby(cells, key=lambda row: row[0]):  # a stem's repeats in order
            summary = {**evaluation.summarize_finals([row[2] for row in rows]), "cell": stem,
                       "seed_base": merged["seed"]}
            path = os.path.join(out_dir, f"{stem}_summary.json")
            try:
                evaluation.write_json(path, summary)
            except OSError as exc:
                raise _Stop(f"cannot write summary {path}: {exc}")
    except _Stop as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(cells)} cost traces and {len(cells) // merged['repeats']} summaries to {out_dir}")
    return 0


def _cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Print the reports of `verify.run_suites`, whose refusals are usage errors."""
    try:
        reports = verify.run_suites(args.suites, trials=args.trials, seed=args.seed, mutant=args.mutant,
                                    costs=args.cost)
    except verify.RequestError as exc:
        parser.error(str(exc))
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
