"""Streaming multi-label learners.

Every algorithm is the same loop: encode the labels, regress features onto
the codes, decode by sign.  The seven algorithms differ in three choices:

  algorithm    label encoder           label weighting        head
  dpp-pbc      tracked sampler         uniform 1/sqrt(K)      width K
  dpp-pbt      tracked sampler         uniform 1/sqrt(K)      width M, rotated
  dpp-naive    tracked sampler         uniform 1/sqrt(K)      width M
  cs-dpp-pbc   tracked sampler         exact cost weights     width K
  cs-dpp-pbt   tracked sampler         exact cost weights     width M, rotated
  o-br         identity                none                   width K
  o-rand       fixed seeded Gaussian   none                   width M

The tracked sampler draws an orthonormal basis P (M x K) from the capped
spectral tracker each step and decodes by sign(P^T code); the Gaussian
projection is fixed and decodes through its pseudo-inverse.  A width-K head
regresses the (weighted) labels and predicts through the current basis; a
width-M head regresses them encoded with the old basis, or, rotated, is turned
onto the new basis (`regressor.Head.transform`) and regresses them encoded with
it.  The learner holds the basis and encodes; a head holds none.  Cost weights
are taken per instance from the configured cost around the current prediction.

Every step runs in three phases: weigh (predict with the current basis,
decode, price the prediction, weight the labels; this checks y), track (update
the ridge accumulator and, tracked encoder only, the spectral state with the
weighted label direction, then sample the next basis), fit (update the head).
All tracked variants consume identical randomness (one sampler draw per step
plus one at construction), so seed-matched runs are paired comparisons.

A learner alone runs the phases over its own accumulator and tracker; learners
fed one stream may run them together (`Lockstep`), stepping once between weigh
and fit what none of them steers: the ridge accumulator, which reads only the
features, and the one tracker, built once, of the uniform-weighted learners,
which never read their predictions.  Each learner predicts what it does alone.

The per-step audit (opt-in, tracked encoder only) checks the decoding cost bound
cost <= ||code - P C y||^2 + ||(I - P^T P) C y||^2 with C the weight
diagonal actually used, and counts violations beyond tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import costs as costs_mod
from .linalg import TOL
from .online_pca import CappedMsgState, EtaSchedule
from .regressor import Head, RidgeAccumulator, suggest_engine
from .stream import (
    PURPOSE_RANDOM_PROJECTION,
    PURPOSE_SAMPLER,
    Instance,
    substream,
)

__all__ = [
    "ALGORITHMS",
    "LearnerConfig",
    "Lockstep",
    "PredictionRecord",
    "decode",
    "make_learner",
    "play",
    "tracker_key",
    "trajectory",
    "Learner",
    "to_snapshot",
    "from_snapshot",
]

ALGORITHMS = (
    "dpp-pbc",
    "dpp-pbt",
    "dpp-naive",
    "cs-dpp-pbc",
    "cs-dpp-pbt",
    "o-br",
    "o-rand",
)

# algorithm -> (label encoder, label weighting, head), as tabled above; a "label"
# head has width K, a "code" head width M, a "rotated" head is a rotated code head
_PLANS = {
    "dpp-pbc": ("tracked", "uniform", "label"),
    "dpp-pbt": ("tracked", "uniform", "rotated"),
    "dpp-naive": ("tracked", "uniform", "code"),
    "cs-dpp-pbc": ("tracked", "cost", "label"),
    "cs-dpp-pbt": ("tracked", "cost", "rotated"),
    "o-br": ("identity", "none", "label"),
    "o-rand": ("gaussian", "none", "code"),
}


def trajectory(config: LearnerConfig, k: int | None = None) -> LearnerConfig:
    """A config whose learner makes the same prediction as config's at every step.

    Only a "cost" weighting reads the cost beyond pricing the prediction, so any
    other plan's trajectory is keyed with cost hamming.  Under hamming every exact
    cost weight is 1/K, the uniform weight (criterion 07), so a cs-dpp-* learner
    plays its dpp-* twin.  Given K, the code dimension is keyed as the M the
    learner uses: two fractions that round to one M play alike, and the identity
    encoder, whose M is K, ignores them.  Configs with equal trajectories, played
    over one stream, differ only in the price they put on each prediction.
    """
    encoder, weighting, head = _PLANS[config.algorithm]
    if k is not None:
        m = k if encoder == "identity" else config.resolve_m(k)
        config = replace(config, m=m, m_frac=LearnerConfig.m_frac)
    if weighting != "cost":
        return replace(config, cost="hamming")
    if config.cost == "hamming":
        twin = next(name for name, plan in _PLANS.items() if plan == (encoder, "uniform", head))
        return replace(config, algorithm=twin)
    return config


def tracker_key(config: LearnerConfig, k: int) -> tuple | None:
    """(M, seed, eta scale) of a uniform-weighted tracked learner; None for any other.

    Uniform weights never read the prediction, so such a learner's tracker and
    basis draws follow only the labels and this key: over one stream, learners
    with equal keys track alike.  A cost-weighted tracker reads its own
    learner's predictions.
    """
    encoder, weighting, _ = _PLANS[config.algorithm]
    if (encoder, weighting) != ("tracked", "uniform"):
        return None
    return config.resolve_m(k), config.seed, config.eta_scale


_SIGNS = np.array([-1, 1], dtype=np.int8)  # indexed by "is non-negative"


def decode(basis: np.ndarray, code: np.ndarray) -> np.ndarray:
    """Componentwise sign of basis^T code as int8; sign(0) resolves to +1, and NaN to -1."""
    return _SIGNS.take(basis.T @ code >= 0.0)


@dataclass(frozen=True)
class LearnerConfig:
    """Construction-time knobs; anything unset falls back to the defaults here."""

    algorithm: str = "cs-dpp-pbc"
    m: int | None = None            # code dimension; wins over m_frac when set
    m_frac: float = 0.25            # fraction of K, rounded; the learner checks the legal range
    cost: str = "hamming"
    seed: int = 0
    lam: float = 1.0
    eta_scale: float = 2.0
    engine: str = "ridge"           # ridge | sgd | auto
    sgd_step_scale: float = 1.0
    label_order: str = "native"     # native | random
    order_seed: int | None = None
    trust_cost: bool = False        # skip the decomposition probe for custom costs
    audit: bool = False             # per-step decoding-bound audit

    def resolve_m(self, k: int) -> int:
        if self.m is not None:
            m = int(self.m)
        else:
            m = int(round(self.m_frac * k))
        return m

    def resolve_engine(self, d: int, k: int) -> str:
        if self.engine == "auto":
            return suggest_engine(d, k)
        if self.engine not in ("ridge", "sgd"):
            raise ValueError(f"unknown engine {self.engine!r}")
        return self.engine


@dataclass
class PredictionRecord:
    """One step's outcome: the prediction and its price under the configured cost."""

    t: int
    y_hat: np.ndarray
    incurred_cost: float


@dataclass
class AuditTrail:
    checks: int = 0
    violations: int = 0
    max_gap: float = field(default=-np.inf)

    def observe(self, gap: float) -> None:
        self.checks += 1
        self.max_gap = max(self.max_gap, gap)
        if gap > TOL.bound_audit:
            self.violations += 1


def _classify(y: np.ndarray, y_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`costs._validate_pair(y, y_hat)` for a ``y_hat`` from `decode`, which is a
    {-1,+1} int8 vector of shape (K,), K >= 1: only y is checked.

    The categories come as int8 (0 tp, 1 fp, 2 fn, 3 tn), the counts as int64.
    """
    if y.shape != y_hat.shape:
        raise ValueError(costs_mod._SHAPE_ERRORS[1].format(y.shape, y_hat.shape))
    category = 1 - y_hat  # 0 where y_hat is +1, 2 where it is -1
    category += y != 1
    counts = np.bincount(category, minlength=4)
    _, fp, _, tn = counts.tolist()
    if np.count_nonzero(y == -1) != fp + tn:  # the entries of y other than +1 must all be -1
        raise ValueError(costs_mod._VALUE_ERROR)
    return category, counts


def _track(msg: CappedMsgState, rng: np.random.Generator, target: np.ndarray, t: int) -> np.ndarray:
    """Step the tracker at index t with the weighted label direction; returns the next basis.

    The target, weights times a validated label vector, is finite and of shape
    (K,), and of norm <= 1 once scaled here: the update need not check it.
    """
    norm = math.sqrt(target @ target)  # np.linalg.norm of a contiguous vector, bit for bit
    if norm > 1.0 + TOL.unit_norm_slack:  # weight mass can exceed 1 for some costs
        target = target / norm
    msg.update(target, t, _checked=False)
    return msg.sample_projection(rng)


def _resolve_order(config: LearnerConfig, k: int) -> np.ndarray:
    if config.label_order == "native":
        return costs_mod.native_order(k)
    if config.label_order == "random":
        seed = config.seed if config.order_seed is None else config.order_seed
        return costs_mod.random_order(k, seed)
    raise ValueError(f"unknown label order {config.label_order!r}")


def _resolve_cost(config: LearnerConfig, k: int) -> costs_mod.CostFunction:
    cost = costs_mod.get_cost(config.cost)
    if not cost.condition_verified and not config.trust_cost:
        probe = costs_mod.check_condition(cost, trials=2000, k_max=max(2, k), seed=config.seed)
        if not probe.passed:
            raise ValueError(
                f"cost {cost.name!r} violates the decomposition condition "
                f"(witness: {probe.violations[0]}); set trust_cost to override"
            )
    return cost


class Learner:
    """One streaming learner; `_PLANS` maps each algorithm to its three parts."""

    def __init__(
        self, config: LearnerConfig, d: int, k: int, acc: RidgeAccumulator | None = None, lead: Learner | None = None
    ):
        try:
            encoder, weighting, head = _PLANS[config.algorithm]
        except KeyError:
            raise ValueError(f"unknown algorithm {config.algorithm!r}; available: {ALGORITHMS}") from None
        m = k if encoder == "identity" else config.resolve_m(k)
        if encoder == "tracked" and not 1 <= m < k:
            raise ValueError(f"code dimension must satisfy 1 <= M < K, got M={m} K={k}")
        if encoder == "gaussian" and not 1 <= m <= k:
            raise ValueError(f"code dimension must satisfy 1 <= M <= K, got M={m} K={k}")
        self.config = config
        self.d = d
        self.k = k
        self.m = m
        self.cost = _resolve_cost(config, k)
        self.order = _resolve_order(config, k)
        self._native = config.label_order == "native"  # the weights then walk the labels as they lie
        self.t = 0

        # label encoder: basis (M x K) encodes, decoder (K x M, Gaussian only) decodes
        self.msg = None
        self.basis = self.decoder = None
        if lead is not None:  # it reads lead's tracker, sampler and basis (`Lockstep.add`)
            self.msg, self.rng_sampler, self.basis = lead.msg, lead.rng_sampler, lead.basis
        elif encoder == "tracked":
            self.msg = CappedMsgState.initialize(k, m, config.seed, EtaSchedule(config.eta_scale, m, k))
            self.rng_sampler = substream(config.seed, PURPOSE_SAMPLER)
            self.basis = self.msg.sample_projection(self.rng_sampler)
        elif encoder == "gaussian":
            self.basis = substream(config.seed, PURPOSE_RANDOM_PROJECTION).standard_normal((m, k))
            self.decoder = np.linalg.pinv(self.basis)
        self.audit = AuditTrail() if config.audit and self.msg is not None else None

        # label weighting: the square roots of the per-label weights scale the labels
        self.weighted = weighting == "cost"
        self._sqrt_w = np.sqrt(np.full(k, 1.0 / k)) if weighting == "uniform" else np.ones(k)

        self.label_head = head == "label"
        self.rotated = head == "rotated"
        self.head = Head(
            d,
            k if self.label_head else m,
            rule=config.resolve_engine(d, k),
            lam=config.lam,
            sgd_step_scale=config.sgd_step_scale,
            acc=acc,
        )

    def _code(self, raw: np.ndarray) -> np.ndarray:
        # a width-K head predicts labels, which the basis encodes
        if self.label_head and self.basis is not None:
            return self.basis @ raw
        return raw

    def _decode(self, code: np.ndarray) -> np.ndarray:
        # decode(B, code) is sign(B^T code): orthonormal tracked rows are their own
        # pseudo-inverse's transpose, the Gaussian's pseudo-inverse goes in transposed
        if self.msg is not None:
            return decode(self.basis, code)
        if self.decoder is not None:
            return decode(self.decoder.T, code)
        return _SIGNS.take(code >= 0.0)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self._decode(self._code(self.head.predict(x)))

    def _weigh(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, PredictionRecord]:
        """Predict, decode, price and weight: (raw prediction, weighted labels, record).

        The (y, y_hat) pair is classified once, and the step counts only once
        that has checked y (y_hat comes from `decode`, so it needs no check):
        its confusion counts price the prediction, and a cost-weighted learner
        walks its categories for the weights.
        """
        raw = self.head.predict(x)
        code = self._code(raw)
        y = np.asarray(y)
        y_hat = self._decode(code)
        category, counts = _classify(y, y_hat)
        self.t += 1
        incurred = costs_mod._price(self.cost, counts)

        if self.weighted:
            sqrt_w = costs_mod.label_weights(
                self.cost, y, y_hat, None if self._native else self.order, _classified=(category, counts)
            )
            np.sqrt(sqrt_w, out=sqrt_w)
        else:
            sqrt_w = self._sqrt_w
        target = sqrt_w * y
        if self.audit is not None:
            enc = self.basis @ target
            residual = target - self.basis.T @ enc
            rhs = float(np.sum((code - enc) ** 2) + np.sum(residual**2))
            lhs = incurred if self.weighted else costs_mod._price(costs_mod.HAMMING, counts)
            self.audit.observe(lhs - rhs)
        return raw, target, PredictionRecord(self.t, y_hat, incurred)

    def _fit(self, x: np.ndarray, raw: np.ndarray, target: np.ndarray, gain, drawn: np.ndarray | None) -> None:
        """Update the head with the accumulator's ``gain`` for x; move onto ``drawn``, the tracker's next basis."""
        if self.rotated:  # turned onto the new basis, it regresses the targets encoded with it
            self.head.transform(self.basis, drawn)
            self.head.update(x, drawn @ target, gain)
        else:  # a label head regresses the targets, a plain code head them encoded with the old basis
            self.head.update(x, target if self.label_head else self.basis @ target, gain, raw)
        if drawn is not None:
            self.basis = drawn

    def step(self, x: np.ndarray, y: np.ndarray) -> PredictionRecord:
        """One instance: weigh, step its own accumulator and tracker, fit."""
        raw, target, record = self._weigh(x, y)
        gain = None if self.head.acc is None else self.head.acc.update(x)
        drawn = None if self.msg is None else _track(self.msg, self.rng_sampler, target, self.t)
        self._fit(x, raw, target, gain, drawn)
        return record


def _attempt(phase, *args):
    """phase(*args), or the ValueError or RuntimeError it raised."""
    try:
        return phase(*args)
    except (ValueError, RuntimeError) as exc:
        return exc


class Lockstep:
    """Learners played together over one stream, sharing the work none of them steers.

    Ridge heads of equal (d, lambda) read one accumulator, and
    uniform-weighted tracked learners of equal `tracker_key` one tracker and its
    draws.  A step runs the phases of `Learner.step` one at a time over all
    the learners: each weighs, which checks y; each accumulator and tracker
    that a still-running learner holds steps once; each fits.  So each learner
    makes the predictions it makes alone, and a label vector outside {-1,+1},
    which every learner rejects, moves no shared piece.  A learner whose phase
    raises ValueError or RuntimeError stops, its error kept in ``errors``, and
    a shared piece's error stops exactly its readers; the other learners go on.
    """

    def __init__(self) -> None:
        self.learners: list[Learner] = []
        self.errors: list[Exception | None] = []
        self.t = 0
        self._accs: dict[tuple, RidgeAccumulator] = {}
        self._trackers: dict[tuple, Learner] = {}  # key -> the learner whose tracker the others read

    def add(self, config: LearnerConfig, d: int, k: int) -> int:
        """Build a fresh learner in the bundle and return its slot in each step's records.

        Its ridge head is built on the bundle's accumulator of equal (d, lambda),
        and a uniform-weighted tracked learner on the tracker of the bundle's
        first learner of equal `tracker_key`, where there is one; so no
        accumulator or tracker is built only to be dropped.
        """
        if self.t:
            raise ValueError("a learner joins a lockstep bundle before the bundle has stepped")
        acc_key, tracker = (d, config.lam), tracker_key(config, k)  # 1 and 1.0 hash and compare alike
        learner = Learner(config, d, k, self._accs.get(acc_key), self._trackers.get(tracker))
        if learner.head.acc is not None:
            self._accs.setdefault(acc_key, learner.head.acc)
        if tracker is not None:
            self._trackers.setdefault(tracker, learner)
        self.learners.append(learner)
        self.errors.append(None)
        return len(self.learners) - 1

    def step(self, x: np.ndarray, y: np.ndarray) -> list[PredictionRecord | None]:
        """One instance for every learner; a stopped learner's record is None."""
        self.t += 1
        # per learner: its error once it has stopped, else its last phase's result
        runs = [error or _attempt(learner._weigh, x, y) for learner, error in zip(self.learners, self.errors)]
        # each accumulator and tracker a running learner holds -> its step's result; no piece (None) gives None
        shared = {None: None}
        for learner, run in zip(self.learners, runs):
            if isinstance(run, tuple) and learner.head.acc not in shared:
                shared[learner.head.acc] = _attempt(learner.head.acc.update, x)
            if isinstance(run, tuple) and learner.msg not in shared:
                shared[learner.msg] = _attempt(_track, learner.msg, learner.rng_sampler, run[1], learner.t)
        for i, (learner, run) in enumerate(zip(self.learners, runs)):
            if isinstance(run, tuple):
                gain, drawn = shared[learner.head.acc], shared[learner.msg]
                failed = next((piece for piece in (gain, drawn) if isinstance(piece, Exception)), None)
                if failed is None:
                    failed = _attempt(learner._fit, x, run[0], run[1], gain, drawn)
                runs[i] = run[2] if failed is None else failed
        self.errors = [run if isinstance(run, Exception) else None for run in runs]
        return [None if isinstance(run, Exception) else run for run in runs]


_STATEFUL = (CappedMsgState, Head, RidgeAccumulator)


def _state(obj) -> dict:
    """The attributes of obj that a snapshot carries."""
    return {
        name: value
        for name, value in vars(obj).items()
        if isinstance(value, (np.ndarray, np.random.Generator, _STATEFUL)) or type(value) is int
    }


def to_snapshot(obj) -> dict:
    """JSON-ready state of a learner, or of its tracker, head or ridge accumulator.

    Carries every integer and ndarray attribute, the state of every random
    generator, and the same recursively for the tracker, head and accumulator.
    An array is its nested list, or ``{"F": list}`` restored F-ordered if it is not C-contiguous (a
    fresh tracker's frame and basis): BLAS rounds by memory order.
    """
    snap = {}
    for name, value in _state(obj).items():
        if isinstance(value, np.ndarray):
            snap[name] = value.tolist() if value.flags.c_contiguous else {"F": value.tolist()}
        elif isinstance(value, np.random.Generator):
            snap[name] = value.bit_generator.state
        elif isinstance(value, _STATEFUL):
            snap[name] = to_snapshot(value)
        else:
            snap[name] = value
    return snap


def from_snapshot(obj, snap: dict):
    """Overwrite obj with the state in snap and return obj.

    obj must be built with the construction arguments of the object the
    snapshot was taken from, e.g. ``from_snapshot(make_learner(config, d, k), snap)``.
    """
    state = _state(obj)
    if set(snap) != set(state):
        raise ValueError(
            f"snapshot fields {sorted(snap)} do not match {type(obj).__name__} fields {sorted(state)}"
        )
    for name, value in state.items():
        if isinstance(value, np.ndarray):
            values, order = (snap[name].get("F"), "F") if isinstance(snap[name], dict) else (snap[name], "C")
            array = np.array(values, dtype=value.dtype, order=order)
            if array.shape != value.shape:
                raise ValueError(f"snapshot field {name!r} has shape {array.shape}, expected {value.shape}")
            setattr(obj, name, array)
        elif isinstance(value, np.random.Generator):
            value.bit_generator.state = snap[name]
        elif isinstance(value, _STATEFUL):
            from_snapshot(value, snap[name])
        else:
            setattr(obj, name, int(snap[name]))
    return obj


def make_learner(config: LearnerConfig, d: int, k: int) -> Learner:
    return Learner(config, d, k)


def play(learner, instances: list[Instance]) -> list:
    """Run the learner, or a `Lockstep` of learners, over the stream in order; one record per step.

    A lockstep's record of a step is the list of its learners' records.
    """
    return [learner.step(inst.features, inst.labels) for inst in instances]
