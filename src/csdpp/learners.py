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
width-M head regresses encoded targets, and a rotated one is turned onto each
new basis before its update (see `regressor.Head`).  Cost weights are
extracted per instance from the configured cost around the current prediction.

Every step runs: predict with the current basis, decode, price the
prediction, weight the labels, update the spectral state with the weighted
label direction and sample the next basis (tracked encoder only), update the
head.  All tracked variants consume identical randomness (one sampler draw
per step plus one at construction), so seed-matched runs are paired
comparisons.

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
from .online_pca import CappedMsgState, default_eta_schedule
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
    "PredictionRecord",
    "decode",
    "make_learner",
    "play",
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


def decode(basis: np.ndarray, code: np.ndarray) -> np.ndarray:
    """Componentwise sign of basis^T code; sign(0) resolves to +1."""
    return np.where(basis.T @ code >= 0.0, 1, -1).astype(np.int8)


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
    refresh_every: int = 10_000
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

    def __init__(self, config: LearnerConfig, d: int, k: int):
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
        self.t = 0

        # label encoder: basis (M x K) encodes, decoder (K x M, Gaussian only) decodes
        self.msg = None
        self.basis = self.decoder = None
        if encoder == "tracked":
            self.msg = CappedMsgState.initialize(
                k, m, config.seed, default_eta_schedule(m, k, config.eta_scale)
            )
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
        self.head = Head(
            d,
            k if self.label_head else m,
            rule=config.resolve_engine(d, k),
            lam=config.lam,
            refresh_every=config.refresh_every,
            sgd_step_scale=config.sgd_step_scale,
            basis=self.basis if head == "rotated" else None,
        )

    def predict_code(self, x: np.ndarray) -> np.ndarray:
        code = self.head.predict(x)
        if self.label_head and self.basis is not None:
            return self.basis @ code
        return code

    def _decode(self, code: np.ndarray) -> np.ndarray:
        # decode(B, code) is sign(B^T code): orthonormal tracked rows are their own
        # pseudo-inverse's transpose, the Gaussian's pseudo-inverse goes in transposed
        if self.msg is not None:
            return decode(self.basis, code)
        if self.decoder is not None:
            return decode(self.decoder.T, code)
        return np.where(code >= 0.0, 1, -1).astype(np.int8)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self._decode(self.predict_code(x))

    def step(self, x: np.ndarray, y: np.ndarray) -> PredictionRecord:
        self.t += 1
        basis = new_basis = self.basis
        code = self.predict_code(x)
        y_hat = self._decode(code)
        incurred = self.cost(y, y_hat)

        if self.weighted:
            weights = costs_mod.label_weights(self.cost, y, y_hat, self.order, _checked=True)
            sqrt_w = weights.sqrt_deltas
        else:
            sqrt_w = self._sqrt_w
        target = sqrt_w * y
        if self.audit is not None:
            enc = basis @ target
            residual = target - basis.T @ enc
            rhs = float(np.sum((code - enc) ** 2) + np.sum(residual**2))
            lhs = incurred if self.weighted else costs_mod.hamming_loss(y, y_hat)
            self.audit.observe(lhs - rhs)

        if self.msg is not None:
            direction = target
            norm = math.sqrt(direction @ direction)  # np.linalg.norm of a contiguous vector, bit for bit
            if norm > 1.0 + TOL.unit_norm_slack:  # weight mass can exceed 1 for some costs
                direction = direction / norm
            self.msg.update(direction, self.t)
            new_basis = self.msg.sample_projection(self.rng_sampler)

        if self.label_head:
            self.head.update(x, target)
        else:  # a rotated head encodes with the basis it is turned onto, a plain one with the old
            self.head.update(x, target, new_basis if self.head.basis is not None else basis)
        self.basis = new_basis
        return PredictionRecord(self.t, y_hat, incurred)

    def regret_snapshot(self) -> dict:
        """State entering the next step, for expected-regret accounting."""
        if self.msg is None or not self.label_head or self.head.acc is None:
            raise ValueError("regret accounting needs the ridge label-space head")
        return {
            "q": self.msg.q.copy(),
            "sigma": self.msg.sigma.copy(),
            "h": self.head.w.copy(),
        }


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
    """
    snap = {}
    for name, value in _state(obj).items():
        if isinstance(value, np.ndarray):
            snap[name] = value.tolist()
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
            array = np.array(snap[name], dtype=value.dtype)
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


def play(learner, instances: list[Instance]) -> list[PredictionRecord]:
    """Run the learner over the stream in order; one record per step."""
    return [learner.step(inst.features, inst.labels) for inst in instances]
