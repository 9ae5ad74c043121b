"""Adaptive measurement loop: batch sizing, CI tracking, early stopping.

Each shot is an outcome index from the oracle and contributes one scalar
value, looked up in a per-outcome table; the running mean is the fidelity
estimate.  Two value semantics are available:

* ``success`` (default): 1 if the outcome falls in the high-probability set
  S = {x : p_ideal(x) >= tau * max p_ideal} with tau = 0.5, else 0.  The
  mean is then the probability of an ideal-typical outcome, a natural
  fidelity proxy for deterministic-answer circuits.
* ``xeb``: the normalized linear cross-entropy value, suited to scrambled
  circuits; per-shot values are mapped through
  (2^n * p_ideal(x) - 1) / (2^n * sum p^2 - 1) so mean, deviation and CI
  share one linear scale.

Sampling stops under the Wald rule, which ``PlanConfig`` holds as three
elementwise methods: ``interval`` (the running mean, its deviation and the
half-width z_alpha * sigma / sqrt(|T|)), ``holds`` (the stop test) and
``earliest`` (a bound T* on the first stop, which sizes the loop's chunks
of shots).

A trace keeps its per-batch statistics as the columns of a ``BatchTable``,
one row per batch, as the loop computes them; ``truncate`` cuts a trace
back to a looser delta by applying the stop rule once to those columns.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .simulator import DistributionOracle, OutcomeDistribution

SUCCESS_THRESHOLD = 0.5  # tau: fraction of the ideal max that still counts


class EstimationError(ValueError):
    pass


class UniformIdeal(EstimationError):
    """XEB normalization is undefined for a uniform ideal distribution."""


class DomainError(EstimationError):
    pass


class DimensionMismatch(EstimationError):
    pass


@dataclass(frozen=True)
class PlanConfig:
    delta: float = 0.01
    alpha: float = 0.05
    z_alpha: float = field(init=False)  # z_quantile(alpha); field order is report key order
    p_max: int = 10_000
    batch_min: int = 20
    min_batches_before_stop: int = 2
    estimator: str = "success"

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < 1.0:
            raise DomainError(f"delta must be in (0,1), got {self.delta}")
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha must be in (0,1), got {self.alpha}")
        if 1.0 - self.alpha / 2.0 == 1.0:  # the normal quantile at 1 is infinite
            raise DomainError(f"alpha must exceed 2**-53, got {self.alpha}")
        if self.batch_min < 1:
            raise DomainError(f"batch_min must be >= 1, got {self.batch_min}")
        if self.min_batches_before_stop < 1:
            raise DomainError(
                f"min_batches_before_stop must be >= 1, got {self.min_batches_before_stop}"
            )
        if self.p_max < self.batch_min:
            raise DomainError("p_max must be at least batch_min")
        if self.estimator not in ("success", "xeb"):
            raise DomainError(f"estimator must be success|xeb, got {self.estimator!r}")
        object.__setattr__(self, "z_alpha", z_quantile(self.alpha))

    # The Wald stop rule.  Each method is elementwise, so it reads one look's
    # scalars or a run of looks' arrays, and reads z_alpha as computed above.

    def interval(self, total, total_sq, shots):
        """(mean, std, half_width) of ``shots`` values with sum ``total`` and
        sum of squares ``total_sq``: the half-width is z_alpha * std / sqrt(shots)."""
        mean = total / shots
        var = (total_sq - shots * mean * mean) / np.maximum(shots - 1, 1)
        std = np.sqrt(np.where((shots > 1) & (var > 0.0), var, 0.0))
        return mean, std, self.z_alpha * std / np.sqrt(shots)

    def holds(self, half_width, looks, shots):
        """The stop test after ``looks`` looks and ``shots`` shots: (ci_met, cap_reached).

        ``ci_met`` once the half-width is at most delta and at least
        ``min_batches_before_stop`` looks have run; ``cap_reached`` once the
        shots reach ``p_max``.
        """
        ci_met = (half_width <= self.delta) & (looks >= self.min_batches_before_stop)
        return ci_met, shots >= self.p_max

    def earliest(self, total, total_sq, shots):
        """T*: a shot count at or before which the rule cannot hold, from the
        sum and sum of squares of the first ``shots`` values.

        The sum of squared deviations SS never shrinks as shots are added, so
        at any later count T the half-width z*sqrt(SS_T / (T - 1)) / sqrt(T)
        exceeds z*sqrt(SS) / T, which is at least delta up to T* = z*sqrt(SS) /
        delta.  SS gives up 1e-9 of the sum of squares and T* 1e-9 of itself, far
        more than the rounding of the running sums and of the half-width.
        """
        ss = total_sq - total * total / shots - 1e-9 * total_sq
        return (1.0 - 1e-9) * self.z_alpha * np.sqrt(np.maximum(ss, 0.0)) / self.delta


@dataclass(frozen=True)
class Plan:
    """A measurement plan: the batch size and the stop rule to sample under."""

    batch: int
    config: PlanConfig

    def __post_init__(self) -> None:
        if self.batch < 1:
            raise EstimationError(f"batch must be >= 1, got {self.batch}")

    def to_dict(self) -> dict:
        """The report's ``plan`` object: the batch size, then the config's fields in order."""
        return {"batch_size": self.batch, **asdict(self.config)}


@dataclass
class BatchStat:
    """One batch's row of a trace: its statistics after the batch is added."""

    index: int
    size: int
    batch_mean: float
    cum_mean: float
    cum_std: float
    ci: float
    total_shots: int


_COLUMNS = tuple(f.name for f in fields(BatchStat))[2:]  # all but index and size


@dataclass(frozen=True, eq=False)
class BatchTable:
    """A trace's batches as read-only columns, one row per batch.

    A row's index is its row number and every batch holds ``size`` shots.
    ``len``, indexing (negative too) and iteration give ``BatchStat`` rows of
    Python numbers; tables are equal when their columns are, exactly.  The
    columns cannot be written, and a writeable array is copied in, so
    nothing a caller holds can edit a trace.
    """

    size: int
    batch_mean: np.ndarray
    cum_mean: np.ndarray
    cum_std: np.ndarray
    ci: np.ndarray
    total_shots: np.ndarray

    def __post_init__(self) -> None:
        for name in _COLUMNS:
            column = np.asarray(getattr(self, name), np.int64 if name == "total_shots" else float)
            if column.flags.writeable:  # a column a caller could still write is copied
                column = column.copy()
                column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.ci)

    def __getitem__(self, i: int) -> BatchStat:
        i = range(len(self))[i]
        return BatchStat(i, self.size, *(getattr(self, name).item(i) for name in _COLUMNS))

    def rows(self):
        """Each row's values in ``BatchStat`` field order, as Python numbers."""
        n = len(self)
        return zip(range(n), [self.size] * n, *(getattr(self, name).tolist() for name in _COLUMNS))

    def __iter__(self):
        return (BatchStat(*row) for row in self.rows())

    def __eq__(self, other) -> bool:
        if not isinstance(other, BatchTable):
            return NotImplemented
        return self.size == other.size and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in _COLUMNS
        )

    def head(self, rows: int) -> BatchTable:
        """The table of the first ``rows`` batches."""
        return BatchTable(self.size, *(getattr(self, name)[:rows] for name in _COLUMNS))


@dataclass
class EstimationTrace:
    plan: Plan
    batches: BatchTable
    fhat: float
    sigma: float
    ci: float
    shots_used: int
    stop_reason: str
    # the outcome index of each used shot, in draw order; reports leave it out
    outcomes: np.ndarray = field(compare=False, repr=False)


# Acklam's rational approximation to the inverse normal CDF, then one
# Halley refinement through erfc.  Against an mpmath reference on the same p
# the absolute error of z_quantile is at most 2e-11 for alpha >= 1e-6.  At
# smaller alpha the residual Phi(x) - p cancels near 1 and the error grows:
# 1.2e-9 at 1e-8, 3.8e-9 at 1e-10, 8.4e-9 near 5.6e-14.  It stays over
# statistics.NormalDist: z at alpha = 0.05 is 1.9599639845400538 here, as
# pinned in every JSON report, and ...0536 there.
_PPF_A = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
          1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
_PPF_B = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
          6.680131188771972e01, -1.328068155288572e01)
_PPF_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
          -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
_PPF_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
          3.754408661907416e00)


def z_quantile(alpha: float) -> float:
    """Two-sided normal quantile Phi^-1(1 - alpha/2).

    p = 1 - alpha/2 is at least 0.5, so only the central and upper regions
    of the approximation are needed.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0,1), got {alpha}")
    p = 1.0 - alpha / 2.0
    if p == 1.0:  # alpha below 2^-53
        raise DomainError(f"probability must be in (0,1), got {p}")
    a, b, c, d = _PPF_A, _PPF_B, _PPF_C, _PPF_D
    if p <= 1.0 - 0.02425:
        q = p - 0.5
        r = q * q
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
            ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        )
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    err = 0.5 * math.erfc(-x / math.sqrt(2.0)) - p
    u = err * math.sqrt(2.0 * math.pi) * math.exp(x * x / 2.0)
    return x - u / (1.0 + x * u / 2.0)


def batch_size(complexity: float, depth_t: int, cfg: PlanConfig) -> int:
    """max(batch_min, ceil(C * ln(1 + depth))); the +1 guards depth 0/1."""
    if complexity <= 0.0:
        raise EstimationError(f"complexity must be > 0, got {complexity}")
    if depth_t < 0:
        raise EstimationError(f"depth must be >= 0, got {depth_t}")
    return max(cfg.batch_min, math.ceil(complexity * math.log1p(depth_t)))


def success_set(ideal: OutcomeDistribution) -> set[int]:
    """Outcome indices reaching at least tau * max of the ideal probability."""
    threshold = SUCCESS_THRESHOLD * float(ideal.probs.max())
    return {int(i) for i in np.flatnonzero(ideal.probs >= threshold)}


def xeb_scale(ideal: OutcomeDistribution) -> tuple[float, float]:
    """(a, b) so that a * p_ideal(x) + b is the normalized per-shot value."""
    dim = 2**ideal.num_bits
    denom = dim * float(np.square(ideal.probs).sum()) - 1.0
    if abs(denom) < 1e-9:
        raise UniformIdeal("xeb undefined: ideal distribution is uniform")
    return dim / denom, -1.0 / denom


def shot_values(ideal: OutcomeDistribution, estimator: str) -> np.ndarray:
    """The per-shot value of every outcome index under ``estimator``.

    ``success`` scores 1 on the success set and 0 elsewhere; ``xeb`` scores
    the normalized cross-entropy value a * p_ideal + b.
    """
    if estimator == "success":
        values = np.zeros(2**ideal.num_bits)
        values[list(success_set(ideal))] = 1.0
        return values
    a, b = xeb_scale(ideal)
    return a * ideal.probs + b


def estimate(
    oracle: DistributionOracle, ideal: OutcomeDistribution, plan: Plan
) -> EstimationTrace:
    """Run the adaptive loop under ``plan`` until the stop rule holds.

    Shots are read in chunks of whole batches, one ``oracle.sample`` call
    each: first ``min_batches_before_stop`` batches, since no stop comes
    earlier, then up to twice the batches drawn so far or the whole batches
    within twice the rule's ``earliest`` bound, whichever is more.  A
    chunk's statistics are computed as arrays, batch for batch as a loop
    over its batches would compute them, and the loop stops at the first
    batch where the rule holds.  That batch lies past every batch drawn
    before the chunk and past the bound, so the shots drawn past it, which
    are dropped, are at most as many as the trace used, and never past
    ``ceil(p_max / batch)`` batches in all.  The trace does not depend on
    how the stream is chunked.  Its ``BatchTable`` holds the chunks' arrays
    up to the stop, and it keeps the outcome indices of the shots it used,
    the stream's first ``shots_used`` draws.
    """
    cfg, batch = plan.config, plan.batch
    if oracle.num_bits != ideal.num_bits:
        raise DimensionMismatch(
            f"oracle has {oracle.num_bits} bits, ideal has {ideal.num_bits}"
        )
    value_of = shot_values(ideal, cfg.estimator)
    cap = -(-cfg.p_max // batch)

    chunks: list[tuple[np.ndarray, ...]] = []
    outcomes: list[np.ndarray] = []
    drawn = 0
    earliest = 0.0  # shots at or before which the rule cannot hold
    running = np.zeros(2)  # sum and sum of squares of every value so far
    while True:
        ahead = int(2.0 * earliest) // batch - drawn
        k = min(max(drawn, cfg.min_batches_before_stop, ahead), cap - drawn)
        shots = oracle.sample(k * batch)
        outcomes.append(shots)
        values = value_of[shots].reshape(k, batch)
        # each row sums pairwise, as a batch's own sum does; the cumsum then
        # adds left to right onto the totals so far, as a running sum does
        sums = np.empty((k + 1, 2))
        sums[0] = running
        batch_sum = values.sum(axis=1)
        sums[1:, 0] = batch_sum
        sums[1:, 1] = np.square(values).sum(axis=1)
        cum = np.cumsum(sums, axis=0)
        looks = np.arange(drawn + 1, drawn + k + 1)
        total = looks * batch
        mean, std, ci = cfg.interval(*cum[1:].T, total)
        chunks.append((batch_sum / batch, mean, std, ci, total))
        stop = _first_stop(cfg, ci, looks, total)
        if stop is not None:
            break
        drawn += k
        running = cum[-1]
        earliest = cfg.earliest(*running, drawn * batch)

    row, reason = stop
    used = drawn + row + 1
    table = BatchTable(batch, *(np.concatenate(column)[:used] for column in zip(*chunks)))
    return _stopped(plan, table, reason, np.concatenate(outcomes))


def _first_stop(cfg: PlanConfig, half_width, looks, shots) -> tuple[int, str] | None:
    """(row, reason) of the first of a run of looks where the rule holds, or None."""
    ci_met, cap_reached = cfg.holds(half_width, looks, shots)
    stops = ci_met | cap_reached
    if not stops.any():
        return None
    row = int(stops.argmax())
    return row, "ci_met" if ci_met[row] else "cap_reached"


def _stopped(
    plan: Plan, batches: BatchTable, reason: str, outcomes: np.ndarray
) -> EstimationTrace:
    """The trace that stops after the last of ``batches``; ``outcomes`` holds
    at least its shots, in draw order."""
    last = batches[-1]
    fhat = last.cum_mean
    if plan.config.estimator == "xeb":
        fhat = min(max(fhat, 0.0), 1.05)
    return EstimationTrace(
        plan=plan,
        batches=batches,
        fhat=fhat,
        sigma=last.cum_std,
        ci=last.ci,
        shots_used=last.total_shots,
        stop_reason=reason,
        outcomes=outcomes[: last.total_shots],
    )


def truncate(trace: EstimationTrace, plan: Plan) -> EstimationTrace:
    """The trace ``estimate`` returns under ``plan``, cut from a longer one.

    ``trace`` must come from the same oracle seed and a plan equal to
    ``plan`` except for a tolerance no looser than its delta: the batches
    then agree, and the loop under ``plan`` stops at the first batch where
    the stop rule holds, which is no later than the end of ``trace``.  The
    rule is applied once to the trace's columns, as the loop applies it to a
    chunk's, and the table is cut after the first row where it holds.
    """
    ran = trace.plan
    # field by field: rebuilding a PlanConfig would rerun its checks and z_quantile
    at_delta = vars(plan.config) | {"delta": ran.config.delta}
    if plan.batch != ran.batch or at_delta != vars(ran.config):
        raise EstimationError(f"trace ran under {ran}, not {plan} up to delta")
    table = trace.batches
    stop = _first_stop(plan.config, table.ci, np.arange(1, len(table) + 1), table.total_shots)
    if stop is None:
        raise EstimationError(
            f"trace ends before the stop rule holds at delta {plan.config.delta}"
        )
    row, reason = stop
    return _stopped(plan, table.head(row + 1), reason, trace.outcomes)


def hellinger_distance(p: OutcomeDistribution, q: OutcomeDistribution) -> float:
    """sqrt(1 - sum sqrt(p*q)), clamped to [0, 1]."""
    if p.num_bits != q.num_bits:
        raise DimensionMismatch(f"{p.num_bits} bits vs {q.num_bits} bits")
    affinity = float(np.sqrt(p.probs * q.probs).sum())
    return math.sqrt(min(1.0, max(0.0, 1.0 - affinity)))


def bernoulli_hellinger(f_est: float, f_true: float) -> float:
    """Hellinger distance between the (f, 1-f) per-shot value distributions.

    Inputs are clamped to [0, 1] first, so xeb estimates slightly above 1
    from the reporting clamp are handled gracefully.
    """
    a = min(max(f_est, 0.0), 1.0)
    b = min(max(f_true, 0.0), 1.0)
    affinity = math.sqrt(a * b) + math.sqrt((1.0 - a) * (1.0 - b))
    return math.sqrt(min(1.0, max(0.0, 1.0 - affinity)))
