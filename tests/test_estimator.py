"""Estimator: quantiles, batch sizing, shot value tables, stopping behavior."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfid.estimator import (
    BatchStat,
    BatchTable,
    DimensionMismatch,
    DomainError,
    EstimationError,
    Plan,
    PlanConfig,
    UniformIdeal,
    batch_size,
    bernoulli_hellinger,
    estimate,
    hellinger_distance,
    shot_values,
    success_set,
    truncate,
    xeb_scale,
    z_quantile,
)
from qfid.report import to_json
from qfid.simulator import DistributionOracle, OutcomeDistribution

# Phi^-1(1 - alpha/2) reference values (Abramowitz & Stegun style table)
Z_TABLE = {
    0.05: 1.959963984540054,
    0.01: 2.5758293035489004,
    0.10: 1.6448536269514722,
    0.3173105078629141: 1.0000000000,
    0.5: 0.6744897501960817,
}


def dist(probs) -> OutcomeDistribution:
    probs = np.asarray(probs, dtype=float)
    bits = int(math.log2(len(probs)))
    return OutcomeDistribution(bits, probs)


def test_z_quantile_table():
    for alpha, expected in Z_TABLE.items():
        assert z_quantile(alpha) == pytest.approx(expected, abs=1e-6)


# z_quantile's bits at a short grid of alpha: central region, its edge at
# alpha = 0.0485, and the upper tail; every JSON report prints z_alpha
_Z_PINNED = {
    0.5: 0.674489750196082,
    0.05: 1.9599639845400538,
    0.0485: 1.972961051311885,
    0.01: 2.575829303548903,
    1e-12: 7.1304946053385825,
}


def test_z_quantile_pinned_bits():
    assert {alpha: z_quantile(alpha) for alpha in _Z_PINNED} == _Z_PINNED
    # 1 - alpha/2 rounds to 1.0 below alpha = 2^-53
    with pytest.raises(DomainError, match=r"probability must be in \(0,1\), got 1\.0"):
        z_quantile(1e-17)


def test_z_quantile_edges():
    assert z_quantile(0.999999) < 1e-4
    with pytest.raises(DomainError):
        z_quantile(0.0)
    with pytest.raises(DomainError):
        z_quantile(1.0)


def test_batch_size_examples():
    cfg = PlanConfig()
    assert batch_size(4 / 3, 8, cfg) == 20  # ceil(2.93) = 3 -> floor batch_min
    assert batch_size(10.0, 1000, cfg) == 70
    assert batch_size(5.0, 0, cfg) == cfg.batch_min
    with pytest.raises(EstimationError):
        batch_size(0.0, 10, cfg)


def test_batch_size_monotone_in_inputs():
    cfg = PlanConfig(batch_min=1)
    values = [batch_size(c, d, cfg) for c, d in ((2, 10), (4, 10), (4, 100), (8, 100))]
    assert values == sorted(values)


def test_success_set_threshold():
    ideal = dist([0.6, 0.31, 0.05, 0.04])
    assert success_set(ideal) == {0, 1}  # 0.31 >= 0.5 * 0.6


def test_xeb_uniform_raises():
    with pytest.raises(UniformIdeal):
        xeb_scale(dist([0.25] * 4))


def test_xeb_scale_normalization():
    ideal = dist([0.7, 0.1, 0.1, 0.1])
    a, b = xeb_scale(ideal)
    # expectation of the transformed value under the ideal itself is 1
    assert float((a * ideal.probs + b) @ ideal.probs) == pytest.approx(1.0)
    # ... and 0 under the uniform distribution
    assert float(np.mean(a * ideal.probs + b)) == pytest.approx(0.0, abs=1e-12)


def test_shot_values_table():
    ideal = dist([0.6, 0.31, 0.05, 0.04])
    assert shot_values(ideal, "success").tolist() == [1.0, 1.0, 0.0, 0.0]
    a, b = xeb_scale(ideal)
    assert shot_values(ideal, "xeb").tolist() == (a * ideal.probs + b).tolist()


class StubOracle:
    """Feeds a fixed sequence of outcome indices."""

    def __init__(self, num_bits: int, sequence):
        self.num_bits = num_bits
        self._seq = np.asarray(sequence, dtype=np.int64)
        self._pos = 0

    def sample(self, batch_size: int):
        batch = self._seq[self._pos : self._pos + batch_size]
        self._pos += batch_size
        if len(batch) < batch_size:
            raise RuntimeError("stub exhausted")
        return batch


def test_constant_stream_stops_at_min_batches():
    ideal = dist([0.0, 1.0])
    oracle = StubOracle(1, [1] * 200)
    cfg = PlanConfig(delta=0.01)
    trace = estimate(oracle, ideal, Plan(20, cfg))
    assert trace.stop_reason == "ci_met"
    assert trace.shots_used == 40  # 2 batches: min_batches_before_stop
    assert trace.fhat == 1.0
    assert trace.sigma == 0.0
    assert trace.ci == 0.0


def test_ci_formula_example():
    # sigma = 0.25, |T| = 2500 -> CI = 1.959964 * 0.25 / 50 = 0.009800 <= 0.01
    cfg = PlanConfig(delta=0.01, alpha=0.05)
    # 2500 values of mean 0.5 whose squared deviations sum to 0.25^2 * 2499
    mean, std, ci = cfg.interval(1250.0, 0.25**2 * 2499 + 2500 * 0.5**2, 2500)
    assert (mean, std) == pytest.approx((0.5, 0.25))
    assert ci == pytest.approx(0.0098, abs=1e-6)
    assert cfg.holds(ci, 2, 2500)[0]


def test_stopping_matches_reference_loop():
    """Independent incremental loop must agree on the exact stop index."""
    ideal = dist([0.0, 1.0])
    cfg = PlanConfig(delta=0.01, alpha=0.05)
    z_ref = 1.959963984540054
    for seed in range(30):
        rng = np.random.default_rng(seed)
        values = (rng.random(40_000) < 0.5).astype(float)
        stream = values.astype(np.int64)

        # reference: plain numpy recomputation after every batch of 20
        stop_ref = None
        for nb in range(1, 40_000 // 20 + 1):
            t = values[: nb * 20]
            sigma = t.std(ddof=1)
            ci = z_ref * sigma / math.sqrt(len(t))
            if ci <= cfg.delta and nb >= cfg.min_batches_before_stop:
                stop_ref = (len(t), "ci_met")
                break
            if len(t) >= cfg.p_max:
                stop_ref = (len(t), "cap_reached")
                break

        trace = estimate(StubOracle(1, stream), ideal, Plan(20, cfg))
        assert (trace.shots_used, trace.stop_reason) == stop_ref, seed


def test_cap_reached_on_high_variance_stream():
    ideal = dist([0.0, 1.0])
    rng = np.random.default_rng(0)
    stream = [1 if rng.random() < 0.5 else 0 for _ in range(30_000)]
    cfg = PlanConfig(delta=0.001, p_max=1000)
    trace = estimate(StubOracle(1, stream), ideal, Plan(20, cfg))
    assert trace.stop_reason == "cap_reached"
    assert trace.shots_used == 1000


def test_shots_bounded_by_cap_plus_batch():
    ideal = dist([0.0, 1.0])
    rng = np.random.default_rng(1)
    stream = [1 if rng.random() < 0.5 else 0 for _ in range(30_000)]
    cfg = PlanConfig(delta=0.0001, p_max=990)  # not a batch multiple
    trace = estimate(StubOracle(1, stream), ideal, Plan(20, cfg))
    assert trace.stop_reason == "cap_reached"
    assert trace.shots_used < cfg.p_max + trace.plan.batch


def test_stop_condition_holds_on_recorded_trace():
    ideal = dist([0.05, 0.95])
    oracle = DistributionOracle(ideal, seed=3)
    cfg = PlanConfig(delta=0.01)
    trace = estimate(oracle, ideal, Plan(20, cfg))
    assert trace.stop_reason == "ci_met"
    assert trace.ci <= cfg.delta
    # F-hat equals the S-outcome frequency exactly
    last = trace.batches[-1]
    assert last.cum_mean == trace.fhat
    assert trace.fhat == pytest.approx(
        sum(b.batch_mean * b.size for b in trace.batches) / trace.shots_used
    )


def test_ci_recomputed_every_batch_and_monotone_in_t():
    sigma = 0.4
    t = np.array([100, 400, 1600])
    # zero-mean values whose squared deviations sum to sigma^2 * (t - 1)
    _, std, ci = PlanConfig(alpha=0.05).interval(np.zeros(3), sigma**2 * (t - 1), t)
    assert std == pytest.approx(sigma)
    assert list(ci) == sorted(ci, reverse=True)


def test_success_fhat_in_unit_interval():
    ideal = dist([0.3, 0.7])
    oracle = DistributionOracle(ideal, seed=9)
    trace = estimate(oracle, ideal, Plan(20, PlanConfig(delta=0.05)))
    assert 0.0 <= trace.fhat <= 1.0


def test_xeb_estimate_unbiased_on_ideal_oracle():
    probs = np.array([0.55, 0.25, 0.15, 0.05])
    ideal = dist(probs)
    oracle = DistributionOracle(ideal, seed=4)
    cfg = PlanConfig(delta=0.02, estimator="xeb", p_max=50_000)
    trace = estimate(oracle, ideal, Plan(500, cfg))
    assert trace.fhat == pytest.approx(1.0, abs=5 * trace.ci + 0.02)
    assert 0.0 <= trace.fhat <= 1.05


def test_estimate_dimension_mismatch():
    ideal = dist([0.5, 0.3, 0.1, 0.1])
    oracle = DistributionOracle(dist([1.0, 0.0]), seed=0)
    with pytest.raises(DimensionMismatch):
        estimate(oracle, ideal, Plan(10, PlanConfig()))


def test_plan_config_validation():
    with pytest.raises(DomainError):
        PlanConfig(delta=0.0)
    with pytest.raises(DomainError):
        PlanConfig(alpha=1.0)
    with pytest.raises(DomainError):
        PlanConfig(p_max=5, batch_min=10)
    with pytest.raises(DomainError):
        PlanConfig(estimator="other")
    for min_batches in (0, -1):
        with pytest.raises(DomainError):
            PlanConfig(min_batches_before_stop=min_batches)
    with pytest.raises(EstimationError):
        Plan(0, PlanConfig())


def test_hellinger_examples():
    p = dist([1.0, 0.0])
    q = dist([0.5, 0.5])
    assert hellinger_distance(p, p) == 0.0
    assert hellinger_distance(p, dist([0.0, 1.0])) == pytest.approx(1.0)
    assert hellinger_distance(p, q) == pytest.approx(0.5411961001461971, abs=1e-12)
    with pytest.raises(DimensionMismatch):
        hellinger_distance(p, dist([0.25] * 4))


def test_bernoulli_hellinger():
    assert bernoulli_hellinger(0.9, 0.9) == 0.0
    assert bernoulli_hellinger(1.0, 0.0) == pytest.approx(1.0)
    two_cell = hellinger_distance(dist([0.8, 0.2]), dist([0.7, 0.3]))
    assert bernoulli_hellinger(0.2, 0.3) == pytest.approx(two_cell, abs=1e-12)
    assert bernoulli_hellinger(1.04, 1.0) == 0.0  # clamped xeb report


def _stop_test(cfg, stat):
    """The rule's stop test on one row, as the reason it names, or ""."""
    ci_met, cap_reached = cfg.holds(stat.ci, stat.index + 1, stat.total_shots)
    return "ci_met" if ci_met else "cap_reached" if cap_reached else ""


# the truncation cases; the ci-deep profile (tests/conftest.py) raises their count
_TRUNCATION_CASES = dict(
    weights=st.lists(st.integers(1, 40), min_size=4, max_size=4),
    noise=st.lists(st.integers(0, 40), min_size=4, max_size=4).filter(any),
    batch=st.integers(1, 60),
    min_batches=st.integers(1, 4),
    p_max=st.integers(1, 3000),
    estimator=st.sampled_from(["success", "xeb"]),
    deltas=st.lists(st.floats(0.005, 0.4), min_size=1, max_size=4),
    seed=st.integers(0, 2**16),
)


def _truncation_examples(test):
    test = example(weights=[9, 1, 1, 1], noise=[1, 1, 1, 1], batch=20, min_batches=2,
                   p_max=200, estimator="xeb", deltas=[0.01, 0.3], seed=0)(test)
    test = example(weights=[1, 30, 1, 1], noise=[0, 1, 0, 0], batch=7, min_batches=4,
                   p_max=50, estimator="success", deltas=[0.2, 0.001, 0.05], seed=1)(test)
    return settings(max_examples=max(120, settings().max_examples), deadline=None)(
        given(**_TRUNCATION_CASES)(test)
    )


def _truncation_run(weights, noise, batch, min_batches, p_max, estimator, deltas, seed):
    """(ideal, noisy, the plan configs, the trace at the tightest delta), or
    None where xeb is undefined."""
    ideal = dist(np.array(weights) / sum(weights))
    if estimator == "xeb" and len(set(weights)) == 1:
        return None  # xeb is undefined on a uniform ideal
    noisy = dist(np.array(noise) / sum(noise))
    cfgs = [
        PlanConfig(delta=d, p_max=p_max, batch_min=1, min_batches_before_stop=min_batches,
                   estimator=estimator)
        for d in deltas
    ]
    tight = min(cfgs, key=lambda cfg: cfg.delta)
    return ideal, noisy, cfgs, estimate(DistributionOracle(noisy, seed), ideal, Plan(batch, tight))


@_truncation_examples
def test_truncated_trace_equals_direct_run(
    weights, noise, batch, min_batches, p_max, estimator, deltas, seed
):
    """Cutting the tightest-delta trace gives the trace of a run at each delta."""
    run = _truncation_run(weights, noise, batch, min_batches, p_max, estimator, deltas, seed)
    if run is None:
        return
    ideal, noisy, cfgs, trace = run
    for cfg in cfgs:
        direct = estimate(DistributionOracle(noisy, seed), ideal, Plan(batch, cfg))
        cut = truncate(trace, Plan(batch, cfg))
        # every batch row, fhat, sigma, ci, shots_used and stop_reason
        assert cut == direct
        # == leaves out the kept shots: they are the stream's first shots_used draws
        assert np.array_equal(cut.outcomes, direct.outcomes)
        fresh = DistributionOracle(noisy, seed).sample(direct.shots_used)
        assert np.array_equal(direct.outcomes, fresh)


@_truncation_examples
def test_truncated_trace_cuts_where_stop_reason_first_holds(
    weights, noise, batch, min_batches, p_max, estimator, deltas, seed
):
    """The column cut stops at the row, and for the reason, that the rule's
    stop test finds walking the rows one by one."""
    run = _truncation_run(weights, noise, batch, min_batches, p_max, estimator, deltas, seed)
    if run is None:
        return
    _, _, cfgs, trace = run
    for cfg in cfgs:
        walked = next((stat, why) for stat in trace.batches if (why := _stop_test(cfg, stat)))
        cut = truncate(trace, Plan(batch, cfg))
        assert (cut.batches[-1], cut.stop_reason) == walked
        assert len(cut.batches) == walked[0].index + 1


def test_truncate_refuses_a_trace_it_cannot_cut():
    ideal = dist([0.05, 0.95])
    cfg = PlanConfig(delta=0.05)
    trace = estimate(DistributionOracle(ideal, seed=3), ideal, Plan(20, cfg))
    assert trace.stop_reason == "ci_met"
    with pytest.raises(EstimationError):
        truncate(trace, Plan(20, PlanConfig(delta=0.001)))  # would need more shots
    with pytest.raises(EstimationError):
        truncate(trace, Plan(20, PlanConfig(delta=0.05, estimator="xeb")))


def test_truncate_refuses_a_plan_that_differs_beyond_delta():
    ideal = dist([0.5, 0.0, 0.0, 0.5])
    noisy = dist([0.45, 0.05, 0.05, 0.45])
    trace = estimate(DistributionOracle(noisy, seed=3), ideal, Plan(20, PlanConfig(delta=0.02)))
    loose = Plan(20, PlanConfig(delta=0.05))
    assert truncate(trace, loose) == estimate(DistributionOracle(noisy, seed=3), ideal, loose)
    for plan in (
        # the cut would stop at 80 shots, where a run under this plan takes 260
        Plan(20, PlanConfig(delta=0.05, alpha=0.01)),
        Plan(20, PlanConfig(delta=0.05, p_max=60)),
        Plan(20, PlanConfig(delta=0.05, min_batches_before_stop=3)),
        Plan(25, PlanConfig(delta=0.05)),
    ):
        with pytest.raises(EstimationError, match="trace ran under"):
            truncate(trace, plan)


class _BitstringOracle(DistributionOracle):
    """A distribution oracle that yields bitstrings, as every oracle once did."""

    def sample(self, batch_size: int):
        idx = super().sample(batch_size)
        width = self.num_bits
        return [format(int(i), f"0{width}b") if width else "" for i in idx]


def _bitstring_loop(oracle, ideal, cfg, batch):
    """The estimate loop as it ran on bitstring shots, verbatim but for its own
    copy of the stop rule; (batches, reason)."""
    z = cfg.z_alpha
    if cfg.estimator == "success":
        good = success_set(ideal)
        value_of = np.zeros(2**ideal.num_bits)
        value_of[list(good)] = 1.0
    else:
        a, b = xeb_scale(ideal)
        value_of = a * ideal.probs + b

    batches: list[BatchStat] = []
    total = 0
    running_sum = 0.0
    running_sumsq = 0.0
    while True:
        shots = oracle.sample(batch)
        values = value_of[[int(s, 2) if s else 0 for s in shots]]
        total += batch
        running_sum += float(values.sum())
        running_sumsq += float(np.square(values).sum())
        mean = running_sum / total
        if total > 1:
            var = max(0.0, (running_sumsq - total * mean * mean) / (total - 1))
        else:
            var = 0.0
        std = math.sqrt(var)
        stat = BatchStat(
            index=len(batches),
            size=batch,
            batch_mean=float(values.mean()),
            cum_mean=mean,
            cum_std=std,
            ci=z * std / math.sqrt(total),
            total_shots=total,
        )
        batches.append(stat)
        # the Wald rule, written out rather than shared with the code under test
        if stat.ci <= cfg.delta and len(batches) >= cfg.min_batches_before_stop:
            return batches, "ci_met"
        if total >= cfg.p_max:
            return batches, "cap_reached"


# the ci-deep profile (tests/conftest.py) raises these two tests' example counts
@settings(max_examples=max(150, settings().max_examples), deadline=None)
@given(
    num_bits=st.integers(1, 6),
    zeros=st.floats(0.0, 0.9),
    batch=st.integers(1, 60),
    p_max=st.integers(1, 4000),
    min_batches=st.integers(1, 4),
    estimator=st.sampled_from(["success", "xeb"]),
    delta=st.floats(0.005, 0.3),
    seed=st.integers(0, 2**16),
)
@example(num_bits=6, zeros=0.0, batch=1, p_max=300, min_batches=2, estimator="xeb",
         delta=0.01, seed=0)
@example(num_bits=3, zeros=0.0, batch=50, p_max=20, min_batches=3, estimator="success",
         delta=0.01, seed=5)  # p_max < batch: one batch, cut short of min_batches
def test_index_shots_match_bitstring_loop(
    num_bits, zeros, batch, p_max, min_batches, estimator, delta, seed
):
    """Index shots in chunks give the per-batch bitstring loop's trace, BatchStat
    for BatchStat, wherever the chunk edges fall."""
    rng = np.random.default_rng(seed)
    dim = 2**num_bits
    ideal_w = rng.random(dim) * (rng.random(dim) >= zeros)
    noisy_w = rng.random(dim) * (rng.random(dim) >= zeros)
    ideal_w[rng.integers(dim)] += 1.0  # never all zero
    noisy_w[rng.integers(dim)] += 1.0
    ideal, noisy = dist(ideal_w / ideal_w.sum()), dist(noisy_w / noisy_w.sum())
    if estimator == "xeb" and abs(dim * float(np.square(ideal.probs).sum()) - 1.0) < 1e-9:
        return  # xeb is undefined on a uniform ideal
    cfg = PlanConfig(delta=delta, p_max=p_max, batch_min=1,
                     min_batches_before_stop=min_batches, estimator=estimator)
    trace = estimate(DistributionOracle(noisy, seed), ideal, Plan(batch, cfg))
    batches, reason = _bitstring_loop(_BitstringOracle(noisy, seed), ideal, cfg, batch)
    assert list(trace.batches) == batches
    assert trace.stop_reason == reason


class _CountingOracle(DistributionOracle):
    """A distribution oracle that counts its calls and the shots it is asked for."""

    requested = 0
    calls = 0

    def sample(self, batch_size: int):
        self.requested += batch_size
        self.calls += 1
        return super().sample(batch_size)


@settings(max_examples=max(150, settings().max_examples), deadline=None)
@given(
    weights=st.lists(st.integers(0, 40), min_size=4, max_size=4).filter(any),
    batch=st.integers(1, 60),
    min_batches=st.integers(1, 6),
    p_max=st.integers(1, 5000),
    estimator=st.sampled_from(["success", "xeb"]),
    delta=st.floats(0.002, 0.3),
    seed=st.integers(0, 2**16),
)
@example(weights=[0, 1, 0, 0], batch=20, min_batches=3, p_max=10_000, estimator="success",
         delta=0.01, seed=0)  # a point mass: ci is 0, the stop comes at min_batches
@example(weights=[5, 5, 5, 5], batch=20, min_batches=2, p_max=990, estimator="success",
         delta=0.0001, seed=1)  # the cap, not a batch multiple
@example(weights=[40, 0, 0, 1], batch=3, min_batches=1, p_max=5000, estimator="xeb",
         delta=0.1, seed=8)  # nearly constant values: the stop comes just past T*
@example(weights=[5, 5, 5, 5], batch=7, min_batches=2, p_max=1000, estimator="success",
         delta=0.0065, seed=2)  # 2T* reaches the cap, which is not a batch multiple
def test_draw_ahead_is_bounded(weights, batch, min_batches, p_max, estimator, delta, seed):
    """The loop asks for at most twice the shots it uses, never past the cap,
    and for exactly the shots it uses when it stops at ``min_batches``."""
    ideal = dist([0.4, 0.3, 0.2, 0.1])
    noisy = dist(np.array(weights) / sum(weights))
    cfg = PlanConfig(delta=delta, p_max=p_max, batch_min=1,
                     min_batches_before_stop=min_batches, estimator=estimator)
    oracle = _CountingOracle(noisy, seed)
    trace = estimate(oracle, ideal, Plan(batch, cfg))
    cap_shots = -(-p_max // batch) * batch
    assert trace.shots_used <= oracle.requested <= min(2 * trace.shots_used, cap_shots)
    if len(trace.batches) == min_batches:
        assert oracle.requested == trace.shots_used


def test_chunks_grow_to_the_earliest_possible_stop():
    """A Bernoulli(0.9) stream at delta 0.01 needs about 3,400 shots.  Doubling
    from two batches of 20 reads them in 8 oracle calls; sizing each chunk from
    the earliest stop the rule allows reads them in 3, with the same trace."""
    ideal, noisy, cfg = dist([1.0, 0.0]), dist([0.9, 0.1]), PlanConfig(delta=0.01)
    oracle = _CountingOracle(noisy, 0)
    trace = estimate(oracle, ideal, Plan(20, cfg))
    assert (trace.stop_reason, trace.shots_used) == ("ci_met", 3340)
    assert list(trace.batches) == _bitstring_loop(_BitstringOracle(noisy, 0), ideal, cfg, 20)[0]
    assert oracle.calls <= 3
    assert oracle.requested <= 2 * trace.shots_used


def test_batch_table_reads_as_rows_of_python_numbers():
    ci = np.array([0.3, 0.02, 0.01])
    table = BatchTable(20, [0.5, 1.0, 0.75], [0.5, 0.75, 0.75], [0.1, 0.2, 0.3], ci, [20, 40, 60])
    assert len(table) == 3
    assert table[-1] == table[2] == BatchStat(2, 20, 0.75, 0.75, 0.3, 0.01, 60)
    assert table[-3] == table[0]
    assert [type(v) for v in vars(table[0]).values()] == [int, int, float, float, float, float, int]
    assert list(table) == [table[0], table[1], table[2]]
    for i in (3, -4):
        with pytest.raises(IndexError):
            table[i]
    # equality is exact, column by column, and the size counts
    columns = [table.batch_mean, table.cum_mean, table.cum_std, table.ci, table.total_shots]
    assert table == BatchTable(20, *columns)
    assert table != BatchTable(21, *columns)
    nudged = np.nextafter(table.ci, 1.0)
    assert table != BatchTable(20, *columns[:3], nudged, columns[4])
    assert table.head(2) == BatchTable(20, *(c[:2] for c in columns))
    assert list(table.head(2)) == list(table)[:2]
    # the columns are copied in and read-only
    ci[0] = -1.0
    assert table[0].ci == 0.3
    with pytest.raises(ValueError):
        table.ci[0] = -1.0
    with pytest.raises(ValueError):
        table.head(1).total_shots[0] = 0
    with pytest.raises(AttributeError):
        table.ci = ci


def test_truncate_cuts_the_table_after_the_first_stop():
    ideal = dist([0.5, 0.0, 0.0, 0.5])
    noisy = dist([0.45, 0.05, 0.05, 0.45])
    trace = estimate(DistributionOracle(noisy, seed=3), ideal, Plan(20, PlanConfig(delta=0.02)))
    cfg = PlanConfig(delta=0.05)
    cut = truncate(trace, Plan(20, cfg))
    rows = len(cut.batches)
    assert 2 <= rows < len(trace.batches)
    assert cut.batches == trace.batches.head(rows)
    assert [_stop_test(cfg, stat) for stat in list(trace.batches)[:rows]] == [""] * (rows - 1) + [
        "ci_met"
    ]
    assert (cut.fhat, cut.sigma, cut.ci, cut.shots_used) == (
        cut.batches[-1].cum_mean, cut.batches[-1].cum_std, cut.batches[-1].ci, rows * 20
    )


# floats over the whole finite range: subnormals, signed zeros, the extremes,
# and integers near 2^53, where the 17-digit text needs every digit
_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                     1.7976931348623157e308, 0.1, 1e16, 1e-5]),
    st.integers(-(2**53) - 8, -(2**53) + 8).map(float),
    st.integers(2**53 - 8, 2**53 + 8).map(float),
)


@settings(max_examples=max(200, settings().max_examples), deadline=None)
@given(
    size=st.integers(1, 10**9),
    rows=st.lists(st.tuples(_FLOATS, _FLOATS, _FLOATS, _FLOATS, st.integers(0, 10**9)),
                  min_size=1, max_size=60),
    indent=st.integers(0, 4),
)
def test_batch_rows_render_as_generic_json(size, rows, indent):
    """``to_json`` writes a table as it writes its rows as plain dicts."""
    table = BatchTable(size, *zip(*rows))
    as_dicts = [
        {"index": i, "size": size, "batch_mean": m, "cum_mean": c, "cum_std": s, "ci": ci,
         "total_shots": t}
        for i, (m, c, s, ci, t) in enumerate(rows)
    ]
    assert to_json(table, indent) == to_json(as_dicts, indent)
    assert to_json({"batches": table}, indent) == to_json({"batches": as_dicts}, indent)


def test_batch_rows_render_non_finite_values_as_format_float_does():
    table = BatchTable(20, [math.nan, 0.5], [math.inf, 0.5], [-math.inf, 0.1], [0.1, 0.2], [20, 40])
    text = to_json(table)
    assert text == to_json([dict(vars(row)) for row in table])
    assert '"batch_mean": NaN' in text
    assert '"cum_mean": Infinity' in text
    assert '"cum_std": -Infinity' in text
    assert '"ci": 0.10000000000000001' in text
