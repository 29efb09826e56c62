import math
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uacal import calibration
from uacal.action_space import ActionGrid
from uacal.calibration import (
    T_MAX,
    T_MIN,
    CalibrationSample,
    LogitBatch,
    LogitField,
    ProbField,
    apply_temperature,
    ece,
    entropy,
    fit_temperature,
    max_entropy_by_task,
    nll,
    reliability_bins,
    softmax,
)
from uacal.errors import ParameterError, RecordError, ValidationError
from uacal.simbench import make_calibration_set

from conftest import oracle_ece


def field(values):
    return LogitField(ActionGrid((len(values),)), np.asarray(values, dtype=float))


def sample(values, expert, task_id=0):
    return CalibrationSample(field(values), expert, task_id)


def batch_of(samples):
    """The LogitBatch holding the same records as a sample list."""
    return LogitBatch(samples[0].logits.grid,
                      np.stack([s.logits.values for s in samples]),
                      [s.expert for s in samples], [s.task_id for s in samples])


def c4_data(gain):
    """C4's calibration set (tests/test_acceptance.py) for one gain."""
    return make_calibration_set(2000, gain, ActionGrid((64,)), seed=987654321 + 3)


def reference_nll(logits, experts, T):
    """Mean of -(z[e] - logsumexp(z)) over rows, one row at a time, with
    z = logits / T less the row max."""
    picked = []
    for x, e in zip(logits, experts):
        z = np.asarray(x, dtype=np.float64) / T
        z -= z.max()
        picked.append(z[e] - np.log(np.exp(z).sum()))
    return -float(np.mean(picked))


def two_exp_pass(data, T):
    """The NLL pass as it was before the single-exp kernel: log-softmax,
    then p = exp(logp) again for the moments. For a LogitBatch only."""
    picked, grads, curvs, flat = [], [], [], True
    rows = max(1, calibration._BLOCK_BYTES // (8 * data.grid.size))
    for i in range(0, len(data), rows):
        logp = data.logits[i:i + rows].astype(np.float64)
        logp /= T
        logp -= logp.max(axis=1, keepdims=True)
        logp -= np.log(np.exp(logp).sum(axis=1, keepdims=True))
        experts = data.experts[i:i + rows]
        picked.append(np.take_along_axis(logp, experts[:, None], axis=1)[:, 0])
        p = np.exp(logp)
        mean = np.einsum("ij,ij->i", p, logp)
        dev = logp - mean[:, None]
        grads.append(mean - picked[-1])
        curvs.append(np.einsum("ij,ij->i", p * dev, dev))
        flat = flat and bool((logp == logp[:, :1]).all())
    value = -float(np.concatenate(picked).mean())
    grad, curv = (float(np.concatenate(x).mean()) for x in (grads, curvs))
    return value, T * grad, T * T * curv, flat


def one_lane_blocks(batch, T, fn):
    """calibration._softmax_blocks on the calling thread alone: the same row
    blocks, each with fresh z and e arrays, one after another."""
    rows = max(1, calibration._BLOCK_BYTES // (8 * batch.grid.size))
    out = []
    for i in range(0, len(batch), rows):
        z = np.divide(batch.logits[i:i + rows], T, dtype=np.float64)
        z -= z.max(axis=1, keepdims=True)
        e = np.exp(z)
        out.append(fn(z, e, e.sum(axis=1), batch.experts[i:i + rows],
                      batch.task_ids[i:i + rows]))
    return out


def results(batch):
    """Every figure of a fit and a report on batch, as exact values: the
    model with T and NLL as hex, the NLL at three T, the table and entropies."""
    model = fit_temperature(batch)
    table, highs = calibration.calibration_report(batch, model.temperature, 9)
    return (model.temperature.hex(), model.final_nll.hex(), model.iterations,
            model.degenerate, model.at_bound,
            [nll(batch, T).hex() for T in (0.3, 1.0, 7.0)],
            [getattr(table, f).tobytes() for f in ("counts", "mean_confidence", "accuracy")],
            {k: v.hex() for k, v in highs.items()})


def lane_batch(blocks, seed=0):
    """(batch, block bytes) for ``blocks`` row blocks of 4 rows on 24 cells,
    the last one ragged (3 rows)."""
    data = make_calibration_set(4 * blocks - 1, 3.0, ActionGrid((24,)), seed=seed)
    tasks = np.arange(len(data)) % 3
    return LogitBatch(data.grid, data.logits, data.experts, tasks), 8 * 24 * 4


def both_lanes_enter():
    """A function each lane's block function calls first: a lane's first call
    waits until the other lane holds a block too, so both surely take one."""
    barrier, entered = threading.Barrier(2), set()

    def enter():
        lane = threading.current_thread()
        if lane not in entered:
            entered.add(lane)
            barrier.wait(timeout=10)
    return enter


class TestFieldTypes:
    def test_logit_length_mismatch(self):
        with pytest.raises(ValidationError):
            LogitField(ActionGrid((3,)), [0.0, 1.0])

    def test_logit_nan_rejected(self):
        with pytest.raises(ValidationError):
            field([0.0, np.nan])
        with pytest.raises(ValidationError):
            field([np.inf, 0.0])

    def test_prob_sum_enforced(self):
        with pytest.raises(ValidationError):
            ProbField(ActionGrid((2,)), [0.6, 0.5])
        with pytest.raises(ValidationError):
            ProbField(ActionGrid((2,)), [1.2, -0.2])
        with pytest.raises(ValidationError):  # NaN passes every "> bound" check
            ProbField(ActionGrid((3,)), [0.5, np.nan, 0.5])

    def test_sample_expert_bounds(self):
        with pytest.raises(ValidationError):
            sample([0.0, 1.0], expert=2)


class TestSoftmax:
    def test_symmetry(self):
        p = softmax(field([0.0, 0.0, 0.0]))
        assert np.allclose(p.values, 1.0 / 3.0, atol=1e-12)

    def test_analytic(self):
        p = softmax(field([math.log(2.0), 0.0]))
        assert p.values == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-12)

    def test_shift_invariance_overflow_guard(self):
        p = softmax(field([1000.0, 1000.0]))
        assert p.values == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_normalized(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 50))
            p = softmax(field(rng.normal(0, 5, size=n)))
            assert abs(p.values.sum() - 1.0) <= 1e-9


class TestApplyTemperature:
    def test_identity_temperature(self, rng):
        f = field(rng.normal(size=16))
        assert np.array_equal(apply_temperature(f, 1.0).values, softmax(f).values)

    def test_halving_logits(self):
        p = apply_temperature(field([math.log(4.0), 0.0]), 2.0)
        assert p.values == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-12)

    def test_uniform_limit(self):
        p = apply_temperature(field([3.0, 0.0, 0.0]), 1e6)
        assert np.all(np.abs(p.values - 1.0 / 3.0) < 1e-5)

    def test_nonpositive_rejected(self):
        f = field([1.0, 2.0])
        for T in (0.0, -2.0, math.inf):
            with pytest.raises(ParameterError):
                apply_temperature(f, T)

    def test_argmax_preserved(self, rng):
        # monotone transform: maximizer set invariant under any T > 0
        for _ in range(300):
            f = field(rng.normal(0, 3, size=int(rng.integers(2, 40))))
            base = np.argmax(f.values)
            for T in (0.1, 1.0, 10.0):
                assert np.argmax(apply_temperature(f, T).values) == base


def separate_softmax(v, T):
    """softmax(v / T) with a fresh array for each step, as it was written
    before softmax built the field in one buffer."""
    z = v / T
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


@st.composite
def logit_fields(draw):
    """A LogitField on 1-4 axes: normal, constant, or spread so wide that
    some cells underflow to 0 at any T up to T_MAX."""
    dims = tuple(draw(st.lists(st.integers(1, 9), min_size=1, max_size=4)))
    n = math.prod(dims)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "constant", "wide"]))
    if kind == "constant":
        v = np.full(n, draw(st.floats(-1e3, 1e3)))
    elif kind == "wide":  # exp underflows below -745, and these spread over 1e5
        v = rng.normal(0.0, 1e5, n)
        v[0] = v.max() + 1e5
    else:
        v = rng.normal(0.0, draw(st.floats(0.1, 30.0)), n)
    return LogitField(ActionGrid(dims), v)


class TestOneBufferSoftmax:
    """softmax and apply_temperature give the bits of the separate-array steps."""

    @given(logit_fields(), st.floats(T_MIN, T_MAX) | st.sampled_from([T_MIN, 1.0, T_MAX]))
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_separate_steps(self, f, T):
        got = apply_temperature(f, T).values
        assert np.array_equal(got.view(np.int64), separate_softmax(f.values, T).view(np.int64))
        got = softmax(f).values
        assert np.array_equal(got.view(np.int64), separate_softmax(f.values, 1.0).view(np.int64))

    def test_wide_fields_underflow(self):
        # the "wide" kind of logit_fields reaches exp's underflow, so zeros are covered
        v = np.random.default_rng(2).normal(0.0, 1e5, 50)
        v[0] = v.max() + 1e5
        p = apply_temperature(LogitField(ActionGrid((5, 10)), v), T_MAX)
        assert np.count_nonzero(p.values == 0.0) > 0

    def test_result_is_the_only_array_left(self):
        f = field(np.random.default_rng(1).normal(size=64))
        p = apply_temperature(f, 2.0)
        assert not p.values.flags.writeable
        assert not np.shares_memory(p.values, f.values)


def mask_check(values):
    """ProbField's range and sum checks with the masks v < 0 and v > 1: the
    message it raised, or None."""
    v = np.asarray(values, dtype=np.float64)
    if np.any(v < 0) or np.any(v > 1):
        return "probabilities must lie in [0, 1]"
    if not abs(float(v.sum()) - 1.0) <= 1e-9:
        return f"probabilities sum to {v.sum()!r}, expected 1"
    return None


PROB_CHECK_CASES = {
    "nan": [0.5, np.nan, 0.5],
    "nan and a negative": [np.nan, -0.5, 0.5, 1.0],
    "nan and above one": [np.nan, 1.5, -0.5],
    "all nan": [np.nan, np.nan],
    "+inf": [0.5, np.inf, 0.5],
    "-inf": [0.5, -np.inf, 0.5],
    "-0.0": [-0.0, 0.5, 0.5],
    "-0.0 beside one": [1.0, -0.0],
    "only -0.0": [-0.0, -0.0],
    "just above one": [np.nextafter(1.0, 2.0), 0.0],
    "tiny negative": [-5e-324, 0.5, 0.5],
    "small negative": [-1e-12, 1.0],
    "sum off by 2e-9": [0.5, 0.5 + 2e-9],
    "sum off by -2e-9": [0.5, 0.5 - 2e-9],
    "sum off by 5e-10": [0.5, 0.5 + 5e-10],
    "one": [1.0],
}


class TestProbFieldRangeCheck:
    @pytest.mark.parametrize("values", PROB_CHECK_CASES.values(), ids=PROB_CHECK_CASES.keys())
    def test_accepts_and_rejects_as_the_masks_did(self, values):
        want = mask_check(values)
        grid = ActionGrid((len(values),))
        if want is None:
            assert ProbField(grid, values).values.tobytes() == np.array(values).tobytes()
        else:
            with pytest.raises(ValidationError) as err:
                ProbField(grid, values)
            assert str(err.value) == want


class TestNll:
    def test_near_zero_loss(self):
        val = nll([sample([10.0, -10.0], 0)], 1.0)
        assert val == pytest.approx(math.log(1 + math.exp(-20.0)), rel=1e-9)
        assert val == pytest.approx(2.06e-9, rel=0.01)

    def test_uniform(self):
        for T in (0.3, 1.0, 7.0):
            assert nll([sample([1.0] * 4, 2)], T) == pytest.approx(math.log(4), abs=1e-12)

    def test_matches_naive_summation(self, rng):
        # the second input holds two rows per block: four blocks, last ragged
        for n, size in ((100, 8), (7, calibration._BLOCK_BYTES // 16)):
            samples = [sample(rng.normal(0, 2, size=size), int(rng.integers(0, size)))
                       for _ in range(n)]
            T = 1.7
            acc = 0.0
            for s in samples:
                z = np.exp((s.logits.values / T) - np.max(s.logits.values / T))
                acc += -math.log(z[s.expert] / z.sum())
            assert nll(samples, T) == pytest.approx(acc / n, abs=1e-12)

    def test_exact_when_confident_wrong(self, rng):
        # scale-50 logits, every tenth expert on the argmin cell: at small T
        # those experts' probabilities underflow, so only log-softmax is exact
        samples = []
        for i in range(200):
            z = rng.normal(0, 1, size=64) * 50
            samples.append(sample(z, int(np.argmin(z) if i % 10 == 0 else np.argmax(z))))
        for T in (0.01, 0.1, 1.0):
            terms = []
            for s in samples:
                z = s.logits.values / T
                m = max(z)
                lse = m + math.log(math.fsum(math.exp(v - m) for v in z))
                terms.append(lse - z[s.expert])
            want = math.fsum(terms) / len(samples)
            assert nll(samples, T) == pytest.approx(want, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            nll([], 1.0)


class TestFitTemperature:
    def test_degenerate_uniform_logits(self):
        data = [sample([2.0, 2.0, 2.0], 1) for _ in range(5)]
        model = fit_temperature(data)
        assert model.temperature == 1.0
        assert model.degenerate

    @pytest.mark.parametrize("gain", [0.5, 2.0, 5.0])
    def test_c4_data_minimal_in_few_passes(self, gain):
        data = c4_data(gain)
        model = fit_temperature(data)
        assert model.iterations <= 8
        assert not model.at_bound and not model.degenerate
        assert model.final_nll == nll(data, model.temperature)
        for factor in (1 - 1e-3, 1 + 1e-3):
            assert nll(data, model.temperature * factor) >= model.final_nll

    @pytest.mark.parametrize("scale", [1.0, 1000.0])
    def test_pinned_at_t_min_when_every_expert_is_the_argmax(self, rng, scale):
        # NLL falls monotonically as T -> 0; scale 1000 puts every row deep in
        # the exponential tail, where plain Newton steps stay tiny
        data = [sample(z, int(np.argmax(z))) for z in rng.normal(0, 1, (50, 8)) * scale]
        model = fit_temperature(data)
        assert model.temperature == T_MIN
        assert model.at_bound and not model.degenerate
        assert model.iterations <= 8

    def test_pinned_at_t_max_when_every_expert_is_the_argmin(self, rng):
        data = [sample(z, int(np.argmin(z))) for z in rng.normal(0, 1, (50, 8))]
        model = fit_temperature(data)
        assert model.temperature == T_MAX
        assert model.at_bound

    def test_recovers_gain_against_grid_scan(self):
        grid = ActionGrid((64,))
        data = make_calibration_set(2000, 2.0, grid, seed=3)
        model = fit_temperature(data)
        assert abs(model.temperature - 2.0) / 2.0 <= 0.05
        # independent vectorized grid-scan of the NLL objective
        logits = np.stack([s.logits.values for s in data])
        experts = np.array([s.expert for s in data])
        ts = np.geomspace(0.1, 10.0, 200)
        scan = []
        for T in ts:
            z = logits / T
            z = z - z.max(axis=1, keepdims=True)
            logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
            scan.append(-logp[np.arange(len(data)), experts].mean())
        t_star = ts[int(np.argmin(scan))]
        assert abs(t_star - 2.0) / 2.0 <= 0.1
        assert abs(math.log(model.temperature) - math.log(t_star)) <= \
            math.log(ts[1] / ts[0]) * 1.5

    def test_composition(self):
        grid = ActionGrid((32,))
        data = make_calibration_set(800, 3.0, grid, seed=9)
        model = fit_temperature(data)
        rescaled = [CalibrationSample(
            LogitField(grid, s.logits.values / model.temperature),
            s.expert, s.task_id) for s in data]
        refit = fit_temperature(rescaled)
        assert refit.temperature == pytest.approx(1.0, abs=1e-3 * (1 + model.temperature))

    @pytest.mark.parametrize("t0", [0.5, 2.0, 5.0])
    def test_prescale_shifts_fit(self, t0):
        grid = ActionGrid((32,))
        data = make_calibration_set(1200, 2.0, grid, seed=13)
        base = fit_temperature(data).temperature
        scaled = [CalibrationSample(LogitField(grid, s.logits.values * t0),
                                    s.expert, s.task_id) for s in data]
        assert fit_temperature(scaled).temperature == pytest.approx(base * t0, rel=1e-3)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            fit_temperature([])

    def test_deterministic(self):
        grid = ActionGrid((16,))
        data = make_calibration_set(200, 1.5, grid, seed=21)
        a = fit_temperature(data)
        b = fit_temperature(data)
        assert a == b


class TestBatchInput:
    """A LogitBatch and the equivalent sample list give bit-identical results."""

    @pytest.mark.parametrize("n,size", [(300, 16), (7, calibration._BLOCK_BYTES // 16)])
    def test_bit_identical_to_sample_list(self, rng, n, size):
        # the second case holds two rows per block: four blocks, the last ragged
        samples = [sample(rng.normal(0, 3, size=size).astype(np.float32),
                          int(rng.integers(0, size)), int(rng.integers(0, 3)))
                   for _ in range(n)]
        batch = batch_of(samples)
        assert fit_temperature(batch) == fit_temperature(samples)
        assert nll(batch, 1.7) == nll(samples, 1.7)
        a, b = reliability_bins(batch, 0.8, 12), reliability_bins(samples, 0.8, 12)
        for field_name in ("bin_edges", "counts", "mean_confidence", "accuracy"):
            assert np.array_equal(getattr(a, field_name), getattr(b, field_name),
                                  equal_nan=True)
        assert max_entropy_by_task(batch, 1.3) == max_entropy_by_task(samples, 1.3)

    def test_read_only_and_normalised(self):
        batch = LogitBatch(ActionGrid((3,)), np.zeros((2, 3)), np.array([2, 0], np.uint64),
                           np.array([5, 6], np.uint32))
        assert not batch.logits.flags.writeable
        assert len(batch) == 2
        assert batch.experts.tolist() == [2, 0] and batch.task_ids.tolist() == [5, 6]

    @pytest.mark.parametrize("row,value,expert,match", [
        (1, np.nan, 0, "record 1: logits must be finite"),
        (2, -np.inf, 0, "record 2: logits must be finite"),
        (1, 0.0, 3, r"record 1: expert index 3 out of range for \|A\|=3"),
        (0, 0.0, -1, "record 0: expert index -1 out of range"),
    ])
    def test_first_bad_record_named(self, row, value, expert, match):
        logits = np.zeros((4, 3))
        experts = np.zeros(4, dtype=np.int64)
        logits[row, 1] = value
        experts[row] = expert
        logits[3, 0] = np.nan  # a later bad record is not the one reported
        with pytest.raises(ValidationError, match=match):
            LogitBatch(ActionGrid((3,)), logits, experts, np.zeros(4))

    def test_bad_record_carries_index_and_reason(self):
        logits = np.zeros((4, 3))
        logits[2, 0] = np.inf
        with pytest.raises(RecordError) as info:
            LogitBatch(ActionGrid((3,)), logits, np.zeros(4, np.int64), np.zeros(4))
        assert info.value.record == 2
        assert info.value.reason == "logits must be finite (NaN/Inf rejected)"
        assert str(info.value) == "record 2: logits must be finite (NaN/Inf rejected)"

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            LogitBatch(ActionGrid((3,)), np.zeros((2, 4)), [0, 0], [0, 0])
        with pytest.raises(ValidationError):
            LogitBatch(ActionGrid((3,)), np.zeros((2, 3)), [0, 0], [0])

    def test_empty_batch_rejected(self):
        empty = LogitBatch(ActionGrid((3,)), np.zeros((0, 3)), [], [])
        with pytest.raises(ParameterError, match="nonempty"):
            nll(empty, 1.0)
        with pytest.raises(ParameterError, match="nonempty"):
            fit_temperature(empty)

    @pytest.mark.parametrize("experts,tasks,match", [
        ([0.9, 2.7], [0, 0], "record 0: expert index 0.9 is not an integer"),
        ([0, 2.7], [0, 0], "record 1: expert index 2.7 is not an integer"),
        ([1, np.nan], [0, 0], "record 1: expert index nan is not an integer"),
        ([1, 2], [0, 1.5], "record 1: task id 1.5 is not an integer"),
        ([1, 2], [np.inf, 0], "record 0: task id inf is not an integer"),
        ([1, 2], [0, np.nan], "record 1: task id nan is not an integer"),
    ])
    def test_non_integral_ids_name_their_record(self, experts, tasks, match):
        with pytest.raises(RecordError, match=match):
            LogitBatch(ActionGrid((3,)), np.zeros((2, 3)), experts, tasks)

    def test_integral_floats_accepted(self):
        batch = LogitBatch(ActionGrid((3,)), np.zeros((2, 3)), [2.0, 0.0], [7.0, 1.0])
        assert batch.experts.tolist() == [2, 0] and batch.task_ids.tolist() == [7, 1]
        assert len(LogitBatch(ActionGrid((3,)), np.zeros((0, 3)), [], [])) == 0
        whole = sample([0.0, 1.0, 2.0], 2.0, 3.0)
        assert (whole.expert, whole.task_id) == (2, 3) and type(whole.expert) is int

    @pytest.mark.parametrize("expert,task_id,match", [
        (1.5, 0, "expert 1.5 is not an integer"),
        (float("nan"), 0, "expert nan is not an integer"),
        (1, 0.25, "task_id 0.25 is not an integer"),
        (1, float("inf"), "task_id inf is not an integer"),
    ])
    def test_sample_rejects_non_integral_ids(self, expert, task_id, match):
        with pytest.raises(ValidationError, match=match):
            sample([0.0, 1.0, 2.0], expert, task_id)

    @pytest.mark.parametrize("other", [ActionGrid((5,)), ActionGrid((2, 2)),
                                       ActionGrid((4,), (0.5,))])
    def test_mixed_grids_rejected(self, rng, other):
        grid = ActionGrid((4,))
        samples = [CalibrationSample(LogitField(g, rng.normal(size=g.size)), 0)
                   for g in (grid, grid, other)]
        for call in (lambda: nll(samples, 1.0), lambda: fit_temperature(samples),
                     lambda: reliability_bins(samples), lambda: max_entropy_by_task(samples)):
            with pytest.raises(ValidationError, match="all samples must share a single grid"):
                call()


class TestPerRecordAccess:
    """batch[i] and iteration give each record as a CalibrationSample."""

    def test_records_are_read_only_samples(self, rng):
        logits = rng.normal(size=(4, 6))
        batch = LogitBatch(ActionGrid((2, 3)), logits, [5, 0, 3, 1], [2, 2, 0, 1])
        records = list(batch)
        assert len(records) == 4
        assert np.array_equal(batch[-1].logits.values, logits[3]) and batch[-1].expert == 1
        for k, r in enumerate(records):
            assert isinstance(r, CalibrationSample) and r.logits.grid == batch.grid
            assert (r.expert, r.task_id) == (batch.experts[k], batch.task_ids[k])
            assert np.array_equal(r.logits.values, logits[k])
            assert not r.logits.values.flags.writeable
        with pytest.raises(IndexError):
            batch[4]

    def test_float32_rows_read_as_float64(self, rng):
        logits = rng.normal(size=(3, 5)).astype(np.float32)
        batch = LogitBatch(ActionGrid((5,)), logits, [0, 1, 2], [0, 0, 0])
        assert batch[2].logits.values.dtype == np.float64
        assert np.array_equal(batch[2].logits.values, logits[2].astype(np.float64))

    def test_generator_returns_one_float64_batch(self):
        grid = ActionGrid((4, 4))
        data = make_calibration_set(30, 2.0, grid, seed=8, task_id=3)
        assert isinstance(data, LogitBatch) and data.grid == grid
        assert data.logits.dtype == np.float64 and data.logits.shape == (30, 16)
        assert data.task_ids.tolist() == [3] * 30
        assert nll(data, 1.5) == nll(list(data), 1.5)


class TestSingleExpPass:
    """The pass exponentiates each logit once; its NLL is the log-softmax's."""

    @pytest.mark.parametrize("rows_per_block", [1, 3, None])
    @pytest.mark.parametrize("T", [0.01, 0.37, 1.0, 4.0, 100.0])
    def test_nll_bit_identical_to_logsumexp_reference(self, rng, rows_per_block, T):
        size = 24
        samples = [sample(rng.normal(0, 5, size=size).astype(np.float32),
                          int(rng.integers(0, size))) for _ in range(10)]
        batch = batch_of(samples)
        block = calibration._BLOCK_BYTES if rows_per_block is None else 8 * size * rows_per_block
        want = reference_nll(batch.logits, batch.experts, T)
        with mock.patch.object(calibration, "_BLOCK_BYTES", block):
            assert nll(batch, T) == want
            assert nll(samples, T) == want

    @pytest.mark.parametrize("seed", range(12))
    def test_fit_no_worse_than_two_exp_moments(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, 200))
        data = make_calibration_set(int(rng.integers(1, 300)), float(rng.uniform(0.3, 6.0)),
                                    ActionGrid((size,)), seed=seed)
        batch = batch_of(data)
        model = fit_temperature(batch)
        with mock.patch.object(calibration, "_nll_pass", two_exp_pass):
            ref = fit_temperature(batch)
        assert model.iterations == ref.iterations
        assert model.temperature == pytest.approx(ref.temperature, rel=1e-10)
        # both stop within the same log-T tolerance of the minimiser, where the
        # NLL is flat to its last bits: allow the rounding of one pass
        assert model.final_nll <= ref.final_nll + 4 * math.ulp(ref.final_nll)

    def test_rows_equal_only_after_subtracting_log_s_are_not_flat(self):
        # z = [0, -1e-17]: e = [1, 1], s = 2, and both log-softmax entries round
        # to -log 2, but the row is not constant, so the NLL does depend on T
        data = [sample([0.0, -1e-17], 0) for _ in range(3)]
        logp = np.array([0.0, -1e-17]) - math.log(2.0)
        assert logp[0] == logp[1]
        assert not calibration._nll_pass(data, 1.0)[3]
        assert not fit_temperature(data).degenerate
        assert calibration._nll_pass([sample([2.0, 2.0], 0)], 1.0)[3]

    def test_one_report_pass_matches_the_wrappers(self, rng):
        samples = [sample(rng.normal(0, 2, size=12), int(rng.integers(0, 12)),
                          int(rng.integers(0, 3))) for _ in range(40)]
        table, highs = calibration.calibration_report(samples, 1.7, 9)
        alone = reliability_bins(samples, 1.7, 9)
        for field_name in ("bin_edges", "counts", "mean_confidence", "accuracy"):
            assert np.array_equal(getattr(table, field_name), getattr(alone, field_name),
                                  equal_nan=True)
        assert highs == max_entropy_by_task(samples, 1.7)


class TestMaxEntropyByTask:
    def test_matches_per_record_entropy(self, rng):
        samples = [sample(rng.normal(0, 2, size=10), 0, int(rng.integers(0, 4)))
                   for _ in range(60)]
        for T in (0.3, 1.0, 4.0):
            got = max_entropy_by_task(samples, T)
            assert sorted(got) == sorted({s.task_id for s in samples})
            for tid, h in got.items():
                want = max(entropy(apply_temperature(s.logits, T))
                           for s in samples if s.task_id == tid)
                assert h == pytest.approx(want, abs=1e-12)

    def test_one_hot_and_uniform_rows(self):
        data = [sample([800.0, 0.0, 0.0], 0, 7), sample([1.0, 1.0, 1.0], 0, 9)]
        got = max_entropy_by_task(data)
        assert got[7] == 0.0
        assert got[9] == pytest.approx(math.log(3), abs=1e-15)


class TestEce:
    def test_confident_correct_near_zero(self):
        data = [sample([30.0, 0.0, 0.0], 0) for _ in range(10)]
        assert ece(data, 1.0, 15) < 1e-9

    def test_single_sample_one_bin(self):
        # confidence 0.8 on a 2-action field: logits (log 4, 0)
        data = [sample([math.log(4.0), 0.0], 0)]
        assert ece(data, 1.0, 1) == pytest.approx(0.2, abs=1e-12)

    def test_matches_two_pass_oracle(self, rng):
        data = []
        for _ in range(1000):
            logits = rng.normal(0, 2, size=6)
            data.append(sample(logits, int(rng.integers(0, 6))))
        # two rows per block, five blocks with the last ragged; a spike of
        # random height spreads the confidences over the bins
        size = calibration._BLOCK_BYTES // 16
        blocked = []
        for _ in range(9):
            logits = rng.normal(0, 2, size=size)
            spike = int(rng.integers(0, size))
            logits[spike] += rng.uniform(8.0, 20.0)
            expert = spike if rng.random() < 0.5 else int(rng.integers(0, size))
            blocked.append(sample(logits, expert))
        for samples in (data, blocked):
            got = ece(samples, 1.3, 15)
            confs, hits = [], []
            for s in samples:
                z = np.exp(s.logits.values / 1.3 - np.max(s.logits.values / 1.3))
                p = z / z.sum()
                pred = int(np.argmax(p))
                confs.append(float(p[pred]))
                hits.append(1.0 if pred == s.expert else 0.0)
            assert got == pytest.approx(oracle_ece(confs, hits, 15), abs=1e-12)

    def test_bounds(self, rng):
        for _ in range(30):
            data = [sample(rng.normal(0, 3, size=5), int(rng.integers(0, 5)))
                    for _ in range(40)]
            val = ece(data, float(rng.uniform(0.2, 5.0)), int(rng.integers(1, 20)))
            assert 0.0 <= val <= 1.0

    def test_self_sampled_labels_nearly_calibrated(self, rng):
        grid = ActionGrid((8,))
        data = []
        for _ in range(100_000):
            logits = rng.normal(0, 1.0, size=8)
            z = np.exp(logits - logits.max())
            p = z / z.sum()
            data.append(CalibrationSample(LogitField(grid, logits),
                                          int(rng.choice(8, p=p))))
        assert ece(data, 1.0, 15) < 0.02

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            ece([], 1.0, 15)


class TestReliabilityBins:
    def test_confident_correct_tops_out(self):
        data = [sample([40.0, 0.0], 0) for _ in range(8)]
        table = reliability_bins(data, 1.0, 10)
        assert table.counts[-1] == 8
        assert table.counts[:-1].sum() == 0
        assert table.accuracy[-1] == 1.0

    def test_counts_sum_to_dataset_size(self, rng):
        data = [sample(rng.normal(0, 2, size=4), int(rng.integers(0, 4)))
                for _ in range(57)]
        table = reliability_bins(data, 0.9, 15)
        assert int(table.counts.sum()) == 57

    def test_ece_consistency(self, rng):
        data = [sample(rng.normal(0, 2, size=5), int(rng.integers(0, 5)))
                for _ in range(300)]
        table = reliability_bins(data, 1.1, 15)
        assert table.ece() == pytest.approx(ece(data, 1.1, 15), abs=1e-12)

    def test_self_sampled_bins_track_confidence(self, rng):
        grid = ActionGrid((6,))
        data = []
        for _ in range(50_000):
            logits = rng.normal(0, 1.2, size=6)
            z = np.exp(logits - logits.max())
            p = z / z.sum()
            data.append(CalibrationSample(LogitField(grid, logits),
                                          int(rng.choice(6, p=p))))
        table = reliability_bins(data, 1.0, 15)
        for count, conf, acc in zip(table.counts, table.mean_confidence,
                                    table.accuracy):
            if count >= 500:
                assert abs(acc - conf) <= 0.03


class TestEntropy:
    def test_one_hot(self):
        p = ProbField(ActionGrid((4,)), [0.0, 1.0, 0.0, 0.0])
        assert entropy(p) == 0.0

    def test_uniform(self):
        for n in (2, 5, 17):
            p = ProbField(ActionGrid((n,)), np.full(n, 1.0 / n))
            assert entropy(p) == pytest.approx(math.log(n), abs=1e-12)

    def test_half_half(self):
        p = ProbField(ActionGrid((2,)), [0.5, 0.5])
        assert entropy(p) == pytest.approx(math.log(2), abs=1e-12)

    def test_range(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 30))
            v = rng.random(n)
            v /= v.sum()
            h = entropy(ProbField(ActionGrid((n,)), v))
            assert -1e-12 <= h <= math.log(n) + 1e-12


class TestTwoLanes:
    """The pass's row blocks run on the caller and one worker thread, with the
    figures of a one-lane run in block order."""

    @pytest.mark.parametrize("blocks", [1, 2, 3, 5])
    def test_bit_identical_to_one_lane(self, blocks):
        batch, block_bytes = lane_batch(blocks)
        with mock.patch.object(calibration, "_BLOCK_BYTES", block_bytes):
            got = results(batch)
            with mock.patch.object(calibration, "_softmax_blocks", one_lane_blocks):
                want = results(batch)
        assert got == want

    @pytest.mark.parametrize("blocks", [1, 2, 3, 5])
    def test_results_in_block_order_and_one_block_starts_no_thread(self, blocks):
        batch, block_bytes = lane_batch(blocks)
        caller, seen = threading.current_thread(), []

        def rows(z, e, s, experts, tasks):
            seen.append(threading.current_thread())
            return experts.copy()

        with mock.patch.object(calibration, "_BLOCK_BYTES", block_bytes):
            got = calibration._softmax_blocks(batch, 1.0, rows)
        assert np.array_equal(np.concatenate(got), batch.experts)
        assert len(seen) == blocks
        if blocks == 1:
            assert seen == [caller]  # no thread started

    @pytest.mark.parametrize("where", ["worker", "caller"])
    def test_a_lane_error_reaches_the_caller(self, where):
        batch, block_bytes = lane_batch(5)
        caller, enter = threading.current_thread(), both_lanes_enter()

        def rows(z, e, s, experts, tasks):
            enter()
            if (threading.current_thread() is caller) == (where == "caller"):
                raise RuntimeError(f"failed on the {where}")
            return experts

        before = threading.enumerate()
        with mock.patch.object(calibration, "_BLOCK_BYTES", block_bytes), \
                pytest.raises(RuntimeError, match=f"failed on the {where}"):
            calibration._softmax_blocks(batch, 1.0, rows)
        assert threading.enumerate() == before

    @pytest.mark.parametrize("divide", ["raise", "ignore"])
    def test_worker_keeps_the_callers_errstate(self, divide):
        batch, block_bytes = lane_batch(5)
        caller, enter = threading.current_thread(), both_lanes_enter()

        def rows(z, e, s, experts, tasks):
            enter()
            if threading.current_thread() is not caller:
                np.log(np.zeros(1))  # divide by zero
            return experts

        with mock.patch.object(calibration, "_BLOCK_BYTES", block_bytes), \
                np.errstate(divide=divide):
            if divide == "raise":
                with pytest.raises(FloatingPointError):
                    calibration._softmax_blocks(batch, 1.0, rows)
            else:
                calibration._softmax_blocks(batch, 1.0, rows)


class TestBeside:
    """calibration._beside, for what the pass's and the hashes' tests do not reach."""

    def test_block_error_while_fn_runs_joins_the_worker(self):
        started, finished = threading.Event(), []

        def slow():
            started.set()
            time.sleep(0.1)
            finished.append(True)

        before = threading.enumerate()
        with pytest.raises(KeyError, match="the block failed"):
            with calibration._beside(slow):
                assert started.wait(timeout=10)
                raise KeyError("the block failed")
        assert threading.enumerate() == before
        assert finished == [True]

    def test_fn_sees_the_callers_errstate(self):
        with np.errstate(over="raise", divide="ignore", under="warn"):
            with calibration._beside(np.geterr) as seen:
                assert seen() == np.geterr()


def buffer_at(buf):
    """Where an array's memory starts, its shape and its strides."""
    return buf.ctypes.data, buf.shape, buf.strides


step_sleeps = st.lists(st.integers(0, 200), min_size=64, max_size=64)  # microseconds per k


class TestLaneScheduler:
    """calibration._two_lanes on its own, for 1-64 steps that sleep 0-200 us."""

    @given(st.integers(1, 64), st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple),
           step_sleeps)
    @settings(max_examples=100, deadline=None)
    def test_every_step_runs_once_each_lane_on_its_own_buffer(self, n, shape, sleeps):
        caller, ran, bufs = threading.current_thread(), [], {}

        def step(k, buf):
            time.sleep(sleeps[k] * 1e-6)
            ran.append(k)
            bufs.setdefault(threading.current_thread(), []).append(buf)
            return -k

        with mock.patch.object(calibration, "_beside", wraps=calibration._beside) as beside:
            got = calibration._two_lanes(step, n, shape)
        assert got == [-k for k in range(n)]
        assert sorted(ran) == list(range(n))
        assert beside.call_count == (n > 1)
        if n == 1:
            assert list(bufs) == [caller]
        assert len(bufs) <= 2
        for seen in bufs.values():
            assert {buffer_at(b) for b in seen} == {buffer_at(seen[0])}  # one per lane
            assert seen[0].shape == shape and seen[0].flags.c_contiguous
        if len(bufs) == 2:
            assert not np.shares_memory(*(seen[0] for seen in bufs.values()))

    @given(st.integers(1, 64), st.sampled_from(["caller", "worker"]), step_sleeps)
    @settings(max_examples=50, deadline=None)
    def test_a_lane_error_reaches_the_caller(self, n, where, sleeps):
        assume(n > 1 or where == "caller")
        caller, ran = threading.current_thread(), []
        enter = both_lanes_enter() if n > 1 else (lambda: None)

        def step(k, buf):
            enter()
            ran.append(k)
            time.sleep(sleeps[k] * 1e-6)
            if (threading.current_thread() is caller) == (where == "caller"):
                raise RuntimeError(f"failed on the {where}")

        before = threading.enumerate()
        with pytest.raises(RuntimeError, match=f"failed on the {where}"):
            calibration._two_lanes(step, n, (3,))
        assert threading.enumerate() == before
        assert sorted(ran) == list(range(n))  # the other lane ran the remaining steps


class TestLaneStress:
    """Four callers, each with its own two lanes, under a tiny switch interval."""

    def test_concurrent_fits_and_reports_match_serial_runs(self):
        batches = [lane_batch(5 + k, seed=k)[0] for k in range(4)]
        with mock.patch.object(calibration, "_BLOCK_BYTES", 8 * 24 * 4):
            want = [results(b) for b in batches]
            got, errors = [None] * len(batches), []

            def run(k):
                try:
                    got[k] = results(batches[k])
                except Exception as exc:  # reported below
                    errors.append(exc)

            threads = [threading.Thread(target=run, args=(k,)) for k in range(len(batches))]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert got == want
