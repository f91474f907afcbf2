import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wptdas import experiments
from wptdas.channel import FrequencyGrid, builtin_profile
from wptdas.errors import ValidationError
from wptdas.experiments import (
    SUM_USER,
    ExperimentConfig,
    dbm_to_watts,
    nested_frequency_indices,
    _block_values,
    _cell_values,
    _dc_tensor,
    _sweep_cells,
    dc_power_matrix,
    power_budget_report,
    run_protocol_experiment,
    run_sweep,
)
from wptdas.protocol import (MESSAGE_SIZE_BYTES, AdcModel, ControlLinkModel, FrameSchedule,
                             _blank_us, _pack_lanes, _segments, control_bytes, frame_log,
                             run_rounds)
from wptdas.rectenna import EfficiencyCurve, RectennaConfig
from wptdas.rng import DOMAIN_CHANNEL
from wptdas.selection import STRATEGIES

from scalar_oracle import engine_frame, sample_channel, select_one, substream

MODEL_E = builtin_profile("model-E-NLOS")
FLAT = builtin_profile("single-tap-flat")
CONST_CURVE = EfficiencyCurve.from_table([-20.0], [2.44e9], [[0.25]])


def small_cfg(**kwargs):
    base = dict(profile=MODEL_E, grid=FrequencyGrid.uniform(count=15),
                realizations=50, seed=1)
    base.update(kwargs)
    return ExperimentConfig(**base)


class TestUnitConversions:
    def test_reference_values(self):
        assert dbm_to_watts(36.0) == pytest.approx(3.981, abs=0.001)
        assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-12)

    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-60.0, 40.0, size=100)
        back = 10.0 * np.log10(dbm_to_watts(x)) + 30.0
        assert np.max(np.abs(back - x)) <= 1e-12 * np.max(np.abs(x))


class TestNestedSubsets:
    def test_channel_plan_sets(self):
        # 1-based: {8}, {4,8,12}, {1,4,8,12,15}, everything
        assert list(nested_frequency_indices(15, 1) + 1) == [8]
        assert list(nested_frequency_indices(15, 3) + 1) == [4, 8, 12]
        assert list(nested_frequency_indices(15, 5) + 1) == [1, 4, 8, 12, 15]
        assert list(nested_frequency_indices(15, 15) + 1) == list(range(1, 16))

    def test_nesting_for_all_sizes(self):
        for total in (1, 2, 7, 15):
            prev = set()
            for k in range(1, total + 1):
                cur = set(nested_frequency_indices(total, k).tolist())
                assert len(cur) == k
                assert prev <= cur
                prev = cur

    def test_bounds(self):
        with pytest.raises(ValidationError):
            nested_frequency_indices(15, 0)
        with pytest.raises(ValidationError):
            nested_frequency_indices(15, 16)


class TestRunSweep:
    def test_degenerate_cell_all_strategies_equal(self):
        cfg = small_cfg(antenna_sweep=(1,), frequency_sweep=(1,), realizations=20)
        res = run_sweep(cfg)
        values = {res.get(1, 1, s).avg_pdc_w for s in cfg.strategies}
        assert len(values) == 1

    def test_get_rejects_a_missing_row(self):
        res = run_sweep(small_cfg(antenna_sweep=(1,), frequency_sweep=(1,), realizations=2))
        assert res.get(1, 1, "joint").m == 1
        with pytest.raises(KeyError):
            res.get(2, 1, "joint")

    def test_antenna_selection_gain_matches_order_statistics(self):
        # flat fading + constant efficiency: selection gain over M antennas
        # is the expected maximum of M unit-mean exponentials, H_M
        cfg = ExperimentConfig(profile=FLAT, grid=FrequencyGrid.uniform(count=1),
                               rect=RectennaConfig(curve=CONST_CURVE),
                               antenna_sweep=(1, 2, 4), frequency_sweep=(1,),
                               strategies=("none", "antenna_only"),
                               realizations=4000, seed=123)
        res = run_sweep(cfg)
        for m, h_m in ((2, 1.5), (4, 1.0 + 0.5 + 1 / 3 + 0.25)):
            ratio = res.get(m, 1, "antenna_only").avg_pdc_w / res.get(m, 1, "none").avg_pdc_w
            assert ratio == pytest.approx(h_m, rel=0.05)

    def test_strategy_dominance_every_cell(self):
        res = run_sweep(small_cfg())
        for m in (1, 2, 3, 4):
            for k in (1, 3, 5, 15):
                joint = res.get(m, k, "joint").avg_pdc_w
                ao = res.get(m, k, "antenna_only").avg_pdc_w
                fo = res.get(m, k, "frequency_only").avg_pdc_w
                none = res.get(m, k, "none").avg_pdc_w
                assert joint >= ao >= none
                assert joint >= fo >= none

    def test_joint_monotone_in_nested_sets(self):
        res = run_sweep(small_cfg())
        for m in (1, 4):
            by_n = [res.get(m, k, "joint").avg_pdc_w for k in (1, 3, 5, 15)]
            assert all(a <= b for a, b in zip(by_n, by_n[1:]))
        by_m = [res.get(m, 1, "joint").avg_pdc_w for m in (1, 2, 3, 4)]
        assert all(a <= b for a, b in zip(by_m, by_m[1:]))

    def test_reproducible_and_csv_identical(self):
        cfg = small_cfg(realizations=10)
        a, b = run_sweep(cfg), run_sweep(cfg)
        assert a.rows == b.rows
        out_a, out_b = io.StringIO(), io.StringIO()
        a.to_csv(out_a)
        b.to_csv(out_b)
        assert out_a.getvalue() == out_b.getvalue()

    def test_parallel_jobs_identical_to_serial(self):
        cfg = small_cfg(realizations=8)
        assert run_sweep(cfg, jobs=1).rows == run_sweep(cfg, jobs=2).rows

    def test_workers_are_capped_at_the_cpu_count(self, monkeypatch):
        import concurrent.futures

        import wptdas.experiments as experiments

        started = []

        class RecordingPool:  # runs the chunks in this process
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        cfg = small_cfg(realizations=40)
        for run in (run_sweep, run_protocol_experiment):
            monkeypatch.setattr(experiments.os, "cpu_count", lambda: 3)
            serial = run(cfg).rows
            assert run(cfg, jobs=10_000).rows == serial
            assert run(cfg, jobs=2).rows == serial
            monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)
            assert run(cfg, jobs=10_000).rows == serial
        assert started == [3, 2, 3, 2]

    @pytest.mark.parametrize("jobs", [0, -4, 1.5, True, "2"])
    def test_jobs_below_one_rejected(self, jobs):
        for run in (run_sweep, run_protocol_experiment):
            with pytest.raises(ValidationError, match="jobs"):
                run(small_cfg(realizations=8), jobs=jobs)

    def test_two_user_rows_and_symmetry(self):
        cfg = small_cfg(users=2, realizations=100)
        res = run_sweep(cfg)
        r1 = res.get(4, 15, "joint", 1)
        r2 = res.get(4, 15, "joint", 2)
        se = math.hypot(r1.stderr_w, r2.stderr_w)
        assert abs(r1.avg_pdc_w - r2.avg_pdc_w) <= 3 * se
        total = res.get(4, 15, "joint", SUM_USER)
        assert total.avg_pdc_w == pytest.approx(r1.avg_pdc_w + r2.avg_pdc_w, rel=1e-12)

    def test_two_user_values_match_hand_computation(self):
        # R=1 so the averages are the raw realization-0 values
        cfg = small_cfg(users=2, realizations=1, antenna_sweep=(4,),
                        frequency_sweep=(15,), strategies=("joint",), seed=77)
        res = run_sweep(cfg)
        mats = []
        for u in range(2):
            gains = sample_channel(MODEL_E, 4, substream(77, DOMAIN_CHANNEL, 0, u))
            mats.append(dc_power_matrix(MODEL_E, gains, cfg.grid, cfg.budget, cfg.rect.curve))
        decisions = [select_one(m, "joint") for m in mats]
        for u in range(2):
            own = decisions[u][2]
            other_m, other_n, _ = decisions[1 - u]
            passive = mats[u][other_m - 1, other_n - 1]
            expected = (own + passive) / 2.0
            assert res.get(4, 15, "joint", u + 1).avg_pdc_w == pytest.approx(expected, rel=1e-12)

    def test_user_loss_breaks_symmetry(self):
        cfg = small_cfg(users=2, realizations=60, user_loss_db=(0.0, 20.0))
        res = run_sweep(cfg)
        assert res.get(4, 15, "joint", 2).avg_pdc_w < res.get(4, 15, "joint", 1).avg_pdc_w

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            small_cfg(realizations=0)
        with pytest.raises(ValidationError, match="users"):
            small_cfg(users=0)
        with pytest.raises(ValidationError):
            small_cfg(frequency_sweep=(16,))
        with pytest.raises(ValidationError):
            small_cfg(strategies=("beamforming",))
        with pytest.raises(ValidationError):
            small_cfg(users=2, user_loss_db=(1.0,))
        with pytest.raises(ValidationError, match="user_loss_db"):
            small_cfg(users=2, user_loss_db=(0.0, -4000.0))  # 10**394 overflows a float

    @pytest.mark.parametrize("field,value", [
        ("frequency_sweep", (10 ** 400,)), ("frequency_sweep", (True,)),
        ("users", 2 ** 32 + 1), ("realizations", 2 ** 32 + 1)])
    def test_an_entry_too_large_or_a_bool_rejected(self, field, value):
        # 10**400 once overflowed the whole-number check; counts index 32-bit
        # stream path words
        with pytest.raises(ValidationError, match=field.split("_")[0]):
            small_cfg(**{field: value})

    @pytest.mark.parametrize("field,values", [
        ("antenna_sweep", (2, 2, 1)), ("antenna_sweep", (1, 2.0, 2)),
        ("frequency_sweep", (3, 3)), ("strategies", ("joint", "none", "joint"))])
    def test_repeated_sweep_entry_rejected(self, field, values):
        # a repeated cell would collapse into one set of rows
        with pytest.raises(ValidationError, match=field):
            small_cfg(**{field: values})


class TestProtocolExperiment:
    FAST = RectennaConfig(settle_tau_s=10e-6)

    def test_matches_ideal_pipeline_per_realization(self):
        cfg = small_cfg(rect=self.FAST, antenna_sweep=(4,), frequency_sweep=(15,),
                        strategies=("joint",), realizations=50, seed=9)
        protocol = (FrameSchedule(), ControlLinkModel(), None)
        delivered = _block_values(cfg, protocol, 0, 50)[(4, 15, "joint")]
        assert delivered.shape == (50, 1)
        for r, value in enumerate(delivered[:, 0]):
            gains = sample_channel(MODEL_E, 4, substream(9, DOMAIN_CHANNEL, r, 0))
            truth = dc_power_matrix(MODEL_E, gains, cfg.grid, cfg.budget, self.FAST.curve)
            expected = select_one(truth, "joint")[2]
            assert abs(value - expected) <= 1e-9 * expected

    def test_average_matches_sweep_joint(self):
        cfg = small_cfg(rect=self.FAST, antenna_sweep=(4,), frequency_sweep=(15,),
                        strategies=("joint",), realizations=50, seed=9)
        ideal = run_sweep(cfg)
        proto = run_protocol_experiment(cfg, adc=None)
        assert proto.get(4, 15, "joint").avg_pdc_w == pytest.approx(
            ideal.get(4, 15, "joint").avg_pdc_w, rel=1e-9)

    def test_lossy_average_between_baselines(self):
        cfg = small_cfg(rect=self.FAST, antenna_sweep=(4,), frequency_sweep=(15,),
                        strategies=("none", "joint"), realizations=100, seed=9)
        ideal = run_sweep(cfg)
        lossy = run_protocol_experiment(
            cfg, link=ControlLinkModel(drop_probability=0.5), adc=None)
        lo = ideal.get(4, 15, "none").avg_pdc_w
        hi = ideal.get(4, 15, "joint").avg_pdc_w
        assert lo <= lossy.get(4, 15, "joint").avg_pdc_w <= hi

    @pytest.mark.parametrize("grid, sizes", [(FrequencyGrid.uniform(count=15), (1, 2, 3, 5, 15)),
                                             (FrequencyGrid.ieee_plan(7), (1, 2, 3, 4, 7))],
                             ids=["uniform-15", "ieee-7"])
    @pytest.mark.parametrize("latency_s", [0.0, 0.002])
    @pytest.mark.parametrize("users", [1, 2])
    def test_lost_link_equals_sweep_none(self, users, latency_s, grid, sizes):
        # Every message lost: each frame serves the fallback pair, the pair the
        # "none" baseline holds fixed. The lost-link twin of c07.
        cfg = small_cfg(grid=grid, frequency_sweep=sizes, strategies=("none",), users=users,
                        realizations=25, seed=4)
        ideal = run_sweep(cfg)
        lost = run_protocol_experiment(cfg, link=ControlLinkModel(1.0, latency_s), adc=None)
        assert len(lost.rows) == len(ideal.rows)
        for row in lost.rows:
            ref = ideal.get(row.m, row.n, "none", row.user)
            assert (row.avg_pdc_w, row.stderr_w) == (ref.avg_pdc_w, ref.stderr_w)

    def test_two_user_protocol_rows(self):
        cfg = small_cfg(users=2, antenna_sweep=(2,), frequency_sweep=(3,),
                        strategies=("joint",), realizations=4)
        res = run_protocol_experiment(cfg)
        assert res.get(2, 3, "joint", 1).avg_pdc_w > 0.0
        assert res.get(2, 3, "joint", 2).avg_pdc_w > 0.0
        assert res.get(2, 3, "joint", SUM_USER).avg_pdc_w == pytest.approx(
            res.get(2, 3, "joint", 1).avg_pdc_w + res.get(2, 3, "joint", 2).avg_pdc_w,
            rel=1e-12)


class TestPowerBudgetReport:
    def test_reference_budget(self):
        budget, report = power_budget_report()
        assert budget.e_dc_j == pytest.approx(63.8e-6, abs=0.1e-6)
        assert budget.e_soc_j == pytest.approx(10.4e-6, abs=0.1e-6)
        assert budget.e_radio_j == pytest.approx(7.68e-6, abs=0.1e-6)
        assert budget.e_consumed_j == pytest.approx(18.1e-6, abs=0.05e-6)
        assert budget.e_net_j == pytest.approx(45.7e-6, abs=0.1e-6)
        assert budget.efficiency == pytest.approx(0.72, abs=0.01)
        assert budget.t_radio_s == pytest.approx(0.16e-3, rel=1e-9)
        assert "efficiency 71.7 %" in report
        assert "transmitter draw 84.048003 W" in report

    def test_zero_consumption_is_lossless(self):
        budget, _ = power_budget_report(soc_power_w=0.0, radio_power_w=0.0)
        assert budget.efficiency == pytest.approx(1.0)

    def test_consumption_exceeding_harvest_reports_negative(self):
        budget, report = power_budget_report(train_avg_power_w=0.0,
                                             wpt_avg_power_w=1e-9)
        assert budget.e_net_j < 0.0
        assert budget.efficiency < 0.0
        assert "net" in report

    def test_transmitter_totals(self):
        assert "transmitter draw 31.670779 W" in power_budget_report(pa_supply_w=10 ** 1.5)[1]

    def test_rejects_negative_powers(self):
        for field in ("train_avg_power_w", "wpt_avg_power_w"):
            for bad in (-1e-6, math.nan, math.inf, -math.inf, "1e-6", None, True):
                with pytest.raises(ValidationError, match=field):
                    power_budget_report(**{field: bad})

    @pytest.mark.parametrize("dims", [(0, 15), (4, 0), (2.5, 15), (4, True), ("4", 15)])
    def test_rejects_dims_that_are_not_counts(self, dims):
        with pytest.raises(ValidationError, match="dims"):
            power_budget_report(dims=dims)

    def test_consumption_validation(self):
        with pytest.raises(ValidationError, match="radio_bitrate_bps"):
            power_budget_report(radio_bitrate_bps=0.0)

    @pytest.mark.parametrize("dims", [(1, 15), (2, 15), (3, 15), (4, 15), (2, 3)])
    def test_budget_and_frame_log_agree_on_the_frame_shape(self, dims):
        log = frame_log(engine_frame(np.full(dims, 1e-5), RectennaConfig()), 0, 0,
                        FrameSchedule())
        sent = MESSAGE_SIZE_BYTES * sum(e.kind == "MessageSent" for e in log)
        budget, report = power_budget_report(dims=dims)
        assert budget.bytes_sent == control_bytes(dims[0]) == sent == dims[0] + 1
        assert budget.frame_s == log[-1].t_us * 1e-6
        assert report.startswith(f"frame      {budget.frame_s:.6f} s ({dims[0] * dims[1]} x ")


def scalar_reference_sweep(cfg):
    """Per-realization values from one selection per matrix, user, strategy and cell."""
    values = {}
    for r in range(cfg.realizations):
        mats = [dc_power_matrix(cfg.profile,
                                sample_channel(cfg.profile, cfg.max_antennas,
                                               substream(cfg.seed, DOMAIN_CHANNEL, r, u)),
                                cfg.grid, cfg.budget, cfg.rect.curve, cfg.loss_for_user(u))
                for u in range(cfg.users)]
        for m in cfg.antenna_sweep:
            for k in cfg.frequency_sweep:
                cols = nested_frequency_indices(cfg.grid.count, k)
                subs = [mat[:m][:, cols] for mat in mats]
                for strategy in cfg.strategies:
                    decisions = [select_one(sub, strategy) for sub in subs]
                    arr = values.setdefault((m, k, strategy),
                                            np.zeros((cfg.realizations, cfg.users)))
                    for u in range(cfg.users):  # frame v serves v's pick, in frame order
                        arr[r, u] = sum(
                            float(subs[u][decisions[v][0] - 1, decisions[v][1] - 1])
                            for v in range(cfg.users)) / cfg.users
    return values


def stderr_of(x):
    return float(np.std(x, ddof=1) / math.sqrt(x.size)) if x.size > 1 else 0.0


@st.composite
def sweep_configs(draw, min_realizations=1):
    count = draw(st.integers(1, 15))
    antennas = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4, unique=True))
    freqs = draw(st.lists(st.integers(1, count), min_size=1, max_size=4, unique=True))
    strategies = draw(st.lists(st.sampled_from(STRATEGIES), min_size=1, max_size=4,
                               unique=True))
    users = draw(st.integers(1, 4))
    losses = tuple(draw(st.lists(st.sampled_from((0.0, 3.0, 10.0)), min_size=users,
                                 max_size=users)))
    return small_cfg(grid=FrequencyGrid.uniform(count=count), antenna_sweep=antennas,
                     frequency_sweep=freqs, strategies=strategies, users=users,
                     user_loss_db=losses, realizations=draw(st.integers(min_realizations, 6)),
                     seed=draw(st.integers(0, 2 ** 64 - 1)))


class TestBatchedSweep:
    # the parallel case draws at least 4 realizations, two per worker
    @pytest.mark.parametrize("jobs,min_realizations,examples", [(1, 1, 40), (2, 4, 8)])
    def test_equals_scalar_reference_exactly(self, jobs, min_realizations, examples):
        @settings(max_examples=examples, deadline=None)
        @given(sweep_configs(min_realizations))
        def check(cfg):
            res = run_sweep(cfg, jobs=jobs)
            ref = scalar_reference_sweep(cfg)
            for row in res.rows:
                arr = ref[(row.m, row.n, row.strategy)]
                x = arr.sum(axis=1) if row.user == SUM_USER else arr[:, row.user - 1]
                assert (row.avg_pdc_w, row.stderr_w) == (float(x.mean()), stderr_of(x))
            per_cell = cfg.users + (cfg.users > 1)
            assert len(res.rows) == len(ref) * per_cell

        check()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1e-9])
    def test_bad_candidate_power_raises(self, monkeypatch, bad):
        import wptdas.experiments as experiments

        real = experiments.dc_power_matrix

        def corrupted(*args, **kwargs):
            out = real(*args, **kwargs)
            out[-1, 0] = bad
            return out

        monkeypatch.setattr(experiments, "dc_power_matrix", corrupted)
        with pytest.raises(ValidationError):
            run_sweep(small_cfg(users=2, realizations=3))

    def test_seed_range_validated(self):
        for seed in (-1, 2 ** 64):
            with pytest.raises(ValidationError):
                small_cfg(seed=seed)
        assert small_cfg(seed=2 ** 64 - 1).seed == 2 ** 64 - 1


def pair_maximum_mean(mp, rho: float, m: int):
    """E[max] of m i.i.d. pairs of unit exponentials with power correlation
    ``rho``, with the mpmath module ``mp``: the integral of 1 - F(y)^m, where
    1 - F(y) = (1 - rho) sum_k rho^k (1 - P(k + 1, b)^2) at b = y / (1 - rho)
    is the tail of Kibble's bivariate exponential, P the regularized lower
    incomplete gamma function."""
    def tail(y):
        b = y / (1 - rho)
        term = upper = mp.exp(-b)  # e^-b b^k / k! and 1 - P(k + 1, b)
        total, weight, k = 0, mp.mpf(1), 0
        while weight > mp.eps:
            total += weight * upper * (2 - upper)
            k += 1
            term *= b / k
            upper += term
            weight *= rho
        return (1 - rho) * total
    return mp.quad(lambda y: -mp.expm1(m * mp.log1p(-tail(y))), [0, mp.inf])


class TestFrequencyDiversity:
    # Two frequencies df apart on two equal taps 50 ns apart: |H|^2 at each is
    # a unit exponential, with power correlation rho = cos^2(pi df 50 ns).
    # Dual selection over correlated Rayleigh gives E[max] = 1 + sqrt(1 - rho) / 2.
    CASES = [(2e6, 0.9045), (10e6, 0.0), (25e6, 0.5), (75e6, 0.5)]

    @pytest.mark.parametrize("df_hz, rho", CASES, ids=[f"{df / 1e6:g}MHz" for df, _ in CASES])
    def test_frequency_selection_gain_matches_the_closed_form(self, df_hz, rho):
        profile = builtin_profile("two-tap-test")
        assert abs(np.sum(profile.powers * np.exp(-2j * np.pi * df_hz * profile.delays_s))) ** 2 \
            == pytest.approx(rho, abs=5e-5)
        cfg = ExperimentConfig(profile=profile,
                               grid=FrequencyGrid.uniform(bandwidth_hz=df_hz, count=2),
                               rect=RectennaConfig(curve=CONST_CURVE),
                               antenna_sweep=(1,), frequency_sweep=(2,),
                               strategies=("none", "frequency_only"),
                               realizations=10_000, seed=123)
        res = run_sweep(cfg)
        ratio = res.get(1, 2, "frequency_only").avg_pdc_w / res.get(1, 2, "none").avg_pdc_w
        assert ratio == pytest.approx(1.0 + 0.5 * math.sqrt(1.0 - rho), rel=0.03)  # as c06

    def test_joint_selection_gain_matches_the_harmonic_numbers(self):
        # At rho = 0 the 2M pairs of M antennas x 2 frequencies are i.i.d. unit
        # exponentials, so joint selection gives E[max] = H_2M over no selection.
        cfg = ExperimentConfig(profile=builtin_profile("two-tap-test"),
                               grid=FrequencyGrid.uniform(bandwidth_hz=10e6, count=2),
                               rect=RectennaConfig(curve=CONST_CURVE),
                               antenna_sweep=(1, 2, 3, 4), frequency_sweep=(2,),
                               strategies=("none", "joint"), realizations=10_000, seed=123)
        res = run_sweep(cfg)
        for m in cfg.antenna_sweep:
            ratio = res.get(m, 2, "joint").avg_pdc_w / res.get(m, 2, "none").avg_pdc_w
            harmonic = sum(1.0 / i for i in range(1, 2 * m + 1))
            assert ratio == pytest.approx(harmonic, rel=0.03), m  # as c06

    # E[max] over M antennas x 2 frequencies at rho > 0 is the integral over
    # y >= 0 of 1 - F(y)^M, F the joint cdf of one antenna's correlated pair,
    # for M = 2, 3, 4 (pair_maximum_mean re-derives the 25 and 75 MHz values);
    # M = 1 is the dual-selection closed form above
    JOINT_CASES = [(2e6, 0.9045, (1.692756, 2.046479, 2.309967)),
                   (25e6, 0.5, (1.923620, 2.290238, 2.560804)),
                   (75e6, 0.5, (1.923620, 2.290238, 2.560804))]

    @pytest.mark.parametrize("df_hz, rho, gains", JOINT_CASES,
                             ids=[f"{df / 1e6:g}MHz" for df, _, _ in JOINT_CASES])
    def test_joint_selection_gain_matches_the_correlated_pair_maxima(self, df_hz, rho, gains):
        cfg = ExperimentConfig(profile=builtin_profile("two-tap-test"),
                               grid=FrequencyGrid.uniform(bandwidth_hz=df_hz, count=2),
                               rect=RectennaConfig(curve=CONST_CURVE),
                               antenna_sweep=(1, 2, 3, 4), frequency_sweep=(2,),
                               strategies=("none", "joint"), realizations=10_000, seed=123)
        res = run_sweep(cfg)
        for m, gain in zip(cfg.antenna_sweep, (1.0 + 0.5 * math.sqrt(1.0 - rho), *gains)):
            ratio = res.get(m, 2, "joint").avg_pdc_w / res.get(m, 2, "none").avg_pdc_w
            assert ratio == pytest.approx(gain, rel=0.03), m  # as c06

    def test_the_pinned_gains_are_the_integral(self):
        mpmath = pytest.importorskip("mpmath")
        rho, gains = self.JOINT_CASES[1][1:]
        for m, gain in zip((1, 2, 3, 4), (1.0 + 0.5 * math.sqrt(1.0 - rho), *gains)):
            assert float(pair_maximum_mean(mpmath, rho, m)) == pytest.approx(gain, abs=1e-6), m

    def test_no_delay_spread_gives_no_frequency_diversity(self):
        # a flat channel and a frequency-flat curve give every frequency the
        # same power, so frequency selection adds nothing to either baseline
        cfg = ExperimentConfig(profile=FLAT, grid=FrequencyGrid.uniform(),
                               antenna_sweep=(1, 4), frequency_sweep=(1, 3, 15),
                               realizations=500, seed=5)
        values = _cell_values(cfg, _dc_tensor(cfg, 0, cfg.realizations))
        for m in (1, 4):
            for k in (1, 3, 15):
                assert np.array_equal(values[m, k, "frequency_only"], values[m, k, "none"])
                assert np.array_equal(values[m, k, "joint"], values[m, k, "antenna_only"])
        assert not np.array_equal(values[4, 15, "joint"], values[4, 15, "none"])


class TestLanePacking:
    @settings(max_examples=200, deadline=None)
    @given(steps=st.lists(st.integers(1, 65), min_size=1, max_size=20))
    def test_every_cell_gets_its_own_run_of_steps(self, steps):
        n_lanes, place = _pack_lanes(steps)
        assert len(place) == len(steps)
        length = max(steps)  # no lane is longer than the longest cell
        held = np.zeros((n_lanes, length), dtype=int)
        for (lane, first), n in zip(place, steps):
            assert 0 <= lane < n_lanes and 0 <= first and first + n <= length
            held[lane, first:first + n] += 1
        assert held.max() == 1  # no two cells overlap
        assert held[:, 0].all()  # every lane opens with a cell

    def test_one_cell_is_one_lane(self):
        assert _pack_lanes([7]) == (1, [(0, 0)])

    @pytest.mark.parametrize("link, lanes, length", [
        (ControlLinkModel(drop_probability=0.1, latency_s=0.002), 5, 66),
        (ControlLinkModel(), 5, 62)])
    def test_the_default_sweep_packs_into_five_lanes(self, link, lanes, length):
        # antenna sets 1..4 x frequency sets 1/3/5/15, the benchmark's sweep
        # too: a start step, then one step per slot, plus one per antenna block
        # whose first slot a 2 ms latency splits, then the delivery head
        sched = FrameSchedule()
        wpt_blank = _blank_us(link, 1, sched.wpt_us)[0]
        steps = [m * (len(_segments(_blank_us(link, k, sched.slot_us), sched.slot_us,
                                    wpt_blank)) - 1) + 2
                 for m, k, _cols in _sweep_cells(small_cfg())]
        assert len(steps) == 16
        n_lanes, _place = _pack_lanes(steps)
        assert (n_lanes, max(steps)) == (lanes, length)


class TestProtocolSweepIsOneWalk:
    def test_a_sweep_makes_one_engine_call(self, monkeypatch):
        calls = []

        def spy(p_dc, cells, *args, **kwargs):
            calls.append(len(cells))
            return run_rounds(p_dc, cells, *args, **kwargs)

        monkeypatch.setattr(experiments, "run_rounds", spy)
        cfg = small_cfg(users=2, realizations=3, strategies=("joint",))
        run_protocol_experiment(cfg, link=ControlLinkModel(drop_probability=0.1,
                                                           latency_s=0.002))
        assert calls == [16]

    def test_the_walk_reads_the_blocks_own_dc_tensor(self, monkeypatch):
        # every cell is a set of offsets into the one tensor: the walk gets a
        # view of it, not a copy per cell
        tensors, walks = [], []

        def dc_spy(*args):
            tensors.append(dc_tensor(*args))
            return tensors[-1]

        def walk_spy(p_dc, cells, *args, **kwargs):
            walks.append((p_dc, cells))
            return run_rounds(p_dc, cells, *args, **kwargs)

        dc_tensor = experiments._dc_tensor
        monkeypatch.setattr(experiments, "_dc_tensor", dc_spy)
        monkeypatch.setattr(experiments, "run_rounds", walk_spy)
        cfg = small_cfg(users=2, realizations=3, strategies=("joint",))
        experiments._block_values(cfg, (FrameSchedule(), ControlLinkModel(), AdcModel()), 0, 3)
        (dc,), ((p_dc, cells),) = tensors, walks
        assert np.shares_memory(p_dc, dc) and p_dc.shape == (3, 1, 2, 4, 15)
        n_total = cfg.grid.count
        assert [cell.tolist() for cell in cells] == [
            (np.arange(m)[:, None] * n_total + cols).tolist() for m, _k, cols in _sweep_cells(cfg)]


class TestSweepBlocks:
    # Both pipelines walk blocks of at most SWEEP_BLOCK realizations, in this
    # process or over the pool, and every split must give the same rows.
    LOSSY = (FrameSchedule(), ControlLinkModel(drop_probability=0.1, latency_s=0.002),
             AdcModel(bits=12))

    def rows(self, pipeline, cfg, jobs):
        if pipeline == "ideal":
            return run_sweep(cfg, jobs=jobs).rows
        return run_protocol_experiment(cfg, *self.LOSSY, jobs=jobs).rows

    @pytest.mark.parametrize("pipeline", ["ideal", "protocol"])
    @pytest.mark.parametrize("realizations,sizes", [(30, [6] * 5), (32, [6, 6, 7, 6, 7])])
    def test_any_split_equals_one_walk(self, monkeypatch, pipeline, realizations, sizes):
        cfg = small_cfg(users=2, realizations=realizations)
        whole = self.rows(pipeline, cfg, 1)  # one block
        monkeypatch.setattr(experiments, "SWEEP_BLOCK", 7)
        assert self.rows(pipeline, cfg, 2) == whole
        spans, block_values = [], experiments._block_values

        def spy(cfg, protocol, r0, r1):
            spans.append(r1 - r0)
            return block_values(cfg, protocol, r0, r1)

        monkeypatch.setattr(experiments, "_block_values", spy)  # not picklable: serial only
        assert self.rows(pipeline, cfg, 1) == whole
        assert spans == sizes

    @staticmethod
    def _peak(cfg, protocol=None) -> int:
        """tracemalloc peak of one sweep: ideal, or with a ``protocol``, a protocol sweep."""
        tracemalloc.start()
        try:
            if protocol is None:
                run_sweep(cfg)
            else:
                run_protocol_experiment(cfg, *protocol)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_protocol_memory_does_not_grow_with_the_block_count(self, monkeypatch):
        # A block of 32 realizations walks in about 1 MB, so one walk of all 256
        # would peak near 4 MB; in blocks, only the values outlive a block.
        monkeypatch.setattr(experiments, "SWEEP_BLOCK", 32)
        two, eight = (small_cfg(users=2, realizations=blocks * 32) for blocks in (2, 8))
        run_protocol_experiment(two, *self.LOSSY)  # first-call caches
        assert self._peak(eight, self.LOSSY) <= self._peak(two, self.LOSSY) + 256 * 1024

    @pytest.mark.parametrize("users", [1, 2])
    def test_ideal_memory_does_not_grow_with_the_block_count(self, monkeypatch, users):
        # A block of 32 realizations holds its normals, dc tensor and values
        # in about 0.2-0.3 MB, so one walk of all 256 would peak 0.3-0.6 MB
        # higher; in blocks, only the value array outlives a block.
        monkeypatch.setattr(experiments, "SWEEP_BLOCK", 32)
        two, eight = (small_cfg(users=users, realizations=blocks * 32, antenna_sweep=(1, 4),
                                frequency_sweep=(15,)) for blocks in (2, 8))
        run_sweep(two)  # first-call caches
        cells = len(two.antenna_sweep) * len(two.frequency_sweep) * len(two.strategies)
        series = users + (users > 1)
        work = [self._peak(cfg) - cells * series * cfg.realizations * 8 for cfg in (two, eight)]
        assert work[1] <= work[0] + 64 * 1024

    # The blocks fill one (cells, series, R) array as they arrive and each
    # reduction chunk's np.std takes a temporary of the chunk's size, so the peak
    # is the array plus one block's walk: 1.43 and 1.26 times the ideal array, and
    # 1.36 times the protocol one. When np.std took the whole array it was 2.1.
    PEAK_OVER_VALUES = 1.6

    @pytest.mark.parametrize("users", [1, 2])
    def test_ideal_sweep_peak_is_near_its_value_array(self, monkeypatch, users):
        monkeypatch.setattr(experiments, "SWEEP_BLOCK", 256)
        cfg = small_cfg(users=users, realizations=4096)
        run_sweep(small_cfg(users=users, realizations=8))  # first-call caches
        cells = len(cfg.antenna_sweep) * len(cfg.frequency_sweep) * len(cfg.strategies)
        series = users + (users > 1)
        assert self._peak(cfg) < self.PEAK_OVER_VALUES * cells * series * cfg.realizations * 8

    def test_protocol_sweep_peak_is_near_its_value_array(self, monkeypatch):
        # a protocol block's walk is larger per value than an ideal block's, so
        # the blocks and the reduction chunks are smaller than the defaults
        monkeypatch.setattr(experiments, "SWEEP_BLOCK", 128)
        monkeypatch.setattr(experiments, "REDUCE_CHUNK", 2 ** 12)
        shape = dict(users=2, antenna_sweep=(1, 2), frequency_sweep=(1, 2),
                     grid=FrequencyGrid.uniform(count=2))
        cfg = small_cfg(realizations=8192, **shape)
        protocol = (FrameSchedule(), ControlLinkModel(), AdcModel())
        run_protocol_experiment(small_cfg(realizations=8, **shape), *protocol)  # first-call caches
        cells, series = 4, 3
        assert (self._peak(cfg, protocol)
                < self.PEAK_OVER_VALUES * cells * series * cfg.realizations * 8)


class TestFingerprint:
    def test_default_parametric_hash_is_stable(self):
        cfg = ExperimentConfig(profile=MODEL_E, grid=FrequencyGrid.uniform())
        assert cfg.fingerprint() == "ea1af8e37eab7b14"

    def test_table_axes_and_shape_change_the_hash(self):
        table = [[0.1], [0.2]]
        curves = [
            EfficiencyCurve.from_table([-20.0, 0.0], [2.44e9], table),
            EfficiencyCurve.from_table([-10.0, 0.0], [2.44e9], table),
            EfficiencyCurve.from_table([-20.0, 0.0], [2.45e9], table),
            # same bytes as the first curve once its arrays are concatenated
            EfficiencyCurve.from_table([-20.0], [0.0, 2.44e9], [[0.1, 0.2]]),
        ]
        hashes = {small_cfg(rect=RectennaConfig(curve=c)).fingerprint() for c in curves}
        assert len(hashes) == len(curves)

    def test_protocol_hash_covers_schedule_link_and_adc(self):
        cfg = small_cfg(realizations=2, antenna_sweep=(1,), frequency_sweep=(1,))
        variants = [
            {},
            {"link": ControlLinkModel(drop_probability=0.1)},
            {"link": ControlLinkModel(drop_probability=0.9)},
            {"link": ControlLinkModel(latency_s=0.01)},
            {"sched": FrameSchedule(slot_s=0.01)},
            {"sched": FrameSchedule(wpt_s=1.0)},
            {"adc": None},
            {"adc": AdcModel(bits=8)},
            {"adc": AdcModel(v_ref=1.8)},
        ]
        hashes = {run_protocol_experiment(cfg, **kw).config_hash for kw in variants}
        assert len(hashes) == len(variants)
        assert cfg.fingerprint() not in hashes
