import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gradcheck import epoch_directional_derivatives, initial_nets
from mfgames.games import meeting
from mfgames.games.meeting import (
    MeetingConfig,
    MeetingGame,
    actual_start,
    best_response_drift,
    exploitability,
    generate_observations,
    run_neural,
    run_standard,
    simulate_neural,
    terminal_cost,
)
from mfgames.mfg import TrainingConfig, train
from probe import closed_form_gaps, meeting_cost, nash_gap


def test_actual_start_all_on_time():
    assert actual_start(np.array([14.0, 14.5, 13.0]), 15.0, 0.9) == 15.0


def test_actual_start_order_statistic():
    # quorum 0.5 of 4 agents -> 2nd order statistic; max(11, 12) = 12
    assert actual_start(np.array([10.0, 12.0, 14.0, 16.0]), 11.0, 0.5) == 12.0


def test_actual_start_full_quorum():
    tt = np.array([10.0, 12.0, 17.5])
    assert actual_start(tt, 11.0, 1.0) == 17.5
    assert actual_start(tt, 18.0, 1.0) == 18.0


def test_terminal_cost_cases():
    assert terminal_cost(15.0, 15.0, 15.0) == 0.0
    assert terminal_cost(16.0, 15.0, 15.0) == 2.0
    assert terminal_cost(14.0, 15.0, 15.5) == pytest.approx(1.5)


def test_terminal_cost_nonnegative_and_zero_only_at_start():
    rng = np.random.default_rng(0)
    for _ in range(200):
        tt, s = rng.uniform(10, 20, 2)
        ts = max(s, rng.uniform(10, 20))
        c = terminal_cost(tt, s, ts)
        assert c >= 0.0
        if c == 0.0:
            assert tt == s == ts


def test_cost_shift_equivariance():
    rng = np.random.default_rng(1)
    for _ in range(50):
        tt, s, shift = rng.uniform(-5, 5, 3)
        ts = s + abs(rng.normal())
        a = terminal_cost(tt, s, ts)
        b = terminal_cost(tt + shift, s + shift, ts + shift)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_observations_statistics():
    means = []
    for seed in range(10):
        obs = generate_observations(seed=seed)
        assert obs.shape == (100,)
        assert np.all(np.isfinite(obs))
        means.append(obs.mean())
    # pooled mean within 3 standard errors of 15; group means have std 0.5
    se = np.sqrt((0.5**2 + 0.4**2) / (10 * 100))
    assert abs(np.mean(means) - 15.0) < 3 * se + 0.05


def test_observations_deterministic():
    a = generate_observations(seed=42)
    b = generate_observations(seed=42)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("field", ["noise_std", "sigma", "smoothing"])
@pytest.mark.parametrize("value", [-1.0, -1e-300, float("nan")])
def test_config_rejects_a_negative_noise_or_smoothing(field, value):
    # a negative noise_std crashed neural draws and zeroed the standard
    # game's offsets; a negative sigma switched its noise off
    with pytest.raises(ValueError, match=field):
        MeetingConfig(**{field: value})
    MeetingConfig(**{field: 0.0})


@pytest.mark.parametrize("field", ["scheduled", "quorum", "noise_std", "init_mean",
                                   "drift_gain", "smoothing", "sigma"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_config_rejects_a_number_that_is_not_finite(field, value):
    # an infinite sigma passed the nonnegativity check
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        MeetingConfig(**{field: value})


def test_standard_start_never_before_schedule():
    cfg = MeetingConfig(n_agents=50, init_mean=15.0)
    for seed in range(3):
        for tau_tilde in run_standard(cfg, seed=seed)["tau_tilde"]:
            assert actual_start(tau_tilde, cfg.scheduled, cfg.quorum) >= cfg.scheduled


def test_standard_degenerate_population_stays_degenerate():
    # all noise off and identical initial times: agents remain identical and
    # drift towards the cost minimum at the scheduled time
    cfg = MeetingConfig(n_agents=20, noise_std=0.0, sigma=0.0)
    states = meeting._rollout(cfg, np.full(cfg.n_agents, 12.0), np.zeros(cfg.n_agents), None)
    assert len(states) == cfg.turns
    for tau in states:
        assert np.ptp(tau) == 0.0
    assert abs(states[-1][0] - cfg.scheduled) < abs(states[0][0] - cfg.scheduled)
    # with no arrival noise the standard game's actual arrivals are the intended ones
    trajectory = run_standard(cfg, seed=0)
    assert all(map(np.array_equal, trajectory["tau"], trajectory["tau_tilde"]))


def test_standard_distribution_narrows():
    ratios = []
    for seed in range(5):
        tau_tilde = run_standard(MeetingConfig(n_agents=200), seed=seed)["tau_tilde"]
        ratios.append(np.std(tau_tilde[-1]) / np.std(tau_tilde[0]))
    assert np.mean(ratios) < 0.25


def test_start_time_varies_across_seeds_with_diffusion():
    # init centred at the schedule puts the quorum statistic in the binding
    # regime, where the realized start time responds to the Brownian noise
    cfg = MeetingConfig(n_agents=100, init_mean=15.0, sigma=0.3)
    starts = []
    for seed in range(6):
        tau_tilde = run_standard(cfg, seed=seed)["tau_tilde"][2]
        starts.append(actual_start(tau_tilde, cfg.scheduled, cfg.quorum))
    assert np.var(starts) > 0.0


def test_smoothing_zero_recovers_subgradient():
    assert best_response_drift(14.0, 15.0, 15.0, 1.0, 0.0) == 1.0
    assert best_response_drift(16.0, 15.0, 15.0, 1.0, 0.0) == -2.0
    assert best_response_drift(15.5, 15.0, 16.0, 1.0, 0.0) == 0.0


def test_neural_zeroed_nets_is_bitwise_standard():
    cfg = MeetingConfig(n_agents=12, sigma=0.0)
    nets = initial_nets(MeetingGame(cfg, [generate_observations(seed=1)]))
    for net in nets.values():
        for p in net.parameters():
            p[:] = 0.0
    neural = simulate_neural(cfg, nets, seed=9)
    standard = run_standard(cfg, seed=9)
    assert list(neural) == list(standard) == ["tau", "tau_tilde"]
    for name in neural:
        assert len(neural[name]) == len(standard[name]) == cfg.turns
        assert all(map(np.array_equal, neural[name], standard[name]))


def test_neural_training_decreases_loss():
    cfg = MeetingConfig(n_agents=8)
    obs = [generate_observations(seed=k) for k in range(4)]
    training = TrainingConfig(epochs=8, games_per_epoch=4, seed=0)
    _, history = run_neural(cfg, obs, training)
    totals = [h.total for h in history]
    q = len(totals) // 4
    assert np.mean(totals[-q:]) < np.mean(totals[:q])


def test_neural_zero_weight_stays_near_standard():
    # with the data term switched off, the trained game should stay within the
    # untrained residual's reach of the predefined dynamics
    cfg = MeetingConfig(n_agents=8)
    obs = [generate_observations(seed=3)]
    training = TrainingConfig(epochs=2, games_per_epoch=2, seed=1, data_loss_weight=0.0)
    nets, _ = run_neural(cfg, obs, training)
    neural = simulate_neural(cfg, nets, seed=5)
    standard = run_standard(cfg, seed=5)
    assert abs(neural["tau"][-1].mean() - standard["tau"][-1].mean()) < 1.0


def test_nash_gap_shrinks_after_convergence():
    # measured: the closed form falls from 2.92 to 0.42 over the standard game
    cfg = MeetingConfig(n_agents=40)
    candidates = list(np.linspace(11.0, 17.0, 13))
    cost = meeting_cost(cfg)
    tau_tilde = run_standard(cfg, seed=2)["tau_tilde"]
    gap_init = max(nash_gap(cost, tau_tilde[0], i, candidates) for i in range(5))
    gap_final = max(nash_gap(cost, tau_tilde[-1], i, candidates) for i in range(5))
    assert gap_final <= gap_init
    assert gap_init > 0.0
    first, last = (exploitability(tt, cfg) for tt in (tau_tilde[0], tau_tilde[-1]))
    assert 0.0 < last < first


@pytest.mark.parametrize("n_agents", [40, 160, 640])
def test_exploitability_matches_the_exact_probe(n_agents):
    # where the quorum start is the schedule s, an agent's deviation cannot
    # move it below s, so the probe, whose grid holds s, finds the closed
    # form's best response exactly
    cfg = MeetingConfig(n_agents=n_agents)
    cost = meeting_cost(cfg)
    candidates = cfg.scheduled + np.linspace(-4.0, 4.0, 401)
    agents = [0, 1, 2, 3]
    tau_tilde = run_standard(cfg, seed=2)["tau_tilde"]
    for tt in (tau_tilde[0], tau_tilde[-1]):
        assert actual_start(tt, cfg.scheduled, cfg.quorum)[0] == cfg.scheduled
        value = exploitability(tt, cfg)
        probed = [nash_gap(cost, tt, i, candidates) for i in agents]
        closed = closed_form_gaps(cost, tt, agents, value)
        np.testing.assert_allclose(probed, closed, rtol=0.0, atol=1e-12)
        assert max(probed) > 0.0


def test_exploitability_is_nonnegative_and_zero_at_best_responses():
    cfg = MeetingConfig(n_agents=50)
    rng = np.random.default_rng(3)
    for _ in range(20):
        assert exploitability(rng.normal(15.0, 2.0, cfg.n_agents), cfg) > 0.0
    # every arrival at s, or every arrival in [s, ts] when ts is the last of them
    assert exploitability(np.full(cfg.n_agents, cfg.scheduled), cfg) == 0.0
    everyone = MeetingConfig(n_agents=50, quorum=1.0)
    spread = rng.uniform(15.0, 16.0, everyone.n_agents)
    assert exploitability(spread, everyone) == pytest.approx(0.0, abs=1e-14)
    # an early arrival pays ts - x > ts - s, the best response's cost
    early = np.full(cfg.n_agents, cfg.scheduled)
    early[0] = cfg.scheduled - 2.0
    assert exploitability(early, cfg) == pytest.approx(2.0 / cfg.n_agents, abs=1e-15)


@pytest.mark.parametrize("arrivals", [[np.nan, 14.0, 15.0, 16.0], [np.nan] * 4])
def test_exploitability_of_nan_arrivals_is_nan(arrivals):
    # the hinges cost a NaN arrival nothing: these read 0.75 and 0.0
    assert np.isnan(exploitability(np.array(arrivals), MeetingConfig(n_agents=len(arrivals))))


def test_epoch_gradient_matches_finite_differences():
    # one epoch's combined loss as `mfgames meeting --mode neural` trains it
    # at seed 0, on 4 episodes. The loss is piecewise smooth: the quorum
    # start switches agents where arrivals tie, and absval bends where the
    # learned diffusion crosses 0. At other seeds such a kink can lie within
    # the step, giving errors up to 5e-3 at h = 1e-6 that shrink with h.
    config = MeetingConfig(n_agents=64)
    observations = [generate_observations(seed=k) for k in range(10)]
    game = MeetingGame(config, observations)
    training = TrainingConfig(epochs=1, games_per_epoch=4, seed=0)
    pairs, _tape = epoch_directional_derivatives(game, training, np.random.default_rng(0))
    for tape_derivative, fd in pairs:
        assert fd == pytest.approx(tape_derivative, rel=1e-8)


def test_final_mean_arrival_concentrates_as_the_population_grows():
    # propagation of chaos: over 40 seeds the spread of the final mean
    # intended arrival shrinks about as 1/sqrt(N), and the mean holds. At the
    # default config it measured 0.00639 at N = 250 and 0.00177 at N = 4000,
    # a ratio of 3.6 against the 4 of 1/sqrt(N); ten-seed blocks ranged from
    # 1.8 to 4.9, so the test keeps all 40 seeds and asks for 2
    finals = {n: np.array([run_standard(MeetingConfig(n_agents=n), seed=s)["tau_tilde"][-1].mean()
                           for s in range(40)]) for n in (250, 4000)}
    small, large = finals[250], finals[4000]
    assert small.std(ddof=1) >= 2.0 * large.std(ddof=1)
    # the means measured 14.58173 and 14.58127: a gap of 0.00046, where three
    # standard errors of the N = 250 mean allow 0.0030
    assert abs(small.mean() - large.mean()) <= 3.0 * small.std(ddof=1) / np.sqrt(len(small))


def test_quantile_targets_equal_numpys_quantile_bit_for_bit():
    rng = np.random.default_rng(9)
    for k in range(400):
        n = int(rng.integers(1, 300))
        values = np.sort(rng.normal(14.0, 10.0 ** rng.integers(-3, 3), n))
        if k % 4 == 0:  # ties, which interpolate between equal neighbours
            values = np.sort(rng.integers(-3, 4, n).astype(float) + 0.5)
        m = int(rng.integers(1, 400))
        levels = (np.arange(m) + 0.5) / m if k % 3 else np.append(rng.random(m), [0.0, 1.0])
        got, want = meeting._quantiles(values, levels), np.quantile(values, levels)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), (n, m)


def test_neural_meeting_run_leaves_numpy_ma_unloaded(tmp_path):
    # np.quantile imports numpy.ma on its first call, about 9 ms of a run
    src = str(Path(meeting.__file__).resolve().parents[2])
    code = ("import sys; from mfgames import cli; code = cli.main(sys.argv[1:]); "
            "print(code, 'numpy.ma' in sys.modules)")
    argv = ["meeting", "--mode", "neural", "--epochs", "0", "--agents", "8",
            "--out", str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.strip() == "0 False"
