from dataclasses import replace

import numpy as np
import pytest

from gradcheck import epoch_directional_derivatives, initial_nets
from mfgames import autodiff as ad
from mfgames import mfg
from mfgames.games.elfarol import (
    BarConfig,
    BarGame,
    bar_cost,
    expected_bar_cost,
    exploitability,
    generate_attendance_observations,
    response_target,
    run_standard,
    simulate_neural,
)
from mfgames.mfg import TrainingConfig, train
from probe import bar_cost as probe_cost
from probe import closed_form_gaps, nash_gap


@pytest.fixture
def loud(monkeypatch):
    """Training starts from the drift network of seed 4 with a residual far
    outside [-1, 1], whatever the training seed."""
    init = mfg.mlp_init

    def loud_init(config):
        net = init(replace(config, seed=4))
        net.weights[-1] *= 50.0
        net.biases[-1][:] = 15.0
        return net

    monkeypatch.setattr(mfg, "mlp_init", loud_init)


def _game():
    return BarGame(BarConfig(n_agents=16, turns=6), generate_attendance_observations(seed=2))


def test_intentions_stay_in_unit_interval_in_training_rollout(loud):
    game = _game()
    tape = ad.Tape()
    bound = {k: net.bind(tape) for k, net in initial_nets(game).items()}
    # every turn after the first clamps the intentions to [0, 1]
    game.episode_losses(bound, [(0, 0, g) for g in range(3)])
    clipped = [n.v for n in tape.nodes if n.op == "clip01"]
    assert len(clipped) == game.config.turns - 1
    for p in clipped:
        assert p.shape == (3, game.config.n_agents)
        assert np.all((p >= 0.0) & (p <= 1.0))
    assert any(np.any(p == 1.0) for p in clipped)  # the clamp did bind


def test_intentions_stay_in_unit_interval_through_training_and_simulation(loud):
    game = _game()
    nets, history = train(game, TrainingConfig(epochs=2, games_per_epoch=2, seed=1))
    assert len(history) == 2 and all(np.isfinite(h.total) for h in history)
    for seed in range(3):
        trajectory = simulate_neural(game.config, nets, seed=seed)
        for p, went in zip(trajectory["p"], trajectory["went"]):
            assert np.all((p >= 0.0) & (p <= 1.0))
            assert 0.0 <= went.mean() <= 1.0
    for p in run_standard(BarConfig(n_agents=16), seed=1)["p"]:
        assert np.all((p >= 0.0) & (p <= 1.0))


def test_bar_cost_elementwise_matches_per_agent_branches():
    p = np.array([0.1, 0.5, 0.95, 0.95])
    went = np.array([False, True, True, False])
    c = 0.9
    for a in (0.3, 0.92):
        batch = bar_cost(p, a, c, went)
        for i in range(len(p)):
            want = (p[i] - a) ** 2
            if not went[i] and a < c:
                want += max(c - p[i], 0.0)
            elif went[i] and a >= c:
                want += max(p[i] - c, 0.0)
            assert batch[i] == pytest.approx(want, abs=1e-15)


def test_probe_cost_quiet_bar_against_hand_value():
    # a = 0.18 < c = 0.9: (0.1 - 0.18)^2 + (1 - 0.1)(0.9 - 0.1)
    p = np.array([0.1, 0.2, 0.3, 0.2, 0.1])
    assert expected_bar_cost(p[0], p.mean(), 0.9) == pytest.approx(0.7264, abs=1e-12)
    assert probe_cost(BarConfig(n_agents=5))(p, 0) == pytest.approx(0.7264, abs=1e-12)


def test_probe_cost_crowded_bar_against_hand_value():
    # a = 0.95 >= c = 0.9: (0.95 - 0.95)^2 + 0.95 (0.95 - 0.9)
    p = np.full(5, 0.95)
    assert expected_bar_cost(p[0], p.mean(), 0.9) == pytest.approx(0.0475, abs=1e-12)
    assert probe_cost(BarConfig(n_agents=5))(p, 0) == pytest.approx(0.0475, abs=1e-12)
    assert expected_bar_cost(0.95, 0.95, 0.9) == pytest.approx(0.0475, abs=1e-12)


def test_nash_gap_with_probe_cost():
    config = BarConfig(n_agents=5)
    p = np.array([0.1, 0.2, 0.3, 0.2, 0.1])
    cost = probe_cost(config)
    assert nash_gap(cost, p, 0, np.linspace(0.0, 1.0, 11)) >= 0.0
    assert nash_gap(cost, p, 0, [p[0]]) == 0.0


@pytest.mark.parametrize("c", [0.3, 0.5, 0.9])
def test_response_target_minimizes_the_expected_cost(c):
    grid = np.linspace(0.0, 1.0, 4001)
    for a in np.linspace(0.0, 1.0, 41):
        target = float(response_target(a, c))
        assert 0.0 <= target <= 1.0
        assert expected_bar_cost(target, a, c) <= expected_bar_cost(grid, a, c).min() + 1e-15
    # the crowded branch leaves the threshold once a > 1.5c
    assert response_target(0.5, 0.3) == pytest.approx(0.325, abs=1e-15)
    assert expected_bar_cost(0.325, 0.5, 0.3) == pytest.approx(0.03875, abs=1e-15)


def test_exploitability_approaches_the_exact_probe_as_n_grows():
    # A deviation to x moves a by (x - p_i) / n, at most 1/n, and the cost
    # moves with a at |dJ/da| = 2|x - a| <= 2 while a stays on one side of the
    # threshold; so an agent's exact gain lies within L/n of the closed form,
    # L = 2. The probe's grid of step h finds each minimum to within 5h/2,
    # as the deviated cost's slope in x is at most 4 + L/n < 5.
    h = 1e-3
    candidates = np.linspace(0.0, 1.0, 1001)
    agents = [0, 1, 2, 3]
    errors = []
    for n in (40, 160, 640):
        config = BarConfig(n_agents=n)
        p = run_standard(config, seed=2)["p"][0]
        assert config.threshold - p.mean() > 1.0 / n  # the bar stays quiet
        cost = probe_cost(config)
        probed = [nash_gap(cost, p, i, candidates) for i in agents]
        closed = closed_form_gaps(cost, p, agents, exploitability(p, config))
        errors.append(np.abs(np.subtract(probed, closed)).max())
        assert errors[-1] <= 2.0 / n + 2.5 * h
    # measured: 0.011, 0.0028, 0.0007
    assert errors[2] < errors[1] < errors[0]


def test_exploitability_is_nonnegative_and_zero_at_best_responses():
    rng = np.random.default_rng(3)
    for c in (0.3, 0.5, 0.9):
        config = BarConfig(threshold=c, n_agents=50)
        for _ in range(20):
            assert exploitability(rng.uniform(0.0, 1.0, config.n_agents), config) > 0.0
        # everyone at the threshold: a = c, and the threshold is the best response
        assert response_target(c, c) == c
        assert exploitability(np.full(config.n_agents, c), config) == 0.0


@pytest.mark.parametrize("field", ["threshold", "drift_gain"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_config_rejects_a_number_that_is_not_finite(field, value):
    # a NaN drift gain made NaN intentions, which no later check caught
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        BarConfig(**{field: value})


def test_exploitability_of_nan_intentions_is_nan():
    # the clamp at 0 keeps NaN; it read 0.0, a population at equilibrium
    p = np.array([0.2, np.nan, 0.5, 0.1])
    assert np.isnan(exploitability(p, BarConfig(n_agents=len(p))))


def test_exploitability_shrinks_over_the_standard_game():
    # measured at 40 agents: 0.406 at the first turn, 1.8e-5 at the last
    config = BarConfig(n_agents=40)
    p = run_standard(config, seed=2)["p"]
    first, last = (exploitability(p_t, config) for p_t in (p[0], p[-1]))
    assert 0.0 < last < first


def test_epoch_gradient_matches_finite_differences():
    # one epoch's combined loss as `mfgames elfarol --mode neural` trains it
    # at seed 0, on 4 episodes
    config = BarConfig(n_agents=64, drift_gain=0.3)
    game = BarGame(config, generate_attendance_observations(seed=0))
    training = TrainingConfig(epochs=1, games_per_epoch=4, seed=0)
    pairs, tape = epoch_directional_derivatives(game, training, np.random.default_rng(0))
    # clip01's partial of 1 is exact only where no intention is clipped
    clipped = [n.parents[0].v for n in tape.nodes if n.op == "clip01"]
    assert len(clipped) == config.turns - 1
    assert all(np.all((p > 0.01) & (p < 0.99)) for p in clipped)
    for tape_derivative, fd in pairs:
        assert fd == pytest.approx(tape_derivative, rel=1e-8)
