import numpy as np
import pytest

from gradcheck import epoch_directional_derivatives
from mfgames import autodiff as ad
from mfgames.games.elfarol import (
    BarConfig,
    BarGame,
    bar_cost,
    expected_bar_cost,
    generate_attendance_observations,
    probe_cost,
    run_standard,
    simulate_neural,
)
from mfgames.mfg import TrainingConfig, nash_gap, train


def _loud_game(n_agents=16, turns=6, scale=50.0):
    """A game whose drift residual swings far outside [-1, 1]."""
    game = BarGame(BarConfig(n_agents=n_agents, turns=turns),
                   generate_attendance_observations(seed=2), net_seed=4)
    net = game.nets()["drift"]
    net.weights[-1] *= scale
    net.biases[-1][:] = 0.3 * scale
    return game


def test_intentions_stay_in_unit_interval_in_training_rollout():
    game = _loud_game()
    tape = ad.Tape()
    bound = {k: net.bind(tape) for k, net in game.nets().items()}
    # sample_attendance rejects intentions outside [0, 1] at every turn
    game.episode_losses(tape, bound, [(0, 0, g) for g in range(3)])
    clipped = [n.v for n in tape.nodes if n.op == "clip01"]
    assert len(clipped) == game.config.turns - 1
    for p in clipped:
        assert p.shape == (3, game.config.n_agents)
        assert np.all((p >= 0.0) & (p <= 1.0))
    assert any(np.any(p == 1.0) for p in clipped)  # the clamp did bind


def test_intentions_stay_in_unit_interval_through_training_and_simulation():
    game = _loud_game()
    _, history = train(game, TrainingConfig(epochs=2, games_per_epoch=2, seed=1))
    assert len(history) == 2 and all(np.isfinite(h.total) for h in history)
    for seed in range(3):
        for st in simulate_neural(game.config, game.nets(), seed=seed):
            assert np.all((st.p >= 0.0) & (st.p <= 1.0))
            assert 0.0 <= st.a <= 1.0
    for st in run_standard(BarConfig(n_agents=16), seed=1):
        assert np.all((st.p >= 0.0) & (st.p <= 1.0))


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
    assert probe_cost(p, 0, BarConfig(n_agents=5)) == pytest.approx(0.7264, abs=1e-12)


def test_probe_cost_crowded_bar_against_hand_value():
    # a = 0.95 >= c = 0.9: (0.95 - 0.95)^2 + 0.95 (0.95 - 0.9)
    p = np.full(5, 0.95)
    assert probe_cost(p, 0, BarConfig(n_agents=5)) == pytest.approx(0.0475, abs=1e-12)
    assert expected_bar_cost(0.95, 0.95, 0.9) == pytest.approx(0.0475, abs=1e-12)


def test_nash_gap_with_probe_cost():
    config = BarConfig(n_agents=5)
    p = np.array([0.1, 0.2, 0.3, 0.2, 0.1])
    cost = lambda profile, i: probe_cost(profile, i, config)
    assert nash_gap(cost, p, 0, np.linspace(0.0, 1.0, 11)) >= 0.0
    assert nash_gap(cost, p, 0, [p[0]]) == 0.0


def test_epoch_gradient_matches_finite_differences():
    # one epoch's combined loss as `mfgames elfarol --mode neural` trains it
    # at seed 0, on 4 episodes
    config = BarConfig(n_agents=64, drift_gain=0.3)
    game = BarGame(config, generate_attendance_observations(seed=0), net_seed=0)
    training = TrainingConfig(epochs=1, games_per_epoch=4, seed=0)
    pairs, tape = epoch_directional_derivatives(game, training, np.random.default_rng(0))
    # clip01's partial of 1 is exact only where no intention is clipped
    clipped = [n.parents[0].v for n in tape.nodes if n.op == "clip01"]
    assert len(clipped) == config.turns - 1
    assert all(np.all((p > 0.01) & (p < 0.99)) for p in clipped)
    for tape_derivative, fd in pairs:
        assert fd == pytest.approx(tape_derivative, rel=1e-8)
