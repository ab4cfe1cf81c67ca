import math

import numpy as np
import pytest

from mfgames.games import dice
from mfgames.games.dice import (
    Bid,
    DiceConfig,
    PlayerState,
    bid_probability,
    is_legal_successor,
    play_round,
)
from mfgames.nets import AdaBelief, MLPConfig, mlp_init


def test_bid_probability_at_the_mean_for_many_dice():
    # q**6000 underflows to 0 at p = 1/6; the tail at the mean is still about 1/2
    own = np.zeros(6, dtype=int)
    theta = np.full(6, 1.0 / 6.0)
    assert (5.0 / 6.0) ** 6000 == 0.0
    prob = bid_probability(1, 1000, own, theta, 6000)
    assert prob == pytest.approx(0.5, abs=0.02)
    assert bid_probability(1, 900, own, theta, 6000) > 0.99
    assert bid_probability(1, 1100, own, theta, 6000) < 0.01


def test_log_space_tail_matches_direct_recurrence_where_both_apply():
    own = np.zeros(6, dtype=int)
    for n, p in ((30, 1 / 6), (500, 0.3), (3000, 1 / 6)):
        theta = np.full(6, (1.0 - p) / 5.0)
        theta[2] = p
        for need in (1, int(n * p), int(n * p) + 7, n):
            direct = bid_probability(3, need, own, theta, n)
            assert dice._binomial_tail_log_space(need, n, p) == pytest.approx(
                direct, rel=1e-9, abs=1e-300)


def _loud_net(config, seed=0, scale=20.0):
    net = mlp_init(MLPConfig(2 * config.n_faces + 2, config.n_faces + 1, 3, 8, seed=seed))
    net.weights[-1] *= scale
    net.biases[-1][:] = np.linspace(-1.0, 1.0, config.n_faces + 1) * scale
    return net


def test_neural_update_keeps_beliefs_on_simplex_and_bids_legal():
    config = DiceConfig(n_players=5, dice_per_player=4)
    net = _loud_net(config)
    opt = AdaBelief(net.parameters(), lr=0.05)
    rng = np.random.default_rng(7)
    players = [PlayerState(np.full(6, 1.0 / 6.0), 0.0) for _ in range(config.n_players)]
    pooled = np.zeros(config.n_faces)
    for _round in range(12):
        outcome = play_round(players, config, rng)
        bids = outcome.bids
        assert all(is_legal_successor(a, b) for a, b in zip(bids, bids[1:]))
        pooled += outcome.revealed
        target = dice._pooled_target(pooled, config)
        dice._neural_round_update(players, target, outcome, config, net, opt)
        for pl in players:
            assert np.all(pl.theta_hat > 0.0)
            assert pl.theta_hat.sum() == pytest.approx(1.0, abs=1e-12)
            assert type(pl.lam) is float and pl.lam >= 0.0


def test_neural_training_records_legal_games():
    from mfgames.mfg import TrainingConfig

    config = DiceConfig(n_players=4, dice_per_player=3)
    net, records = dice.train_dice(config, TrainingConfig(epochs=1, seed=2), games=2,
                                   rounds_per_game=3, neural=True)
    assert net is not None and len(records) == 6
    for rec in records:
        bids = rec.outcome.bids
        assert all(is_legal_successor(a, b) for a, b in zip(bids, bids[1:]))
        assert rec.lam_mean >= 0.0 and math.isfinite(rec.kl)
    assert is_legal_successor(Bid(2, 3), Bid(2, 4))
    assert not is_legal_successor(Bid(2, 3), Bid(1, 4))
