"""Parity of the array tape with golden values of the scalar-node tape.

The JSON fixtures under ``golden/`` were recorded with the tape that kept one
node per float (see each file's ``about``). The array tape rolls the same
episodes as batches and must reproduce every loss and every gradient handed
to AdaBelief to 1e-9.
"""

import json
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from mfgames import nets
from mfgames.games import dice, elfarol, meeting, sir
from mfgames.mfg import TrainingConfig, train, train_step

GOLDEN = Path(__file__).parent / "golden"
SEED = 3
TOL = 1e-9


@pytest.fixture
def step_grads(monkeypatch):
    """Every gradient list passed to AdaBelief.step, flattened, in call order."""
    log = []
    step = nets.AdaBelief.step

    def recording_step(self, grads):
        log.append([np.ravel(g) for g in grads])
        return step(self, grads)

    monkeypatch.setattr(nets.AdaBelief, "step", recording_step)
    return log


def _assert_matches(name, history, grads):
    golden = json.loads((GOLDEN / f"{name}.json").read_text())
    if history is not None:
        got = [[r.epoch, r.game_cost, r.data_loss, r.total] for r in history]
        np.testing.assert_allclose(got, golden["history"], rtol=TOL, atol=TOL)
    assert len(grads) == len(golden["grads"])
    for step_got, step_want in zip(grads, golden["grads"]):
        assert len(step_got) == len(step_want)
        for g, want in zip(step_got, step_want):
            np.testing.assert_allclose(g, want, rtol=TOL, atol=TOL)


def test_meeting_epoch_matches_scalar_tape(step_grads):
    config = meeting.MeetingConfig(n_agents=64)
    obs = [meeting.generate_observations(seed=SEED * 1000 + k) for k in range(10)]
    game = meeting.MeetingGame(config, obs)
    _, history = train(game, TrainingConfig(epochs=1, games_per_epoch=10, seed=SEED))
    _assert_matches("meeting", history, step_grads)


def test_elfarol_epoch_matches_scalar_tape(step_grads):
    config = elfarol.BarConfig(threshold=0.9, n_agents=64, turns=15, drift_gain=0.3)
    obs = elfarol.generate_attendance_observations(seed=SEED)
    game = elfarol.BarGame(config, obs)
    _, history = train(game, TrainingConfig(epochs=1, games_per_epoch=10, seed=SEED))
    _assert_matches("elfarol", history, step_grads)


def test_sir_two_epochs_match_scalar_tape(step_grads):
    days = 12
    dataset = sir.generate_synthetic_dataset(
        days, seed=SEED, measures=sir.make_measure_schedule(days, seed=SEED), modulate=True
    )
    training = TrainingConfig(epochs=2, games_per_epoch=3, seed=SEED)
    config = sir.SIRConfig(trajectories=4, hidden_layers=2, hidden_width=8)
    rates, _ = sir.estimate_rates(dataset, window=days)
    _, history = sir.train_sir(dataset, training, config=config, warm_rates=rates)
    _assert_matches("sir", history, step_grads)


def test_dice_round_update_matches_scalar_tape(step_grads):
    config = dice.DiceConfig(n_players=8, dice_per_player=5)
    net = nets.mlp_init(nets.MLPConfig(14, 7, hidden_layers=3, hidden_width=8, seed=SEED))
    opt = nets.AdaBelief(net.parameters(), lr=5e-4)
    rng = np.random.default_rng(SEED)
    counts = dice.deal(config.n_players, config, rng)
    theta_hat = np.full((config.n_players, 6), 1 / 6)
    lam = np.full(config.n_players, 0.5)
    outcome = dice.play_round(counts, theta_hat, lam, config, rng)
    target = dice._pooled_target(outcome.revealed.astype(float), config)
    loss = partial(dice._round_loss, theta_hat, lam, counts, target, outcome, config)
    theta_hat, lam = train_step({"drift": net}, {"drift": opt}, loss, 0)
    _assert_matches("dice", None, step_grads)
    golden = json.loads((GOLDEN / "dice.json").read_text())
    np.testing.assert_allclose(theta_hat, golden["theta_hat"], rtol=TOL, atol=TOL)
    np.testing.assert_allclose(lam, golden["lam"], rtol=TOL, atol=TOL)
