import csv

import numpy as np
import pytest

from mfgames import autodiff as ad
from mfgames.mfg import (
    GameInstance,
    TrainingConfig,
    TrainingDivergence,
    float_cells,
    train,
    write_csv,
    write_history_csv,
)
from mfgames.nets import MLPConfig, mlp_init
from gradcheck import log
from probe import nash_gap


class ConstantLosses(GameInstance):
    """No network; every epoch's loss terms are the given constants."""

    def __init__(self, game_cost, data_loss):
        self.terms = game_cost, data_loss

    def nets(self):
        return {}

    def episode_losses(self, tape, bound, episode_seeds):
        return tuple(tape.value(t) for t in self.terms)


def test_combined_loss():
    def total(game_cost, data_loss, w):
        config = TrainingConfig(epochs=1, games_per_epoch=1, data_loss_weight=w)
        return train(ConstantLosses(game_cost, data_loss), config)[1][0].total

    assert total(0.0, 0.0, 1.0) == 0.0
    assert total(2.0, 3.0, 1.0) == 5.0
    with pytest.raises(ValueError):
        TrainingConfig(epochs=1, data_loss_weight=-0.5)


@pytest.mark.parametrize("field", ["lr", "data_loss_weight"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_training_config_rejects_a_number_that_is_not_finite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        TrainingConfig(**{field: value})


class QuadraticToy(GameInstance):
    """Single state pushed by a pure neural drift; G = (x_T - 1)^2."""

    def __init__(self, seed=0):
        self._nets = {"drift": mlp_init(MLPConfig(2, 1, 3, 8, seed=seed))}
        self.n_steps = 5
        self.dt = 0.2

    def nets(self):
        return self._nets

    def episode_losses(self, tape, bound, episode_seeds):
        # one state per episode, rolled as a batch; the toy is noiseless
        x = tape.value(np.zeros(len(episode_seeds)))
        for k in range(self.n_steps):
            mu = bound["drift"].forward(ad.stack([k * self.dt, x]))[..., 0]
            x = x + mu * self.dt
        return ad.square(x - 1.0).mean(), tape.value(0.0)

    def terminal_state(self):
        tape = ad.Tape()
        bound = {k: v.bind(tape) for k, v in self._nets.items()}
        x = tape.value(0.0)
        for k in range(self.n_steps):
            mu = bound["drift"].forward(ad.stack([k * self.dt, x]))[0]
            x = x + mu * self.dt
        return x.v


def test_train_zero_epochs_keeps_parameters():
    game = QuadraticToy()
    before = [p.copy() for p in game.nets()["drift"].parameters()]
    _, history = train(game, TrainingConfig(epochs=0, games_per_epoch=1))
    assert history == []
    for p, q in zip(game.nets()["drift"].parameters(), before):
        assert np.array_equal(p, q)


def test_train_quadratic_toy_reaches_target():
    game = QuadraticToy(seed=1)
    _, history = train(game, TrainingConfig(epochs=500, games_per_epoch=1))
    assert abs(game.terminal_state() - 1.0) < 0.05
    assert history[-1].total < history[0].total


def test_train_batches_episodes_and_records_plain_floats():
    # identical noiseless episodes: the batch average equals one episode
    one = train(QuadraticToy(seed=2), TrainingConfig(epochs=3, games_per_epoch=1))[1]
    many = train(QuadraticToy(seed=2), TrainingConfig(epochs=3, games_per_epoch=4))[1]
    for a, b in zip(one, many):
        assert b.total == pytest.approx(a.total, rel=1e-12)
        assert all(type(v) is float for v in (b.game_cost, b.data_loss, b.total))


def test_train_divergence_abort():
    class Exploding(GameInstance):
        def __init__(self):
            self._nets = {"drift": mlp_init(MLPConfig(1, 1, 3, 8, seed=0))}

        def nets(self):
            return self._nets

        def episode_losses(self, tape, bound, episode_seed):
            return tape.value(1e7), tape.value(0.0)

    with pytest.raises(TrainingDivergence) as err:
        train(Exploding(), TrainingConfig(epochs=3, games_per_epoch=1))
    assert err.value.step == 0


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_non_finite_gradient_diverges_before_any_network_steps():
    class TwoNets(GameInstance):
        """Network b outputs 1e-310: its log is finite, its gradient is not."""

        def __init__(self):
            self._nets = {name: mlp_init(MLPConfig(1, 1, 1, 2, seed=k))
                          for k, name in enumerate("ab")}
            self._nets["b"].weights[-1][:] = 0.0
            self._nets["b"].biases[-1][:] = 1e-310

        def nets(self):
            return self._nets

        def episode_losses(self, tape, bound, episode_seeds):
            x = np.ones((1, 1))
            game_cost = bound["a"].forward(x).sum() + log(bound["b"].forward(x).sum())
            return game_cost, tape.value(0.0)

    game = TwoNets()
    before = [p.copy() for net in game.nets().values() for p in net.parameters()]
    with pytest.raises(TrainingDivergence, match="non-finite gradient at step 0") as err:
        train(game, TrainingConfig(epochs=2, games_per_epoch=1))
    assert err.value.step == 0
    after = [p for net in game.nets().values() for p in net.parameters()]
    assert all(np.array_equal(p, q) for p, q in zip(after, before))


# the exact probe of tests/probe.py, the reference the games' closed-form
# exploitability is checked against


def test_nash_gap_identity_deviation_is_zero():
    def cost(states, i):
        return float((states[i] - states.mean()) ** 2)

    states = np.array([1.0, 2.0, 3.0])
    assert nash_gap(cost, states, 1, [2.0]) == 0.0


def test_nash_gap_positive_for_random_population():
    rng = np.random.default_rng(4)

    def cost(states, i):
        return float((states[i] - states.mean()) ** 2)

    states = rng.normal(size=8)
    gap = nash_gap(cost, states, 0, list(np.linspace(-2, 2, 21)))
    assert gap > 0


def test_nash_gap_validation():
    with pytest.raises(ValueError):
        nash_gap(lambda s, i: 0.0, np.array([1.0]), 0, [])
    with pytest.raises(ValueError):
        nash_gap(lambda s, i: 0.0, np.array([1.0]), 3, [0.0])


def test_history_csv(tmp_path):
    game = QuadraticToy()
    _, history = train(game, TrainingConfig(epochs=3, games_per_epoch=1))
    path = tmp_path / "history.csv"
    write_history_csv(path, history)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,game_cost,data_loss,total"
    assert len(lines) == 4
    # epochs logged in increasing order
    epochs = [int(l.split(",")[0]) for l in lines[1:]]
    assert epochs == sorted(epochs)


def test_write_csv_bytes_match_csv_writer(tmp_path):
    values = np.array([0.1, -0.0, 1e-300, -2.5e16, 12.000000000000002, np.inf, np.nan, 3.0])
    blocks = [
        [("1", str(i), cell, "") for i, cell in enumerate(float_cells(values))],
        [],
        [("2", "0", repr(float(values[0])), "challenge")],
    ]
    write_csv(tmp_path / "bulk.csv", ["turn", "agent", "value", "note"], blocks)
    with open(tmp_path / "rows.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["turn", "agent", "value", "note"])
        for i, v in enumerate(values):
            writer.writerow([1, i, repr(float(v)), ""])
        writer.writerow([2, 0, repr(float(values[0])), "challenge"])
    bulk = (tmp_path / "bulk.csv").read_bytes()
    assert bulk == (tmp_path / "rows.csv").read_bytes()
    assert bulk.count(b"\r\n") == 10 and b"np.float64" not in bulk
