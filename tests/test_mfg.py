import csv
from dataclasses import replace

import numpy as np
import pytest

from mfgames import autodiff as ad
from mfgames import cli, mfg
from mfgames.mfg import (
    GameInstance,
    TrainingConfig,
    TrainingDivergence,
    float_cells,
    train,
    write_csv,
    write_history_csv,
    write_trajectory,
)
from mfgames.nets import AdaBelief, MLPConfig, mlp_forward_np, mlp_init
from gradcheck import log
from probe import nash_gap


class ConstantLosses(GameInstance):
    """Every epoch's loss terms are the given constants; the game cost adds
    0 times a network's output, so the step has a node to backpropagate."""

    def __init__(self, game_cost, data_loss):
        self.terms = game_cost, data_loss

    def net_configs(self):
        return {"zero": MLPConfig(1, 1, 1, 1)}

    def episode_losses(self, bound, episode_seeds):
        game_cost, data_loss = self.terms
        return bound["zero"].forward(np.zeros((1, 1))).sum() * 0.0 + game_cost, data_loss


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

    def __init__(self):
        self.n_steps = 5
        self.dt = 0.2

    def net_configs(self):
        return {"drift": MLPConfig(2, 1, 3, 8)}

    def episode_losses(self, bound, episode_seeds):
        # one state per episode, rolled as a batch; the toy is noiseless
        x = np.zeros(len(episode_seeds))
        for k in range(self.n_steps):
            mu = bound["drift"].forward(ad.stack([k * self.dt, x]))[..., 0]
            x = x + mu * self.dt
        return ad.square(x - 1.0).mean(), 0.0

    def terminal_state(self, nets):
        x = 0.0
        for k in range(self.n_steps):
            mu = mlp_forward_np(nets["drift"], ad.stack([k * self.dt, x]))[0]
            x = x + mu * self.dt
        return x


def test_train_zero_epochs_keeps_parameters():
    nets, history = train(QuadraticToy(), TrainingConfig(epochs=0, games_per_epoch=1))
    assert history == []
    want = mlp_init(MLPConfig(2, 1, 3, 8, seed=0))
    for p, q in zip(nets["drift"].parameters(), want.parameters()):
        assert np.array_equal(p, q)


def test_train_seeds_network_k_with_the_training_seed_plus_k():
    class TwoNets(GameInstance):
        def net_configs(self):
            return {"b": MLPConfig(2, 1, 3, 8, seed=99), "a": MLPConfig(3, 2, 1, 4)}

    game = TwoNets()
    nets, history = train(game, TrainingConfig(epochs=0, seed=5))
    assert history == [] and list(nets) == ["b", "a"]
    for k, (name, config) in enumerate(game.net_configs().items()):
        want = mlp_init(replace(config, seed=5 + k))
        assert nets[name].config == want.config and nets[name].config.seed == 5 + k
        for p, q in zip(nets[name].parameters(), want.parameters(), strict=True):
            assert np.array_equal(p, q)


def test_train_quadratic_toy_reaches_target():
    game = QuadraticToy()
    nets, history = train(game, TrainingConfig(epochs=500, games_per_epoch=1, seed=1))
    assert abs(game.terminal_state(nets) - 1.0) < 0.05
    assert history[-1].total < history[0].total


def test_train_batches_episodes_and_records_plain_floats():
    # identical noiseless episodes: the batch average equals one episode
    one = train(QuadraticToy(), TrainingConfig(epochs=3, games_per_epoch=1, seed=2))[1]
    many = train(QuadraticToy(), TrainingConfig(epochs=3, games_per_epoch=4, seed=2))[1]
    for a, b in zip(one, many):
        assert b.total == pytest.approx(a.total, rel=1e-12)
        assert all(type(v) is float for v in (b.game_cost, b.data_loss, b.total))


def test_train_divergence_abort():
    class Exploding(GameInstance):
        def net_configs(self):
            return {"drift": MLPConfig(1, 1, 3, 8)}

        def episode_losses(self, bound, episode_seed):
            return bound["drift"].forward(np.zeros((1, 1))).sum() * 0.0 + 1e7, 0.0

    with pytest.raises(TrainingDivergence) as err:
        train(Exploding(), TrainingConfig(epochs=3, games_per_epoch=1))
    assert err.value.step == 0


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_non_finite_gradient_diverges_before_any_network_steps(monkeypatch):
    class TwoNets(GameInstance):
        """Network b's output is scaled to 1e-310: its log is finite, its gradient is not."""

        def net_configs(self):
            return {name: MLPConfig(1, 1, 1, 2) for name in "ab"}

        def episode_losses(self, bound, episode_seeds):
            x = np.ones((1, 1))
            tiny = bound["b"].forward(x).sum() * 0.0 + 1e-310
            return bound["a"].forward(x).sum() + log(tiny), 0.0

    steps = []
    monkeypatch.setattr(AdaBelief, "step", lambda self, grads: steps.append(grads))
    with pytest.raises(TrainingDivergence, match="non-finite gradient at step 0") as err:
        train(TwoNets(), TrainingConfig(epochs=2, games_per_epoch=1))
    assert err.value.step == 0
    assert steps == []


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
    _, history = train(QuadraticToy(), TrainingConfig(epochs=3, games_per_epoch=1))
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


@pytest.mark.parametrize("chunk", [1, 3, 4])
def test_write_csv_in_chunks_keeps_the_bytes(tmp_path, monkeypatch, chunk):
    # blocks of 0, 3 and 7 rows, lazy as the games' turn blocks are
    def blocks():
        for turn, n in enumerate((7, 0, 3)):
            yield ((str(turn), str(i), repr(i / 7)) for i in range(n))

    write_csv(tmp_path / "whole.csv", ["turn", "agent", "value"], blocks())
    monkeypatch.setattr(mfg, "CSV_CHUNK_ROWS", chunk)
    write_csv(tmp_path / "chunked.csv", ["turn", "agent", "value"], blocks())
    whole = (tmp_path / "whole.csv").read_bytes()
    assert (tmp_path / "chunked.csv").read_bytes() == whole
    assert whole.count(b"\r\n") == 11


# an agent game's trajectory: a float column and a bool column over 2 turns
# of 5 agents, floats as in the csv.writer test above
TRAJECTORY = {
    "p": [np.array([0.1, -0.0, 1e-300, np.nan, 12.000000000000002]),
          np.array([3.0, -2.5e16, np.inf, 0.5, 1.0])],
    "went": [np.array([True, False, False, True, True]), np.zeros(5, dtype=bool)],
}


@pytest.mark.parametrize("chunk", [2, mfg.CSV_CHUNK_ROWS])  # 2 rows split a turn of 5
def test_write_trajectory_bytes_match_csv_writer(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(mfg, "CSV_CHUNK_ROWS", chunk)
    write_trajectory(tmp_path / "trajectory.csv", TRAJECTORY, "p",
                     cli.emit_histogram(tmp_path / "plotdata.csv"))
    with open(tmp_path / "rows.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["turn", "agent", "p", "went"])
        for turn, (p, went) in enumerate(zip(*TRAJECTORY.values()), start=1):
            for i, (value, bit) in enumerate(zip(p, went)):
                writer.writerow([turn, i, repr(float(value)), int(bit)])
    trajectory = (tmp_path / "trajectory.csv").read_bytes()
    assert trajectory == (tmp_path / "rows.csv").read_bytes()
    assert trajectory.count(b"\r\n") == 11
    with open(tmp_path / "plotdata.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["turn", "value", "weight"]
    assert rows[1:] == [list(row) for turn, p in enumerate(TRAJECTORY["p"], start=1)
                        for row in cli._histogram_block(turn, [repr(float(v)) for v in p])]
