import numpy as np
import pytest

from mfgames import autodiff as ad
from mfgames.mfg import (
    CostSpec,
    GameInstance,
    MeanField,
    PopulationState,
    TrainingConfig,
    TrainingDivergence,
    combined_loss,
    empirical_mean_field,
    evaluate_cost,
    nash_gap,
    train,
    write_history_csv,
)
from mfgames.nets import MLPConfig, mlp_init


def test_population_validation():
    with pytest.raises(ValueError):
        PopulationState(np.empty((0, 1)))
    with pytest.raises(ValueError):
        PopulationState(np.array([[np.inf]]))


def test_mean_field_point_mass():
    pop = PopulationState(np.full((10, 1), 5.0))
    mf = empirical_mean_field(pop, lambda a: (a.mean(), a.var()))
    assert mf.summary == (5.0, 0.0)


def test_mean_field_attendance_fraction():
    pop = PopulationState(np.array([[1.0], [0.0], [1.0], [0.0]]))
    mf = empirical_mean_field(pop, lambda a: a.mean())
    assert mf.summary == 0.5


def test_mean_field_compartment_proportions():
    labels = np.array([[0.0], [1.0], [1.0], [2.0]])
    pop = PopulationState(labels)
    mf = empirical_mean_field(
        pop, lambda a: np.bincount(a.astype(int).ravel(), minlength=3) / a.shape[0]
    )
    assert mf.summary == pytest.approx([0.25, 0.5, 0.25])
    assert mf.summary.sum() == pytest.approx(1.0)


def test_mean_field_deterministic():
    pop = PopulationState(np.random.default_rng(0).normal(size=(50, 2)))
    r = lambda a: a.mean(axis=0)
    assert np.array_equal(
        empirical_mean_field(pop, r).summary, empirical_mean_field(pop, r).summary
    )


def test_evaluate_cost_null_game():
    spec = CostSpec()
    assert evaluate_cost(spec, [0.0, 1.0], [None, None], dt=0.5) == 0.0


def test_evaluate_cost_terminal_only():
    spec = CostSpec(terminal_cost=lambda x, mf: 3.0)
    assert evaluate_cost(spec, [0.0, 1.0, 2.0], [None] * 3, dt=0.5) == 3.0


def test_evaluate_cost_riemann_sum():
    # L = 2 constant on [0, 1] with 10 steps -> 0.5 * 2 * 1 = 1.0
    spec = CostSpec(running_cost=lambda x, mf, c, o: 2.0)
    traj = list(np.linspace(0, 1, 11))
    assert evaluate_cost(spec, traj, [None] * 11, dt=0.1) == pytest.approx(1.0)


def test_combined_loss():
    assert combined_loss(0.0, 0.0, 1.0) == 0.0
    assert combined_loss(2.0, 3.0, 1.0) == 5.0
    with pytest.raises(ValueError):
        combined_loss(1.0, 1.0, -0.5)


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
            mu = bound["drift"].forward([k * self.dt, x])[..., 0]
            x = x + mu * self.dt
        return ad.square(x - 1.0).mean(), tape.value(0.0)

    def terminal_state(self):
        tape = ad.Tape()
        bound = {k: v.bind(tape) for k, v in self._nets.items()}
        x = tape.value(0.0)
        for k in range(self.n_steps):
            mu = bound["drift"].forward([k * self.dt, x])[0]
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
    assert err.value.epoch == 0


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
