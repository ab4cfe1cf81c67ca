"""Each training step's graph is freed by reference counting once the step ends.

A tape and its nodes refer to each other, so a graph that is merely dropped
waits for the cyclic collector, and memory then grows with the number of
steps. These tests run every training loop with that collector switched off
and check through weak references that no tape outlives its step, also when
the step raises. The backward sweep itself holds only the adjoints still
waiting for a consumer. A step records no leaf but its networks' parameters:
the rollouts start from plain arrays.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from mfgames import autodiff, mfg, nets
from mfgames.games import dice, elfarol, meeting, sir
from mfgames.mfg import TrainingConfig, TrainingDivergence, train
from mfgames.nets import MLPConfig, mlp_init


@pytest.fixture
def tapes(monkeypatch):
    """Weak references to every Tape created while the test runs."""
    refs = []
    init = autodiff.Tape.__init__

    def recording_init(self):
        init(self)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(autodiff.Tape, "__init__", recording_init)
    return refs


def _live_tapes_after(run, refs) -> int:
    """Number of tapes still alive after ``run()``, with the cyclic collector off."""
    gc.collect()
    gc.disable()
    try:
        run()
        return sum(ref() is not None for ref in refs)
    finally:
        gc.enable()


def _meeting(epochs):
    config = meeting.MeetingConfig(n_agents=16)
    obs = [meeting.generate_observations(seed=k) for k in range(2)]
    game = meeting.MeetingGame(config, obs)
    return train(game, TrainingConfig(epochs=epochs, games_per_epoch=2, seed=1))


def _elfarol():
    config = elfarol.BarConfig(n_agents=16)
    game = elfarol.BarGame(config, elfarol.generate_attendance_observations(seed=1))
    return train(game, TrainingConfig(epochs=3, games_per_epoch=2, seed=1))


def _sir():
    dataset = sir.generate_synthetic_dataset(12, seed=1, i0=0.05)
    training = TrainingConfig(epochs=3, games_per_epoch=2, seed=1)
    config = sir.SIRConfig(trajectories=4, hidden_layers=2, hidden_width=8)
    rates, _ = sir.estimate_rates(dataset, window=12)
    return sir.train_sir(dataset, training, config=config, warm_rates=rates)


def _dice():
    config = dice.DiceConfig(n_players=4, dice_per_player=3)
    training = TrainingConfig(epochs=1, seed=2)
    return dice.train_dice(config, training, games=2, rounds_per_game=2, neural=True)


def _diverging(run):
    """``run`` with a threshold that the first step's loss exceeds."""
    def run_and_catch():
        # not pytest.raises: its record of the traceback would keep the
        # failed step's frames, and the graph with them, in a cycle
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mfg, "ABORT_THRESHOLD", 1e-12)
            try:
                run()
            except TrainingDivergence as err:
                assert err.step == 0
            else:
                pytest.fail("training did not diverge")

    return run_and_catch


RUNS = {
    "meeting": lambda: _meeting(3),
    "elfarol": _elfarol,
    "sir": _sir,
    "dice": _dice,
    "meeting_divergence": _diverging(lambda: _meeting(3)),
    "sir_divergence": _diverging(_sir),
    "dice_divergence": _diverging(_dice),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_no_tape_outlives_training(tapes, name):
    assert _live_tapes_after(RUNS[name], tapes) == 0
    assert tapes  # the run did record on tapes


@pytest.mark.parametrize("name", ["meeting", "elfarol", "sir"])
def test_a_training_step_records_no_leaf_but_its_networks_parameters(monkeypatch, name):
    bound, steps = [], []  # the step's bound networks; per step, whether the leaves match
    bind, backward = nets.MLP.bind, autodiff.Tape.backward

    def recording_bind(self, tape):
        bound.append(bind(self, tape))
        return bound[-1]

    def checking_backward(self, root):
        params = {id(n) for b in bound for n in (*b.wnodes, *b.bnodes)}
        steps.append({id(n) for n in self.nodes if not n.parents} == params)
        bound.clear()
        return backward(self, root)

    monkeypatch.setattr(nets.MLP, "bind", recording_bind)
    monkeypatch.setattr(autodiff.Tape, "backward", checking_backward)
    RUNS[name]()
    assert len(steps) == 3 and all(steps)


def test_backward_frees_each_adjoint_once_used():
    tape = autodiff.Tape()
    x = tape.value(np.ones(10_000))
    y = x
    for _ in range(100):
        y = autodiff.sigmoid(y)
    # 100 adjoints of 80 kB each if the sweep kept them all
    assert _traced_peak(lambda: tape.backward(y)) < 10 * x.v.nbytes
    assert x.g.shape == x.shape


def test_network_backward_frees_each_layer_adjoint():
    # one node for 16 affine layers of 64 units on a batch of 1000
    net = mlp_init(MLPConfig(64, 64, 15, 64, seed=0))
    tape = autodiff.Tape()
    bound = net.bind(tape)
    x = tape.value(np.random.default_rng(0).normal(size=(1000, 64)))
    y = bound.forward(x).sum()
    assert sum(n.op == "mlp" for n in tape.nodes) == 1
    adjoint = x.v.nbytes  # 512 kB for each layer's adjoint
    tracemalloc.start()
    try:
        tape.backward(y)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 16 layer adjoints if the walk kept them all
    assert peak < 6 * adjoint
    # once the sweep is done only the leaves' gradients are left: the node
    # holds none of the adjoints its walk computed
    grads = sum(n.g.nbytes for n in tape.nodes if not n.parents)
    assert held - grads < adjoint // 8
    assert x.g.shape == x.shape


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_training_peak_memory_does_not_grow_with_epochs():
    two = _traced_peak(lambda: _meeting(2))
    eight = _traced_peak(lambda: _meeting(8))
    assert eight <= 1.1 * two
