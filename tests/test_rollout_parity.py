"""Each game writes its dynamics once; training runs them on the tape and
inference on plain arrays. Fed the same inputs and networks, the two runs
must give the same states, bit for bit.
"""

from functools import partial

import numpy as np
import pytest

from gradcheck import initial_nets
from mfgames import autodiff as ad
from mfgames.autodiff import Tape
from mfgames.games import elfarol, meeting, sir
from mfgames.mfg import TrainingConfig
from mfgames.nets import MLPConfig, mlp_forward_np, mlp_init, stack_nets


def _forwards(nets):
    """Forward functions of the networks: bound to a fresh tape, and on arrays."""
    tape = Tape()
    on_tape = {name: net.bind(tape).forward for name, net in nets.items()}
    on_arrays = {name: partial(mlp_forward_np, net) for name, net in nets.items()}
    return tape, on_tape, on_arrays


@pytest.mark.parametrize("smoothing", [0.0, 0.6])
@pytest.mark.parametrize("neural", [True, False])
def test_meeting_rollout_on_tape_equals_rollout_on_arrays(neural, smoothing):
    # smoothing 0 gives the raw subgradient, computed from plain arrays on
    # both sides; the logistic best response is one expression for both
    cfg = meeting.MeetingConfig(n_agents=40, smoothing=smoothing)
    game = meeting.MeetingGame(cfg, [meeting.generate_observations(seed=1)])
    rng = np.random.default_rng(0)
    tau0 = rng.normal(cfg.init_mean, meeting.INIT_STD, (3, cfg.n_agents))
    eps = rng.normal(0.0, cfg.noise_std, (3, cfg.n_agents))
    dB = rng.normal(0.0, 0.3, (cfg.turns - 1, 3, cfg.n_agents))
    tape, on_tape, on_arrays = _forwards(initial_nets(game, TrainingConfig(seed=3)))
    taped = meeting._rollout(cfg, tape.value(tau0), eps, dB, on_tape if neural else None)
    plain = meeting._rollout(cfg, tau0, eps, dB, on_arrays if neural else None)
    assert len(taped) == len(plain) == cfg.turns
    for x_tape, x in zip(taped, plain):
        assert np.array_equal(x_tape.v, x)


def test_elfarol_rollout_on_tape_equals_rollout_on_arrays():
    cfg = elfarol.BarConfig(n_agents=30, turns=8)
    game = elfarol.BarGame(cfg, elfarol.generate_attendance_observations(seed=2))
    seeds = [(1, 0, g) for g in range(3)]
    tape, on_tape, on_arrays = _forwards(initial_nets(game, TrainingConfig(seed=4)))
    taped = elfarol._rollout(cfg, seeds, on_tape["drift"])
    arrays = elfarol._rollout(cfg, seeds, on_arrays["drift"])
    assert list(taped) == list(arrays) == ["p", "went", "a", "mean"]
    assert isinstance(taped["p"][-1], ad.Value)  # the drift network ran on the tape
    for name in arrays:
        assert len(taped[name]) == len(arrays[name]) == cfg.turns
    for name in ("p", "went", "a"):
        for x_tape, x in zip(taped[name], arrays[name]):
            assert np.array_equal(ad.plain(x_tape), x)
    # a node's mean is its sum times 1/n where numpy divides the sum by n, so
    # the tape's mean intention may differ from numpy's in the last bit
    for m_tape, m in zip(taped["mean"], arrays["mean"]):
        np.testing.assert_array_max_ulp(ad.plain(m_tape), m, maxulp=1)


def test_sir_drift_on_tape_matches_drift_on_arrays():
    # both sides run the same day step, a drift network stacked alone and no
    # noise, on the same (batch, 3) shapes, so they agree bit for bit
    net = mlp_init(MLPConfig(13, 6, 2, 8, seed=5))
    dataset = sir.generate_synthetic_dataset(
        10, seed=1, measures=sir.make_measure_schedule(10, seed=1), modulate=True)
    rates = np.array([0.25, 0.1, 0.01])
    m0 = np.random.default_rng(2).dirichlet(np.ones(3), size=4)
    tape = Tape()
    on_tape = stack_nets([net.bind(tape)]).forward
    on_arrays = partial(mlp_forward_np, stack_nets([net]))

    def day(m, v, forward):
        return sir._day_step(m, rates, forward(sir._net_inputs(m, rates, v)), None)

    m_tape, m = tape.value(m0), m0
    for k in range(len(dataset) - 1):
        v = dataset.measures[k]
        m_tape = day(m_tape, v, on_tape)
        m = day(m, v, on_arrays)
        assert np.array_equal(m_tape.v, m)


@pytest.mark.parametrize("noisy", [True, False])
def test_sir_rollout_on_tape_equals_rollout_on_arrays(noisy):
    # the clamp's renormalisation is numpy's quotient on both sides
    days = 12
    dataset = sir.generate_synthetic_dataset(
        days + 1, seed=1, measures=sir.make_measure_schedule(days + 1, seed=1), modulate=True)
    rates = np.array([(0.25 + 0.01 * k, 0.1, 0.01) for k in range(5)])
    nets = [mlp_init(MLPConfig(13, 6, 2, 8, seed=5)), mlp_init(MLPConfig(13, 3, 2, 8, seed=6))]
    rng = np.random.default_rng(2)
    m0 = np.vstack([[0.97, 0.03, 0.0], rng.dirichlet(np.ones(3), size=3)])
    dB = rng.normal(0.0, 1.0, (4, days, 3)) if noisy else None
    tape = Tape()
    on_tape = stack_nets([net.bind(tape) for net in nets]).forward
    on_arrays = partial(mlp_forward_np, stack_nets(nets))

    def roll(m, forward):
        return list(sir._rollout(m, rates, dataset.measures, days, forward, dB))

    taped, plain = roll(tape.value(m0), on_tape), roll(m0, on_arrays)
    assert len(taped) == len(plain) == days
    for m_tape, m in zip(taped, plain):
        assert np.array_equal(m_tape.v, m)
        assert np.all(m >= 0.0)
    if noisy:
        # the noise pushed some row off the simplex, so the clamp ran
        assert any(np.any(m == 0.0) for m in plain)
