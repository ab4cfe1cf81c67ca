import math

import numpy as np
import pytest

from mfgames import autodiff as ad
from mfgames.games import meeting
from mfgames.nets import MLPConfig, mlp_init
from mfgames.sde import IntegrationError, TimeGrid, integrate


def sample_brownian(grid, dim, seed):
    """i.i.d. Normal(0, dt) Wiener increments, one row per step."""
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, np.sqrt(grid.dt), size=(grid.n_steps, dim))


def test_grid_basics():
    grid = TimeGrid(0.0, 1.0, 10)
    assert grid.dt == pytest.approx(0.1)
    assert np.allclose(grid.times(), np.linspace(0, 1, 11))
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0.0, 5)


def test_one_step_frozen_dynamics():
    x = integrate(lambda t, x: (np.zeros(1), None), np.array([1.5]), TimeGrid(0, 0.1, 1))[-1]
    assert x[0] == 1.5


def test_one_step_pure_drift():
    x = integrate(lambda t, x: (np.ones(1), None), np.array([0.0]), TimeGrid(0, 0.1, 1))[-1]
    assert x[0] == pytest.approx(0.1)


def test_zero_steps_returns_initial():
    traj = integrate(lambda t, x: (np.ones(1), None), np.array([2.0]), TimeGrid(0, 1, 0))
    assert len(traj) == 1 and traj[0][0] == 2.0


def test_increments_must_match_the_grid():
    with pytest.raises(ValueError, match="do not match the grid"):
        integrate(lambda t, x: (np.ones(1), 1.0), np.array([0.0]), TimeGrid(0, 1, 4),
                  np.zeros((3, 1)))


def test_linear_ode_against_analytic():
    grid = TimeGrid(0.0, 1.0, 1000)
    traj = integrate(lambda t, x: (-x, None), np.array([1.0]), grid)
    assert traj[-1][0] == pytest.approx(math.exp(-1.0), abs=1e-3)


def _gbm_strong_error(dt: float, n_paths: int = 200, mu=0.5, sigma=0.2) -> float:
    # strong error vs the analytic solution driven by the same increments
    n_steps = int(round(1.0 / dt))
    grid = TimeGrid(0.0, 1.0, n_steps)
    errs = []
    for k in range(n_paths):
        path = sample_brownian(grid, 1, seed=1000 + k)
        traj = integrate(lambda t, x: (mu * x, sigma * x), np.array([1.0]), grid, path)
        b_total = path.sum()
        exact = math.exp((mu - 0.5 * sigma**2) * 1.0 + sigma * b_total)
        errs.append(abs(traj[-1][0] - exact))
    return float(np.mean(errs))


def test_gbm_strong_order_half():
    dts = [1e-1, 1e-2, 1e-3]
    # mu=0.5, sigma=0.2 sits in a mixed regime where the O(dt) drift error
    # still contributes at dt=0.1, so the fitted slope runs a bit above 1/2
    errors = [_gbm_strong_error(dt) for dt in dts]
    slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
    assert 0.35 <= slope <= 0.75
    # noise-dominated parameters show the clean strong order 1/2
    errors = [_gbm_strong_error(dt, mu=0.5, sigma=0.5) for dt in dts]
    slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
    assert 0.35 <= slope <= 0.65


def test_neural_terms_absent_equals_fixed_form():
    # a fixed drift and diffusion step as x + b dt + sigma dB exactly
    rng = np.random.default_rng(8)
    x = rng.normal(size=3)
    dB = rng.normal(size=3)
    coefficients = lambda t, x: (0.3 * x, np.full(3, 0.2))
    stepped = integrate(coefficients, x.copy(), TimeGrid(0.0, 0.5, 1), dB[None])[-1]
    assert np.allclose(stepped, x + 0.15 * x + 0.2 * dB)


def test_gradient_through_integrate_matches_fd():
    # loss on the terminal state backpropagates through the unrolled solve
    net = mlp_init(MLPConfig(1, 1, 3, 8, seed=13))
    grid = TimeGrid(0.0, 1.0, 6)
    path = sample_brownian(grid, 1, seed=2)

    def run_np():
        from mfgames.nets import mlp_forward_np

        x = np.array([0.5])
        for k in range(grid.n_steps):
            mu = mlp_forward_np(net, x)
            x = x + (0.2 * x + mu) * grid.dt + 0.3 * path[k]
        return float(x[0] ** 2)

    tape = ad.Tape()
    bound = net.bind(tape)
    coefficients = lambda t, x: (0.2 * x + bound.forward(x), 0.3)
    traj = integrate(coefficients, tape.value([0.5]), grid, path)
    loss = ad.square(traj[-1][0])
    tape.backward(loss)
    grads = bound.grad_arrays()

    rng = np.random.default_rng(17)
    params = net.parameters()
    checked = 0
    for _ in range(10):
        li = int(rng.integers(len(params)))
        flat = params[li].reshape(-1)
        j = int(rng.integers(flat.size))
        h = 1e-6
        old = flat[j]
        flat[j] = old + h
        up = run_np()
        flat[j] = old - h
        dn = run_np()
        flat[j] = old
        fd = (up - dn) / (2 * h)
        g = grads[li].reshape(-1)[j]
        if abs(fd) > 1e-12 or abs(g) > 1e-12:
            assert g == pytest.approx(fd, rel=1e-4, abs=1e-9)
            checked += 1
    assert checked >= 5


def test_neural_diffusion_uses_absolute_value():
    # the meeting game's learned noise scale enters the step as |sigma|: force
    # a negative diffusion output via a handcrafted forward function
    config = meeting.MeetingConfig(n_agents=3, turns=2)  # one step, dt = 1
    tape = ad.Tape()
    tau0 = np.array([13.0, 15.0, 16.5])
    eps = np.array([0.5, -0.25, 0.0])
    dB = np.array([[0.5, -0.3, 0.1]])
    nets = {"drift": lambda f: np.zeros(f.shape[:-1] + (1,)),
            "diffusion": lambda f: tape.value(np.full(f.shape[:-1] + (1,), -2.0))}
    out = meeting._rollout(config, tape.value(tau0), eps, dB, nets)[-1]
    tts = tau0 + eps
    ts = meeting.actual_start(tts, config.scheduled, config.quorum)
    b = meeting.best_response_drift(tts, config.scheduled, ts, config.drift_gain,
                                    config.smoothing)
    assert np.allclose(out.v, tau0 + b + 2.0 * dB[0])


def test_nonfinite_state_raises_with_step_index():
    with pytest.raises(IntegrationError) as err, np.errstate(over="ignore"):
        integrate(lambda t, x: (x * x * 1e200, None), np.array([1e200]), TimeGrid(0, 1, 4))
    assert err.value.step is not None


def test_lipschitz_dynamics_stay_finite():
    net = mlp_init(MLPConfig(1, 1, 3, 8, seed=3))
    from mfgames.nets import mlp_forward_np

    for seed in range(5):
        grid = TimeGrid(0.0, 5.0, 50)
        path = sample_brownian(grid, 1, seed=seed)
        coefficients = lambda t, x: (np.clip(-x, -10, 10), np.ones(1))
        traj = integrate(coefficients, np.array([2.0]), grid, path)
        assert np.all(np.isfinite([s[0] for s in traj]))

