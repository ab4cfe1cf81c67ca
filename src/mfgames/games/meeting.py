"""The meeting arrival-times game.

Agents pick an intended arrival time tau for a meeting scheduled at s; the
actual arrival is tau_tilde = tau + eps with a per-agent Gaussian offset drawn
once per game. The meeting starts at the later of s and the quorum order
statistic of actual arrivals. Terminal costs penalize lateness relative to s,
lateness relative to the actual start, and waiting time. The standard game
relaxes the population to the fixed point; the neural variant adds a learned
drift residual and a learned diffusion and trains against observed arrival
samples. Both return a trajectory of named columns, ``tau`` and ``tau_tilde``,
each a list of per-turn (agents,) arrays; the histogram and exploitability
read the column named by ``VALUE``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from ..autodiff import absval, max0, plain, sigmoid, square, stack, take_along_axis, where
from ..mfg import GameInstance, TrainingConfig, check_finite, train, write_trajectory
from ..nets import MLP, MLPConfig, mlp_forward_np
from ..sde import TimeGrid, integrate

__all__ = [
    "MeetingConfig",
    "actual_start",
    "terminal_cost",
    "best_response_drift",
    "generate_observations",
    "run_standard",
    "MeetingGame",
    "run_neural",
    "simulate_neural",
    "exploitability",
    "write_history",
]


INIT_STD = 1.0  # spread of the initial intended arrivals around init_mean
VALUE = "tau_tilde"  # the trajectory column the histogram and exploitability read


@dataclass(frozen=True)
class MeetingConfig:
    scheduled: float = 15.0  # s, in hours
    quorum: float = 0.9
    n_agents: int = 200
    noise_std: float = 1.0  # std of the per-agent arrival offset
    turns: int = 15  # game runs over t in [1, turns]
    init_mean: float = 12.0
    drift_gain: float = 1.0
    smoothing: float = 0.6  # logistic width of the best-response gradient
    sigma: float = 0.1  # fixed Brownian scale of the standard game

    def __post_init__(self):
        check_finite(self)
        if not 0.0 < self.quorum <= 1.0:
            raise ValueError("quorum must lie in (0, 1]")
        if self.n_agents < 1:
            raise ValueError("need at least one agent")
        if self.turns < 2:
            raise ValueError("need at least two turns")
        if not all(x >= 0.0 for x in (self.noise_std, self.sigma, self.smoothing)):
            raise ValueError("noise_std, sigma and smoothing must be nonnegative")


def actual_start(tau_tilde, s: float, quorum: float):
    """Start time: the quorum-th order statistic of arrivals, never before s.

    Generic over the last axis: arrivals of shape (..., agents), an ndarray
    or a tape Value, give start times of shape (..., 1). The order statistic
    comes from an O(n) partition; on the tape the subgradient reaches the
    quorum agent only when it is the binding side (and among exactly tied
    arrivals, whichever one the partition places there).
    """
    tt = plain(tau_tilde)
    n = np.shape(tt)[-1] if np.ndim(tt) else 0
    if n < 1:
        raise ValueError("need at least one arrival")
    k = int(math.ceil(quorum * n))
    idx = np.argpartition(tt, k - 1, axis=-1)
    kth = take_along_axis(tau_tilde, idx[..., k - 1:k], axis=-1)
    # max(s, kth), exact in value
    return where(plain(kth) > s, kth, s)


def terminal_cost(tau_tilde_i, s, ts_tilde):
    """Reputation + personal inconvenience + waiting time, each a hinge."""
    return (
        max0(tau_tilde_i - s)
        + max0(tau_tilde_i - ts_tilde)
        + max0(ts_tilde - tau_tilde_i)
    )


def best_response_drift(tau_tilde, s, ts, gain: float, smoothing: float):
    """Negative gradient of the terminal cost, smoothed by a logistic CDF.

    The raw cost gradient is a sum of step functions; evaluating it through a
    logistic of width ``smoothing`` (the agent's account of its own arrival
    uncertainty) gives a drift that contracts smoothly onto the start time
    instead of chattering across the kinks. ``smoothing=0`` recovers the raw
    subgradient.
    """
    if smoothing == 0.0:
        tt = plain(tau_tilde)
        return -gain * (np.greater(tt, s) + 2.0 * np.greater(tt, plain(ts)) - 1.0)
    z1 = (tau_tilde - s) * (1.0 / smoothing)
    z2 = (tau_tilde - ts) * (1.0 / smoothing)
    return -gain * (sigmoid(z1) + 2.0 * sigmoid(z2) - 1.0)


def generate_observations(seed: int = 0) -> np.ndarray:
    """100 pooled arrival samples from a mixture of 10 Gaussians.

    Group means ~ Normal(15, 0.5), group spreads ~ Gamma(2, 0.2); each group
    contributes 10 draws.
    """
    rng = np.random.default_rng(seed)
    mus = rng.normal(15.0, 0.5, size=10)
    sigmas = rng.gamma(2.0, 0.2, size=10)
    return np.concatenate([rng.normal(m, sd, size=10) for m, sd in zip(mus, sigmas)])


def _grid(config: MeetingConfig) -> TimeGrid:
    return TimeGrid(1.0, float(config.turns), config.turns - 1)


def _rollout(config: MeetingConfig, tau0, eps, dB, nets=None) -> list:
    """The arrival dynamics from ``tau0``; the state at every turn.

    States have shape (..., agents) and are ndarrays or tape Values: training
    runs this on the tape, inference and the standard game on plain arrays.
    Each step's coefficients first rebuild the mean field from the current
    state: actual arrivals, start time and, with ``nets``, the features (t,
    tau, start). ``nets`` maps "drift" and "diffusion" to forward functions on
    the features; each step is then x + (b + mu) dt + |sigma| dB, the absolute
    value keeping the learned noise scale nonnegative. Without them it is the
    standard game's x + b dt + sigma dB. ``dB`` of None switches the noise off.
    """
    c = config

    def coefficients(t, x):
        tts = x + eps
        ts = actual_start(tts, c.scheduled, c.quorum)
        feats = None if nets is None else stack(
            [t / c.turns, (x - c.scheduled) * 0.2, (ts - c.scheduled) * 0.2])
        b = best_response_drift(tts, c.scheduled, ts, c.drift_gain, c.smoothing)
        if nets is None:
            return b, c.sigma
        mu = nets["drift"](feats)[..., 0]
        sigma = absval(nets["diffusion"](feats)[..., 0])
        return b + mu, sigma

    return integrate(coefficients, tau0, _grid(c), dB)


def _draw(config: MeetingConfig, rng):
    """An episode's initial intended arrivals, arrival offsets and Brownian increments."""
    n, grid = config.n_agents, _grid(config)
    return (rng.normal(config.init_mean, INIT_STD, n), rng.normal(0.0, config.noise_std, n),
            rng.normal(0.0, np.sqrt(grid.dt), size=(grid.n_steps, n)))


def run_standard(config: MeetingConfig, seed: int = 0) -> dict[str, list]:
    """Simulate the predefined game; unlike :func:`_draw`, draw no offsets at
    ``noise_std = 0`` and no increments at ``sigma = 0``."""
    rng = np.random.default_rng(seed)
    n = config.n_agents
    tau = rng.normal(config.init_mean, INIT_STD, n)
    eps = rng.normal(0.0, config.noise_std, n) if config.noise_std > 0 else np.zeros(n)
    grid = _grid(config)
    dB = (rng.normal(0.0, np.sqrt(grid.dt), size=(grid.n_steps, n))
          if config.sigma > 0 else None)
    trajectory = _rollout(config, tau, eps, dB)
    return {"tau": trajectory, "tau_tilde": [x + eps for x in trajectory]}


def exploitability(tau_tilde, config: MeetingConfig) -> float:
    """Mean gain of the agents' best responses to the start time ts of ``tau_tilde``.

    With ts held, every arrival in [s, ts] costs ts - s and none costs less,
    so this is the mean terminal cost minus ts - s, 0 when every agent arrives
    in [s, ts]. A deviation's own move of ts, by one rank, is not counted.
    NaN if any arrival is NaN.
    """
    if np.isnan(tau_tilde).any():  # the hinges would cost it nothing
        return math.nan
    s = config.scheduled
    ts = actual_start(tau_tilde, s, config.quorum)
    return max(float(np.mean(terminal_cost(tau_tilde, s, ts) - (ts - s))), 0.0)


def _quantiles(values, levels):
    """``np.quantile(values, levels)`` of sorted finite ``values`` by its default
    ``linear`` method, bit for bit but for the sign of a zero among 0.0s and
    -0.0s, and without ``np.quantile``'s import of ``numpy.ma``."""
    index = levels * (len(values) - 1)
    lo = np.floor(index).astype(np.intp)
    hi, top = lo + 1, index >= len(values) - 1
    lo[top] = hi[top] = -1  # the last value, as numpy takes it
    t, diff = index - lo, values[hi] - values[lo]
    out = values[lo] + diff * t
    return np.subtract(values[hi], diff * (1 - t), out=out, where=t >= 0.5)


class MeetingGame(GameInstance):
    """Neural variant: drift residual and learned diffusion on (t, tau, start).

    ``observations`` is a list of arrival samples, one target per set; the
    two networks have the default :class:`mfgames.nets.MLPConfig` size.
    """

    def __init__(self, config: MeetingConfig, observations: list):
        self.config = config
        if not observations or any(len(o) == 0 for o in observations):
            raise ValueError("observations must be nonempty")
        self.observations = [np.sort(np.asarray(o, dtype=float)) for o in observations]
        # quantile-matched targets of the ranked arrivals, one per observation set
        levels = (np.arange(config.n_agents) + 0.5) / config.n_agents
        self._targets = [_quantiles(obs, levels) for obs in self.observations]

    def net_configs(self) -> dict[str, MLPConfig]:
        return {"drift": MLPConfig(3, 1), "diffusion": MLPConfig(3, 1)}

    def episode_losses(self, bound, episode_seeds):
        """Roll all episodes as one (games, agents) batch; losses averaged over both."""
        c = self.config
        tau0, eps, dB = zip(*(_draw(c, np.random.default_rng(np.asarray(seed, dtype=np.uint64)))
                              for seed in episode_seeds))
        eps = np.array(eps)
        dB = np.stack(dB, axis=1)  # (steps, games, agents)
        nets = {name: b.forward for name, b in bound.items()}
        x = _rollout(c, np.array(tau0), eps, dB, nets)[-1]

        tts_T = x + eps
        ts_T = actual_start(tts_T, c.scheduled, c.quorum)
        game_cost = terminal_cost(tts_T, c.scheduled, ts_T).mean()
        ranked = take_along_axis(tts_T, np.argsort(tts_T.v, axis=1, kind="stable"), axis=1)
        targets = [self._targets[int(seed[-1]) % len(self._targets)] for seed in episode_seeds]
        data_loss = square(ranked - np.array(targets)).mean()
        return game_cost, data_loss


def run_neural(config: MeetingConfig, observations, training: TrainingConfig):
    """Train the neural variant; returns :func:`mfgames.mfg.train`'s (nets, loss history)."""
    return train(MeetingGame(config, observations), training)


def simulate_neural(config: MeetingConfig, nets: dict[str, MLP],
                    seed: int = 0) -> dict[str, list]:
    """Roll the trained dynamics forward on plain arrays (no tape)."""
    tau, eps, dB = _draw(config, np.random.default_rng(seed))
    forward = {name: partial(mlp_forward_np, net) for name, net in nets.items()}
    trajectory = _rollout(config, tau, eps, dB, forward)
    return {"tau": trajectory, "tau_tilde": [x + eps for x in trajectory]}


def write_history(path, trajectory: dict[str, list], histogram) -> None:
    """CSV ``turn,agent,tau,tau_tilde`` and the histogram of ``tau_tilde``;
    see :func:`mfgames.mfg.write_trajectory`."""
    write_trajectory(path, trajectory, VALUE, histogram)
