"""The meeting arrival-times game.

Agents pick an intended arrival time tau for a meeting scheduled at s; the
actual arrival is tau_tilde = tau + eps with a per-agent Gaussian offset drawn
once per game. The meeting starts at the later of s and the quorum order
statistic of actual arrivals. Terminal costs penalize lateness relative to s,
lateness relative to the actual start, and waiting time. The standard game
relaxes the population to the fixed point; the neural variant adds a learned
drift residual and a learned diffusion and trains against observed arrival
samples.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from ..autodiff import Tape, Value, absval, max0, sigmoid, square, stack, take_along_axis, where
from ..mfg import GameInstance, HistoryRow, TrainingConfig, train
from ..nets import MLP, MLPConfig, mlp_forward_np, mlp_init
from ..sde import BrownianPath, SDEProblem, TimeGrid, integrate

__all__ = [
    "MeetingConfig",
    "ArrivalState",
    "actual_start",
    "terminal_cost",
    "best_response_drift",
    "generate_observations",
    "run_standard",
    "MeetingGame",
    "run_neural",
    "simulate_neural",
    "agent_cost",
    "write_history",
]


@dataclass(frozen=True)
class MeetingConfig:
    scheduled: float = 15.0  # s, in hours
    quorum: float = 0.9
    n_agents: int = 200
    noise_std: float = 1.0  # std of the per-agent arrival offset
    turns: int = 15  # game runs over t in [1, turns]
    init_mean: float = 12.0
    init_std: float = 1.0
    drift_gain: float = 1.0
    smoothing: float = 0.6  # logistic width of the best-response gradient
    sigma: float = 0.1  # fixed Brownian scale of the standard game

    def __post_init__(self):
        if not 0.0 < self.quorum <= 1.0:
            raise ValueError("quorum must lie in (0, 1]")
        if self.n_agents < 1:
            raise ValueError("need at least one agent")
        if self.turns < 2:
            raise ValueError("need at least two turns")


@dataclass
class ArrivalState:
    """Intended and actual arrival times of the population at one turn."""

    tau: np.ndarray
    tau_tilde: np.ndarray


def actual_start(tau_tilde, s: float, quorum: float) -> float:
    """Start time: the quorum-th order statistic of arrivals, never before s."""
    tt = np.asarray(tau_tilde, dtype=float)
    n = tt.shape[0]
    if n < 1:
        raise ValueError("need at least one arrival")
    k = int(math.ceil(quorum * n))
    kth = np.partition(tt, k - 1)[k - 1]
    return max(s, float(kth))


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
        tt = tau_tilde.v if isinstance(tau_tilde, Value) else tau_tilde
        ts_v = ts.v if isinstance(ts, Value) else ts
        return -gain * (np.greater(tt, s) + 2.0 * np.greater(tt, ts_v) - 1.0)
    if isinstance(tau_tilde, np.ndarray):
        z1 = (tau_tilde - s) / smoothing
        z2 = (tau_tilde - ts) / smoothing
        sig = lambda z: 1.0 / (1.0 + np.exp(-z))
        return -gain * (sig(z1) + 2.0 * sig(z2) - 1.0)
    z1 = (tau_tilde - s) * (1.0 / smoothing)
    z2 = (tau_tilde - ts) * (1.0 / smoothing)
    return -gain * (sigmoid(z1) + 2.0 * sigmoid(z2) - 1.0)


def generate_observations(n_groups: int = 10, samples_per_group: int = 10,
                          seed: int = 0, center: float = 15.0,
                          center_std: float = 0.5, gamma_shape: float = 2.0,
                          gamma_scale: float = 0.2) -> np.ndarray:
    """Pooled arrival samples from a mixture of Gaussians.

    Group means ~ Normal(center, center_std), group spreads ~ Gamma(shape,
    scale); each group contributes ``samples_per_group`` draws.
    """
    if n_groups < 1 or samples_per_group < 1:
        raise ValueError("n_groups and samples_per_group must be positive")
    rng = np.random.default_rng(seed)
    mus = rng.normal(center, center_std, size=n_groups)
    sigmas = rng.gamma(gamma_shape, gamma_scale, size=n_groups)
    return np.concatenate(
        [rng.normal(m, sd, size=samples_per_group) for m, sd in zip(mus, sigmas)]
    )


def _grid(config: MeetingConfig) -> TimeGrid:
    return TimeGrid(1.0, float(config.turns), config.turns - 1)


def run_standard(config: MeetingConfig, seed: int = 0) -> list[ArrivalState]:
    """Simulate the predefined game; one snapshot per turn."""
    rng = np.random.default_rng(seed)
    n = config.n_agents
    tau = rng.normal(config.init_mean, config.init_std, n)
    eps = rng.normal(0.0, config.noise_std, n) if config.noise_std > 0 else np.zeros(n)
    grid = _grid(config)
    path = BrownianPath(
        rng.normal(0.0, np.sqrt(grid.dt), size=(grid.n_steps, n))
        if config.sigma > 0 else np.zeros((grid.n_steps, n)),
        seed,
    )

    def drift(t, x, mf, ctrl):
        return best_response_drift(x + eps, config.scheduled, mf, config.drift_gain,
                                   config.smoothing)

    problem = SDEProblem(
        base_drift=drift,
        noise_dim=n,
        fixed_diffusion=(lambda t, x, mf, ctrl: np.full(n, config.sigma))
        if config.sigma > 0 else None,
    )
    mean_field = lambda k, t, x: actual_start(x + eps, config.scheduled, config.quorum)
    traj = integrate(problem, tau, grid, path, mean_field_fn=mean_field)
    return [ArrivalState(x.copy(), x + eps) for x in traj]


def agent_cost(tau_tilde_profile: np.ndarray, i: int, config: MeetingConfig) -> float:
    """Terminal cost of agent i on a full profile of actual arrivals."""
    ts = actual_start(tau_tilde_profile, config.scheduled, config.quorum)
    return float(terminal_cost(float(tau_tilde_profile[i]), config.scheduled, ts))


class MeetingGame(GameInstance):
    """Neural variant: drift residual and learned diffusion on (t, tau, start)."""

    def __init__(self, config: MeetingConfig, observations, net_seed: int = 0,
                 hidden_layers: int = 3, hidden_width: int = 8):
        self.config = config
        if isinstance(observations, np.ndarray):
            observations = [observations]
        if not observations or any(len(o) == 0 for o in observations):
            raise ValueError("observations must be nonempty")
        self.observations = [np.sort(np.asarray(o, dtype=float)) for o in observations]
        net_cfg = lambda k: MLPConfig(3, 1, hidden_layers, hidden_width, seed=net_seed + k)
        self._nets = {"drift": mlp_init(net_cfg(0)), "diffusion": mlp_init(net_cfg(1))}

    def nets(self) -> dict[str, MLP]:
        return self._nets

    def _features(self, t, tau, ts):
        c = self.config
        return [t / c.turns, (tau - c.scheduled) * 0.2, (ts - c.scheduled) * 0.2]

    def episode_losses(self, tape: Tape, bound, episode_seeds):
        """Roll all episodes as one (games, agents) batch; losses averaged over both."""
        c = self.config
        n = c.n_agents
        grid = _grid(c)
        tau0, eps, dB, targets = [], [], [], []
        for seed in episode_seeds:
            rng = np.random.default_rng(np.asarray(seed, dtype=np.uint64))
            tau0.append(rng.normal(c.init_mean, c.init_std, n))
            eps.append(rng.normal(0.0, c.noise_std, n))
            dB.append(rng.normal(0.0, np.sqrt(grid.dt), size=(grid.n_steps, n)))
            obs = self.observations[int(seed[-1]) % len(self.observations)]
            targets.append(np.quantile(obs, (np.arange(n) + 0.5) / n))
        eps = np.array(eps)
        dB = np.stack(dB, axis=1)  # (steps, games, agents)
        k = int(math.ceil(c.quorum * n))

        def start_node(x):
            tts = x + eps
            order = np.argsort(tts.v, axis=1, kind="stable")
            kth = take_along_axis(tts, order[:, k - 1:k], axis=1)
            # max(s, kth): value-exact branch; the subgradient picks the
            # quorum agent only when it is the binding side
            return where(kth.v > c.scheduled, kth, c.scheduled), tts

        x = tape.value(np.array(tau0))
        times = grid.times()
        for step in range(grid.n_steps):
            ts, tts = start_node(x)
            feats = stack(self._features(times[step], x, ts))
            b = best_response_drift(tts, c.scheduled, ts, c.drift_gain, c.smoothing)
            mu = bound["drift"].forward(feats)[..., 0]
            sig = bound["diffusion"].forward(feats)[..., 0]
            x = x + (b + mu) * grid.dt + absval(sig) * dB[step]

        ts_T, tts_T = start_node(x)
        game_cost = terminal_cost(tts_T, c.scheduled, ts_T).mean()
        ranked = take_along_axis(tts_T, np.argsort(tts_T.v, axis=1, kind="stable"), axis=1)
        data_loss = square(ranked - np.array(targets)).mean()
        return game_cost, data_loss


def run_neural(config: MeetingConfig, observations, training: TrainingConfig,
               net_seed: int = 0):
    """Train the neural variant; returns (game, nets, loss history)."""
    game = MeetingGame(config, observations, net_seed=net_seed)
    nets, history = train(game, training)
    return game, nets, history


def simulate_neural(config: MeetingConfig, nets: dict[str, MLP],
                    seed: int = 0) -> list[ArrivalState]:
    """Roll the trained dynamics forward without a tape (numpy inference)."""
    rng = np.random.default_rng(seed)
    n = config.n_agents
    tau = rng.normal(config.init_mean, config.init_std, n)
    eps = rng.normal(0.0, config.noise_std, n)
    grid = _grid(config)
    dB = rng.normal(0.0, np.sqrt(grid.dt), size=(grid.n_steps, n))
    states = [ArrivalState(tau.copy(), tau + eps)]
    times = grid.times()
    for k in range(grid.n_steps):
        t = times[k]
        tt = tau + eps
        ts = actual_start(tt, config.scheduled, config.quorum)
        feats = np.stack(
            [
                np.full(n, t / config.turns),
                (tau - config.scheduled) * 0.2,
                np.full(n, (ts - config.scheduled) * 0.2),
            ],
            axis=1,
        )
        b = best_response_drift(tt, config.scheduled, ts, config.drift_gain,
                                config.smoothing)
        mu = mlp_forward_np(nets["drift"], feats)[:, 0]
        sig = np.abs(mlp_forward_np(nets["diffusion"], feats)[:, 0])
        tau = tau + (b + mu) * grid.dt + sig * dB[k]
        states.append(ArrivalState(tau.copy(), tau + eps))
    return states


def write_history(path, states: list[ArrivalState]) -> None:
    """CSV ``turn,agent,tau,tau_tilde`` with turns numbered from 1."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["turn", "agent", "tau", "tau_tilde"])
        for turn, st in enumerate(states, start=1):
            for agent, (tau, tt) in enumerate(zip(st.tau, st.tau_tilde)):
                writer.writerow([turn, agent, repr(float(tau)), repr(float(tt))])
