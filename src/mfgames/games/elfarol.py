"""The El Farol bar problem.

Each agent goes to the bar with probability p; the mean field is the realized
fraction a of agents who went. Costs are selective: staying home on a quiet
evening costs non-attendees, crowding costs attendees, and peer pressure
(p - a)^2 applies to everyone. The standard game relaxes p towards the
crowding threshold; the neural variant trains a drift residual against
observed attendance-rate series and develops more heterogeneous strategies.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from ..autodiff import Tape, Value, clip01, max0, square, stack
from ..mfg import GameInstance, TrainingConfig, train
from ..nets import MLP, MLPConfig, mlp_forward_np, mlp_init

__all__ = [
    "BarConfig",
    "BarState",
    "bar_cost",
    "expected_bar_cost",
    "best_response_drift",
    "sample_attendance",
    "generate_attendance_observations",
    "run_standard",
    "BarGame",
    "run_neural",
    "simulate_neural",
    "probe_cost",
    "write_history",
]


@dataclass(frozen=True)
class BarConfig:
    threshold: float = 0.9  # crowding threshold c
    n_agents: int = 200
    turns: int = 15
    init_high: float = 0.1  # initial p ~ uniform on [0, init_high)
    drift_gain: float = 0.6

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must lie in (0, 1)")
        if self.n_agents < 1:
            raise ValueError("need at least one agent")
        if self.turns < 2:
            raise ValueError("need at least two turns")


@dataclass
class BarState:
    """Population snapshot: intentions p, attendance bits, realized fraction a."""

    p: np.ndarray
    went: np.ndarray
    a: float


def bar_cost(p_i, a, c: float, went):
    """Selective terminal cost g1 + g2 + g3, per agent (elementwise on arrays).

    g1 (missed a good evening) hits non-attendees when the bar was quiet,
    g2 (crowding) hits attendees when it was full, g3 is peer pressure.
    """
    missed = np.logical_and(np.logical_not(went), np.less(a, c))
    crowded = np.logical_and(went, np.greater_equal(a, c))
    return square(p_i - a) + max0(c - p_i) * missed + max0(p_i - c) * crowded


def expected_bar_cost(p_i, a: float, c: float):
    """Cost averaged over the agent's own attendance draw (went ~ Bern(p))."""
    pv = p_i.v if isinstance(p_i, Value) else p_i
    cost = square(p_i - a)
    if a < c:
        cost = cost + (1.0 - p_i) * (max0(c - p_i))
    else:
        cost = cost + p_i * max0(p_i - c)
    return cost


def response_target(a, c: float):
    """Intention minimizing the expected cost given the current attendance.

    For a quiet bar the expected cost (1-p)(c-p) + (p-a)^2 is quadratic with
    its interior minimum at (1 + c + 2a)/4, capped at the threshold where the
    missed-evening hinge switches off; a crowded bar pins the target to the
    threshold itself. The target is continuous in a, so the population never
    gets slammed when the realized attendance crosses the threshold.
    """
    return np.where(np.less(a, c), np.minimum((1.0 + c + 2.0 * a) / 4.0, c), c)


def best_response_drift(p_i, a: float, c: float, gain: float):
    """Relaxation towards the cost-minimizing intention at rate ``gain``.

    On the interior branch this equals the negative expected-cost gradient
    divided by its curvature (a Newton flow), which keeps unit-step turns
    from overshooting the threshold. Works on Values, floats, and arrays.
    """
    return (response_target(a, c) - p_i) * gain


def sample_attendance(p: np.ndarray, rng) -> tuple[np.ndarray, float]:
    """Independent Bernoulli(p_i) attendance bits and their mean."""
    p = np.asarray(p, dtype=float)
    if np.any(p < 0) or np.any(p > 1):
        raise ValueError("probabilities must lie in [0, 1]")
    bits = rng.random(p.shape[0]) < p
    return bits, float(bits.mean())


def generate_attendance_observations(n_points: int = 10, series_len: int = 10,
                                     n_groups: int = 10, samples_per_group: int = 10,
                                     seed: int = 0, center: float = 0.2,
                                     center_std: float = 0.05,
                                     gamma_shape: float = 2.0,
                                     gamma_scale: float = 0.02) -> np.ndarray:
    """Observed attendance-rate series, shape (n_points, series_len).

    Intentions come from the same mixture recipe as the arrival-time data but
    centred at ``center`` with spreads scaled to the probability domain, then
    clamped to [0, 1]. Each data point monitors the realized rate of the same
    intention vector over ``series_len`` subsequent turns.
    """
    if n_points < 1 or series_len < 1 or n_groups < 1 or samples_per_group < 1:
        raise ValueError("all sizes must be positive")
    rng = np.random.default_rng(seed)
    out = np.empty((n_points, series_len))
    n_agents = n_groups * samples_per_group
    for d in range(n_points):
        mus = rng.normal(center, center_std, size=n_groups)
        sigmas = rng.gamma(gamma_shape, gamma_scale, size=n_groups)
        probs = np.clip(
            rng.normal(np.repeat(mus, samples_per_group),
                       np.repeat(sigmas, samples_per_group)),
            0.0, 1.0,
        )
        for turn in range(series_len):
            bits = rng.random(n_agents) < probs
            out[d, turn] = bits.mean()
    return out


def run_standard(config: BarConfig, seed: int = 0) -> list[BarState]:
    """Deterministic dynamics (no Brownian term); one snapshot per turn."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.0, config.init_high, config.n_agents)
    states = []
    for turn in range(config.turns):
        went, a = sample_attendance(p, rng)
        states.append(BarState(p.copy(), went, a))
        if turn == config.turns - 1:
            break
        drift = best_response_drift(p, a, config.threshold, config.drift_gain)
        p = np.clip(p + drift, 0.0, 1.0)
    return states


def probe_cost(p_profile: np.ndarray, i: int, config: BarConfig) -> float:
    """Expected terminal cost of agent i with the mean field recomputed."""
    a = float(np.mean(p_profile))
    return float(expected_bar_cost(float(p_profile[i]), a, config.threshold))


class BarGame(GameInstance):
    """Neural variant: a drift residual on (t, p_i, a, went_i); no Brownian term.

    The agent's own attendance bit is part of the input: it is the one piece
    of per-agent information the game generates, and without it the shared
    residual plus the contracting base drift collapses the population onto a
    single trajectory, leaving no room for the heterogeneous strategies the
    data/game tension produces.
    """

    def __init__(self, config: BarConfig, observations: np.ndarray,
                 net_seed: int = 0, hidden_layers: int = 3, hidden_width: int = 8):
        self.config = config
        obs = np.asarray(observations, dtype=float)
        if obs.ndim != 2 or obs.size == 0:
            raise ValueError("observations must be a nonempty 2-D array of rate series")
        self.observations = obs
        self._nets = {
            "drift": mlp_init(MLPConfig(4, 1, hidden_layers, hidden_width, seed=net_seed))
        }

    def nets(self) -> dict[str, MLP]:
        return self._nets

    def episode_losses(self, tape: Tape, bound, episode_seeds):
        """Roll all episodes as one (games, agents) batch; losses averaged over both."""
        c = self.config
        n = c.n_agents
        rngs = [np.random.default_rng(np.asarray(seed, dtype=np.uint64))
                for seed in episode_seeds]
        series = self.observations[
            [int(seed[-1]) % self.observations.shape[0] for seed in episode_seeds]
        ]
        p = tape.value(np.array([rng.uniform(0.0, c.init_high, n) for rng in rngs]))
        attendance: list[Value] = []
        for turn in range(c.turns):
            draws = [sample_attendance(row, rng) for row, rng in zip(p.v, rngs)]
            went = np.array([bits for bits, _a in draws])
            a = np.array([[a_g] for _bits, a_g in draws])
            attendance.append(p.mean(axis=1))
            if turn == c.turns - 1:
                break
            t = turn + 1.0
            b = best_response_drift(p, a, c.threshold, c.drift_gain)
            mu = bound["drift"].forward([t / c.turns, p, a, went * 1.0])[..., 0]
            p = clip01(p + b + mu)

        game_cost = bar_cost(p, a, c.threshold, went).mean()
        # observed rate series aligned with the final monitored turns, so the
        # data pull and the terminal game cost act on the same stretch
        k = min(series.shape[1], len(attendance))
        data_loss = square(stack(attendance[-k:]) - series[:, -k:]).mean()
        return game_cost, data_loss


def run_neural(config: BarConfig, observations: np.ndarray,
               training: TrainingConfig, net_seed: int = 0):
    """Train the neural variant; returns (game, nets, loss history)."""
    game = BarGame(config, observations, net_seed=net_seed)
    nets, history = train(game, training)
    return game, nets, history


def simulate_neural(config: BarConfig, nets: dict[str, MLP],
                    seed: int = 0) -> list[BarState]:
    """Roll the trained dynamics forward without a tape."""
    rng = np.random.default_rng(seed)
    n = config.n_agents
    p = rng.uniform(0.0, config.init_high, n)
    states = []
    for turn in range(config.turns):
        went, a = sample_attendance(p, rng)
        states.append(BarState(p.copy(), went, a))
        if turn == config.turns - 1:
            break
        t = turn + 1.0
        feats = np.stack(
            [np.full(n, t / config.turns), p, np.full(n, a), went.astype(float)],
            axis=1,
        )
        b = best_response_drift(p, a, config.threshold, config.drift_gain)
        mu = mlp_forward_np(nets["drift"], feats)[:, 0]
        p = np.clip(p + b + mu, 0.0, 1.0)
    return states


def write_history(path, states: list[BarState]) -> None:
    """CSV ``turn,agent,p,went`` with turns numbered from 1."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["turn", "agent", "p", "went"])
        for turn, st in enumerate(states, start=1):
            for agent, (pi, wi) in enumerate(zip(st.p, st.went)):
                writer.writerow([turn, agent, repr(float(pi)), int(wi)])
