"""The El Farol bar problem.

Each agent goes to the bar with probability p; the mean field is the realized
fraction a of agents who went. Costs are selective: staying home on a quiet
evening costs non-attendees, crowding costs attendees, and peer pressure
(p - a)^2 applies to everyone. The standard game relaxes p towards the
crowding threshold; the neural variant trains a drift residual against
observed attendance-rate series and develops more heterogeneous strategies.
Every episode starts in :func:`_rollout`, from its seed. Training rolls a
batch of episodes on the tape; :func:`run_standard` and :func:`simulate_neural`
roll one on arrays and return its columns ``p`` and ``went`` (the attendance
bits), each a list of per-turn (agents,) arrays. The histogram and
exploitability read the column named by ``VALUE``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ..autodiff import clip01, max0, plain, square, stack
from ..mfg import GameInstance, TrainingConfig, check_finite, train, write_trajectory
from ..nets import MLP, MLPConfig, mlp_forward_np

__all__ = [
    "BarConfig",
    "bar_cost",
    "expected_bar_cost",
    "best_response_drift",
    "generate_attendance_observations",
    "run_standard",
    "BarGame",
    "run_neural",
    "simulate_neural",
    "exploitability",
    "write_history",
]


INIT_HIGH = 0.1  # initial intentions p ~ uniform on [0, INIT_HIGH)
VALUE = "p"  # the trajectory column the histogram and exploitability read


@dataclass(frozen=True)
class BarConfig:
    threshold: float = 0.9  # crowding threshold c
    n_agents: int = 200
    turns: int = 15
    drift_gain: float = 0.6

    def __post_init__(self):
        check_finite(self)
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must lie in (0, 1)")
        if self.n_agents < 1:
            raise ValueError("need at least one agent")
        if self.turns < 2:
            raise ValueError("need at least two turns")


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
    missed-evening hinge switches off. For a crowded bar p(p-c) + (p-a)^2 is
    least at (2a + c)/4, raised to the threshold (the target unless a > 1.5c,
    so always when c >= 2/3) and capped at 1. The target is continuous in a,
    so the population never gets slammed when the realized attendance
    crosses the threshold.
    """
    return np.where(np.less(a, c), np.minimum((1.0 + c + 2.0 * a) / 4.0, c),
                    np.clip((2.0 * a + c) / 4.0, c, 1.0))


def best_response_drift(p_i, a: float, c: float, gain: float):
    """Relaxation towards the cost-minimizing intention at rate ``gain``.

    On the interior branch this equals the negative expected-cost gradient
    divided by its curvature (a Newton flow), which keeps unit-step turns
    from overshooting the threshold. Works on Values, floats, and arrays.
    """
    return (response_target(a, c) - p_i) * gain


def generate_attendance_observations(seed: int = 0) -> np.ndarray:
    """Observed attendance-rate series, shape (10, 10): 10 series of 10 turns.

    The 100 intentions of a series come from the same mixture recipe as the
    arrival-time data, 10 groups of 10, but with group means ~ Normal(0.2,
    0.05) and spreads ~ Gamma(2, 0.02), then clamped to [0, 1]. Each series
    monitors the realized rate of the same intention vector over 10
    subsequent turns.
    """
    rng = np.random.default_rng(seed)
    out = np.empty((10, 10))
    for d in range(10):
        mus = rng.normal(0.2, 0.05, size=10)
        sigmas = rng.gamma(2.0, 0.02, size=10)
        probs = np.clip(rng.normal(np.repeat(mus, 10), np.repeat(sigmas, 10)), 0.0, 1.0)
        for turn in range(10):
            out[d, turn] = (rng.random(100) < probs).mean()
    return out


def _rollout(config: BarConfig, seeds, drift=None) -> dict[str, list]:
    """Episode g from ``seeds[g]``, a tuple of ints; the per-turn columns.

    Each episode's generator draws the initial intentions p ~ uniform on
    [0, INIT_HIGH), then every turn's attendance bits. Each turn moves p by
    the best-response drift plus, given a drift network's forward function,
    its residual on (t, p_i, a, went_i), and clamps to [0, 1]: training runs
    the network on the tape, so p is a tape Value from the second turn on,
    and inference and the standard game run on plain arrays. Returns the
    columns ``p`` and ``went`` (the attendance bits), each (episodes, agents),
    ``a`` (the realized attendance, (episodes, 1)) and ``mean`` (the mean
    intention, (episodes,)), each a list with one entry per turn.
    """
    c = config
    rngs = [np.random.default_rng(np.asarray(seed, dtype=np.uint64)) for seed in seeds]
    p = np.array([rng.uniform(0.0, INIT_HIGH, c.n_agents) for rng in rngs])
    columns = {"p": [], "went": [], "a": [], "mean": []}
    for turn in range(c.turns):
        went = np.array([rng.random(c.n_agents) < row for row, rng in zip(plain(p), rngs)])
        a = went.mean(axis=1, keepdims=True)
        for column, x in zip(columns.values(), (p, went, a, p.mean(axis=1))):
            column.append(x)
        if turn == c.turns - 1:
            break
        step = p + best_response_drift(p, a, c.threshold, c.drift_gain)
        if drift is not None:
            step = step + drift(stack([(turn + 1.0) / c.turns, p, a, went * 1.0]))[..., 0]
        p = clip01(step)
    return columns


def _play(config: BarConfig, seed: int, drift=None) -> dict[str, list]:
    """One episode's ``p`` and ``went`` columns, from the seed."""
    columns = _rollout(config, [(seed,)], drift)  # default_rng(seed)'s stream
    return {name: [x[0] for x in columns[name]] for name in ("p", "went")}


def run_standard(config: BarConfig, seed: int = 0) -> dict[str, list]:
    """Deterministic dynamics (no Brownian term)."""
    return _play(config, seed)


def exploitability(p, config: BarConfig) -> float:
    """Mean gain of the agents' best responses to the mean intention a = mean(p).

    With a held, :func:`response_target` is every agent's best response, so
    this is the mean :func:`expected_bar_cost` minus its value there, 0 when
    every agent plays it. A deviation's own move of a, (x - p_i)/n, is not counted.
    """
    a, c = float(np.mean(p)), config.threshold
    best = expected_bar_cost(float(response_target(a, c)), a, c)
    return max(float(np.mean(expected_bar_cost(np.asarray(p, dtype=float), a, c) - best)), 0.0)


class BarGame(GameInstance):
    """Neural variant: a drift residual on (t, p_i, a, went_i); no Brownian term.

    The agent's own attendance bit is part of the input: it is the one piece
    of per-agent information the game generates, and without it the shared
    residual plus the contracting base drift collapses the population onto a
    single trajectory, leaving no room for the heterogeneous strategies the
    data/game tension produces.
    """

    def __init__(self, config: BarConfig, observations: np.ndarray):
        self.config = config
        obs = np.asarray(observations, dtype=float)
        if obs.ndim != 2 or obs.size == 0:
            raise ValueError("observations must be a nonempty 2-D array of rate series")
        self.observations = obs

    def net_configs(self) -> dict[str, MLPConfig]:
        return {"drift": MLPConfig(4, 1)}

    def episode_losses(self, bound, episode_seeds):
        """Roll all episodes as one (games, agents) batch; losses averaged over both."""
        c = self.config
        series = self.observations[[int(seed[-1]) % len(self.observations) for seed in episode_seeds]]
        columns = _rollout(c, episode_seeds, bound["drift"].forward)
        p, went, a = (columns[name][-1] for name in ("p", "went", "a"))
        game_cost = bar_cost(p, a, c.threshold, went).mean()
        # observed rate series aligned with the final monitored turns, so the
        # data pull and the terminal game cost act on the same stretch
        k = min(series.shape[1], c.turns)
        attendance = stack(columns["mean"][-k:])
        data_loss = square(attendance - series[:, -k:]).mean()
        return game_cost, data_loss


def run_neural(config: BarConfig, observations: np.ndarray, training: TrainingConfig):
    """Train the neural variant; returns :func:`mfgames.mfg.train`'s (nets, loss history)."""
    return train(BarGame(config, observations), training)


def simulate_neural(config: BarConfig, nets: dict[str, MLP],
                    seed: int = 0) -> dict[str, list]:
    """Roll the trained dynamics forward on plain arrays (no tape)."""
    return _play(config, seed, partial(mlp_forward_np, nets["drift"]))


def write_history(path, trajectory: dict[str, list], histogram) -> None:
    """CSV ``turn,agent,p,went`` and the histogram of ``p``; see
    :func:`mfgames.mfg.write_trajectory`."""
    write_trajectory(path, trajectory, VALUE, histogram)
