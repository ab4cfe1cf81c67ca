"""Population-level orchestration: mean fields, costs, training, Nash probes.

A game exposes a batched rollout of all of an epoch's episodes that returns
a game cost (the agents' own objective) and a data discrepancy (distance
between simulated states and observations), both averaged over episodes.
Training minimizes their weighted sum by backpropagating through the
unrolled solver and applying AdaBelief updates to the shared networks --
one network per game, never per agent.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .autodiff import Tape, Value
from .nets import MLP, AdaBelief, BoundMLP

__all__ = [
    "PopulationState",
    "MeanField",
    "CostSpec",
    "TrainingConfig",
    "TrainingDivergence",
    "GameInstance",
    "empirical_mean_field",
    "evaluate_cost",
    "combined_loss",
    "train",
    "nash_gap",
    "HistoryRow",
    "write_history_csv",
]


class TrainingDivergence(RuntimeError):
    """Raised when the loss becomes non-finite or exceeds the abort threshold."""

    def __init__(self, message: str, epoch: int):
        super().__init__(message)
        self.epoch = epoch


@dataclass
class PopulationState:
    """States of N agents at one instant; rows are agents."""

    agents: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.agents = np.asarray(self.agents, dtype=float)
        if self.agents.shape[0] < 1:
            raise ValueError("population must contain at least one agent")
        if not np.all(np.isfinite(self.agents)):
            raise ValueError("population contains non-finite states")


@dataclass
class MeanField:
    """Game-specific empirical summary of a population (fraction, vector, ...)."""

    summary: object


def empirical_mean_field(pop: PopulationState, reducer: Callable) -> MeanField:
    """Deterministic reduction of the population into its mean-field summary."""
    return MeanField(reducer(pop.agents))


@dataclass
class CostSpec:
    """Running cost L and terminal cost G of an agent's objective."""

    running_cost: Optional[Callable] = None  # (state, mean_field, control, obs) -> scalar
    terminal_cost: Optional[Callable] = None  # (terminal state, terminal mean_field) -> scalar


def evaluate_cost(spec: CostSpec, trajectory, mean_fields, dt: float,
                  controls=None, observations=None):
    """Discretized cost: sum_k (1/2) L_k dt (left Riemann) plus G at the end."""
    if len(mean_fields) < len(trajectory):
        raise ValueError("mean_fields shorter than trajectory")
    total = 0.0
    if spec.running_cost is not None:
        for k in range(len(trajectory) - 1):
            ctrl = controls[k] if controls is not None else None
            lk = spec.running_cost(trajectory[k], mean_fields[k], ctrl, observations)
            total = total + 0.5 * lk * dt
    if spec.terminal_cost is not None:
        total = total + spec.terminal_cost(trajectory[-1], mean_fields[len(trajectory) - 1])
    return total


def combined_loss(game_cost, data_discrepancy, w: float):
    """Two-term objective: the game's own cost plus weighted data discrepancy."""
    if w < 0:
        raise ValueError("data loss weight must be nonnegative")
    return game_cost + w * data_discrepancy


@dataclass(frozen=True)
class TrainingConfig:
    epochs: int
    games_per_epoch: int = 10
    lr: float = 5e-4
    seed: int = 0
    data_loss_weight: float = 1.0
    abort_threshold: float = 1e6

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.games_per_epoch < 1:
            raise ValueError("games_per_epoch must be positive")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.data_loss_weight < 0:
            raise ValueError("data_loss_weight must be nonnegative")


class GameInstance:
    """Interface a game implements to be trainable by :func:`train`.

    ``nets`` maps names to the shared networks being optimized.
    ``episode_losses`` rolls every episode of one epoch at once, one per
    entry of ``episode_seeds``, as a single batched rollout on the tape
    (arrays with a leading episode axis). It returns ``(game_cost,
    data_loss)`` as 0-d Value nodes, each already averaged over episodes and
    agents. Episode ``g`` must draw from its own RNG stream seeded with
    ``episode_seeds[g]``, so results do not depend on the batch size.
    """

    def nets(self) -> dict[str, MLP]:
        raise NotImplementedError

    def episode_losses(self, tape: Tape, bound: dict[str, BoundMLP],
                       episode_seeds: list[tuple]) -> tuple[Value, Value]:
        raise NotImplementedError


@dataclass
class HistoryRow:
    """One epoch's loss terms, stored as plain Python floats."""

    epoch: int
    game_cost: float
    data_loss: float
    total: float

    def __post_init__(self):
        self.epoch = int(self.epoch)
        self.game_cost = float(self.game_cost)
        self.data_loss = float(self.data_loss)
        self.total = float(self.total)


def train(game: GameInstance, config: TrainingConfig):
    """Optimize the game's shared networks on the combined loss.

    Per epoch: roll the ``games_per_epoch`` episodes as one batch on a fresh
    tape, take the episode-averaged loss terms, backpropagate once, and take
    a single AdaBelief step per network. Episodes use deterministic
    per-(seed, epoch, game) RNG streams.
    """
    nets = game.nets()
    opts = {
        name: AdaBelief(net.parameters(), lr=config.lr) for name, net in nets.items()
    }
    history: list[HistoryRow] = []
    for epoch in range(config.epochs):
        tape = Tape()
        bound = {name: net.bind(tape) for name, net in nets.items()}
        seeds = [(config.seed, epoch, g) for g in range(config.games_per_epoch)]
        game_cost, data_loss = game.episode_losses(tape, bound, seeds)
        total = combined_loss(game_cost, data_loss, config.data_loss_weight)
        if not math.isfinite(total.v):
            raise TrainingDivergence(f"non-finite loss at epoch {epoch}", epoch)
        if total.v > config.abort_threshold:
            raise TrainingDivergence(
                f"loss {total.v:.3g} exceeded abort threshold at epoch {epoch}", epoch
            )
        tape.backward(total)
        for name, net in nets.items():
            opts[name].step(bound[name].grad_arrays())
        history.append(HistoryRow(epoch, game_cost.v, data_loss.v, total.v))
    return nets, history


def nash_gap(cost_fn: Callable, states: np.ndarray, probe_agent: int,
             candidate_controls) -> float:
    """Largest probed improvement available to one agent by unilateral deviation.

    ``cost_fn(states, i)`` evaluates agent i's cost on a full state profile
    (the mean field is recomputed inside, so the deviation is visible to it).
    Returns max over candidates of [J(equilibrium) - J(candidate)]_+; zero
    means no probed deviation improves the agent.
    """
    candidates = list(candidate_controls)
    if not candidates:
        raise ValueError("candidate set must be nonempty")
    states = np.asarray(states, dtype=float)
    if not 0 <= probe_agent < states.shape[0]:
        raise ValueError("probe_agent out of range")
    j_eq = cost_fn(states, probe_agent)
    gap = 0.0
    for cand in candidates:
        deviated = states.copy()
        deviated[probe_agent] = cand
        j_dev = cost_fn(deviated, probe_agent)
        gap = max(gap, j_eq - j_dev)
    return gap


def write_history_csv(path, history: list[HistoryRow]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "game_cost", "data_loss", "total"])
        for row in history:
            writer.writerow(
                [row.epoch, repr(row.game_cost), repr(row.data_loss), repr(row.total)]
            )
