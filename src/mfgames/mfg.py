"""Population-level orchestration: training, loss histories, Nash probes, CSV output.

One loop, :func:`train`, trains every game. A game yields the loss function
of each optimizer step; :func:`train_step` checks the step for divergence,
backpropagates its loss through the unrolled solver and applies one AdaBelief
update to each shared network -- one network per game, never per agent.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass
from functools import partial
from itertools import count
from typing import Callable

import numpy as np

from .autodiff import Tape, Value
from .nets import MLP, AdaBelief, BoundMLP

__all__ = [
    "TrainingConfig",
    "TrainingDivergence",
    "GameInstance",
    "train_step",
    "train",
    "nash_gap",
    "HistoryRow",
    "write_history_csv",
    "write_csv",
    "write_csvs",
    "float_cells",
]


class TrainingDivergence(RuntimeError):
    """Raised when a step's loss or gradient diverges; ``step`` is the step's index."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


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

    ``nets`` maps names to the shared networks being optimized. ``steps``
    yields the loss function of each optimizer step (see :func:`train_step`),
    gets each step's result back from its ``yield`` and returns what
    :func:`train` returns. By default it takes one step per epoch, on the
    episodes' combined loss: ``episode_losses`` rolls every episode of one
    epoch at once, one per entry of ``episode_seeds``, as a single batched
    rollout on the tape (arrays with a leading episode axis). It returns
    ``(game_cost, data_loss)`` as 0-d Value nodes, each already averaged
    over episodes and agents. ``episode_seeds[g]`` is ``(seed, epoch, g)``.
    Meeting and El Farol draw episode ``g`` from its own RNG stream seeded
    with it, so their results do not depend on the batch size; SIR draws the
    noise of the whole batch at once from the ``(seed, epoch)`` stream.
    """

    def nets(self) -> dict[str, MLP]:
        raise NotImplementedError

    def episode_losses(self, tape: Tape, bound: dict[str, BoundMLP],
                       episode_seeds: list[tuple]) -> tuple[Value, Value]:
        raise NotImplementedError

    def steps(self, config: TrainingConfig):
        """One step per epoch, on the combined loss; returns each epoch's :class:`HistoryRow`."""
        def epoch_loss(tape, bound, epoch):
            seeds = [(config.seed, epoch, g) for g in range(config.games_per_epoch)]
            game_cost, data_loss = self.episode_losses(tape, bound, seeds)
            total = game_cost + config.data_loss_weight * data_loss
            return total, HistoryRow(epoch, float(game_cost.v), float(data_loss.v), float(total.v))

        history = []
        for epoch in range(config.epochs):
            history.append((yield partial(epoch_loss, epoch=epoch)))
        return history


@dataclass
class HistoryRow:
    """One epoch's loss terms, stored as plain Python floats."""

    epoch: int
    game_cost: float
    data_loss: float
    total: float


def train_step(nets: dict[str, MLP], opts: dict[str, AdaBelief], loss_fn, step: int,
               abort_threshold: float):
    """One optimizer step on a fresh tape; returns what ``loss_fn`` hands back.

    ``loss_fn(tape, bound)`` records the forward pass, with ``bound`` mapping
    each name in ``nets`` to that network bound as tape leaves, and returns
    ``(loss, result)``; ``result`` must hold no tape node. A non-finite loss,
    a loss above ``abort_threshold`` or a non-finite gradient of any network
    raises :class:`TrainingDivergence` with the index ``step``; otherwise
    each network takes one step of its optimizer in ``opts`` on the 0-d
    loss's gradient. The graph is freed when this returns or raises: the
    tape empties on leaving its ``with`` block, and the nodes the step's
    frames still hold die with those frames.
    """
    with Tape() as tape:
        bound = {name: net.bind(tape) for name, net in nets.items()}
        loss, result = loss_fn(tape, bound)
        if not np.isfinite(loss.v):
            raise TrainingDivergence(f"non-finite loss at step {step}", step)
        if loss.v > abort_threshold:
            raise TrainingDivergence(
                f"loss {loss.v:.3g} exceeded abort threshold at step {step}", step)
        tape.backward(loss)
        grads = {name: b.grad_arrays() for name, b in bound.items()}
        if not all(np.isfinite(g).all() for gs in grads.values() for g in gs):
            raise TrainingDivergence(f"non-finite gradient at step {step}", step)
        for name, gs in grads.items():
            opts[name].step(gs)
        return result


def train(game: GameInstance, config: TrainingConfig):
    """Optimize the game's shared networks: the training loop of every game.

    One AdaBelief optimizer per network and one :func:`train_step` per loss
    function ``game.steps(config)`` yields, whose result is sent back into
    it. Returns the networks and what the generator returns.
    """
    nets = game.nets()
    opts = {
        name: AdaBelief(net.parameters(), lr=config.lr) for name, net in nets.items()
    }
    steps = game.steps(config)
    result = None
    for step in count():
        try:
            loss_fn = steps.send(result)
        except StopIteration as done:
            return nets, done.value
        result = train_step(nets, opts, loss_fn, step, config.abort_threshold)


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


def float_cells(values) -> list[str]:
    """CSV cells of ``values`` as Python floats: ``repr``, the shortest round trip."""
    return list(map(repr, np.asarray(values, dtype=float).tolist()))


def write_csv(path, header, blocks) -> None:
    """Write a CSV file: the header row, then each block of rows in order.

    A block is an iterable of rows, each a sequence of cell strings; it is
    joined into one string and written with one ``write``, so a file is held
    in memory one block (one turn, one round) at a time, never whole.

    The bytes are those ``csv.writer`` writes in its default dialect: cells
    joined by ``,``, every row ended by ``\\r\\n``, nothing quoted. Cells are
    therefore numbers and fixed words, never ``,``, ``"`` or a line break;
    floats are written as ``repr(float)`` (see :func:`float_cells`), ints as
    ``str(int)``. The golden content hashes in the tests pin this format.
    """
    write_csvs([(path, header)], zip(blocks))


def write_csvs(files, blocks) -> None:
    """Write several CSV files in step, each as :func:`write_csv` writes one.

    ``files`` lists ``(path, header)`` pairs, and each item of ``blocks``
    holds the next block of every file, in that order. Blocks of different
    files that share work, such as the same floats formatted once, are so
    built together and held one item at a time.
    """
    with ExitStack() as stack:
        handles = [stack.enter_context(open(path, "w", newline="")) for path, _ in files]
        for fh, (_path, header) in zip(handles, files):
            fh.write(",".join(header) + "\r\n")
        for item in blocks:
            for fh, block in zip(handles, item):
                fh.write("".join([",".join(row) + "\r\n" for row in block]))


def write_history_csv(path, history: list[HistoryRow]) -> None:
    """CSV ``epoch,game_cost,data_loss,total``, one row per epoch."""
    rows = [(str(r.epoch), repr(r.game_cost), repr(r.data_loss), repr(r.total))
            for r in history]
    write_csv(path, ["epoch", "game_cost", "data_loss", "total"], [rows])
