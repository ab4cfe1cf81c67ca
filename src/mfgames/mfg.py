"""Population-level orchestration: training, loss histories, CSV output.

One loop, :func:`train`, trains every game. A game declares the shapes of its
shared networks (one per role, never per agent), which :func:`train` builds,
and yields each step's loss on them; :func:`train_step` owns the step's tape,
checks for divergence, backpropagates and applies one AdaBelief update.
"""

from __future__ import annotations

import math
from contextlib import ExitStack
from dataclasses import dataclass, fields, replace
from functools import partial
from itertools import count, islice

import numpy as np

from .autodiff import Tape, Value, plain
from .nets import MLP, AdaBelief, BoundMLP, MLPConfig, mlp_init

__all__ = [
    "check_finite",
    "TrainingConfig",
    "TrainingDivergence",
    "GameInstance",
    "train_step",
    "train",
    "HistoryRow",
    "write_history_csv",
    "write_csv",
    "write_csvs",
    "float_cells",
]


ABORT_THRESHOLD = 1e6  # a step whose loss exceeds it diverges (see train_step)
CSV_CHUNK_ROWS = 2048  # rows joined into one string per write (see write_csv)


class TrainingDivergence(RuntimeError):
    """Raised when a step's loss or gradient diverges; ``step`` is the step's index."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


def check_finite(config) -> None:
    """Raise ValueError if a float field of the dataclass ``config`` is NaN or infinite."""
    for field in fields(config):
        value = getattr(config, field.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{field.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class TrainingConfig:
    epochs: int = 1  # of the default steps; dice takes one step per round instead
    games_per_epoch: int = 10
    lr: float = 5e-4
    seed: int = 0
    data_loss_weight: float = 1.0

    def __post_init__(self):
        check_finite(self)
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

    ``net_configs`` maps names to the shapes of the shared networks being
    optimized; :func:`train` builds them and sets their seeds. ``steps``
    yields the loss function of each optimizer step (see :func:`train_step`),
    gets each step's result back from its ``yield`` and returns what
    :func:`train` returns. By default it takes one step per epoch, on the
    episodes' combined loss: ``episode_losses`` rolls every episode of one
    epoch at once, one per entry of ``episode_seeds``, as a single batched
    rollout from plain arrays that the bound networks put on the tape. It
    returns ``(game_cost, data_loss)``, 0-d Values or floats, each averaged
    over episodes and agents. ``episode_seeds[g]`` is ``(seed, epoch, g)``.
    Meeting and El Farol draw episode ``g`` from its own RNG stream seeded
    with it, so their results do not depend on the batch size; SIR draws the
    noise of the whole batch at once from the ``(seed, epoch)`` stream.
    """

    def net_configs(self) -> dict[str, MLPConfig]:
        raise NotImplementedError

    def episode_losses(self, bound: dict[str, BoundMLP],
                       episode_seeds: list[tuple]) -> tuple[Value, Value]:
        raise NotImplementedError

    def steps(self, config: TrainingConfig):
        """One step per epoch, on the combined loss; returns each epoch's :class:`HistoryRow`."""
        def epoch_loss(bound, epoch):
            seeds = [(config.seed, epoch, g) for g in range(config.games_per_epoch)]
            game_cost, data_loss = self.episode_losses(bound, seeds)
            total = game_cost + config.data_loss_weight * data_loss
            return total, HistoryRow(epoch, float(plain(game_cost)), float(plain(data_loss)),
                                     float(total.v))

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


def train_step(nets: dict[str, MLP], opts: dict[str, AdaBelief], loss_fn, step: int):
    """One optimizer step on a fresh tape; returns what ``loss_fn`` hands back.

    ``loss_fn(bound)`` records the forward pass, with ``bound`` mapping each
    name in ``nets`` to that network bound as tape leaves, the step's only
    leaves, and returns ``(loss, result)``; ``result`` must hold no tape
    node. A non-finite loss, a loss above ``ABORT_THRESHOLD`` or a
    non-finite gradient of any network raises :class:`TrainingDivergence`
    with the index ``step``; otherwise each network takes one step of its
    optimizer in ``opts`` on the 0-d loss's gradient. The graph is freed
    when this returns or raises: the tape empties on leaving its ``with``
    block, and the nodes the step's frames still hold die with those frames.
    """
    with Tape() as tape:
        bound = {name: net.bind(tape) for name, net in nets.items()}
        loss, result = loss_fn(bound)
        if not np.isfinite(loss.v):
            raise TrainingDivergence(f"non-finite loss at step {step}", step)
        if loss.v > ABORT_THRESHOLD:
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

    Network k of ``game.net_configs()`` starts from ``mlp_init`` seeded with
    ``config.seed + k`` and has an AdaBelief optimizer; one :func:`train_step`
    per loss function ``game.steps(config)`` yields, whose result is sent
    back into it. Returns the networks and what the generator returns.
    """
    nets = {name: mlp_init(replace(cfg, seed=config.seed + k))
            for k, (name, cfg) in enumerate(game.net_configs().items())}
    opts = {name: AdaBelief(net.parameters(), lr=config.lr) for name, net in nets.items()}
    steps = game.steps(config)
    result = None
    for step in count():
        try:
            loss_fn = steps.send(result)
        except StopIteration as done:
            return nets, done.value
        result = train_step(nets, opts, loss_fn, step)


def float_cells(values) -> list[str]:
    """CSV cells of ``values`` as Python floats: ``repr``, the shortest round trip."""
    return list(map(repr, np.asarray(values, dtype=float).tolist()))


def write_csv(path, header, blocks) -> None:
    """Write a CSV file: the header row, then each block of rows in order.

    A block is an iterable of rows, each a sequence of cell strings; it is
    written ``CSV_CHUNK_ROWS`` rows at a time, each chunk joined into one
    string and written with one ``write``, so a file is held in memory one
    chunk at a time, never whole, and a lazy block (one turn of 20,000
    agents) is never held whole either.

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
                rows = map(",".join, block)
                while chunk := list(islice(rows, CSV_CHUNK_ROWS)):
                    fh.write("\r\n".join([*chunk, ""]))


def write_history_csv(path, history: list[HistoryRow]) -> None:
    """CSV ``epoch,game_cost,data_loss,total``, one row per epoch."""
    rows = [(str(r.epoch), repr(r.game_cost), repr(r.data_loss), repr(r.total))
            for r in history]
    write_csv(path, ["epoch", "game_cost", "data_loss", "total"], [rows])
