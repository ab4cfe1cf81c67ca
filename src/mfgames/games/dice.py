"""Liar's dice as a mean-field game over beliefs and bluff intensity.

Players roll hidden dice from a shared (possibly unfair) categorical
distribution and take turns raising bids on how many dice of a face exist in
total, or challenging the previous bid. Each player's state is a belief over
the face odds plus a Poisson bluff rate that inflates its raises. Beliefs
drift towards the pooled empirical distribution of dice revealed at round
ends; the neural variant adds trained residuals to both the belief and the
bluff rate and is updated once per round.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..autodiff import Tape, max0, square
from ..mfg import TrainingConfig
from ..nets import MLP, AdaBelief, MLPConfig, mlp_forward_np, mlp_init

__all__ = [
    "DiceConfig",
    "Bid",
    "Challenge",
    "PlayerState",
    "RoundOutcome",
    "RoundRecord",
    "estimate_occurrences",
    "bid_probability",
    "player_turn",
    "play_round",
    "round_cost",
    "is_legal_successor",
    "kl_divergence",
    "train_dice",
    "analyze",
    "write_round_history",
    "write_analysis_csv",
]


@dataclass(frozen=True)
class DiceConfig:
    n_players: int = 30
    dice_per_player: int = 15
    n_faces: int = 6
    theta: tuple = (1 / 6,) * 6  # true face odds
    likelihood: float = 0.3  # challenge threshold l
    bluff0: float = 0.0  # initial Poisson bluff rate
    theta_hat0: Optional[tuple] = None  # initial beliefs; uniform when None
    belief_rate: float = 1.0  # pull towards the pooled revealed distribution
    prior_mass: float = 1.0  # Dirichlet-style smoothing of the pooled target
    belief_floor: float = 1e-4

    def __post_init__(self):
        if self.n_players < 2:
            raise ValueError("need at least two players")
        if self.dice_per_player < 1 or self.n_faces < 2:
            raise ValueError("invalid dice geometry")
        th = np.asarray(self.theta, dtype=float)
        if th.shape != (self.n_faces,) or np.any(th < 0) or abs(th.sum() - 1.0) > 1e-9:
            raise ValueError("theta must be a probability vector over the faces")
        if not 0.0 < self.likelihood < 1.0:
            raise ValueError("likelihood threshold must lie in (0, 1)")
        if self.bluff0 < 0:
            raise ValueError("bluff rate must be nonnegative")

    @property
    def total_dice(self) -> int:
        return self.n_players * self.dice_per_player


@dataclass(frozen=True)
class Bid:
    face: int  # 1-based pips
    quantity: int

    def __post_init__(self):
        if self.face < 1 or self.quantity < 1:
            raise ValueError("bids need a positive face and quantity")


class Challenge:
    """Terminal action: dispute the previous bid and end the round."""

    def __repr__(self):
        return "Challenge()"


CHALLENGE = Challenge()


def is_legal_successor(prev: Bid, new: Bid) -> bool:
    """Higher quantity (same or higher face), or same quantity with higher face."""
    if new.quantity > prev.quantity:
        return new.face >= prev.face
    return new.quantity == prev.quantity and new.face > prev.face


@dataclass
class PlayerState:
    theta_hat: np.ndarray  # belief simplex over faces
    lam: float  # bluff rate >= 0
    dice: np.ndarray = field(default_factory=lambda: np.zeros(6, dtype=int))  # face counts

    def __post_init__(self):
        self.theta_hat = np.asarray(self.theta_hat, dtype=float)
        if np.any(self.theta_hat < 0) or abs(self.theta_hat.sum() - 1.0) > 1e-9:
            raise ValueError("theta_hat must lie on the simplex")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")


@dataclass
class RoundOutcome:
    turns: list  # (player index, Bid or Challenge)
    winner: int
    challenge_correct: bool
    revealed: np.ndarray  # pooled face counts of every die in play

    @property
    def bids(self) -> list[Bid]:
        return [a for _, a in self.turns if isinstance(a, Bid)]

    @property
    def n_turns(self) -> int:
        return len(self.turns)


def estimate_occurrences(face: int, own_counts: np.ndarray, theta_hat: np.ndarray,
                         others_count: int) -> float:
    """Expected total occurrences: exact own count plus believed share of unseen dice."""
    if others_count < 0:
        raise ValueError("others_count must be nonnegative")
    return float(own_counts[face - 1]) + others_count * float(theta_hat[face - 1])


def bid_probability(face: int, quantity: int, own_counts: np.ndarray,
                    theta_hat: np.ndarray, others_count: int) -> float:
    """P[total occurrences >= quantity]; unseen dice ~ Binomial(others, belief).

    Exact binomial tail accumulated with the term recurrence, so no special
    functions are required.
    """
    need = quantity - int(own_counts[face - 1])
    if need <= 0:
        return 1.0
    if need > others_count:
        return 0.0
    p = float(theta_hat[face - 1])
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    q = 1.0 - p
    n = others_count
    term = q**n
    if term == 0.0:
        return _binomial_tail_log_space(need, n, p)
    total = 0.0
    cumulative = 0.0
    for k in range(0, n + 1):
        if k >= need:
            total += term
        else:
            cumulative += term
        term *= (n - k) / (k + 1) * (p / q)
    norm = total + cumulative
    return total / norm if norm > 0 else 0.0


def _binomial_tail_log_space(need: int, n: int, p: float) -> float:
    """P[X >= need] for X ~ Binomial(n, p), from log-space terms.

    Used once q**n underflows (about 3,900 unseen dice at p = 1/6), where the
    direct recurrence would start from a zero term and return 0. The log
    terms follow the same recurrence, shifted by their maximum before
    exponentiating.
    """
    k = np.arange(n)
    steps = np.log((n - k) / (k + 1.0)) + math.log(p / (1.0 - p))
    log_terms = np.concatenate(([0.0], np.cumsum(steps)))
    w = np.exp(log_terms - log_terms.max())
    return float(w[need:].sum() / w.sum())


def player_turn(state: PlayerState, prev_bid: Bid, config: DiceConfig, rng):
    """One move of the individual player's drift logic.

    Raise the face when the previous quantity exceeds the occurrence estimate
    (challenging past the top face); challenge when the candidate bid itself
    is too unlikely; otherwise inflate the quantity by a Poisson bluff. A
    minimum raise of one keeps the bid a legal successor when the face stayed
    and the bluff draw was zero.
    """
    others = config.total_dice - config.dice_per_player
    est = estimate_occurrences(prev_bid.face, state.dice, state.theta_hat, others)
    face = prev_bid.face
    if prev_bid.quantity > est:
        face += 1
        if face > config.n_faces:
            return CHALLENGE
    quantity = prev_bid.quantity
    if bid_probability(face, quantity, state.dice, state.theta_hat, others) < config.likelihood:
        return CHALLENGE
    quantity += int(rng.poisson(state.lam))
    if face == prev_bid.face and quantity == prev_bid.quantity:
        quantity += 1
    return Bid(face, quantity)


def play_round(players: list[PlayerState], config: DiceConfig, rng) -> RoundOutcome:
    """Deal dice, rotate turns from player 0's opening bid until a challenge."""
    if len(players) < 2:
        raise ValueError("a round needs at least two players")
    faces = np.arange(1, config.n_faces + 1)
    theta = np.asarray(config.theta, dtype=float)
    for pl in players:
        rolls = rng.choice(faces, size=config.dice_per_player, p=theta)
        pl.dice = np.bincount(rolls, minlength=config.n_faces + 1)[1:]
    revealed = np.sum([pl.dice for pl in players], axis=0)

    others = config.total_dice - config.dice_per_player
    est = estimate_occurrences(1, players[0].dice, players[0].theta_hat, others)
    opening = Bid(1, max(1, int(round(est))))
    turns: list = [(0, opening)]
    prev_bid = opening
    prev_bidder = 0
    i = 1 % len(players)
    while True:
        action = player_turn(players[i], prev_bid, config, rng)
        turns.append((i, action))
        if isinstance(action, Challenge):
            actual = int(revealed[prev_bid.face - 1])
            correct = actual < prev_bid.quantity
            winner = i if correct else prev_bidder
            return RoundOutcome(turns, winner, correct, revealed)
        if not is_legal_successor(prev_bid, action):
            raise RuntimeError(f"illegal successor bid {action} after {prev_bid}")
        prev_bid = action
        prev_bidder = i
        i = (i + 1) % len(players)


def round_cost(bids: list[Bid], outcome: RoundOutcome, config: DiceConfig) -> list[float]:
    """Per-turn cost j1 + j2 + j3 once the round's dice are revealed.

    j1 penalizes timid raises against the maximal possible quantity, j2
    penalizes bidding under the actual count, j3 penalizes low faces.
    """
    m_q = config.total_dice
    m_f = config.n_faces
    costs = []
    prev_q = 0
    for bid in bids:
        a = int(outcome.revealed[bid.face - 1])
        j1 = max0(m_q - (bid.quantity - prev_q))
        j2 = max0(a - bid.quantity)
        j3 = max0(m_f - bid.face)
        costs.append(float(j1 + j2 + j3))
        prev_q = bid.quantity
    return costs


def kl_divergence(p, q) -> float:
    """KL(p || q) in nats over the support of p."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    mask = p > 0
    if np.any(q[mask] <= 0):
        return float("inf")
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


@dataclass
class RoundRecord:
    game: int
    round_index: int
    outcome: RoundOutcome
    lam_mean: float  # after the post-round update
    kl: float  # KL(theta || mean belief) after the update
    dice_seen: int  # cumulative dice revealed within the game


# surrogate scales for the bluff-rate update; see module docstring
_RAISE_SCALE = 4.0
_CHALLENGE_WEIGHT = 1.0
_RESIDUAL_SCALE = 0.25


def _pooled_target(pooled_counts: np.ndarray, config: DiceConfig) -> np.ndarray:
    smooth = pooled_counts + config.prior_mass / config.n_faces
    return smooth / smooth.sum()


def _mfg_belief_update(players: list[PlayerState], target: np.ndarray,
                       config: DiceConfig) -> None:
    for pl in players:
        th = pl.theta_hat + config.belief_rate * (target - pl.theta_hat)
        th = np.clip(th, config.belief_floor, None)
        pl.theta_hat = th / th.sum()


def _neural_round_update(players, target, outcome, config: DiceConfig,
                         net: MLP, opt: AdaBelief) -> None:
    """One training step: belief MSE plus the bluff-rate surrogate terms.

    All players go through the network as one (players, 2 faces + 2) batch.
    The safety penalty rewards larger expected raises (gradient through the
    Poisson mean), while a correct challenge ending the round penalizes the
    bluff level; their balance moves lam up from timid starts and caps it once
    challenges start landing.
    """
    tape = Tape()
    bound = net.bind(tape)
    correct = 1.0 if outcome.challenge_correct else 0.0
    last_bid = outcome.bids[-1]
    nf = config.n_faces
    theta = np.array([pl.theta_hat for pl in players])
    lam = np.array([pl.lam for pl in players])
    feats = np.concatenate([
        theta,
        np.array([pl.dice for pl in players]) / config.dice_per_player,
        np.tile([last_bid.face / nf, last_bid.quantity / config.total_dice],
                (len(players), 1)),
    ], axis=1)
    out = bound.forward(feats)  # one (players, faces + 1) pass
    base = theta + config.belief_rate * (target - theta)
    raw = out[:, :nf] * _RESIDUAL_SCALE + base
    th = max0(raw - config.belief_floor) + config.belief_floor
    th = th / th.sum(axis=1, keepdims=True)
    lam_new = max0(out[:, nf] * _RESIDUAL_SCALE + lam)

    per_player = square(th - target).sum(axis=1) + max0(1.0 - lam_new * (1.0 / _RAISE_SCALE))
    if correct:
        per_player = per_player + _CHALLENGE_WEIGHT * correct * lam_new * (1.0 / _RAISE_SCALE)
    tape.backward(per_player.sum())
    opt.step(bound.grad_arrays())
    for pl, row, lam_i in zip(players, th.v, lam_new.v):
        pl.theta_hat = row / row.sum()
        pl.lam = float(lam_i)


def train_dice(config: DiceConfig, training: TrainingConfig, games: int = 100,
               rounds_per_game: int = 10, neural: bool = True):
    """Play seeded games of several rounds each, updating after every round.

    Beliefs and bluff rates reset at each game boundary; the network persists
    across games and is trained once per round. Returns the network (None for
    the pure variant) and one record per round.
    """
    if games < 1 or rounds_per_game < 1:
        raise ValueError("games and rounds_per_game must be positive")
    theta = np.asarray(config.theta, dtype=float)
    theta_hat0 = (
        np.asarray(config.theta_hat0, dtype=float)
        if config.theta_hat0 is not None
        else np.full(config.n_faces, 1.0 / config.n_faces)
    )
    net = None
    opt = None
    if neural:
        net = mlp_init(MLPConfig(2 * config.n_faces + 2, config.n_faces + 1,
                                 hidden_layers=3, hidden_width=8, seed=training.seed))
        opt = AdaBelief(net.parameters(), lr=training.lr)
    records: list[RoundRecord] = []
    for g in range(games):
        rng = np.random.default_rng(np.asarray((training.seed, g), dtype=np.uint64))
        players = [
            PlayerState(theta_hat0.copy(), config.bluff0) for _ in range(config.n_players)
        ]
        pooled = np.zeros(config.n_faces)
        dice_seen = 0
        for r in range(rounds_per_game):
            outcome = play_round(players, config, rng)
            pooled += outcome.revealed
            dice_seen += int(outcome.revealed.sum())
            target = _pooled_target(pooled, config)
            if neural:
                _neural_round_update(players, target, outcome, config, net, opt)
            else:
                _mfg_belief_update(players, target, config)
            mean_belief = np.mean([pl.theta_hat for pl in players], axis=0)
            records.append(
                RoundRecord(
                    game=g,
                    round_index=r,
                    outcome=outcome,
                    lam_mean=float(np.mean([pl.lam for pl in players])),
                    kl=kl_divergence(theta, mean_belief),
                    dice_seen=dice_seen,
                )
            )
    return net, records


def analyze(records: list[RoundRecord]) -> dict:
    """Aggregate game length, bluff evolution, challenge success, and KL curve."""
    if not records:
        raise ValueError("no round records to analyze")
    lengths = np.array([rec.outcome.n_turns for rec in records], dtype=float)
    correct = np.array([rec.outcome.challenge_correct for rec in records], dtype=float)
    finals: dict[int, RoundRecord] = {}
    for rec in records:
        finals[rec.game] = rec
    lam_finals = np.array([rec.lam_mean for rec in finals.values()])
    kl_curve: dict[int, list[float]] = {}
    for rec in records:
        kl_curve.setdefault(rec.dice_seen, []).append(rec.kl)
    return {
        "game_length_mean": float(lengths.mean()),
        "game_length_std": float(lengths.std()),
        "challenge_correct_ratio": float(correct.mean()),
        "lam_final_mean": float(lam_finals.mean()),
        "lam_final_std": float(lam_finals.std()),
        "kl_by_dice": {
            k: (float(np.mean(v)), float(np.std(v))) for k, v in sorted(kl_curve.items())
        },
    }


def write_round_history(path, records: list[RoundRecord]) -> None:
    """CSV ``round,player,turn,face,quantity,action`` over all recorded rounds."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "player", "turn", "face", "quantity", "action"])
        idx = 0
        for rec in records:
            for turn, (player, action) in enumerate(rec.outcome.turns):
                if isinstance(action, Bid):
                    writer.writerow([idx, player, turn, action.face, action.quantity, "bid"])
                else:
                    writer.writerow([idx, player, turn, "", "", "challenge"])
            idx += 1


def write_analysis_csv(path, summary: dict) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "key", "mean", "std"])
        writer.writerow(["game_length", "", repr(summary["game_length_mean"]),
                         repr(summary["game_length_std"])])
        writer.writerow(["challenge_correct_ratio", "",
                         repr(summary["challenge_correct_ratio"]), repr(0.0)])
        writer.writerow(["lambda_final", "", repr(summary["lam_final_mean"]),
                         repr(summary["lam_final_std"])])
        for dice, (mean, std) in summary["kl_by_dice"].items():
            writer.writerow(["kl_at_dice", dice, repr(mean), repr(std)])
