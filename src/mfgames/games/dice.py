"""Liar's dice as a mean-field game over beliefs and bluff intensity.

Players roll hidden dice from a shared (possibly unfair) categorical
distribution and take turns raising bids on how many dice of a face exist in
total, or challenging the previous bid. Each player's state is a belief over
the face odds plus a Poisson bluff rate that inflates its raises. The
population is held as two arrays, ``theta_hat`` of shape (players, faces)
and ``lam`` of shape (players,); player i is row i of each, and the dealt
dice are a (players, faces) array of counts. Beliefs drift towards the
pooled empirical distribution of dice revealed at round ends; the neural
variant adds trained residuals to both the belief and the bluff rate and is
updated once per round, by one step of :func:`mfgames.mfg.train`. The
updates return new arrays and never write to their inputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from ..autodiff import max0, plain, square, where
from ..mfg import GameInstance, TrainingConfig, train, write_csv
from ..nets import MLPConfig, mlp_forward_np

__all__ = [
    "DiceConfig",
    "Bid",
    "Challenge",
    "RoundOutcome",
    "RoundRecord",
    "estimate_occurrences",
    "bid_probability",
    "player_turn",
    "deal",
    "play_round",
    "is_legal_successor",
    "kl_divergence",
    "DiceGame",
    "train_dice",
    "analyze",
    "write_round_history",
    "write_analysis_csv",
]


# the belief update: pull towards the pooled revealed distribution, the
# Dirichlet-style smoothing of that target, and the floor of each belief
BELIEF_RATE = 1.0
PRIOR_MASS = 1.0
BELIEF_FLOOR = 1e-4
# the largest rate numpy's Generator.poisson accepts (numpy.random's
# POISSON_LAM_MAX); a bluff draw above it raises
POISSON_LAM_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)


@dataclass(frozen=True)
class DiceConfig:
    """The table and the players' rule; every game starts from uniform beliefs."""

    n_players: int = 30
    dice_per_player: int = 15
    n_faces: int = 6
    theta: tuple = (1 / 6,) * 6  # true face odds
    likelihood: float = 0.3  # challenge threshold l
    bluff0: float = 0.0  # initial Poisson bluff rate

    def __post_init__(self):
        if self.n_players < 2:
            raise ValueError("need at least two players")
        if self.dice_per_player < 1 or self.n_faces < 2:
            raise ValueError("invalid dice geometry")
        th = np.asarray(self.theta, dtype=float)
        # written so that NaN fails each comparison
        if th.shape != (self.n_faces,) or not (np.all(th >= 0) and abs(th.sum() - 1.0) <= 1e-9):
            raise ValueError("theta must be a probability vector over the faces")
        if not 0.0 < self.likelihood < 1.0:
            raise ValueError("likelihood threshold must lie in (0, 1)")
        if not 0.0 <= self.bluff0 <= POISSON_LAM_MAX:
            raise ValueError(f"bluff rate must lie in [0, {POISSON_LAM_MAX!r}]")

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
class RoundOutcome:
    turns: list  # (player index, Bid or Challenge)
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

    Exact binomial tail from the term recurrence of :func:`_binomial_terms`,
    so no special functions are required: the tail terms summed in order of
    k, divided by that sum plus the running sum of the terms below ``need``.
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
    terms = _binomial_terms(others_count, p)
    if terms is None:
        return _binomial_tail_log_space(need, others_count, p)
    terms, running = terms
    total = float(terms[need:].cumsum()[-1])
    norm = total + float(running[need - 1])
    return total / norm if norm > 0 else 0.0


@functools.lru_cache(maxsize=256)
def _binomial_terms(n: int, p: float):
    """The n + 1 terms of Binomial(n, p) and their running sums, or None.

    term 0 is q**n and term k + 1 is term k times (n - k) / (k + 1) * (p / q).
    Both come from sequential ``cumprod``/``cumsum`` (not pairwise sums), so
    they equal a loop that multiplies and adds one term at a time, bit for
    bit. None when q**n underflows to zero. Within a round every player
    asks about the same few (n, p); the cache is bounded because neural
    players each hold their own beliefs.
    """
    q = 1.0 - p
    first = q**n
    if first == 0.0:
        return None
    k = np.arange(n)
    terms = np.cumprod(np.concatenate(([first], (n - k) / (k + 1.0) * (p / q))))
    running = np.cumsum(terms)
    terms.flags.writeable = running.flags.writeable = False  # shared by every caller
    return terms, running


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


def player_turn(dice: np.ndarray, theta_hat: np.ndarray, lam: float, prev_bid: Bid,
                config: DiceConfig, rng):
    """One move of the individual player's drift logic.

    Raise the face when the previous quantity exceeds the occurrence estimate
    (challenging past the top face); challenge when the candidate bid itself
    is too unlikely; otherwise inflate the quantity by a Poisson bluff. A
    minimum raise of one keeps the bid a legal successor when the face stayed
    and the bluff draw was zero. ``dice``, ``theta_hat`` and ``lam`` are the
    player's rows of the dealt counts and of the population's arrays.
    """
    others = config.total_dice - config.dice_per_player
    est = estimate_occurrences(prev_bid.face, dice, theta_hat, others)
    face = prev_bid.face
    if prev_bid.quantity > est:
        face += 1
        if face > config.n_faces:
            return CHALLENGE
    quantity = prev_bid.quantity
    if bid_probability(face, quantity, dice, theta_hat, others) < config.likelihood:
        return CHALLENGE
    quantity += int(rng.poisson(lam))
    if face == prev_bid.face and quantity == prev_bid.quantity:
        quantity += 1
    return Bid(face, quantity)


def deal(n_players: int, config: DiceConfig, rng) -> np.ndarray:
    """Face counts of every player's roll, shape (players, faces).

    One ``rng.random((players, dice))`` draw mapped through the face CDF: the
    same dice, and the same generator state afterwards, as one
    ``rng.choice(faces, dice, p=theta)`` call per player in turn.
    """
    cdf = np.asarray(config.theta, dtype=float).cumsum()
    cdf /= cdf[-1]
    faces = cdf.searchsorted(rng.random((n_players, config.dice_per_player)), side="right")
    return (faces[..., None] == np.arange(config.n_faces)).sum(axis=1)


def play_round(counts: np.ndarray, theta_hat: np.ndarray, lam: np.ndarray,
               config: DiceConfig, rng) -> RoundOutcome:
    """Rotate turns from player 0's opening bid until a challenge.

    ``counts`` are the dealt dice (see :func:`deal`), ``theta_hat`` and
    ``lam`` the population's beliefs and bluff rates; player i plays row i.
    """
    n_players = len(counts)
    if n_players < 2:
        raise ValueError("a round needs at least two players")
    revealed = counts.sum(axis=0)

    others = config.total_dice - config.dice_per_player
    est = estimate_occurrences(1, counts[0], theta_hat[0], others)
    opening = Bid(1, max(1, int(round(est))))
    turns: list = [(0, opening)]
    prev_bid = opening
    i = 1 % n_players
    while True:
        action = player_turn(counts[i], theta_hat[i], lam[i], prev_bid, config, rng)
        turns.append((i, action))
        if isinstance(action, Challenge):
            actual = int(revealed[prev_bid.face - 1])
            correct = actual < prev_bid.quantity
            return RoundOutcome(turns, correct, revealed)
        if not is_legal_successor(prev_bid, action):
            raise RuntimeError(f"illegal successor bid {action} after {prev_bid}")
        prev_bid = action
        i = (i + 1) % n_players


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
    smooth = pooled_counts + PRIOR_MASS / config.n_faces
    return smooth / smooth.sum()


def _mfg_belief_update(theta_hat: np.ndarray, target: np.ndarray, residual=0.0):
    """The (players, faces) beliefs pulled towards the target, plus a neural
    round's ``residual`` (a tape Value), floored, renormalised."""
    raw = residual + (theta_hat + BELIEF_RATE * (target - theta_hat))
    th = where(plain(raw) > BELIEF_FLOOR, raw, BELIEF_FLOOR)
    return th / th.sum(axis=1, keepdims=True)


def _round_loss(theta_hat: np.ndarray, lam: np.ndarray, counts: np.ndarray,
                target: np.ndarray, outcome: RoundOutcome, config: DiceConfig, bound):
    """One round's step loss: belief MSE plus the bluff-rate surrogate terms.

    All players go through the network as one (players, 2 faces + 2) batch
    built from the beliefs, the dealt ``counts`` and the round's last bid.
    The safety penalty rewards larger expected raises (gradient through the
    Poisson mean), while a correct challenge ending the round penalizes the
    bluff level; their balance moves lam up from timid starts and caps it once
    challenges start landing. Returns the loss and the new ``(theta_hat, lam)``.
    """
    correct = 1.0 if outcome.challenge_correct else 0.0
    last_bid = outcome.bids[-1]
    nf = config.n_faces
    feats = np.concatenate([
        theta_hat,
        counts / config.dice_per_player,
        np.tile([last_bid.face / nf, last_bid.quantity / config.total_dice],
                (len(theta_hat), 1)),
    ], axis=1)
    out = bound["drift"].forward(feats)  # one (players, faces + 1) pass
    th = _mfg_belief_update(theta_hat, target, out[:, :nf] * _RESIDUAL_SCALE)
    lam_new = max0(out[:, nf] * _RESIDUAL_SCALE + lam)
    per_player = square(th - target).sum(axis=1) + max0(1.0 - lam_new * (1.0 / _RAISE_SCALE))
    if correct:
        per_player = per_player + _CHALLENGE_WEIGHT * correct * lam_new * (1.0 / _RAISE_SCALE)
    return per_player.sum(), (th.v, lam_new.v)


@dataclass
class DiceGame(GameInstance):
    """Seeded games of several rounds each; :meth:`steps` returns one record per round.

    Each game deals every round's dice just before it is played and starts
    from fresh ``theta_hat`` and ``lam`` arrays (uniform beliefs, bluff
    rates ``bluff0``). A neural round's update is one step of its network,
    ``"drift"``, on :func:`_round_loss`, checked by :func:`mfgames.mfg.train_step`.
    """

    config: DiceConfig
    games: int
    rounds_per_game: int
    neural: bool  # False for the pure variant, which has no network

    def net_configs(self) -> dict[str, MLPConfig]:
        nf = self.config.n_faces
        return {"drift": MLPConfig(2 * nf + 2, nf + 1)} if self.neural else {}

    def steps(self, training: TrainingConfig):
        config = self.config
        records = []
        for g in range(self.games):
            rng = np.random.default_rng(np.asarray((training.seed, g), dtype=np.uint64))
            theta_hat = np.full((config.n_players, config.n_faces), 1.0 / config.n_faces)
            lam = np.full(config.n_players, float(config.bluff0))
            pooled = np.zeros(config.n_faces)
            dice_seen = 0
            for r in range(self.rounds_per_game):
                counts = deal(config.n_players, config, rng)
                outcome = play_round(counts, theta_hat, lam, config, rng)
                pooled += outcome.revealed
                dice_seen += int(outcome.revealed.sum())
                target = _pooled_target(pooled, config)
                if self.neural:
                    theta_hat, lam = yield partial(_round_loss, theta_hat, lam, counts,
                                                   target, outcome, config)
                else:
                    theta_hat = _mfg_belief_update(theta_hat, target)
                kl = kl_divergence(config.theta, theta_hat.mean(axis=0))
                records.append(RoundRecord(g, r, outcome, float(lam.mean()), kl, dice_seen))
        return records


def train_dice(config: DiceConfig, training: TrainingConfig, games: int = 100,
               rounds_per_game: int = 10, neural: bool = True):
    """Train a :class:`DiceGame` with :func:`mfgames.mfg.train`; returns its (nets, records)."""
    if games < 1 or rounds_per_game < 1:
        raise ValueError("games and rounds_per_game must be positive")
    return train(DiceGame(config, games, rounds_per_game, neural), training)


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
    """CSV ``round,player,turn,face,quantity,action`` over all recorded rounds.

    A challenge leaves ``face`` and ``quantity`` empty; rows end in
    ``\\r\\n`` (see :func:`mfgames.mfg.write_csv`, one round per write).
    """
    def rows(idx, rec):
        for turn, (player, action) in enumerate(rec.outcome.turns):
            if isinstance(action, Bid):
                yield (str(idx), str(player), str(turn), str(action.face),
                       str(action.quantity), "bid")
            else:
                yield str(idx), str(player), str(turn), "", "", "challenge"

    write_csv(path, ["round", "player", "turn", "face", "quantity", "action"],
              (rows(idx, rec) for idx, rec in enumerate(records)))


def write_analysis_csv(path, summary: dict) -> None:
    """CSV ``metric,key,mean,std`` of :func:`analyze`; ``repr`` floats, ``\\r\\n`` rows."""
    rows = [
        ("game_length", "", repr(summary["game_length_mean"]),
         repr(summary["game_length_std"])),
        ("challenge_correct_ratio", "", repr(summary["challenge_correct_ratio"]), repr(0.0)),
        ("lambda_final", "", repr(summary["lam_final_mean"]), repr(summary["lam_final_std"])),
    ]
    rows += [("kl_at_dice", str(dice), repr(mean), repr(std))
             for dice, (mean, std) in summary["kl_by_dice"].items()]
    write_csv(path, ["metric", "key", "mean", "std"], [rows])
