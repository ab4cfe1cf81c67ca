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
from collections import OrderedDict
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

    The rows may be arrays or lists. Exact binomial tail from the term
    recurrence of :func:`_binomial_terms`, so no special functions are
    required: the tail terms summed in order of k, divided by that sum plus
    the terms below ``need``, summed in the same order.
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
    return _binomial_tail(need, others_count, p)


@functools.lru_cache(maxsize=16384)  # a float and its key: about 4 MiB when full
def _binomial_tail(need: int, n: int, p: float) -> float:
    """P[X >= need] for X ~ Binomial(n, p), 1 <= need <= n and 0 < p < 1.

    From the terms of :func:`_binomial_terms`, each side of ``need`` summed
    in order of k, or in log space once they underflow. Memoised: standard
    players share one belief, so across a run they ask the same tails again.
    """
    terms = _binomial_terms(n, p)
    if terms is None:
        return _binomial_tail_log_space(need, n, p)
    total = float(np.add.accumulate(terms[need:])[-1])
    norm = total + float(np.add.accumulate(terms[:need])[-1])
    return total / norm if norm > 0 else 0.0


TERMS_CACHE_BYTES = 6 * 2**20  # a 3,000-round standard run reuses 4.5-4.8 MiB


class _TermsMemo(OrderedDict):
    """(n, p) -> terms, least recently used first; the oldest go once the
    ``nbytes`` of the terms held pass ``TERMS_CACHE_BYTES``."""

    nbytes = 0

    def put(self, key, terms: np.ndarray) -> None:
        self[key] = terms
        self.nbytes += terms.nbytes
        while self.nbytes > TERMS_CACHE_BYTES:
            self.nbytes -= self.popitem(last=False)[1].nbytes

    def clear(self) -> None:
        super().clear()
        self.nbytes = 0


_terms_memo = _TermsMemo()


def _binomial_terms(n: int, p: float):
    """The n + 1 terms of Binomial(n, p), read-only, or None.

    term 0 is q**n and term k + 1 is term k times (n - k) / (k + 1) * (p / q),
    the ratios coming from :func:`_term_ratios` and the product evaluated
    left to right by the sequential ``multiply.accumulate`` that ``cumprod``
    runs, so the terms equal a loop that multiplies one at a time, bit for
    bit. None when q**n underflows to zero. ``_terms_memo`` keeps them,
    bounded in bytes since neural players each hold their own beliefs.
    """
    terms = _terms_memo.get((n, p))
    if terms is not None:
        _terms_memo.move_to_end((n, p))
        return terms
    q = 1.0 - p
    first = q**n
    if first == 0.0:
        return None
    steps = np.empty(n + 1)
    steps[0] = first
    np.multiply(_term_ratios(n), p / q, out=steps[1:])
    terms = np.multiply.accumulate(steps)
    terms.flags.writeable = False  # shared by every caller
    _terms_memo.put((n, p), terms)
    return terms


@functools.lru_cache(maxsize=16)
def _term_ratios(n: int) -> np.ndarray:
    """(n - k) / (k + 1) for k = 0 .. n - 1; a table has one unseen-dice count."""
    k = np.arange(n)
    ratios = (n - k) / (k + 1.0)
    ratios.flags.writeable = False
    return ratios


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
    is too unlikely; otherwise inflate the quantity by a Poisson bluff (no
    draw at rate 0, where numpy's is 0 and leaves the generator unchanged),
    at least 1 if the face stayed, so the bid is a legal successor. ``dice``,
    ``theta_hat`` and ``lam`` are the player's rows of the dealt counts and
    of the population's beliefs (arrays or lists) and its bluff rate.
    """
    prev_face, quantity = prev_bid.face, prev_bid.quantity
    others = config.total_dice - config.dice_per_player
    face = prev_face
    if quantity > estimate_occurrences(face, dice, theta_hat, others):
        face += 1
        if face > config.n_faces:
            return CHALLENGE
    if bid_probability(face, quantity, dice, theta_hat, others) < config.likelihood:
        return CHALLENGE
    bluff = 0 if lam == 0 else int(rng.poisson(lam))
    if bluff == 0 and face == prev_face:
        bluff = 1
    return Bid(face, quantity + bluff)


def deal(n_players: int, config: DiceConfig, rng) -> np.ndarray:
    """Face counts of every player's roll, shape (players, faces).

    One ``rng.random((players, dice))`` draw mapped through the face CDF: the
    same dice, and the same generator state afterwards, as one
    ``rng.choice(faces, dice, p=theta)`` call per player in turn. Each
    player's draws are sorted before the CDF lookup, which then follows the
    keys instead of searching afresh (the counts do not depend on the order),
    and player i's faces are offset by i * faces, so one ``bincount`` counts
    every row.
    """
    nf = config.n_faces
    draws = rng.random((n_players, config.dice_per_player))
    draws.sort(axis=1)
    faces = _face_cdf(tuple(config.theta)).searchsorted(draws, side="right")
    faces += np.arange(0, n_players * nf, nf)[:, None]
    return np.bincount(faces.ravel(), minlength=n_players * nf).reshape(n_players, nf)


@functools.lru_cache(maxsize=16)
def _face_cdf(theta: tuple) -> np.ndarray:
    """The face CDF of ``theta``, its last entry exactly 1."""
    cdf = np.asarray(theta, dtype=float).cumsum()
    cdf /= cdf[-1]
    cdf.flags.writeable = False
    return cdf


def play_round(counts: np.ndarray, theta_hat: np.ndarray, lam: np.ndarray,
               config: DiceConfig, rng) -> RoundOutcome:
    """Rotate turns from player 0's opening bid until a challenge.

    ``counts`` are the dealt dice (see :func:`deal`), ``theta_hat`` and
    ``lam`` the population's beliefs and bluff rates; player i plays row i.
    The turns read them as Python lists, converted once per round, since a
    turn indexes a few of their cells and a list cell is cheaper to read
    than an array's.
    """
    n_players = len(counts)
    if n_players < 2:
        raise ValueError("a round needs at least two players")
    revealed = np.add.reduce(counts, 0)
    dealt, beliefs, rates = counts.tolist(), theta_hat.tolist(), lam.tolist()

    others = config.total_dice - config.dice_per_player
    est = estimate_occurrences(1, dealt[0], beliefs[0], others)
    opening = Bid(1, max(1, int(round(est))))
    turns: list = [(0, opening)]
    prev_bid = opening
    i = 1 % n_players
    while True:
        action = player_turn(dealt[i], beliefs[i], rates[i], prev_bid, config, rng)
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
    p, q = p[mask], q[mask]
    if (q <= 0).any():
        return float("inf")
    return float((p * np.log(p / q)).sum())


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
        theta = np.asarray(config.theta, dtype=float)
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
                dice_seen += config.total_dice  # every die in play is revealed
                target = _pooled_target(pooled, config)
                if self.neural:
                    theta_hat, lam = yield partial(_round_loss, theta_hat, lam, counts,
                                                   target, outcome, config)
                else:
                    theta_hat = _mfg_belief_update(theta_hat, target)
                kl = kl_divergence(theta, np.add.reduce(theta_hat, 0) / config.n_players)
                lam_mean = float(np.add.reduce(lam) / config.n_players)
                records.append(RoundRecord(g, r, outcome, lam_mean, kl, dice_seen))
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
