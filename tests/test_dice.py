import math
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import central_diff
from mfgames import autodiff as ad
from mfgames import mfg
from mfgames.games import dice
from mfgames.games.dice import (
    Bid,
    DiceConfig,
    bid_probability,
    deal,
    is_legal_successor,
    play_round,
)
from mfgames.mfg import TrainingConfig, train, train_step
from mfgames.nets import MLP, AdaBelief, MLPConfig, mlp_init


def test_bid_probability_at_the_mean_for_many_dice():
    # q**6000 underflows to 0 at p = 1/6; the tail at the mean is still about 1/2
    own = np.zeros(6, dtype=int)
    theta = np.full(6, 1.0 / 6.0)
    assert (5.0 / 6.0) ** 6000 == 0.0
    prob = bid_probability(1, 1000, own, theta, 6000)
    assert prob == pytest.approx(0.5, abs=0.02)
    assert bid_probability(1, 900, own, theta, 6000) > 0.99
    assert bid_probability(1, 1100, own, theta, 6000) < 0.01


def test_log_space_tail_matches_direct_recurrence_where_both_apply():
    own = np.zeros(6, dtype=int)
    for n, p in ((30, 1 / 6), (500, 0.3), (3000, 1 / 6)):
        theta = np.full(6, (1.0 - p) / 5.0)
        theta[2] = p
        for need in (1, int(n * p), int(n * p) + 7, n):
            direct = bid_probability(3, need, own, theta, n)
            assert dice._binomial_tail_log_space(need, n, p) == pytest.approx(
                direct, rel=1e-9, abs=1e-300)


def _loud_net(config, seed=0, scale=20.0):
    net = mlp_init(MLPConfig(2 * config.n_faces + 2, config.n_faces + 1, 3, 8, seed=seed))
    net.weights[-1] *= scale
    net.biases[-1][:] = np.linspace(-1.0, 1.0, config.n_faces + 1) * scale
    return net


def test_neural_update_keeps_beliefs_on_simplex_and_bids_legal(monkeypatch):
    config = DiceConfig(n_players=5, dice_per_player=4)
    updates = []  # each step's result: the round's new (theta_hat, lam)
    step = mfg.train_step

    def recording_step(*args):
        updates.append(step(*args))
        return updates[-1]

    monkeypatch.setattr(mfg, "train_step", recording_step)
    monkeypatch.setattr(mfg, "mlp_init", lambda _net_config: _loud_net(config))
    game = dice.DiceGame(config, games=1, rounds_per_game=12, neural=True)
    _, records = train(game, TrainingConfig(epochs=1, seed=7, lr=0.05))
    assert len(updates) == len(records) == 12
    for (theta_hat, lam), rec in zip(updates, records):
        bids = rec.outcome.bids
        assert all(is_legal_successor(a, b) for a, b in zip(bids, bids[1:]))
        assert theta_hat.shape == (config.n_players, 6) and lam.shape == (config.n_players,)
        for row, lam_i in zip(theta_hat, lam):
            assert np.all(row > 0.0)
            assert row.sum() == pytest.approx(1.0, abs=1e-12)
            assert lam.dtype == float and lam_i >= 0.0


def test_neural_training_records_legal_games():
    config = DiceConfig(n_players=4, dice_per_player=3)
    nets, records = dice.train_dice(config, TrainingConfig(epochs=1, seed=2), games=2,
                                    rounds_per_game=3, neural=True)
    assert list(nets) == ["drift"] and len(records) == 6
    for rec in records:
        bids = rec.outcome.bids
        assert all(is_legal_successor(a, b) for a, b in zip(bids, bids[1:]))
        assert rec.lam_mean >= 0.0 and math.isfinite(rec.kl)
    assert is_legal_successor(Bid(2, 3), Bid(2, 4))
    assert not is_legal_successor(Bid(2, 3), Bid(1, 4))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.1])
def test_config_rejects_a_theta_with_a_non_probability(bad):
    # NaN fails every comparison, so the check must be written to reject it
    with pytest.raises(ValueError, match="theta"):
        DiceConfig(theta=(bad,) + (0.2,) * 5)


def test_config_takes_exactly_the_bluff_rates_the_poisson_draw_takes():
    rng = np.random.default_rng(0)
    for ok in (0.0, 9.2e18, dice.POISSON_LAM_MAX):
        DiceConfig(bluff0=ok)
        rng.poisson(ok)
    for bad in (np.nextafter(dice.POISSON_LAM_MAX, math.inf), 9.3e18, 1e300, math.inf,
                math.nan, -1.0):
        with pytest.raises(ValueError, match="bluff rate"):
            DiceConfig(bluff0=bad)
        with pytest.raises(ValueError):
            rng.poisson(bad)


def _reference_bid_probability(face, quantity, own_counts, theta_hat, others_count):
    """The binomial tail as one Python loop over the term recurrence."""
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
        return dice._binomial_tail_log_space(need, n, p)
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


UNFAIR = (0.05, 0.1, 0.15, 0.2, 0.0, 0.5)


@pytest.mark.parametrize("theta", [(1 / 6,) * 6, UNFAIR], ids=["fair", "unfair"])
@pytest.mark.parametrize("seed", [0, 3, 7, 11])
def test_batched_deal_matches_per_player_choice(theta, seed):
    config = DiceConfig(n_players=30, dice_per_player=15, theta=theta)
    batched, per_player = np.random.default_rng(seed), np.random.default_rng(seed)
    counts = deal(config.n_players, config, batched)
    faces = np.arange(1, config.n_faces + 1)
    for row in counts:
        rolls = per_player.choice(faces, size=config.dice_per_player, p=np.asarray(theta))
        assert np.array_equal(row, np.bincount(rolls, minlength=config.n_faces + 1)[1:])
    assert batched.bit_generator.state == per_player.bit_generator.state
    assert counts.shape == (config.n_players, config.n_faces)
    assert np.all(counts.sum(axis=1) == config.dice_per_player)


def test_memoised_bid_probability_equals_reference_loop():
    dice._binomial_terms.cache_clear()
    dice._binomial_tail.cache_clear()
    own = np.array([2, 0, 1, 0, 3, 0])
    checked = 0
    for n in (1, 2, 29, 435, 1000, 4100, 6000):
        for p in (1e-3, 0.1, 1 / 6, 0.3, 0.5, 0.9):
            theta = np.full(6, (1.0 - p) / 5.0)
            theta[2] = p
            for need in sorted({1, 2, int(n * p), int(n * p) + 1, n // 2, n - 1, n, n + 1}):
                for face in (3, 1):
                    quantity = need + int(own[face - 1])
                    want = _reference_bid_probability(face, quantity, own, theta, n)
                    for _asked in range(2):  # computed, then memoised
                        got = bid_probability(face, quantity, own, theta, n)
                        assert got == want, (n, p, need, face)
                        assert type(got) is float
                        checked += 1
    assert (5.0 / 6.0) ** 4100 == 0.0  # the log-space fallback is in the grid
    assert dice._binomial_terms.cache_info().hits > 0 and checked > 1000
    assert dice._binomial_tail.cache_info().hits > 0


def test_tail_cache_stays_bounded_over_neural_training():
    caches = {name: f for name, f in vars(dice).items() if hasattr(f, "cache_info")}
    assert {"_binomial_terms", "_binomial_tail", "_term_ratios", "_face_cdf"} <= set(caches)
    for f in caches.values():
        f.cache_clear()
    config = DiceConfig(n_players=20, dice_per_player=8, bluff0=0.5)
    dice.train_dice(config, TrainingConfig(epochs=1, seed=4, lr=0.05), games=10,
                    rounds_per_game=10, neural=True)
    info = dice._binomial_terms.cache_info()
    assert info.misses > info.maxsize  # every neural player holds its own beliefs
    for name, f in caches.items():
        info = f.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize, name


@pytest.mark.parametrize("faces", [6, 11])
def test_batched_belief_update_matches_per_player_loop(faces):
    config = DiceConfig(n_players=9, n_faces=faces, theta=(1 / faces,) * faces)
    rng = np.random.default_rng(faces)
    beliefs = rng.dirichlet(np.ones(faces), size=config.n_players)
    beliefs[0, 1] = 0.0
    beliefs[0] /= beliefs[0].sum()
    # face 2 never revealed among thousands of dice: its target lies below
    # the floor, which the update then exercises
    pooled = rng.integers(1000, 4000, faces).astype(float)
    pooled[1] = 0.0
    target = dice._pooled_target(pooled, config)
    assert target[1] < dice.BELIEF_FLOOR
    theta_hat = dice._mfg_belief_update(beliefs, target)
    for row, b in zip(theta_hat, beliefs):
        th = np.clip(b + dice.BELIEF_RATE * (target - b), dice.BELIEF_FLOOR, None)
        assert np.array_equal(row, th / th.sum())


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def test_round_and_updates_leave_their_inputs_unwritten():
    config = DiceConfig(n_players=6, dice_per_player=4, bluff0=0.5)
    rng = np.random.default_rng(3)
    counts, theta_hat, lam = _read_only(
        deal(config.n_players, config, rng),
        rng.dirichlet(np.ones(config.n_faces), size=config.n_players),
        np.full(config.n_players, 0.5),
    )
    before = [a.copy() for a in (counts, theta_hat, lam)]
    outcome = play_round(counts, theta_hat, lam, config, rng)
    (target,) = _read_only(dice._pooled_target(outcome.revealed.astype(float), config))
    pure = dice._mfg_belief_update(theta_hat, target)
    net = _loud_net(config)
    loss = partial(dice._round_loss, theta_hat, lam, counts, target, outcome, config)
    th, lam_new = train_step({"drift": net}, {"drift": AdaBelief(net.parameters(), lr=0.05)},
                             loss, 0)
    for a, b in zip((counts, theta_hat, lam), before):
        assert np.array_equal(a, b)
    for new in (pure, th, lam_new):
        assert not any(np.shares_memory(new, a) for a in (counts, theta_hat, lam, target))


def test_neural_round_with_a_zero_residual_keeps_the_standard_beliefs():
    # the two rounds share one belief step, on the tape and on arrays: with
    # the network's belief outputs at zero, the neural round's new beliefs
    # are the standard round's, bit for bit, floored face included
    config = DiceConfig(n_players=7, dice_per_player=4)
    rng = np.random.default_rng(5)
    counts = deal(config.n_players, config, rng)
    theta_hat = rng.dirichlet(np.ones(config.n_faces), size=config.n_players)
    lam = np.full(config.n_players, 0.5)
    outcome = play_round(counts, theta_hat, lam, config, rng)
    pooled = rng.integers(1000, 4000, config.n_faces).astype(float)
    pooled[1] = 0.0
    target = dice._pooled_target(pooled, config)
    assert target[1] < dice.BELIEF_FLOOR
    net = _loud_net(config)
    net.weights[-1][:config.n_faces] = 0.0
    net.biases[-1][:config.n_faces] = 0.0
    with ad.Tape() as tape:
        _loss, (th, _lam) = dice._round_loss(theta_hat, lam, counts, target, outcome, config,
                                             {"drift": net.bind(tape)})
    standard = dice._mfg_belief_update(theta_hat, target)
    assert np.array_equal(th, standard)


def test_round_loss_gradient_matches_finite_differences(monkeypatch):
    # one neural round's step loss: the tape's parameter gradient against
    # central differences along random directions of all network parameters
    config = DiceConfig(n_players=6, dice_per_player=4)
    rng = np.random.default_rng(11)
    counts = deal(config.n_players, config, rng)
    theta_hat = rng.dirichlet(np.ones(config.n_faces), size=config.n_players)
    lam = np.full(config.n_players, 0.5)
    outcome = play_round(counts, theta_hat, lam, config, rng)
    assert outcome.challenge_correct  # so the loss has its challenge term
    target = dice._pooled_target(outcome.revealed.astype(float), config)
    loss_fn = partial(dice._round_loss, theta_hat, lam, counts, target, outcome, config)
    net = mlp_init(MLPConfig(2 * config.n_faces + 2, config.n_faces + 1, seed=3))
    for b in net.biases:
        b[:] = rng.normal(0.0, 0.1, b.shape)
    margins = []  # distance of every max0 argument, and of the floored beliefs, from its kink

    def recording_max0(x):
        margins.append(np.abs(x.v).min())
        return ad.max0(x)

    def recording_where(mask, a, b):
        margins.append(np.abs(a.v - b).min())  # the belief floor: raw against BELIEF_FLOOR
        return ad.where(mask, a, b)

    monkeypatch.setattr(dice, "max0", recording_max0)
    monkeypatch.setattr(dice, "where", recording_where)

    def loss(params, tape):
        bound = MLP(params[0::2], params[1::2], net.config).bind(tape)
        return loss_fn({"drift": bound})[0], bound

    tape = ad.Tape()
    value, bound = loss(net.parameters(), tape)
    tape.backward(value)
    grads = bound.grad_arrays()
    h = 1e-6
    for _direction in range(3):
        d = [rng.normal(size=p.shape) for p in net.parameters()]

        def along(ts):
            moved = [p + ts[0] * dp for p, dp in zip(net.parameters(), d)]
            return float(loss(moved, ad.Tape())[0].v)

        want = sum(float(np.sum(g * dp)) for g, dp in zip(grads, d))
        assert central_diff(along, [0.0], 0, h) == pytest.approx(want, rel=1e-6)
    # no max0 argument and no floored belief came within the difference step of its kink
    assert len(margins) == 3 * 7 and min(margins) > 1e3 * h


@st.composite
def dice_tables(draw):
    """A DiceConfig of 2-40 players, 1-20 dice, 2-8 faces; faces may have odds 0."""
    n_faces = draw(st.integers(2, 8))
    weights = draw(st.lists(st.integers(0, 9), min_size=n_faces, max_size=n_faces)
                   .filter(any))
    return DiceConfig(n_players=draw(st.integers(2, 40)),
                      dice_per_player=draw(st.integers(1, 20)), n_faces=n_faces,
                      theta=tuple(w / sum(weights) for w in weights),
                      bluff0=draw(st.floats(0.0, 5.0)))


@settings(max_examples=100, deadline=None)
@given(dice_tables(), st.integers(0, 2**32 - 1))
def test_random_tables_play_legal_bids_on_simplex_beliefs(config, seed):
    rounds = []  # each round's (counts, theta_hat, outcome), as the game played it
    play = dice.play_round

    def recording_round(counts, theta_hat, lam, config, rng):
        rounds.append((counts, theta_hat, play(counts, theta_hat, lam, config, rng)))
        return rounds[-1][-1]

    with mock.patch.object(dice, "play_round", recording_round):
        dice.train_dice(config, TrainingConfig(epochs=1, seed=seed), games=1,
                        rounds_per_game=4, neural=False)
    others = config.total_dice - config.dice_per_player
    for counts, theta_hat, outcome in rounds:
        assert np.all(theta_hat >= 0.0)
        assert np.all(np.abs(theta_hat.sum(axis=1) - 1.0) <= 1e-12)
        bids = outcome.bids
        assert all(1 <= b.face <= config.n_faces for b in bids)
        assert all(is_legal_successor(a, b) for a, b in zip(bids, bids[1:]))
        # each bid asked of every player's rows, on arrays and on lists
        for bid in bids:
            for own, belief in zip(counts, theta_hat):
                dice._binomial_tail.cache_clear()
                on_arrays = bid_probability(bid.face, bid.quantity, own, belief, others)
                dice._binomial_tail.cache_clear()
                on_lists = bid_probability(bid.face, bid.quantity, own.tolist(),
                                           belief.tolist(), others)
                assert on_lists == on_arrays
