import datetime
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import array_gradcheck, epoch_directional_derivatives, initial_nets
from mfgames import autodiff as ad
from mfgames.games import sir
from mfgames.games.sir import (
    CSV_HEADER,
    NOISE_SIGMA,
    DataError,
    EpidemicDataset,
    SIRConfig,
    SIRGame,
    _day_step,
    _nelder_mead,
    _net_inputs,
    _rollout,
    _window_objective,
    augment_noise,
    estimate_rates,
    forecast,
    generate_synthetic_dataset,
    ingest_csv,
    integrate_kolmogorov,
    make_measure_schedule,
    train_sir,
    validate_measures,
    write_dataset_csv,
)
from mfgames.mfg import TrainingConfig
from mfgames.nets import BoundMLP, MLPConfig, mlp_forward_np, mlp_init, stack_nets
from sir_reference import (
    day_step,
    kolmogorov_drift,
    neural_drift,
    synthetic_dataset,
)


def _drift(m, rates, v, net):
    return neural_drift(m, rates, mlp_forward_np(net, _net_inputs(m, rates, v)))


def _zero(net):
    """Zero every parameter in place; the network's output becomes exactly 0."""
    for p in net.parameters():
        p[:] = 0.0


def test_disease_free_equilibrium():
    dm = kolmogorov_drift(np.array([0.6, 0.0, 0.4]), (0.3, 0.1, 0.0))
    assert dm == (0.0, 0.0, 0.0)


def test_drift_formula_by_hand():
    dm = kolmogorov_drift(np.array([0.9, 0.1, 0.0]), (0.3, 0.1, 0.0))
    assert dm[0] == pytest.approx(-0.027)
    assert dm[1] == pytest.approx(0.017)
    assert dm[2] == pytest.approx(0.010)


def test_drift_conserves_mass_randomized():
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        m = rng.dirichlet(np.ones(3))
        rates = rng.uniform(0, 1, 3)
        assert abs(sum(kolmogorov_drift(m, rates))) < 1e-12


def test_neural_drift_zero_network_matches_pure():
    net = mlp_init(MLPConfig(13, 6, 3, 8, seed=0))
    _zero(net)
    m = np.array([0.7, 0.2, 0.1])
    rates = np.array([0.25, 0.1, 0.01])
    v = np.zeros(7, dtype=int)
    assert _drift(m, rates, v, net) == pytest.approx(
        list(kolmogorov_drift(m, rates)), abs=1e-15
    )


def test_neural_drift_conserves_mass_random_networks():
    rng = np.random.default_rng(1)
    for k in range(1000):
        net = mlp_init(MLPConfig(13, 6, 3, 8, seed=k))
        m = rng.dirichlet(np.ones(3))
        rates = rng.uniform(0, 0.5, 3)
        v = rng.integers(0, 3, 7)
        assert abs(_drift(m, rates, v, net).sum()) < 1e-12


def test_neural_drift_rate_cancellation():
    # mu_gamma = -gamma with other outputs zero kills the infection term
    net = mlp_init(MLPConfig(13, 6, 3, 8, seed=0))
    _zero(net)
    rates = np.array([0.3, 0.0, 0.0])
    net.biases[-1][0] = -0.3
    m = np.array([0.5, 0.5, 0.0])
    assert _drift(m, rates, np.zeros(7), net) == pytest.approx([0, 0, 0])


def test_monotone_recovered_under_pure_model():
    traj = integrate_kolmogorov(np.array([0.9, 0.1, 0.0]), [0.3, 0.1, 0.02], 200)
    assert np.all(np.diff(traj[:, 2]) >= -1e-15)
    assert np.allclose(traj.sum(axis=1), 1.0, atol=1e-9)


def _day_rows(rates, days):
    """Day k's (gamma, rho, pi) as Python floats, from one row or a row per day."""
    rows = np.asarray(rates, dtype=float).reshape(-1, 3).tolist()
    return rows * days if len(rows) == 1 else rows


def _integrate_kolmogorov_numpy(m0, rates, days):
    """Reference: the rate equation stepped on (3,) arrays, as it was first written."""
    m = np.asarray(m0, dtype=float).copy()
    out = [m.copy()]
    for rv in _day_rows(rates, days)[:days]:
        dm = kolmogorov_drift(m, rv)
        m = m + np.asarray(dm)
        m = np.clip(m, 0.0, None)
        s = m.sum()
        if s > 0:
            m = m / s
        out.append(m.copy())
    return np.array(out)


# (m0, rates, days): rates are one (3,) row, held every day, or a (days, 3) array
INTEGRATE_CASES = {
    "constant rates": ([0.9, 0.1, 0.0], np.array([0.3, 0.1, 0.02]), 60),
    "per-day rates": ([0.97, 0.03, 0.0],
                      np.array([(0.2 + 0.01 * k, 0.1, 0.005 * (k % 3)) for k in range(30)]), 30),
    # one step takes S below zero, so the clamp acts before renormalising
    "clamped compartment": ([0.6, 0.4, 0.0], np.array([4.0, 0.1, 0.5]), 5),
    # the sum stays 0, so the state is never divided by it
    "all-zero state": ([0.0, 0.0, 0.0], np.array([0.3, 0.1, 0.02]), 4),
    # the first step's sum turns a -0.0 start into 0.0
    "negative zero": ([-0.0, 0.5, 0.5], np.array([0.0, 0.0, 0.0]), 3),
    # a NaN sum is not > 0, so S and I are not divided by it
    "nan recovered": ([0.5, 0.4, np.nan], np.array([0.3, 0.1, 0.02]), 3),
    # recovery faster than one per day takes I below zero
    "clamped infected": ([0.5, 0.5, 0.0], np.array([0.1, 1.5, 0.0]), 3),
    # only a negative start takes R below zero
    "clamped removed": ([0.5, 0.6, -0.1], np.array([0.0, 0.0, 0.0]), 2),
}
# each (3,) row again, tiled to a row per day: the same bytes are expected
INTEGRATE_CASES.update({
    f"{name}, tiled": (m0, np.tile(rates, (days, 1)), days)
    for name, (m0, rates, days) in INTEGRATE_CASES.items() if rates.shape == (3,)
})


@pytest.mark.parametrize("name", sorted(INTEGRATE_CASES))
def test_integrate_kolmogorov_equals_numpy_reference_bytes(name):
    m0, rates, days = INTEGRATE_CASES[name]
    got = integrate_kolmogorov(m0, rates, days)
    want = _integrate_kolmogorov_numpy(m0, rates, days)
    assert got.shape == want.shape == (days + 1, 3)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_integrate_kolmogorov_equals_numpy_reference_randomized():
    rng = np.random.default_rng(2)
    for _ in range(300):
        m0 = rng.dirichlet(np.ones(3))
        rates = rng.uniform(0, 2, (20, 3))
        assert (integrate_kolmogorov(m0, rates, 20).tobytes()
                == _integrate_kolmogorov_numpy(m0, rates, 20).tobytes())


def _integrate_kolmogorov_floats(m0, rates, days):
    """Reference: the rate equation stepped on Python floats through
    ``kolmogorov_drift``, clamped by ``max(x, 0.0)``."""
    m = tuple(np.asarray(m0, dtype=float).tolist())
    out = [m]
    for rv in _day_rows(rates, days)[:days]:
        ds, di, dr = kolmogorov_drift(m, rv)
        s, i, r = max(m[0] + ds, 0.0), max(m[1] + di, 0.0), max(m[2] + dr, 0.0)
        total = s + i + r
        if total > 0:
            s, i, r = s / total, i / total, r / total
        m = (s, i, r)
        out.append(m)
    return np.array(out)


# -0.0 rates keep a -0.0 compartment at -0.0 through the step, so the clamp
# sees it; it keeps it, where np.clip would return 0.0
NEGATIVE_ZERO_CASES = {
    "S": ([-0.0, 0.5, 0.5], np.array([-0.0, 0.0, -0.0])),
    "I": ([0.5, -0.0, 0.5], np.array([0.3, -0.0, 0.0])),
    "R": ([0.5, 0.5, -0.0], np.array([0.0, -0.0, -0.0])),
}


def test_integrate_kolmogorov_holds_the_last_rate_past_the_series():
    m0 = [0.97, 0.03, 0.0]
    rates = np.array([(0.3, 0.1, 0.0), (0.2, 0.05, 0.01)])
    got = integrate_kolmogorov(m0, rates, 6)
    want = _integrate_kolmogorov_numpy(m0, np.vstack([rates] + [rates[-1:]] * 4), 6)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("compartment", sorted(NEGATIVE_ZERO_CASES))
def test_integrate_kolmogorov_keeps_negative_zero_like_max(compartment):
    m0, rates = NEGATIVE_ZERO_CASES[compartment]
    got = integrate_kolmogorov(m0, rates, 2)
    assert got.tobytes() == _integrate_kolmogorov_floats(m0, rates, 2).tobytes()
    assert np.signbit(got[-1, "SIR".index(compartment)])


def test_validate_measures():
    assert validate_measures([0, 1, 2, 0, 1, 2, 0]).tolist() == [0, 1, 2, 0, 1, 2, 0]
    with pytest.raises(ValueError):
        validate_measures([0, 1, 2, 0, 1, 2, 3])
    with pytest.raises(ValueError):
        validate_measures([0, 1, 2])


# -- ingestion -------------------------------------------------------------


def _write_fixture(path, rows):
    with open(path, "w") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")


def test_ingest_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DataError):
        ingest_csv(path, population=1000)


def test_ingest_valid_rows_on_simplex(tmp_path):
    path = tmp_path / "data.csv"
    _write_fixture(path, [
        ["2020-08-01", 100, 10, 2, 0, 0, 0, 0, 0, 0, 0, 0],
        ["2020-08-02", 120, 15, 3, 10, 1, 0, 0, 0, 0, 0, 0],
        ["2020-08-03", 150, 20, 4, 20, 2, 0, 0, 0, 0, 0, 0],
    ])
    ds = ingest_csv(path, population=10_000)
    assert len(ds) == 3
    assert np.allclose(ds.states.sum(axis=1), 1.0)
    assert np.all(ds.states >= 0)
    assert ds.states[1, 1] == pytest.approx((120 - 15 - 3) / 10_000)


def test_ingest_rejects_bad_measure_level(tmp_path):
    path = tmp_path / "bad.csv"
    _write_fixture(path, [["2020-08-01", 10, 1, 0, 0, 0, 0, 3, 0, 0, 0, 0]])
    with pytest.raises(DataError) as err:
        ingest_csv(path, population=1000)
    assert "v3" in str(err.value)


def test_ingest_rejects_gap_and_disorder(tmp_path):
    path = tmp_path / "gap.csv"
    _write_fixture(path, [
        ["2020-08-01", 10, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        ["2020-08-03", 12, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    ])
    with pytest.raises(DataError):
        ingest_csv(path, population=1000)
    path2 = tmp_path / "dis.csv"
    _write_fixture(path2, [
        ["2020-08-02", 10, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        ["2020-08-01", 12, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    ])
    with pytest.raises(DataError):
        ingest_csv(path2, population=1000)


def test_ingest_rejects_bad_header(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("date,cases\n2020-01-01,3\n")
    with pytest.raises(DataError):
        ingest_csv(path, population=1000)


def test_synthetic_roundtrip_through_csv(tmp_path):
    ds = generate_synthetic_dataset(40, seed=3, i0=0.05)
    path = tmp_path / "synth.csv"
    write_dataset_csv(ds, path)
    back = ingest_csv(path, population=ds.population)
    assert len(back) == len(ds)
    assert np.allclose(back.states, ds.states, atol=2e-3)


# (days, seed, modulated, other arguments); a modulated case's schedule is
# make_measure_schedule(days, seed)
SYNTHETIC_CASES = {
    # the benchmark's 60-day inputs, for every program seed
    **{f"benchmark seed {seed}": (60, seed, True, {}) for seed in range(16)},
    **{f"{days} days": (days, 0, False, {}) for days in (1, 2, 3, 4, 29, 365)},
    **{f"{days} days modulated": (days, days, True, {}) for days in (1, 2, 3, 4, 29, 365)},
    # a compartment clamped every day, no epidemic at all, and no susceptibles
    "extreme rates": (80, 0, False, {"rates": (50.0, 3.0, 2.0)}),
    "zero rates": (30, 0, False, {"rates": (0.0, 0.0, 0.0)}),
    "all infected": (30, 0, False, {"i0": 1.0}),
}


@pytest.mark.parametrize("name", sorted(SYNTHETIC_CASES))
def test_synthetic_dataset_equals_the_reference_loop_bit_for_bit(name):
    days, seed, modulated, kwargs = SYNTHETIC_CASES[name]
    if modulated:
        kwargs = dict(kwargs, modulate=True, measures=make_measure_schedule(days, seed=seed))
    got = generate_synthetic_dataset(days, seed=seed, **kwargs)
    want = synthetic_dataset(days, seed=seed, **kwargs)
    assert got.dates == want.dates and got.population == want.population
    for a, b in ((got.states, want.states), (got.raw, want.raw),
                 (got.measures, want.measures)):
        assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_synthetic_dataset_rejects_a_short_schedule_and_no_days():
    with pytest.raises(ValueError, match="shorter than requested span"):
        generate_synthetic_dataset(10, measures=make_measure_schedule(9))
    with pytest.raises(ValueError, match="at least one day"):
        generate_synthetic_dataset(0)


def test_write_dataset_csv_needs_raw_counts(tmp_path):
    ds = generate_synthetic_dataset(5)
    ds.raw = None
    with pytest.raises(ValueError, match="no raw counts"):
        write_dataset_csv(ds, tmp_path / "out.csv")
    assert not (tmp_path / "out.csv").exists()


# -- noise augmentation ------------------------------------------------------


def test_augment_rejects_a_negative_sigma():
    with pytest.raises(ValueError, match="sigma must be nonnegative"):
        augment_noise(generate_synthetic_dataset(10), -0.01)


def test_augment_sigma_zero_is_exact_copy():
    ds = generate_synthetic_dataset(30, seed=1, i0=0.05)
    aug = augment_noise(ds, 0.0, seed=9)
    assert np.array_equal(aug.states, ds.states)


def test_augment_keeps_simplex():
    ds = generate_synthetic_dataset(30, seed=1, i0=0.05)
    for k in range(20):
        aug = augment_noise(ds, 0.05, seed=k)
        assert np.allclose(aug.states.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(aug.states >= 0)


def test_augment_noise_scale():
    # interior fixture (all compartments well away from zero) so the
    # clamp-and-renormalize branch stays quiet and the injected noise is
    # measured cleanly
    full = generate_synthetic_dataset(80, seed=2, i0=0.10,
                                      rates=(0.2, 0.08, 0.0))
    ds = EpidemicDataset(full.dates[5:45], full.states[5:45], full.measures[5:45])
    assert ds.states.min() > 0.03
    ranges = ds.states.max(axis=0) - ds.states.min(axis=0)
    diffs = []
    for k in range(100):
        aug = augment_noise(ds, 0.05, seed=k)
        diffs.append(aug.states - ds.states)
    diffs = np.concatenate(diffs, axis=0)
    for c in range(3):
        assert np.std(diffs[:, c]) == pytest.approx(0.05 * ranges[c], rel=0.10)


# -- rate estimation ----------------------------------------------------------


def test_rate_recovery_self_consistency():
    truth = np.array([0.25, 0.1, 0.01])
    ds = generate_synthetic_dataset(120, seed=0, rates=truth, i0=0.02)
    rates, warn = estimate_rates(ds, window=28)
    assert rates.shape == (120, 3)
    interior = rates[10:80]
    assert np.all(np.abs(interior - truth) <= 0.1 * truth)


def test_rate_estimation_degenerate_pi():
    # frozen epidemic: no infections, so pi is forced to zero
    dates = [datetime.date(2020, 1, 1) + datetime.timedelta(days=k) for k in range(40)]
    states = np.tile([0.7, 0.0, 0.3], (40, 1))
    ds = EpidemicDataset(dates, states, np.zeros((40, 7), dtype=int))
    rates, _ = estimate_rates(ds, window=28)
    assert rates[0, 2] < 1e-3  # pi


def test_rate_estimation_window_precondition():
    ds = generate_synthetic_dataset(10, seed=0)
    with pytest.raises(ValueError):
        estimate_rates(ds, window=28)


@pytest.mark.parametrize("window", [0, 1, -3])
def test_rate_estimation_rejects_an_empty_window(window):
    ds = generate_synthetic_dataset(10, seed=0)
    with pytest.raises(ValueError, match="window"):
        estimate_rates(ds, window=window)


def _counted(f):
    def g(x):
        g.calls += 1
        return f(x)
    g.calls = 0
    return g


def _window_objective_reference(target):
    """The rolling fit's objective on one window, as it was first written: the
    clamped candidate stepped through ``kolmogorov_drift`` each day."""
    def objective(cand):
        rv = np.clip(cand, 0.0, None)
        traj = _integrate_kolmogorov_floats(target[0], rv, len(target) - 1)
        return float(np.mean((traj - target) ** 2))
    return objective


def _same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


# 3 * window elements cross numpy's 8- and 128-element summation blocks
@pytest.mark.parametrize("window", [1, 2, 3, 28, 43, 60])
def test_window_objective_equals_the_reference(window):
    ds = augment_noise(generate_synthetic_dataset(
        60, seed=window, measures=make_measure_schedule(60, seed=window), modulate=True),
        0.02, seed=window)
    target = ds.states[60 - window:]
    got, want = _window_objective(target), _window_objective_reference(target)
    rng = np.random.default_rng(window)
    cands = [rng.uniform(-0.5, 1.5, 3) for _ in range(200)]
    # zero, negative and overflow-sized coordinates, alone and mixed; the
    # infinite and NaN ones give NaN states, hence a NaN objective
    cands += [np.array(c) for c in ([0.0, 0.0, 0.0], [-0.0, 0.3, -1.0], [-1.0, -2.0, -3.0],
                                    [1e308, 0.1, 0.01], [0.2, 1e308, 0.0], [0.2, 0.1, 1e308],
                                    [1e308, 1e308, 1e308], [1e200, -1e200, 1e-300],
                                    [np.inf, 0.1, 0.01], [0.2, np.inf, np.inf],
                                    [np.nan, 0.1, 0.0])]
    for cand in cands:
        assert _same_float(got(cand), want(cand)), cand


def _assert_nelder_mead_matches_scipy(minimize, objective, x0, max_iter):
    ours, theirs = _counted(objective), _counted(objective)
    x, converged = _nelder_mead(ours, x0, max_iter, xatol=1e-8, fatol=1e-14)
    res = minimize(theirs, x0, method="Nelder-Mead",
                   options={"maxiter": max_iter, "xatol": 1e-8, "fatol": 1e-14})
    assert x.tolist() == res.x.tolist()
    assert converged == res.success
    assert ours.calls == theirs.calls == res.nfev
    return x, converged


@pytest.mark.parametrize("seed", [0, 7, 11])
def test_nelder_mead_matches_scipy_on_rolling_windows(seed):
    minimize = pytest.importorskip("scipy.optimize").minimize
    days, window = 60, 28
    ds = generate_synthetic_dataset(days, seed=seed, modulate=True,
                                    measures=make_measure_schedule(days, seed=seed))
    ds = augment_noise(ds, 0.02, seed=seed)
    x = np.array([0.2, 0.1, 0.05])  # chained from window to window, as in estimate_rates
    for w0 in range(days - window + 1):
        x, _ = _assert_nelder_mead_matches_scipy(
            minimize, _window_objective(ds.states[w0: w0 + window]), x, 400)


def test_nelder_mead_matches_scipy_without_convergence():
    minimize = pytest.importorskip("scipy.optimize").minimize
    ds = generate_synthetic_dataset(28, seed=3)
    _x, converged = _assert_nelder_mead_matches_scipy(
        minimize, _window_objective(ds.states), np.array([0.2, 0.1, 0.05]), 15)
    assert not converged


def test_nelder_mead_matches_scipy_from_a_zero_coordinate():
    minimize = pytest.importorskip("scipy.optimize").minimize
    ds = generate_synthetic_dataset(28, seed=4, rates=(0.3, 0.05, 0.0))
    _x, converged = _assert_nelder_mead_matches_scipy(
        minimize, _window_objective(ds.states), np.array([0.2, 0.1, 0.0]), 400)
    assert converged


@pytest.mark.parametrize("scale", [2.0, 8.0, 64.0])
def test_nelder_mead_matches_scipy_on_ties(scale):
    # a stepped objective ties often, which pins the strictness of each comparison
    minimize = pytest.importorskip("scipy.optimize").minimize
    def stepped(x):
        return float(np.floor(scale * np.sum((x - [0.3, -0.2, 0.1]) ** 2)))
    _assert_nelder_mead_matches_scipy(minimize, stepped, np.array([1.0, 1.0, 0.0]), 400)


def _estimate_rates_reference(dataset, window):
    """``estimate_rates``' rolling fit, driven by the reference objective."""
    n = len(dataset)
    rates, warnings = [], []
    x = np.array([0.2, 0.1, 0.05])
    for w0 in range(n - window + 1):
        objective = _window_objective_reference(dataset.states[w0: w0 + window])
        x, converged = _nelder_mead(objective, x, 400, xatol=1e-8, fatol=1e-14)
        rates.append(np.clip(x, 0.0, None))
        warnings.append(not converged)
    tail = window - 1  # trailing days reuse the last window's fit
    return np.array(rates + rates[-1:] * tail), np.array(warnings + warnings[-1:] * tail)


@pytest.mark.parametrize("seed", [2, 9, 13])
def test_estimate_rates_equals_the_reference_fit(tmp_path, seed):
    # the benchmark's 60-day inputs, round-tripped through the CSV
    path = tmp_path / "sir.csv"
    write_dataset_csv(generate_synthetic_dataset(
        60, seed=seed, measures=make_measure_schedule(60, seed=seed), modulate=True), path)
    ds = ingest_csv(path, population=1_000_000)
    rates, warn = estimate_rates(ds, window=28)
    want_rates, want_warn = _estimate_rates_reference(ds, 28)
    assert rates.tobytes() == want_rates.tobytes()
    assert warn.tolist() == want_warn.tolist()


@pytest.mark.parametrize("days,window", [(2, 2), (30, 28), (40, 14), (12, 12)])
def test_estimate_rates_returns_a_rate_row_and_a_flag_per_day(days, window, monkeypatch):
    monkeypatch.setattr(sir, "RATE_FIT_MAX_ITER", 40)
    ds = generate_synthetic_dataset(days, seed=days, i0=0.05)
    rates, unconverged = estimate_rates(ds, window=window)
    assert rates.shape == (days, 3) and rates.dtype == np.float64
    assert unconverged.shape == (days,) and unconverged.dtype == np.bool_
    # the trailing window - 1 days repeat the last window's fit
    last = days - window
    assert np.array_equal(rates[last:], np.tile(rates[last], (window, 1)))
    assert np.all(unconverged[last:] == unconverged[last])
    assert np.all(rates >= 0.0)


def test_estimate_rates_flags_windows_that_do_not_converge(monkeypatch):
    ds = generate_synthetic_dataset(30, seed=3)
    _rates, warn = estimate_rates(ds, window=28)
    assert warn.tolist() == [False] * 30
    monkeypatch.setattr(sir, "RATE_FIT_MAX_ITER", 15)
    _rates, warn = estimate_rates(ds, window=28)
    assert warn.tolist() == [True] * 30


# -- training and forecasting --------------------------------------------------


def trajectory_mse(nets, rates, dataset):
    """Mean squared error of the deterministic forecast against the observations."""
    traj = forecast(nets, rates, dataset.states[0], len(dataset) - 1, dataset.measures)
    return float(np.mean((traj - dataset.states) ** 2))


SMALL = SIRConfig(trajectories=4, hidden_layers=3, hidden_width=8)


def _train_small(ds, epochs, warm_rates=None):
    """``train_sir`` on ``SMALL`` from the rates of a 14-day fit, unless given;
    the networks, the rates and the history."""
    if warm_rates is None:
        warm_rates, _ = estimate_rates(ds, window=14)
    training = TrainingConfig(epochs=epochs, games_per_epoch=2, seed=0)
    nets, history = train_sir(ds, training, config=SMALL, warm_rates=warm_rates)
    return nets, warm_rates, history


def _renormalising_forecast(nets, initial, days, v_series, rates):
    """The deterministic day loop :func:`forecast` kept before it shared the
    training rollout: it clamped and renormalised every day, not only the
    days a compartment went negative."""
    m = np.asarray(initial, dtype=float).copy()
    out = [m.copy()]
    for k in range(days):
        rv = rates[k] if k < len(rates) else rates[-1]
        dm = _drift(m, rv, v_series[k], nets["drift"])
        m = np.clip(m + dm, 0.0, None)
        s = m.sum()
        if s > 0:
            m = m / s
        out.append(m.copy())
    return np.array(out)


def test_forecast_agrees_with_the_renormalising_loop():
    ds = generate_synthetic_dataset(40, seed=11, measures=make_measure_schedule(40, seed=11),
                                    modulate=True)
    nets, rates, _ = _train_small(ds, 3)
    days = len(ds) - 1
    got = forecast(nets, rates, ds.states[0], days, ds.measures)
    want = _renormalising_forecast(nets, ds.states[0], days, ds.measures, rates)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)


def test_noisy_forecast_is_the_rollout_on_the_seeds_draws():
    ds = generate_synthetic_dataset(20, seed=12, i0=0.05)
    nets, rates, _ = _train_small(ds, 2)
    days = len(ds) - 1
    got = forecast(nets, rates, ds.states[0], days, ds.measures, noise_seed=4)
    dB = np.random.default_rng(4).normal(0.0, 1.0, (days, 3))
    forward = partial(mlp_forward_np, stack_nets([nets["drift"], nets["diffusion"]]))
    want = [ds.states[0], *_rollout(ds.states[0], rates, ds.measures, days, forward, dB)]
    assert np.array_equal(got, np.array(want))
    # as in training, the diffusion sees the day's starting state, not the
    # state after the drift
    m0, rv, v = ds.states[0], rates[0], ds.measures[0]
    noise = np.abs(mlp_forward_np(nets["diffusion"], np.concatenate([m0, rv, v]))) * dB[0]
    day1 = m0 + _drift(m0, rv, v, nets["drift"]) + noise - noise.mean()
    assert np.all(day1 >= 0.0)
    np.testing.assert_allclose(got[1], day1, rtol=0.0, atol=1e-15)


def test_zero_epochs_forecast_equals_warm_start_plus_residual():
    ds = generate_synthetic_dataset(30, seed=4, i0=0.05)
    nets, rates, history = _train_small(ds, 0)
    assert history == []
    traj = forecast(nets, rates, ds.states[0], len(ds) - 1, ds.measures)
    assert traj.shape == (len(ds), 3)
    assert np.allclose(traj.sum(axis=1), 1.0, atol=1e-9)


def test_training_reduces_mse_on_noiseless_synthetic():
    ds = generate_synthetic_dataset(40, seed=5, i0=0.04,
                                    rates=(0.3, 0.12, 0.0))
    nets0, rates, _ = _train_small(ds, 0)
    mse0 = trajectory_mse(nets0, rates, ds)
    nets, rates, _ = _train_small(ds, 60)
    mse1 = trajectory_mse(nets, rates, ds)
    assert mse1 < mse0


def test_constant_zero_measures_equal_sliced_network():
    # with v identically zero the measure inputs contribute nothing, so the
    # 13-input network equals the 6-input clone built by slicing the first
    # layer's weight columns, bit for bit
    from mfgames.nets import MLP, MLPConfig, mlp_forward_np

    ds = generate_synthetic_dataset(25, seed=6, i0=0.05)
    nets, _rates, _ = _train_small(ds, 3)
    net = nets["drift"]
    clone = MLP(
        [net.weights[0][:, :6].copy()] + [w.copy() for w in net.weights[1:]],
        [b.copy() for b in net.biases],
        MLPConfig(6, 6, net.config.hidden_layers, net.config.hidden_width,
                  net.config.seed),
    )
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = rng.dirichlet(np.ones(3))
        rates = rng.uniform(0, 0.5, 3)
        full_in = np.concatenate([m, rates, np.zeros(7)])
        # equal up to dot-product summation order over the zero columns
        assert mlp_forward_np(net, full_in) == pytest.approx(
            mlp_forward_np(clone, np.concatenate([m, rates])), abs=1e-14
        )


def test_simplex_conservation_through_training_steps():
    ds = generate_synthetic_dataset(20, seed=7, i0=0.05)
    nets, rates, _ = _train_small(ds, 2)
    traj = forecast(nets, rates, ds.states[0], len(ds) - 1, ds.measures, noise_seed=3)
    assert np.allclose(traj.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(traj >= 0)


def test_epoch_gradient_matches_finite_differences():
    # one epoch's data loss, 5 target rows of 10 noisy copies of a 30-day
    # series. The loss has kinks (absval of the learned diffusion, the
    # simplex clamp); a step of 1e-6 can straddle one, 1e-7 does not here
    ds = generate_synthetic_dataset(30, seed=0, measures=make_measure_schedule(30, seed=0),
                                    modulate=True)
    rates, _ = estimate_rates(ds, window=14)
    game = SIRGame(ds, SIRConfig(trajectories=10), rates)
    training = TrainingConfig(epochs=1, games_per_epoch=5, seed=0)
    pairs, _tape = epoch_directional_derivatives(game, training, np.random.default_rng(0),
                                                 h=1e-7)
    # measured: relative errors 2.7e-9, 3.8e-9 and 1.1e-9
    for tape_derivative, fd in pairs:
        assert fd == pytest.approx(tape_derivative, rel=1e-7)


def test_day_step_gradient_matches_finite_differences():
    # one noisy day from two interior states, through stacked networks
    # 13 -> 4 -> 6 and 13 -> 4 -> 3; the rates, the networks' biases and the
    # noise keep every max0, absval and clamp away from its kink
    rng = np.random.default_rng(5)
    params = [p + rng.normal(scale=0.1, size=p.shape)
              for c in (MLPConfig(13, 6, 1, 4, seed=5), MLPConfig(13, 3, 1, 4, seed=6))
              for p in mlp_init(c).parameters()]
    params[2], params[3] = 0.1 * params[2], 0.1 * params[3]  # small drift corrections
    params[7] = params[7] + 1.0  # the diffusion's output bias, away from absval's kink
    m0 = np.array([[0.9, 0.08, 0.02], [0.6, 0.3, 0.1]])
    rates = np.array([0.3, 0.2, 0.15])
    measures = np.array([[0, 1, 2, 0, 1, 0, 2]])
    dB = 0.01 * rng.normal(size=(2, 1, 3))
    weight = rng.normal(size=(2, 3))

    def day(m, w0, b0, w1, b1, u0, c0, u1, c1):
        forward = partial(ad.mlp, weights=[ad.stack_padded([w0, u0]), ad.stack_padded([w1, u1])],
                          biases=[ad.stack_padded([b0, c0]), ad.stack_padded([b1, c1])])
        m1 = next(_rollout(m, rates, measures, 1, forward, dB))
        assert np.all((m1.v if isinstance(m1, ad.Value) else m1) > 0.0)
        return (m1 * weight).sum()

    grads, fds = array_gradcheck(day, [m0, *params])
    for g, fd in zip(grads, fds):
        np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-8)


def _same_bits(a, b):
    return np.shape(a) == np.shape(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _day_sweep(step, m, rates, out, dB, weight):
    """The day step's value and the adjoints of ``m`` and ``out``, on a tape
    of their own. The leaves' gradients start at -0.0, which adds nothing
    to any float, so they keep the sign of a zero adjoint."""
    tape = ad.Tape()
    m_leaf, out_leaf = tape.value(m), tape.value(out)
    m_leaf.g = out_leaf.g = -0.0
    new = step(m_leaf, rates, out_leaf, dB)
    tape.backward((new * weight).sum())
    return new.v, m_leaf.g, out_leaf.g


# each puts one output of the stacked networks at a kink of the day step:
# the output's index, and its value given the rates
_KINKS = {
    "smooth": None,
    # a corrected rate max0(out + rate) at 0 and below: max0's flat branch
    "corrected_rate_zero": ((0, ..., 1), lambda rates: -rates[1]),
    "corrected_rate_negative": ((0, ..., 0), lambda rates: -rates[0] - 0.1),
    # a diffusion of 0, where absval's subgradient is 0
    "diffusion_zero": ((1, ..., 2), lambda rates: 0.0),
}


@pytest.mark.parametrize("kink", sorted(_KINKS))
@pytest.mark.parametrize("noisy", [True, False])
@pytest.mark.parametrize("batch", [(), (5,)], ids=["state", "batch"])
def test_day_step_node_matches_the_per_operation_graph_bit_for_bit(batch, noisy, kink):
    # random stacked networks 13 -> 8 -> 8 -> 6 and -> 3, states and noise;
    # the one node's value and its adjoints for the state and the networks'
    # output equal those of a node per operation, on the tape and off it
    rng = np.random.default_rng(7)
    for seed in range(10):
        nets = stack_nets([mlp_init(MLPConfig(13, 6, 2, 8, seed=seed)),
                           mlp_init(MLPConfig(13, 3, 2, 8, seed=seed + 100))])
        for layer in nets.biases:
            layer += rng.normal(scale=0.1, size=layer.shape)
        m = rng.dirichlet(np.ones(3), size=batch)
        rates = rng.uniform(0.0, 0.5, 3)
        out = mlp_forward_np(nets, _net_inputs(m, rates, rng.integers(0, 3, 7)))
        if _KINKS[kink]:
            index, value = _KINKS[kink]
            out[index] = value(rates)
        dB = rng.normal(size=m.shape) if noisy else None
        weight = rng.normal(size=m.shape)
        assert _same_bits(_day_step(m, rates, out, dB), day_step(m, rates, out, dB))
        fused = _day_sweep(_day_step, m, rates, out, dB, weight)
        per_op = _day_sweep(day_step, m, rates, out, dB, weight)
        for a, b in zip(fused, per_op):
            assert _same_bits(a, b)


@pytest.mark.parametrize("days", [10, 60])
def test_a_training_step_records_about_7_nodes_a_day(days, monkeypatch):
    # the paper's 8 x 32 networks, run once a day as one stacked call, and
    # the rest of the day one node; a day is about 7 nodes with its loss
    # term and the clamp, so a node per operation (21 a day) fails the budget
    ds = generate_synthetic_dataset(days, seed=1, measures=make_measure_schedule(days, seed=1),
                                    modulate=True)
    game = SIRGame(ds, SIRConfig(trajectories=10), np.array([0.25, 0.1, 0.01]))
    calls = []
    forward = BoundMLP.forward
    monkeypatch.setattr(BoundMLP, "forward", lambda self, x: calls.append(x) or forward(self, x))
    tape = ad.Tape()
    bound = {name: net.bind(tape) for name, net in initial_nets(game).items()}
    game.episode_losses(bound, [(0, 0, g) for g in range(5)])
    assert len(calls) == days - 1
    assert len(tape) <= 8 * days + 60


@st.composite
def rollout_inputs(draw):
    """Days, a batch of initial states on the simplex, and per day rates in
    [0, 2] and a measure row of levels 0-2."""
    days, batch = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    rates = draw(st.lists(st.lists(st.floats(0.0, 2.0), min_size=3, max_size=3),
                          min_size=days, max_size=days))
    measures = draw(st.lists(st.lists(st.integers(0, 2), min_size=7, max_size=7),
                             min_size=days, max_size=days))
    return days, batch, np.array(rates), np.array(measures)


@settings(max_examples=100, deadline=None)
@given(rollout_inputs(), st.floats(0.1, 10.0), st.integers(0, 2**32 - 1))
def test_training_rollout_stays_on_the_simplex(inputs, scale, seed):
    # the noisy tape rollout of training, through stacked networks whose
    # weights are scaled up to 10x: residuals and noise push rows off the
    # simplex, and the clamp must put every one back, sums within 1e-12
    days, batch, rates, measures = inputs
    rng = np.random.default_rng(seed)
    nets = [mlp_init(MLPConfig(13, 6, 1, 8, seed=seed)),
            mlp_init(MLPConfig(13, 3, 1, 8, seed=seed + 1))]
    for net in nets:
        for w in net.weights:
            w *= scale
    tape = ad.Tape()
    stacked = stack_nets([net.bind(tape) for net in nets])
    m0 = rng.dirichlet(np.ones(3), size=batch)
    dB = rng.normal(size=(batch, days, 3))
    states = [m.v for m in _rollout(m0, rates, measures, days, stacked.forward, dB)]
    assert len(states) == days
    for m in states:
        assert m.shape == (batch, 3)
        assert np.all(m >= 0.0)
        np.testing.assert_allclose(m.sum(axis=-1), 1.0, rtol=0.0, atol=1e-12)


def test_noisy_copies_are_built_when_an_epoch_first_reads_them():
    ds = generate_synthetic_dataset(15, seed=3)
    game = SIRGame(ds, SIRConfig(trajectories=100, hidden_layers=1, hidden_width=4),
                   np.array([0.25, 0.1, 0.01]))
    assert game._copies == {}
    tape = ad.Tape()
    bound = {name: net.bind(tape)
             for name, net in initial_nets(game, TrainingConfig(seed=7)).items()}
    game.episode_losses(bound, [(7, 2, g) for g in range(5)])  # epoch 2: rows 10-14
    assert sorted(game._copies) == [10, 11, 12, 13, 14]
    for k, states in game._copies.items():
        assert np.array_equal(states, augment_noise(ds, NOISE_SIGMA, seed=7 + 1000 + k).states)


def test_year_long_forecast_from_a_60_day_fit_stays_on_the_simplex():
    # past the fitted days the last rate holds; rows must stay nonnegative
    # with sums within 1e-12 of 1 (measured: within 5.6e-16)
    measures = make_measure_schedule(365, seed=3)
    ds = generate_synthetic_dataset(60, seed=3, measures=measures, modulate=True)
    rates, _ = estimate_rates(ds, window=28)
    nets, _ = train_sir(ds, TrainingConfig(epochs=1, games_per_epoch=5),
                        config=SIRConfig(trajectories=10), warm_rates=rates)
    forecasts = [integrate_kolmogorov(ds.states[0], rates, 365)]
    forecasts += [forecast(nets, rates, ds.states[0], 365, measures, noise_seed=seed)
                  for seed in range(3)]
    for traj in forecasts:
        assert traj.shape == (366, 3)
        assert np.all(traj >= 0.0)
        assert np.abs(traj.sum(axis=1) - 1.0).max() <= 1e-12


def test_forecast_zero_days_and_guards():
    ds = generate_synthetic_dataset(20, seed=8, i0=0.05)
    nets, rates, _ = _train_small(ds, 0)
    out = forecast(nets, rates, ds.states[0], 0, np.zeros((0, 7), dtype=int))
    assert out.shape == (1, 3)
    with pytest.raises(ValueError):
        forecast(nets, rates, ds.states[0], 5, np.zeros((3, 7), dtype=int))


def test_zeroed_drift_forecasts_the_rate_equation():
    # the drift network's output is a correction: at zero, the forecast is
    # the standard game's rate equation on the same daily rates
    ds = generate_synthetic_dataset(40, seed=10, measures=make_measure_schedule(40, seed=10),
                                    modulate=True)
    nets, rates, _ = _train_small(ds, 2)
    _zero(nets["drift"])
    days = len(ds) - 1
    got = forecast(nets, rates, ds.states[0], days, ds.measures)
    want = integrate_kolmogorov(ds.states[0], rates, days)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)


def test_forecast_frozen_dynamics_constant():
    ds = generate_synthetic_dataset(20, seed=9, i0=0.05)
    nets, rates, _ = _train_small(ds, 0, warm_rates=np.zeros((10, 3)))
    _zero(nets["drift"])
    out = forecast(nets, rates, np.array([0.5, 0.3, 0.2]), 10, np.zeros((10, 7), dtype=int))
    assert np.allclose(out, np.tile([0.5, 0.3, 0.2], (11, 1)))


def test_measure_schedule_valid():
    v = make_measure_schedule(50, seed=0)
    validate_measures(v)
    assert v.shape == (50, 7)


@pytest.mark.parametrize("days", [1, 2, 3])
def test_measure_schedule_of_a_short_span(days):
    # at most one block a day; before that cap, numpy raised "Cannot take a
    # larger sample than population" for most seeds
    for seed in range(20):
        v = make_measure_schedule(days, seed=seed)
        validate_measures(v)
        assert v.shape == (days, 7)


@pytest.mark.parametrize("days", [0, -3])
def test_measure_schedule_needs_a_day(days):
    with pytest.raises(ValueError, match="at least one day"):
        make_measure_schedule(days)
