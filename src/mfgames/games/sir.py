"""SIR epidemic dynamics as a finite-state mean-field game.

The population fractions m = (m_S, m_I, m_R) evolve under a forward rate
equation driven by transmission, recovery, and vaccination rates. A drift
network with six outputs corrects the three rates and adds three state
residuals (projected to zero sum so mass stays conserved); a diffusion
network scales per-compartment noise. Restriction measures enter as a
7-entry status vector appended to the network input. The daily rates are
one float array of shape (days, 3), holding (gamma, rho, pi), from the
rolling Nelder-Mead fit (:func:`estimate_rates`) to the output; past its
last row the last rate holds (:func:`_held_rates`). They warm-start the
dynamics: :func:`train_sir` takes them from its caller and returns
:func:`mfgames.mfg.train`'s networks and history, and :func:`forecast` takes
those networks and the same rates.

One day loop, :func:`_rollout`, runs the learned dynamics: on the tape for
training, where :class:`SIRGame` is trained by :func:`mfgames.mfg.train`, and
on plain arrays for :func:`forecast`. Both networks read the same 13 inputs,
so they run stacked (:func:`mfgames.nets.stack_nets`), one call a day, on
whole ``(batch, 3)`` states. The rest of the day, the drift and the noise
(:func:`_day_step`), is one tape node with a hand-written VJP, as a network
call is. On the tape a day is those two nodes and the inputs' one-layer
:func:`mfgames.autodiff.mlp` node, 4 more on a day that clamps a row back
onto the simplex; training adds 3 for the day's loss term, and has no
inputs' node on its first day, which starts from the plain first row. The
pure rate equation has one loop, on Python floats, :func:`_kolmogorov_path`,
far cheaper on three numbers: the rate fit runs it a few hundred thousand
days per fit, and :func:`integrate_kolmogorov` wraps it for the standard
game and the synthetic data. Tests pin its bits to a numpy loop over the
rate equation's transition terms.
"""

from __future__ import annotations

import csv
import datetime
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np
# numpy loads numpy.random on first use; load it with the module, so that the
# first training epoch (augment_noise, mlp_init) does not pay for the import
import numpy.random

from ..autodiff import fused, max0, mlp, plain, square, where
from ..mfg import GameInstance, TrainingConfig, train, write_csv
from ..nets import MLP, MLPConfig, mlp_forward_np, stack_nets

__all__ = [
    "EpidemicDataset",
    "DataError",
    "N_MEASURES",
    "CSV_HEADER",
    "integrate_kolmogorov",
    "validate_measures",
    "ingest_csv",
    "write_dataset_csv",
    "generate_synthetic_dataset",
    "make_measure_schedule",
    "augment_noise",
    "estimate_rates",
    "SIRConfig",
    "SIRGame",
    "train_sir",
    "forecast",
]

N_MEASURES = 7
CSV_HEADER = [
    "date", "confirmed", "recovered", "deaths", "vaccinations",
    "v1", "v2", "v3", "v4", "v5", "v6", "v7",
]


class DataError(ValueError):
    """Schema/validation failure while ingesting epidemic data."""


def validate_measures(v) -> np.ndarray:
    v = np.asarray(v)
    if v.shape[-1] != N_MEASURES:
        raise ValueError(f"measures vector must have {N_MEASURES} entries")
    if not np.all(np.isin(v, (0, 1, 2))):
        raise ValueError("measure levels must be in {0, 1, 2}")
    return v.astype(int)


@dataclass
class EpidemicDataset:
    """Daily population fractions with restriction-measure context."""

    dates: list[datetime.date]
    states: np.ndarray  # (T, 3) rows on the simplex
    measures: np.ndarray  # (T, 7) ints in {0,1,2}
    raw: Optional[np.ndarray] = None  # (T, 4) counts before normalization
    population: Optional[int] = None

    def __len__(self) -> int:
        return len(self.dates)


# The day step's fixed linear maps, as affine weights (out, in). Each entry but
# the zero-sum projection's is 0 or +-1, so those maps select and add terms
# in the rate equation's own order, without rounding.
_EMBED = np.eye(6 + N_MEASURES, 3)  # the state, first of the 13 network inputs
_RATE_OUTPUTS = np.eye(3, 6)  # the drift network's rate corrections
_ZERO_SUM = np.eye(3) - 1.0 / 3.0
_RESIDUAL_OUTPUTS = np.hstack([np.zeros((3, 3)), _ZERO_SUM])  # its residuals, zero-sum
_S_I_S = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
_I_0_0 = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
_I_0_0_BIAS = np.array([0.0, 1.0, 1.0])
# (gamma S I, rho I, pi S) -> (dS, dI, dR)
_STOICHIOMETRY = np.array([[-1.0, 0.0, -1.0], [1.0, -1.0, 0.0], [0.0, 1.0, 1.0]])


def _net_inputs(m, rates, v):
    """The 13 network inputs: the state(s) ``m`` (..., 3), then the day's
    ``rates`` (gamma, rho, pi) and measures ``v``; one affine map, a one-layer
    network node on the tape."""
    return mlp(m, [_EMBED], [np.concatenate([np.zeros(3), rates, v])])


def _day_step(m, rates, out, dB):
    """One day of the learned dynamics, before the clamp.

    ``m`` is a state (3,) or a batch of states (..., 3), ``rates`` the day's
    (gamma, rho, pi) and ``out`` the stacked networks' (networks, ..., 6)
    output on the day's inputs: ``out[0]`` is the drift network's and
    ``out[1, ..., :3]``, read only when there is noise, the diffusion
    network's. The corrected rates ``max0(out[0, ..., :3] + rates)`` scale
    the transitions ``(gamma S I, rho I, pi S)``, which the stoichiometry
    maps to (dS, dI, dR), and the residuals ``out[0, ..., 3:]``, projected to
    zero sum, are added. ``dB`` is the day's (..., 3) standard normals, or
    None for no noise: the diffusion's absolute value scales it, and its
    zero-sum projection is added. The transitions keep the rate equation's
    order of operations, so with a zero drift network and no noise the step
    is a day of the pure rate equation (:func:`_kolmogorov_path`) before its
    clamp, bit for bit.

    Generic over arrays and tape Values like :func:`mfgames.autodiff.mlp`:
    on the tape it is one :func:`mfgames.autodiff.fused` node, parents ``m``
    and ``out``. Its forward pass and VJP use the expressions of a node per
    operation (the affine maps, ``max0``, ``absval``, the products and
    sums), and the VJP sums each adjoint in the order that graph's sweep
    would, so the adjoints are bit for bit the same.
    """
    mv, ov = plain(m), plain(out)
    drift = ov[0]
    pre = drift @ _RATE_OUTPUTS.mT + rates
    corrected = np.where(pre > 0.0, pre, 0.0)
    sis = mv @ _S_I_S.mT + 0.0
    t_rate = corrected * sis
    i00 = mv @ _I_0_0.mT + _I_0_0_BIAS
    transitions = t_rate * i00
    new = mv + ((transitions @ _STOICHIOMETRY.mT + 0.0)
                + (drift @ _RESIDUAL_OUTPUTS.mT + 0.0))
    if dB is not None:
        diffusion = ov[1, ..., :3]
        new = new + ((np.abs(diffusion) * dB) @ _ZERO_SUM.mT + 0.0)

    def vjp_all(g):
        # the per-operation graph's sweep, from the last operation back
        g_transitions = g @ _STOICHIOMETRY
        g_t_rate = g_transitions * i00
        g_m = g + (g_transitions * t_rate) @ _I_0_0
        g_m = g_m + (g_t_rate * corrected) @ _S_I_S
        g_out = np.zeros(ov.shape)
        slope = (pre > 0.0) * 1.0
        g_out[0] = g @ _RESIDUAL_OUTPUTS + (g_t_rate * sis * slope) @ _RATE_OUTPUTS
        if dB is not None:  # scattered on its own and added, as that graph sums the slices
            g_noise = np.zeros(ov.shape)
            g_noise[1, ..., :3] = (g @ _ZERO_SUM) * dB * np.sign(diffusion)
            g_out = g_noise + g_out
        return g_m, g_out

    return fused("sir_day", new, (m, out), vjp_all)


def _kolmogorov_path(m0, day_rates, days: int) -> list:
    """Daily Euler steps of the pure rate equation on Python floats.

    ``m0`` is three floats and ``day_rates[k]`` day k's ``(gamma, rho, pi)``.
    Returns the flat list ``[s0, i0, r0, s1, i1, r1, ...]`` of ``days + 1``
    states. The transitions ``gamma S I``, ``rho I`` and ``pi S`` are each
    computed once and shared, so the day's three changes sum to zero up to
    rounding. This is the rate fit's inner loop, on floats because on three
    numbers a call per day costs more than the step.
    The clamp is ``max(x, 0.0)``: it keeps NaN, as ``np.clip`` does, and
    also -0.0, which ``np.clip`` turns into 0.0 (-0.0 needs -0.0 rates, and
    the fit's clipped candidates are never -0.0). A state is renormalised
    only when its sum is > 0.
    """
    s, i, r = m0
    path = [s, i, r]
    for k in range(days):
        gamma, rho, pi = day_rates[k]
        t_si = gamma * s * i
        t_rec = rho * i
        t_vac = pi * s
        s = s + (-t_si - t_vac)
        i = i + (t_si - t_rec)
        r = r + (t_rec + t_vac)
        if s < 0.0:
            s = 0.0
        if i < 0.0:
            i = 0.0
        if r < 0.0:
            r = 0.0
        total = s + i + r
        if total > 0:
            s, i, r = s / total, i / total, r / total
        path += (s, i, r)
    return path


def integrate_kolmogorov(m0, rates, days: int) -> np.ndarray:
    """Daily Euler integration of the pure rate equation; (days+1, 3) array.

    ``rates`` is one (3,) row of (gamma, rho, pi) or a (k, 3) array of daily
    rows, held by :func:`_held_rates`. The steps run on Python floats in
    :func:`_kolmogorov_path`, which on three numbers is several times cheaper
    than numpy and rounds the same.
    """
    m = np.asarray(m0, dtype=float).tolist()
    path = _kolmogorov_path(m, _held_rates(rates, days).tolist(), days)
    return np.array(path).reshape(days + 1, 3)


def _held_rates(rates, days: int) -> np.ndarray:
    """Day k's (gamma, rho, pi) for k < ``days``, a (days, 3) array, from a
    (3,) row or a (k, 3) array; the last row holds past the array's end."""
    rates = np.asarray(rates, dtype=float).reshape(-1, 3)
    return rates[np.minimum(np.arange(days), len(rates) - 1)]


# -- data ---------------------------------------------------------------------


def ingest_csv(path, population: int) -> EpidemicDataset:
    """Parse, validate, and normalize the epidemic CSV schema.

    Active infections are confirmed minus recovered minus deaths; the removed
    compartment pools recoveries, deaths, and vaccinations. Rows must form a
    strictly increasing daily sequence.
    """
    if population < 1:
        raise DataError("population must be positive")
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as err:
        raise DataError(f"cannot read {path}: {err}") from None
    if not rows:
        raise DataError("empty file: missing header")
    if [h.strip() for h in rows[0]] != CSV_HEADER:
        raise DataError(f"bad header: expected {','.join(CSV_HEADER)}")
    dates, states, measures, raw = [], [], [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(CSV_HEADER):
            raise DataError(f"row {lineno}: expected {len(CSV_HEADER)} fields")
        try:
            date = datetime.date.fromisoformat(row[0].strip())
        except ValueError:
            raise DataError(f"row {lineno}: bad ISO date {row[0]!r}") from None
        try:
            counts = [int(x) for x in row[1:5]]
        except ValueError:
            raise DataError(f"row {lineno}: counts must be integers") from None
        if any(c < 0 for c in counts):
            raise DataError(f"row {lineno}: negative count")
        levels = []
        for ci, x in enumerate(row[5:12]):
            try:
                lv = int(x)
            except ValueError:
                raise DataError(f"row {lineno}: column v{ci + 1} must be an integer") from None
            if lv not in (0, 1, 2):
                raise DataError(f"row {lineno}: column v{ci + 1} level {lv} outside {{0,1,2}}")
            levels.append(lv)
        if dates:
            if date <= dates[-1]:
                raise DataError(f"row {lineno}: dates must be strictly increasing")
            if (date - dates[-1]).days != 1:
                raise DataError(f"row {lineno}: missing day before {date.isoformat()}")
        confirmed, recovered, deaths, vacc = counts
        active = confirmed - recovered - deaths
        removed = recovered + deaths + vacc
        if active < 0:
            raise DataError(f"row {lineno}: recovered+deaths exceed confirmed")
        m_i = active / population
        m_r = removed / population
        m_s = 1.0 - m_i - m_r
        if m_s < 0:
            raise DataError(f"row {lineno}: counts exceed the population")
        dates.append(date)
        states.append([m_s, m_i, m_r])
        measures.append(levels)
        raw.append(counts)
    if not dates:
        raise DataError("no data rows")
    return EpidemicDataset(dates, np.array(states), np.array(measures, dtype=int),
                           np.array(raw), population)


def write_dataset_csv(dataset: EpidemicDataset, path) -> None:
    """Emit a dataset with raw counts back into the ingest schema."""
    if dataset.raw is None:
        raise ValueError("dataset carries no raw counts to serialize")
    write_csv(path, CSV_HEADER, [
        [(date.isoformat(), *(str(int(c)) for c in counts), *(str(int(x)) for x in levels))
         for date, counts, levels in zip(dataset.dates, dataset.raw, dataset.measures)]
    ])


def make_measure_schedule(days: int, seed: int = 0, n_active: int = 3) -> np.ndarray:
    """A plausible measure history: a few measures switching level in blocks.

    Each active measure holds 2 to 4 blocks, and at most one a day.
    """
    if days < 1:
        raise ValueError("a measure schedule needs at least one day")
    rng = np.random.default_rng(seed)
    v = np.zeros((days, N_MEASURES), dtype=int)
    active = rng.choice(N_MEASURES, size=min(n_active, N_MEASURES), replace=False)
    for m in active:
        k = min(rng.integers(2, 5), days)
        cuts = np.sort(rng.choice(np.arange(1, days), size=k - 1, replace=False))
        bounds = [0, *cuts.tolist(), days]
        for b0, b1 in zip(bounds[:-1], bounds[1:]):
            v[b0:b1, m] = rng.integers(0, 3)
    return v


_MEASURE_FACTORS = np.array([1.0, 0.9, 0.8])  # gamma's factor at each measure level


def generate_synthetic_dataset(days: int, seed: int = 0,
                               rates=(0.25, 0.1, 0.01),
                               i0: float = 0.02,
                               measures: Optional[np.ndarray] = None,
                               modulate: bool = False,
                               population: int = 1_000_000,
                               start: datetime.date = datetime.date(2020, 8, 1),
                               ) -> EpidemicDataset:
    """Ground-truth data from the pure rate equation, optionally measure-driven.

    ``rates`` is the (gamma, rho, pi) of every day. With ``modulate`` each
    day's transmission rate is scaled down by its active restriction
    measures, one factor per measure, giving the benchmark signal a drift the
    plain model cannot represent. The states are :func:`integrate_kolmogorov`'s
    path on the daily rates. Raw counts are fabricated so fixtures round-trip
    through :func:`ingest_csv`: the cumulative recoveries and vaccinations sum
    each day's ``rho I`` and ``pi S`` in day order. ``seed`` is not read.
    """
    if days < 1:
        raise ValueError("a dataset needs at least one day")
    if measures is None:
        measures = np.zeros((days, N_MEASURES), dtype=int)
    measures = validate_measures(measures)
    if measures.shape[0] < days:
        raise ValueError("measure schedule shorter than requested span")
    day_rates = _held_rates(rates, days - 1)
    if modulate:
        scale = np.ones(days - 1)
        for factors in _MEASURE_FACTORS[measures[:days - 1]].T:  # in measure order
            scale = scale * factors
        day_rates[:, 0] = day_rates[:, 0] * scale
    states = integrate_kolmogorov([1.0 - i0, i0, 0.0], day_rates, days - 1)
    flows = np.zeros((days, 2))
    flows[1:, 0] = day_rates[:, 1] * states[:-1, 1]
    flows[1:, 1] = day_rates[:, 2] * states[:-1, 0]
    recs, vacs = np.cumsum(flows, axis=0).T
    dates = [start + datetime.timedelta(days=k) for k in range(days)]
    raw = np.zeros((days, 4), dtype=int)
    for k in range(days):
        recovered = int(round(recs[k] * population))
        vacc = int(round(vacs[k] * population))
        active = int(round(states[k, 1] * population))
        raw[k] = [active + recovered, recovered, 0, vacc]
    return EpidemicDataset(dates, states, measures[:days].copy(), raw, population)


def augment_noise(dataset: EpidemicDataset, sigma: float, seed: int = 0) -> EpidemicDataset:
    """Copy with Gaussian noise scaled to each component's observed range.

    The noise is drawn on the simplex tangent space: a zero-row-sum Gaussian
    whose marginal stds are exactly sigma * range(component). This keeps row
    sums at one without a renormalization that would shrink the injected
    noise; the covariance is PSD because the removed compartment's range never
    exceeds the other two ranges combined. Rows are still clamped at zero and
    renormalized in the rare case a small compartment goes negative.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    states = dataset.states.copy()
    if sigma > 0:
        rng = np.random.default_rng(seed)
        s2 = (sigma * (states.max(axis=0) - states.min(axis=0))) ** 2
        cov = np.array([
            [s2[0], (s2[2] - s2[0] - s2[1]) / 2, (s2[1] - s2[0] - s2[2]) / 2],
            [(s2[2] - s2[0] - s2[1]) / 2, s2[1], (s2[0] - s2[1] - s2[2]) / 2],
            [(s2[1] - s2[0] - s2[2]) / 2, (s2[0] - s2[1] - s2[2]) / 2, s2[2]],
        ])
        noise = rng.multivariate_normal(np.zeros(3), cov, size=states.shape[0],
                                        method="eigh")
        states = states + noise
        clipped = states < 0
        if np.any(clipped):
            states = np.clip(states, 0.0, None)
            sums = states.sum(axis=1, keepdims=True)
            sums[sums == 0] = 1.0
            states = states / sums
    return EpidemicDataset(list(dataset.dates), states, dataset.measures.copy(),
                           None if dataset.raw is None else dataset.raw.copy(),
                           dataset.population)


# -- rate estimation -----------------------------------------------------------


def _nelder_mead(f, x0, max_iter: int, xatol: float, fatol: float):
    """Minimize ``f`` from ``x0`` by the Nelder-Mead simplex method.

    Repeats scipy's non-adaptive, unbounded ``_minimize_neldermead`` op for
    op (reflection 1, expansion 2, contraction 0.5, shrink 0.5; at most
    ``max_iter`` iterations, no cap on evaluations), so it gives the same
    iterates bit for bit. Returns ``(x, converged)``.
    """
    x0 = np.asarray(x0, dtype=float)
    n = len(x0)
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = x0.copy()
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.array([f(v) for v in sim])
    for _ in range(2):  # scipy sorts twice here; argsort need not be stable on ties
        order = np.argsort(fsim)
        sim, fsim = np.take(sim, order, 0), np.take(fsim, order, 0)
    iterations = 1
    while iterations < max_iter:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = f(xc)
                shrink = not fxc <= fxr
            else:  # inside contraction
                xc = 0.5 * xbar + 0.5 * sim[-1]
                fxc = f(xc)
                shrink = not fxc < fsim[-1]
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
            else:
                sim[-1], fsim[-1] = xc, fxc
        iterations += 1
        order = np.argsort(fsim)
        sim, fsim = np.take(sim, order, 0), np.take(fsim, order, 0)
    return sim[0], iterations < max_iter


def _window_objective(target: np.ndarray):
    """The rolling fit's objective on one ``(window, 3)`` slice of the data.

    The mean squared error of the rate equation run from the slice's first
    row, with the candidate rates clamped at zero. The fit calls this several
    thousand times, so it steps :func:`_kolmogorov_path` directly, on the
    clamped candidate's floats.
    """
    window = len(target)
    m0 = target[0].tolist()

    def objective(cand):
        day_rates = [np.clip(cand, 0.0, None).tolist()] * (window - 1)
        path = _kolmogorov_path(m0, day_rates, window - 1)
        return float(np.mean((np.array(path).reshape(window, 3) - target) ** 2))
    return objective


RATE_FIT_MAX_ITER = 400  # Nelder-Mead iterations per window of the rate fit


def estimate_rates(dataset: EpidemicDataset, window: int = 28) -> tuple[np.ndarray, np.ndarray]:
    """Daily rates from a rolling Nelder-Mead MSE fit of the rate equation.

    Day d is fit on the window starting at d, each fit warm-started from the
    last; the ``window - 1`` trailing days reuse the last window's fit.
    Candidate rates are clamped at zero inside the objective. Returns the
    clamped fits, a (days, 3) array of (gamma, rho, pi), and a (days,) bool
    array that flags the days whose fit did not converge. A window needs
    at least two days: over one day the objective compares the day with
    itself, so every candidate scores 0.
    """
    n = len(dataset)
    if not 2 <= window <= n:
        raise ValueError(f"window {window} must lie in [2, dataset length {n}]")
    fits, unconverged = [], []
    x = np.array([0.2, 0.1, 0.05])
    for w0 in range(n - window + 1):
        objective = _window_objective(dataset.states[w0: w0 + window])
        x, converged = _nelder_mead(objective, x, RATE_FIT_MAX_ITER, xatol=1e-8, fatol=1e-14)
        fits.append(x)
        unconverged.append(not converged)
    return (_held_rates(np.clip(fits, 0.0, None), n),
            np.array(unconverged + unconverged[-1:] * (window - 1)))


# -- training ------------------------------------------------------------------


# noise of the augmented copies, relative to each compartment's range
NOISE_SIGMA = 0.05


@dataclass(frozen=True)
class SIRConfig:
    """What SIR training takes beyond :class:`mfgames.mfg.TrainingConfig`."""

    trajectories: int = 100  # noise-augmented copies of the observed series
    hidden_layers: int = 8
    hidden_width: int = 32

    def __post_init__(self):
        if self.trajectories < 1:
            raise ValueError("trajectories must be positive")
        if self.hidden_layers < 1 or self.hidden_width < 1:
            raise ValueError("hidden_layers and hidden_width must be positive")


def _rollout(m, rates, measures, days: int, nets, dB):
    """The learned dynamics from ``m``; yields the state after each day.

    ``m`` is a (3,) state or a (batch, 3) batch, an ndarray or a tape Value:
    training runs this on the tape, :func:`forecast` on plain arrays. Day k
    uses row k of ``rates`` (held by :func:`_held_rates`) and the measures
    ``measures[k]``. ``nets`` is the forward function of the drift and
    diffusion networks stacked (:func:`mfgames.nets.stack_nets`), called once
    a day on the day's inputs; :func:`_day_step` applies its output to the
    day's starting state. ``dB`` holds one standard normal triple per day
    (``dB[..., k, :]``), or is None to switch the noise off. Rows that leave
    the simplex are clamped at zero and renormalised. On the tape a day is
    the inputs' affine node, the network node and the day step's node, plus
    four nodes on a day that clamps.
    """
    day_rates = _held_rates(rates, days)
    for k in range(days):
        rv = day_rates[k]
        out = nets(_net_inputs(m, rv, measures[k]))
        m = _day_step(m, rv, out, None if dB is None else dB[..., k, :])
        clamp = np.any(plain(m) < 0.0, axis=-1, keepdims=True)
        if clamp.any():
            pos = max0(m)
            m = where(clamp, pos / pos.sum(axis=-1, keepdims=True), m)
        yield m


class SIRGame(GameInstance):
    """Neural SIR fit to noise-augmented copies of the observed trajectory.

    The copies carry noise of ``NOISE_SIGMA`` times each compartment's range
    (:func:`augment_noise`); both networks, drift and diffusion, are trained.
    A copy is built the first time an epoch reads it; each has its own seed,
    so the order they are built in does not matter. An epoch's episodes are
    ``games_per_epoch`` target rows, visited round-robin over the
    ``trajectories`` copies, rolled as one (batch, 3) rollout from the
    dataset's first row. The noise of the whole batch is one
    (batch, days, 3) draw from the epoch's (seed, epoch) stream. The data loss
    is the mean squared discrepancy between simulated and observed fractions
    (no terminal cost); the game cost is the float 0.0. Copy ``k`` is seeded
    with the episodes' seed plus ``1000 + k``, so a game trains at one seed.
    """

    def __init__(self, dataset: EpidemicDataset, config: SIRConfig, warm_rates: np.ndarray):
        if len(dataset) < 2:
            raise DataError("training needs at least two days of data")
        self.dataset = dataset
        self.rates = warm_rates
        self.config = config
        self._copies: dict[int, np.ndarray] = {}

    def net_configs(self) -> dict[str, MLPConfig]:
        c = self.config
        return {"drift": MLPConfig(13, 6, c.hidden_layers, c.hidden_width),
                "diffusion": MLPConfig(13, 3, c.hidden_layers, c.hidden_width)}

    def _target(self, k: int, seed: int) -> np.ndarray:
        """The states of noisy copy ``k``, built on first use from training's ``seed``."""
        if k not in self._copies:
            self._copies[k] = augment_noise(self.dataset, NOISE_SIGMA,
                                            seed=seed + 1000 + k).states
        return self._copies[k]

    def episode_losses(self, bound, episode_seeds):
        seed, epoch, _g = episode_seeds[0]
        batch = len(episode_seeds)
        days = len(self.dataset) - 1
        rows = [(epoch * batch + g) % self.config.trajectories for _s, _e, g in episode_seeds]
        target = np.array([self._target(k, seed) for k in rows])
        rng = np.random.default_rng(np.asarray((seed, epoch), dtype=np.uint64))
        dB = rng.normal(0.0, 1.0, size=(batch, days, 3))
        m0 = np.tile(self.dataset.states[0], (batch, 1))
        nets = stack_nets([bound["drift"], bound["diffusion"]])
        states = _rollout(m0, self.rates, self.dataset.measures, days, nets.forward, dB)
        # each day's loss term is recorded right after its state
        sq_sum = 0.0
        for k, m in enumerate(states):
            sq_sum = sq_sum + square(m - target[:, k + 1])
        return 0.0, sq_sum.sum() * (0.5 / days) * (1.0 / batch)


def train_sir(dataset: EpidemicDataset, training: TrainingConfig,
              config: SIRConfig = SIRConfig(), *, warm_rates: np.ndarray):
    """Fit the learned dynamics to daily population observations.

    Trains :class:`SIRGame` through :func:`mfgames.mfg.train`, one AdaBelief
    step per network per epoch, from the daily ``warm_rates`` (a (days, 3)
    array as :func:`estimate_rates` fits them, or one (3,) row). Of
    ``training`` it uses ``epochs``, ``games_per_epoch`` (the target rows per
    epoch), ``lr`` and ``seed`` (of the networks ``train`` builds, ``seed``
    and ``seed + 1``, of the noisy copies and of the epochs' noise);
    ``data_loss_weight`` scales the one loss term. Returns what ``train``
    returns: the networks, ``"drift"`` and ``"diffusion"``, and one
    :class:`mfgames.mfg.HistoryRow` per epoch (game cost 0, data loss =
    total). Raises :class:`DataError` on a dataset of fewer than two days.
    """
    return train(SIRGame(dataset, config, warm_rates), training)


def forecast(nets: dict[str, MLP], rates, initial, days: int, v_series,
             noise_seed: Optional[int] = None) -> np.ndarray:
    """Roll the trained dynamics forward; a (days+1, 3) array on the simplex.

    ``nets`` are :func:`train_sir`'s networks and ``rates`` the daily rates
    they were trained from (held by :func:`_held_rates`). Deterministic
    unless ``noise_seed`` is given, in which case the learned diffusion
    drives zero-sum noise, one (days, 3) draw from that seed.
    """
    v_series = validate_measures(np.asarray(v_series).reshape(-1, N_MEASURES))
    if v_series.shape[0] < days:
        raise ValueError("v_series shorter than the forecast horizon")
    dB = (None if noise_seed is None
          else np.random.default_rng(noise_seed).normal(0.0, 1.0, (days, 3)))
    m = np.asarray(initial, dtype=float)
    stacked = stack_nets([nets["drift"], nets["diffusion"]])
    return np.array([m, *_rollout(m, rates, v_series, days,
                                  partial(mlp_forward_np, stacked), dB)])
