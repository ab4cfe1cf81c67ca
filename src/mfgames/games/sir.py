"""SIR epidemic dynamics as a finite-state mean-field game.

The population fractions m = (m_S, m_I, m_R) evolve under a forward rate
equation driven by transmission, recovery, and vaccination rates. A drift
network with six outputs corrects the three rates and adds three state
residuals (projected to zero sum so mass stays conserved); a diffusion
network scales per-compartment noise. Restriction measures enter as a
7-entry status vector appended to the network input. Daily rates estimated
by a rolling Nelder-Mead fit warm-start the dynamics.
"""

from __future__ import annotations

import csv
import datetime
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import minimize

from ..autodiff import Tape, absval, max0, square, stack, where
from ..mfg import HistoryRow, TrainingDivergence
from ..nets import MLP, AdaBelief, MLPConfig, mlp_forward_np, mlp_init

__all__ = [
    "RateVector",
    "EpidemicDataset",
    "DataError",
    "N_MEASURES",
    "CSV_HEADER",
    "kolmogorov_drift",
    "neural_drift_np",
    "integrate_kolmogorov",
    "validate_measures",
    "ingest_csv",
    "write_dataset_csv",
    "generate_synthetic_dataset",
    "make_measure_schedule",
    "augment_noise",
    "estimate_rates",
    "SIRTrainingConfig",
    "SIRModel",
    "train_sir",
    "forecast",
    "trajectory_mse",
]

N_MEASURES = 7
CSV_HEADER = [
    "date", "confirmed", "recovered", "deaths", "vaccinations",
    "v1", "v2", "v3", "v4", "v5", "v6", "v7",
]


class DataError(ValueError):
    """Schema/validation failure while ingesting epidemic data."""


@dataclass(frozen=True)
class RateVector:
    gamma: float  # transmission, 1/day
    rho: float  # recovery, 1/day
    pi: float  # vaccination, 1/day

    def __post_init__(self):
        if self.gamma < 0 or self.rho < 0 or self.pi < 0:
            raise ValueError("rates must be nonnegative")

    def as_array(self) -> np.ndarray:
        return np.array([self.gamma, self.rho, self.pi])


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


def kolmogorov_drift(m, rates: RateVector):
    """Forward rate equation for the compartment fractions (sums to zero).

    Shared transition terms are computed once and reused so the three
    components cancel exactly up to float rounding.
    """
    t_si = rates.gamma * m[0] * m[1]
    t_rec = rates.rho * m[1]
    t_vac = rates.pi * m[0]
    return (-t_si - t_vac, t_si - t_rec, t_rec + t_vac)


def _net_inputs(m, rates: RateVector, v):
    return [m[0], m[1], m[2], rates.gamma, rates.rho, rates.pi] + [float(x) for x in v]


def neural_drift_np(m: np.ndarray, rates: RateVector, v, net: MLP) -> np.ndarray:
    """Drift with learned rate corrections and zero-sum state residuals."""
    out = mlp_forward_np(net, np.array(_net_inputs(m, rates, v)))
    g = max(rates.gamma + out[0], 0.0)
    r = max(rates.rho + out[1], 0.0)
    p = max(rates.pi + out[2], 0.0)
    resid = out[3:6] - out[3:6].mean()
    t_si = g * m[0] * m[1]
    t_rec = r * m[1]
    t_vac = p * m[0]
    return np.array([-t_si - t_vac + resid[0],
                     t_si - t_rec + resid[1],
                     t_rec + t_vac + resid[2]])


def _neural_drift_tape(m, rates: RateVector, v, bound):
    """Tape-recorded counterpart of :func:`neural_drift_np`.

    ``m`` holds the three compartment columns of a batch of states, each a
    Value of shape (batch,); returns the three drift columns.
    """
    out = bound.forward(_net_inputs(m, rates, v))
    g = max0(out[..., 0] + rates.gamma)
    r = max0(out[..., 1] + rates.rho)
    p = max0(out[..., 2] + rates.pi)
    mean_resid = (out[..., 3] + out[..., 4] + out[..., 5]) * (1.0 / 3.0)
    r0 = out[..., 3] - mean_resid
    r1 = out[..., 4] - mean_resid
    r2 = out[..., 5] - mean_resid
    t_si = g * m[0] * m[1]
    t_rec = r * m[1]
    t_vac = p * m[0]
    return (-t_si - t_vac + r0, t_si - t_rec + r1, t_rec + t_vac + r2)


def integrate_kolmogorov(m0, rates, days: int) -> np.ndarray:
    """Daily Euler integration of the pure rate equation; (days+1, 3) array."""
    m = np.asarray(m0, dtype=float).copy()
    out = [m.copy()]
    for k in range(days):
        rv = rates[k] if isinstance(rates, (list, tuple)) else rates
        dm = kolmogorov_drift(m, rv)
        m = m + np.asarray(dm)
        m = np.clip(m, 0.0, None)
        s = m.sum()
        if s > 0:
            m = m / s
        out.append(m.copy())
    return np.array(out)


# -- data ---------------------------------------------------------------------


def ingest_csv(path, population: int) -> EpidemicDataset:
    """Parse, validate, and normalize the epidemic CSV schema.

    Active infections are confirmed minus recovered minus deaths; the removed
    compartment pools recoveries, deaths, and vaccinations. Rows must form a
    strictly increasing daily sequence.
    """
    if population < 1:
        raise DataError("population must be positive")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty file: missing header") from None
        if [h.strip() for h in header] != CSV_HEADER:
            raise DataError(f"bad header: expected {','.join(CSV_HEADER)}")
        dates, states, measures, raw = [], [], [], []
        for lineno, row in enumerate(reader, start=2):
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
                    raise DataError(
                        f"row {lineno}: column v{ci + 1} must be an integer"
                    ) from None
                if lv not in (0, 1, 2):
                    raise DataError(
                        f"row {lineno}: column v{ci + 1} level {lv} outside {{0,1,2}}"
                    )
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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for date, counts, levels in zip(dataset.dates, dataset.raw, dataset.measures):
            writer.writerow([date.isoformat()] + [int(c) for c in counts]
                            + [int(x) for x in levels])


def make_measure_schedule(days: int, seed: int = 0, n_active: int = 3) -> np.ndarray:
    """A plausible measure history: a few measures switching level in blocks."""
    rng = np.random.default_rng(seed)
    v = np.zeros((days, N_MEASURES), dtype=int)
    active = rng.choice(N_MEASURES, size=min(n_active, N_MEASURES), replace=False)
    for m in active:
        k = rng.integers(2, 5)
        cuts = np.sort(rng.choice(np.arange(1, days), size=k - 1, replace=False))
        bounds = [0, *cuts.tolist(), days]
        for b0, b1 in zip(bounds[:-1], bounds[1:]):
            v[b0:b1, m] = rng.integers(0, 3)
    return v


_MEASURE_FACTORS = {0: 1.0, 1: 0.9, 2: 0.8}


def effective_rates(base: RateVector, v) -> RateVector:
    """Measure-modulated transmission: each level scales gamma multiplicatively."""
    scale = 1.0
    for level in v:
        scale *= _MEASURE_FACTORS[int(level)]
    return RateVector(base.gamma * scale, base.rho, base.pi)


def generate_synthetic_dataset(days: int, seed: int = 0,
                               rates: RateVector = RateVector(0.25, 0.1, 0.01),
                               i0: float = 0.02,
                               measures: Optional[np.ndarray] = None,
                               modulate: bool = False,
                               population: int = 1_000_000,
                               start: datetime.date = datetime.date(2020, 8, 1),
                               ) -> EpidemicDataset:
    """Ground-truth data from the pure rate equation, optionally measure-driven.

    With ``modulate`` the daily transmission rate is scaled down by active
    restriction measures, giving the benchmark signal a drift the plain model
    cannot represent. Raw counts are fabricated so fixtures round-trip through
    :func:`ingest_csv`.
    """
    if measures is None:
        measures = np.zeros((days, N_MEASURES), dtype=int)
    measures = validate_measures(measures)
    if measures.shape[0] < days:
        raise ValueError("measure schedule shorter than requested span")
    m = np.array([1.0 - i0, i0, 0.0])
    states = [m.copy()]
    cum_rec, cum_vac = 0.0, 0.0
    recs, vacs = [0.0], [0.0]
    for k in range(days - 1):
        day_rates = effective_rates(rates, measures[k]) if modulate else rates
        dm = np.asarray(kolmogorov_drift(m, day_rates))
        cum_rec += day_rates.rho * m[1]
        cum_vac += day_rates.pi * m[0]
        m = np.clip(m + dm, 0.0, None)
        m = m / m.sum()
        states.append(m.copy())
        recs.append(cum_rec)
        vacs.append(cum_vac)
    states = np.array(states)
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


def estimate_rates(dataset: EpidemicDataset, window: int = 28,
                   max_iter: int = 400) -> tuple[list[RateVector], list[bool]]:
    """Daily rates from a rolling Nelder-Mead MSE fit of the rate equation.

    Day d is fit on the window starting at d; trailing days reuse the last
    window. Candidate rates are clamped at zero inside the objective. Returns
    the per-day series and a non-convergence warning flag per day.
    """
    n = len(dataset)
    if n < window:
        raise ValueError(f"dataset length {n} shorter than window {window}")
    rates: list[RateVector] = []
    warnings: list[bool] = []
    x = np.array([0.2, 0.1, 0.05])
    last_fit: tuple[RateVector, bool] | None = None
    for d in range(n):
        w0 = min(d, n - window)
        if d <= n - window or last_fit is None:
            target = dataset.states[w0: w0 + window]

            def objective(cand):
                rv = RateVector(*np.clip(cand, 0.0, None))
                traj = integrate_kolmogorov(target[0], rv, window - 1)
                return float(np.mean((traj - target) ** 2))

            res = minimize(objective, x, method="Nelder-Mead",
                           options={"maxiter": max_iter, "xatol": 1e-8, "fatol": 1e-14})
            x = res.x
            last_fit = (RateVector(*np.clip(res.x, 0.0, None)), not res.success)
        rates.append(last_fit[0])
        warnings.append(last_fit[1])
    return rates, warnings


# -- training ------------------------------------------------------------------


@dataclass(frozen=True)
class SIRTrainingConfig:
    epochs: int = 200
    trajectories: int = 100
    batch: int = 5
    lr: float = 5e-4
    seed: int = 0
    noise_sigma: float = 0.05
    window: int = 28
    hidden_layers: int = 8
    hidden_width: int = 32
    abort_threshold: float = 1e6

    def __post_init__(self):
        if self.epochs < 0 or self.trajectories < 1 or self.batch < 1:
            raise ValueError("invalid training sizes")


@dataclass
class SIRModel:
    drift_net: Optional[MLP]  # None for the deterministic-drift ablation
    diffusion_net: MLP
    rates: list[RateVector]  # daily warm-start series
    measures: np.ndarray
    initial: np.ndarray


def _rates_for_day(rates: list[RateVector], k: int) -> RateVector:
    return rates[k] if k < len(rates) else rates[-1]


def _project_noise(sig: np.ndarray, dB: np.ndarray) -> np.ndarray:
    term = np.abs(sig) * dB
    return term - term.mean()


def train_sir(dataset: EpidemicDataset, config: SIRTrainingConfig,
              use_neural_drift: bool = True,
              warm_rates: Optional[list[RateVector]] = None):
    """Fit the learned dynamics to daily population observations.

    Per epoch a small batch of noise-augmented target trajectories is visited
    round-robin and rolled as one (batch, 3) rollout that integrates one day
    per step from the dataset's first row. The running cost is the mean
    squared discrepancy between simulated and observed fractions (no terminal
    cost), and one AdaBelief step follows per network. Returns the model and
    one :class:`HistoryRow` per epoch (game cost 0, data loss = total).
    """
    if warm_rates is None:
        warm_rates = estimate_rates(dataset, window=min(config.window, len(dataset)))[0]
    drift_net = (
        mlp_init(MLPConfig(13, 6, config.hidden_layers, config.hidden_width,
                           seed=config.seed))
        if use_neural_drift else None
    )
    diffusion_net = mlp_init(MLPConfig(13, 3, config.hidden_layers, config.hidden_width,
                                       seed=config.seed + 1))
    targets = np.array([
        augment_noise(dataset, config.noise_sigma, seed=config.seed + 1000 + k).states
        for k in range(config.trajectories)
    ])
    opts = {}
    if drift_net is not None:
        opts["drift"] = AdaBelief(drift_net.parameters(), lr=config.lr)
    opts["diffusion"] = AdaBelief(diffusion_net.parameters(), lr=config.lr)

    n_days = len(dataset) - 1
    history = []
    for epoch in range(config.epochs):
        tape = Tape()
        bound_drift = drift_net.bind(tape) if drift_net is not None else None
        bound_diff = diffusion_net.bind(tape)
        rng = np.random.default_rng(np.asarray((config.seed, epoch), dtype=np.uint64))
        rows = [(epoch * config.batch + j) % config.trajectories for j in range(config.batch)]
        target = targets[rows]
        # one (days, 3) draw per trajectory, in batch order
        dB = rng.normal(0.0, 1.0, size=(config.batch, n_days, 3))
        m = tape.value(np.tile(dataset.states[0], (config.batch, 1)))
        sq_sum = 0.0
        for k in range(n_days):
            rv = _rates_for_day(warm_rates, k)
            v = dataset.measures[k]
            cols = [m[:, c] for c in range(3)]
            if bound_drift is not None:
                dm = _neural_drift_tape(cols, rv, v, bound_drift)
            else:
                dm = kolmogorov_drift(cols, rv)
            sig = bound_diff.forward(_net_inputs(cols, rv, v))
            noise = absval(sig) * dB[:, k]
            nmean = noise.sum(axis=-1, keepdims=True) * (1.0 / 3.0)
            m = m + stack(dm) + noise - nmean
            clamp = np.any(m.v < 0.0, axis=-1, keepdims=True)
            if clamp.any():
                # rows that left the simplex are clamped and renormalised
                pos = max0(m)
                m = where(clamp, pos / pos.sum(axis=-1, keepdims=True), m)
            sq_sum = sq_sum + square(m - target[:, k + 1])
        loss = sq_sum.sum() * (0.5 / n_days) * (1.0 / config.batch)
        if not math.isfinite(loss.v):
            raise TrainingDivergence(f"non-finite loss at epoch {epoch}", epoch)
        if loss.v > config.abort_threshold:
            raise TrainingDivergence(f"loss diverged at epoch {epoch}", epoch)
        tape.backward(loss)
        if bound_drift is not None:
            opts["drift"].step(bound_drift.grad_arrays())
        opts["diffusion"].step(bound_diff.grad_arrays())
        history.append(HistoryRow(epoch, 0.0, loss.v, loss.v))

    model = SIRModel(drift_net, diffusion_net, warm_rates,
                     dataset.measures.copy(), dataset.states[0].copy())
    return model, history


def forecast(model: SIRModel, initial, days: int, v_series,
             rates: Optional[list[RateVector]] = None,
             noise_seed: Optional[int] = None) -> np.ndarray:
    """Integrate the trained dynamics forward; every state is on the simplex.

    Deterministic unless ``noise_seed`` is given, in which case the learned
    diffusion drives zero-sum noise.
    """
    v_series = validate_measures(np.asarray(v_series).reshape(-1, N_MEASURES))
    if v_series.shape[0] < days:
        raise ValueError("v_series shorter than the forecast horizon")
    if rates is None:
        rates = model.rates
    rng = np.random.default_rng(noise_seed) if noise_seed is not None else None
    m = np.asarray(initial, dtype=float).copy()
    out = [m.copy()]
    for k in range(days):
        rv = _rates_for_day(rates, k)
        v = v_series[k]
        if model.drift_net is not None:
            dm = neural_drift_np(m, rv, v, model.drift_net)
        else:
            dm = np.asarray(kolmogorov_drift(m, rv))
        m = m + dm
        if rng is not None:
            sig = mlp_forward_np(model.diffusion_net, np.array(_net_inputs(m, rv, v)))
            m = m + _project_noise(sig, rng.normal(0.0, 1.0, 3))
        m = np.clip(m, 0.0, None)
        s = m.sum()
        if s > 0:
            m = m / s
        out.append(m.copy())
    return np.array(out)


def trajectory_mse(model: SIRModel, dataset: EpidemicDataset) -> float:
    """Mean squared error of the deterministic rollout against observations."""
    traj = forecast(model, dataset.states[0], len(dataset) - 1, dataset.measures)
    return float(np.mean((traj - dataset.states) ** 2))
