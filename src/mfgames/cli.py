"""Unified command-line front end for the four games.

    mfgames GAME [--config FILE] [--KEY VALUE ...]
    mfgames run --game GAME [--config FILE] [--KEY VALUE ...]

Runs are fully determined by (game, mode, seed, parameters): outputs are CSV
trajectories, loss histories, network checkpoints, histogram-ready plot data,
and a manifest carrying the echoed configuration plus a content hash of every
emitted byte. Meeting and El Farol return a trajectory of named per-turn
columns, which the CLI hands to the game's ``write_history`` as it is; their
manifests also carry ``exploitability`` of the final turn of the game's
``VALUE`` column, the agents' mean gain from best responses, outside the hash;
SIR manifests carry ``rate_fit_window``, the days each window of the rate fit
spans, and ``rate_fit_unconverged``, the dates whose fit did not converge.
Exit codes: 0 ok, 2 configuration (including game parameters out of range,
numbers that are not finite, a config file that does not parse or is not
UTF-8, an ``out`` that cannot be made a directory, and an output file that
cannot be written), 3 data (including a data file that cannot be read or
decoded), 4 training divergence or a non-finite integration step.

A config file is a flat INI file. Its [run] section takes mode, seed, out,
epochs (not dice) and data (sir only), and optionally the game the file is
for; each game's own section takes that game's keys, and the sections of
other games are skipped:

    [run]
    game = sir
    seed = 3

    [sir]
    window = 14

Each key a game takes resolves to its flag, else the config file, else the
game's default. A key the game does not take, as a flag or in the file, is
a configuration error. Each key sets one field of the game's config or of
the training config (``agents`` sets ``n_agents``), except mode, out, data,
population, window, rounds, rounds_per_game and theta, which the game's
runner reads itself. Dice plays whole games: ``rounds`` must be a positive
multiple of ``rounds_per_game``.

numpy's BLAS runs on one thread unless ``OPENBLAS_NUM_THREADS`` is set in
the environment (importing :mod:`mfgames` sets it to 1 when unset): the
products here are too small to gain from a thread pool, and starting one
costs every run CPU time. Outputs are the same bytes at any thread count.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import json
import sys
from functools import partial
from itertools import repeat
from pathlib import Path

from .games import dice as dice_mod
from .games import elfarol as elfarol_mod
from .games import meeting as meeting_mod
from .games import sir as sir_mod
from .mfg import TrainingConfig, TrainingDivergence, float_cells, write_csv, write_history_csv
from .nets import save_checkpoint
from .sde import IntegrationError

__all__ = ["main", "run_experiment", "emit_histogram", "ConfigError"]

GAMES = ("meeting", "elfarol", "sir", "dice")
MODES = ("standard", "neural")


class ConfigError(ValueError):
    """Invalid or unknown experiment configuration."""


# One row per key: (type, default per game, where, field). A game takes the
# key only if the row gives it a default. ``where`` is "run" for a key of the
# config file's [run] section, "flag" for a key of the game's own section
# that is also a flag, and "file" for one that is not; [run] keys are flags.
# ``field`` is the one it sets, of the game's config or of TrainingConfig;
# None for a key the game's runner reads itself.
_KEYS: dict[str, tuple] = {
    "mode": (str, dict.fromkeys(GAMES, "standard"), "run", None),
    "seed": (int, dict.fromkeys(GAMES, 0), "run", "seed"),
    "out": (str, dict.fromkeys(GAMES, "out"), "run", None),
    "epochs": (int, {"meeting": 20, "elfarol": 20, "sir": 10}, "run", "epochs"),
    "data": (str, {"sir": None}, "run", None),
    "agents": (int, {"meeting": 64, "elfarol": 64}, "flag", "n_agents"),
    "turns": (int, {"meeting": 15, "elfarol": 15}, "file", "turns"),
    "quorum": (float, {"meeting": 0.9}, "file", "quorum"),
    "noise_std": (float, {"meeting": 1.0}, "file", "noise_std"),
    "sigma": (float, {"meeting": 0.1}, "file", "sigma"),
    "drift_gain": (float, {"meeting": 1.0, "elfarol": 0.3}, "file", "drift_gain"),
    "smoothing": (float, {"meeting": 0.6}, "file", "smoothing"),
    "scheduled": (float, {"meeting": 15.0}, "file", "scheduled"),
    "init_mean": (float, {"meeting": 12.0}, "file", "init_mean"),
    "games_per_epoch": (int, {"meeting": 10, "elfarol": 10}, "file", "games_per_epoch"),
    "data_weight": (float, {"meeting": 1.0, "elfarol": 1.0}, "file", "data_loss_weight"),
    "threshold": (float, {"elfarol": 0.9}, "flag", "threshold"),
    "population": (int, {"sir": 1_000_000}, "flag", None),
    "trajectories": (int, {"sir": 100}, "flag", "trajectories"),
    "batch": (int, {"sir": 5}, "file", "games_per_epoch"),
    "window": (int, {"sir": 28}, "file", None),
    "layers": (int, {"sir": 8}, "file", "hidden_layers"),
    "width": (int, {"sir": 32}, "file", "hidden_width"),
    "lr": (float, {"sir": 5e-4, "dice": 5e-4}, "file", "lr"),
    "players": (int, {"dice": 30}, "flag", "n_players"),
    "dice": (int, {"dice": 15}, "flag", "dice_per_player"),
    "faces": (int, {"dice": 6}, "file", "n_faces"),
    "rounds": (int, {"dice": 100}, "flag", None),
    "rounds_per_game": (int, {"dice": 10}, "file", None),
    "lambda0": (float, {"dice": 0.0}, "flag", "bluff0"),
    "theta": (str, {"dice": ""}, "flag", None),
    "likelihood": (float, {"dice": 0.3}, "file", "likelihood"),
}


def _coerce(key: str, typ, value) -> object:
    """A flag's or config file's string as the key's type."""
    try:
        return typ(value)
    except (TypeError, ValueError):
        raise ConfigError(f"key '{key}' expects {typ.__name__}, got {value!r}") from None


def load_config_file(path: str, game: str) -> dict:
    """The keys a config file gives ``game``, typed (see the module docstring).

    A file that does not parse, or is not UTF-8, is a configuration error.
    """
    parser = configparser.ConfigParser()
    try:
        found = parser.read(path, encoding="utf-8")
        sections = {name: parser.items(name) for name in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as err:
        raise ConfigError(f"config file {path}: {err}") from None
    if not found:
        raise ConfigError(f"config file not found: {path}")
    out: dict = {}
    for section, items in sections.items():
        if section not in ("run", *GAMES):
            raise ConfigError(f"unknown section '[{section}]'")
        if section not in ("run", game):
            continue
        for key, value in items:
            if section == "run" and key == "game":
                if value != game:
                    raise ConfigError(f"config file is for game '{value}', not '{game}'")
                continue
            typ, defaults, where, _field = _KEYS.get(key, (None, {}, None, None))
            if game not in defaults or (where == "run") != (section == "run"):
                raise ConfigError(f"unknown key '{key}' in [{section}] for game '{game}'")
            out[key] = _coerce(key, typ, value)
    return out


def _sha256(path: Path) -> str:
    # in fixed chunks, so hashing a large output does not set the peak memory
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            h.update(chunk)
    return h.hexdigest()


def emit_histogram(path):
    """Long-format plot data ``turn,value,weight``; weights per turn sum to 1.

    Returns the file as ``(path, header, block)`` for a game's
    ``write_history``, which writes it in step with the game's trajectory
    from the same value cells: ``block(turn, cells)`` gives a turn's rows
    from its values as :func:`mfgames.mfg.float_cells` formatted them.
    Values and weights are ``repr`` floats and rows end in ``\\r\\n``; see
    :func:`mfgames.mfg.write_csv`.
    """
    return path, ["turn", "value", "weight"], _histogram_block


def _histogram_block(turn: int, cells: list[str]):
    if not cells:
        raise ValueError(f"turn {turn} has no values")
    return zip(repeat(str(turn)), cells, repeat(repr(1.0 / len(cells))))


def _config(cls, p: dict, **extra):
    """``cls`` from ``extra`` and the keys of ``p`` naming its fields, or ConfigError if invalid."""
    names = {field.name for field in dataclasses.fields(cls)}
    kwargs = {_KEYS[key][3]: value for key, value in p.items() if _KEYS[key][3] in names}
    try:
        return cls(**kwargs, **extra)
    except ValueError as err:
        raise ConfigError(f"{cls.__name__}: {err}") from None


def _write_checkpoints(out: Path, nets: dict) -> list[Path]:
    """One ``checkpoint_<name>.json`` per network."""
    written = [out / f"checkpoint_{name}.json" for name in nets]
    for net, path in zip(nets.values(), written):
        save_checkpoint(net, path)
    return written


# The agent games, meeting and El Farol: per game its module, its config
# class and its observations from the seed.
_AGENT_GAMES = {
    "meeting": (
        meeting_mod,
        meeting_mod.MeetingConfig,
        lambda seed: [meeting_mod.generate_observations(seed=seed * 1000 + k) for k in range(10)],
    ),
    "elfarol": (
        elfarol_mod,
        elfarol_mod.BarConfig,
        lambda seed: elfarol_mod.generate_attendance_observations(seed=seed),
    ),
}


def _run_agents(game: str, p: dict, out: Path, manifest: dict) -> list[Path]:
    module, config_cls, observations = _AGENT_GAMES[game]
    config = _config(config_cls, p)
    training = _config(TrainingConfig, p)
    written = []
    if p["mode"] == "standard":
        trajectory = module.run_standard(config, seed=p["seed"])
    else:
        nets, history = module.run_neural(config, observations(p["seed"]), training)
        trajectory = module.simulate_neural(config, nets, seed=p["seed"])
        written = [out / "loss_history.csv", *_write_checkpoints(out, nets)]
        write_history_csv(written[0], history)
    manifest["exploitability"] = module.exploitability(trajectory[module.VALUE][-1], config)
    module.write_history(out / "trajectory.csv", trajectory, emit_histogram(out / "plotdata.csv"))
    return written + [out / "trajectory.csv", out / "plotdata.csv"]


def _run_sir(p: dict, out: Path, manifest: dict) -> list[Path]:
    if not p["data"]:
        raise ConfigError("sir requires --data FILE")
    if p["population"] < 1:
        raise ConfigError("population must be positive")
    # in both modes, so that a bad config fails, and before any data is read
    training = _config(TrainingConfig, p)
    if p["window"] < 2:
        raise ConfigError("window must be at least 2 days")
    config = _config(sir_mod.SIRConfig, p)
    dataset = sir_mod.ingest_csv(p["data"], population=p["population"])
    if len(dataset) < 2:
        raise sir_mod.DataError("the rate fit needs at least two days of data")
    window = min(p["window"], len(dataset))
    rates, unconverged = sir_mod.estimate_rates(dataset, window=window)
    dates = [date.isoformat() for date in dataset.dates]
    manifest["rate_fit_unconverged"] = [d for d, no in zip(dates, unconverged) if no]
    manifest["rate_fit_window"] = window
    days = len(dataset) - 1
    written = []
    if p["mode"] == "standard":
        # the pure rate equation driven by the daily fitted rates
        traj = sir_mod.integrate_kolmogorov(dataset.states[0], rates, days)
    else:
        nets, history = sir_mod.train_sir(dataset, training, config=config, warm_rates=rates)
        traj = sir_mod.forecast(nets, rates, dataset.states[0], days, dataset.measures)
        written = [out / "loss_history.csv", *_write_checkpoints(out, nets)]
        write_history_csv(written[0], history)

    rates_path = out / "rates.csv"
    write_csv(rates_path, ["date", "gamma", "rho", "pi"], [
        [(d, *float_cells(row)) for d, row in zip(dates, rates)]
    ])
    forecast_path = out / "forecast.csv"
    write_csv(forecast_path, ["date", "m_S", "m_I", "m_R", "source"], [
        [(d, *float_cells(row), source) for d, row in zip(dates, states)]
        for states, source in ((dataset.states, "observed"), (traj, "predicted"))
    ])
    return [rates_path, forecast_path] + written


def _run_dice(p: dict, out: Path, manifest: dict) -> list[Path]:
    faces = p["faces"]
    try:
        theta = (
            tuple(float(x) for x in p["theta"].split(","))
            if p["theta"]
            else (1.0 / max(faces, 1),) * faces  # empty below 1 face; DiceConfig rejects it
        )
    except ValueError:
        raise ConfigError(f"theta must be comma-separated numbers: {p['theta']!r}") from None
    config = _config(dice_mod.DiceConfig, p, theta=theta)
    rounds, rounds_per_game = p["rounds"], p["rounds_per_game"]
    if rounds_per_game < 1 or rounds < 1 or rounds % rounds_per_game:
        raise ConfigError(f"rounds ({rounds}) must be a positive multiple of "
                          f"rounds_per_game ({rounds_per_game})")
    nets, records = dice_mod.train_dice(
        config, _config(TrainingConfig, p), games=rounds // rounds_per_game,
        rounds_per_game=rounds_per_game, neural=(p["mode"] == "neural"),
    )
    dice_mod.write_round_history(out / "history.csv", records)
    dice_mod.write_analysis_csv(out / "analysis.csv", dice_mod.analyze(records))
    return [out / "history.csv", out / "analysis.csv", *_write_checkpoints(out, nets)]


# Each runner writes its game's outputs into ``out``, may add entries to the
# manifest that the content hash does not cover, and returns the paths written.
_RUNNERS = {
    "meeting": partial(_run_agents, "meeting"),
    "elfarol": partial(_run_agents, "elfarol"),
    "sir": _run_sir,
    "dice": _run_dice,
}


def run_experiment(args: argparse.Namespace) -> int:
    game = args.game
    if game not in GAMES:
        raise ConfigError(f"unknown game '{game}'")
    file_cfg = load_config_file(args.config, game) if args.config else {}
    p = {}
    for key, (typ, defaults, _where, _field) in _KEYS.items():
        flag = getattr(args, key, None)
        if game in defaults:  # flag, then config file, then default
            p[key] = (_coerce(key, typ, flag) if flag is not None
                      else file_cfg.get(key, defaults[game]))
        elif flag is not None:
            raise ConfigError(f"game '{game}' takes no --{key}")
    if p["mode"] not in MODES:
        raise ConfigError(f"unknown mode '{p['mode']}'")
    if not 0 <= p["seed"] < 2**64:  # the RNG streams take it as a uint64
        raise ConfigError(f"seed must lie in [0, 2**64), got {p['seed']}")
    out = Path(p["out"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:  # a file, or a path under one
        raise ConfigError(f"cannot make the output directory {out}: {err}") from None
    manifest = {
        "game": game,
        "mode": p["mode"],
        "seed": p["seed"],
        "parameters": {k: p[k] for k in sorted(p) if _KEYS[k][2] != "run"},
        "outputs": {},
    }

    try:  # SIR's data read raises DataError, so an OSError here is an output's
        written = _RUNNERS[game](p, out, manifest)
        hasher = hashlib.sha256()
        for path in sorted(written):
            digest = _sha256(path)
            manifest["outputs"][path.name] = digest
            hasher.update(path.name.encode())
            hasher.update(digest.encode())
        manifest["content_hash"] = hasher.hexdigest()
        with open(out / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
    except OSError as err:  # an output path that is a directory, a full disk
        raise ConfigError(f"cannot write {err.filename or out}: {err.strerror or err}") from None
    return 0


def build_parser() -> argparse.ArgumentParser:
    """``run --game G`` takes the flags of every game and rejects those G does not take."""
    parser = argparse.ArgumentParser(prog="mfgames", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {"run": "run any game by name", "meeting": "meeting arrival-times game",
             "elfarol": "El Farol bar game", "sir": "SIR epidemic game",
             "dice": "liar's dice game"}
    for command, help in helps.items():
        p = sub.add_parser(command, help=help)
        if command == "run":
            p.add_argument("--game", required=True, choices=GAMES)
        p.add_argument("--config", default=None)
        for key, (_typ, defaults, where, _field) in _KEYS.items():
            if where != "file" and (command == "run" or command in defaults):
                p.add_argument(f"--{key}", default=None)  # typed by _coerce
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as done:  # --help (0) or a usage error (2), printed by argparse
        return done.code
    if args.command != "run":
        args.game = args.command
    try:
        return run_experiment(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except sir_mod.DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 3
    except (TrainingDivergence, IntegrationError) as err:
        print(f"training error: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
