"""Unified command-line front end for the four games.

Runs are fully determined by (game, mode, seed, parameters): outputs are CSV
trajectories, loss histories, network checkpoints, histogram-ready plot data,
and a manifest carrying the echoed configuration plus a content hash of every
emitted byte. Exit codes: 0 ok, 2 configuration (including game parameters
out of range), 3 data, 4 training divergence or a non-finite integration step.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import sys
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


# key -> (type, default) accepted per game, beyond the shared flags
_PARAMS: dict[str, dict[str, tuple]] = {
    "meeting": {
        "agents": (int, 64),
        "turns": (int, 15),
        "quorum": (float, 0.9),
        "noise_std": (float, 1.0),
        "sigma": (float, 0.1),
        "drift_gain": (float, 1.0),
        "smoothing": (float, 0.6),
        "scheduled": (float, 15.0),
        "init_mean": (float, 12.0),
        "games_per_epoch": (int, 10),
        "data_weight": (float, 1.0),
    },
    "elfarol": {
        "agents": (int, 64),
        "turns": (int, 15),
        "threshold": (float, 0.9),
        "drift_gain": (float, 0.3),
        "games_per_epoch": (int, 10),
        "data_weight": (float, 1.0),
    },
    "sir": {
        "population": (int, 1_000_000),
        "trajectories": (int, 100),
        "batch": (int, 5),
        "window": (int, 28),
        "layers": (int, 8),
        "width": (int, 32),
        "lr": (float, 5e-4),
    },
    "dice": {
        "players": (int, 30),
        "dice": (int, 15),
        "faces": (int, 6),
        "rounds": (int, 100),
        "rounds_per_game": (int, 10),
        "lambda0": (float, 0.0),
        "theta": (str, ""),
        "likelihood": (float, 0.3),
        "lr": (float, 5e-4),
    },
}
_DEFAULT_EPOCHS = {"meeting": 20, "elfarol": 20, "sir": 10, "dice": 0}
# the parameters each game's subcommand also takes as a flag, typed by
# _PARAMS; `run --game G` takes the flags of every game and rejects those G
# does not take
_FLAGS = {
    "meeting": ("agents",),
    "elfarol": ("agents", "threshold"),
    "sir": ("trajectories", "population"),
    "dice": ("players", "dice", "rounds", "lambda0", "theta"),
}
# the keys of a config file's [run] section and their types
_RUN_KEYS = {"game": str, "mode": str, "seed": int, "out": str, "epochs": int, "data": str}


def _coerce(key: str, typ, value) -> object:
    try:
        return typ(value)
    except (TypeError, ValueError):
        raise ConfigError(f"key '{key}' expects {typ.__name__}, got {value!r}") from None


def load_config_file(path: str, game: str) -> dict:
    """Flat INI with a [run] section plus one section per game."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    out: dict = {}
    for section in parser.sections():
        if section == "run":
            for key, value in parser.items(section):
                if key not in _RUN_KEYS:
                    raise ConfigError(f"unknown key '{key}' in [run]")
                if key == "game" and value != game:
                    raise ConfigError(f"config file is for game '{value}', not '{game}'")
                out[key] = _coerce(key, _RUN_KEYS[key], value)
        elif section in GAMES:
            if section != game:
                continue
            for key, value in parser.items(section):
                if key not in _PARAMS[game]:
                    raise ConfigError(f"unknown key '{key}' for game '{game}'")
                out[key] = _coerce(key, _PARAMS[game][key][0], value)
        else:
            raise ConfigError(f"unknown section '[{section}]'")
    return out


def _params_for(game: str, file_cfg: dict, args: argparse.Namespace) -> dict:
    stray = [key for g in GAMES for key in _FLAGS[g]
             if key not in _FLAGS[game] and getattr(args, key, None) is not None]
    if stray:
        raise ConfigError(f"game '{game}' takes no --{stray[0]}")
    params = {k: d for k, (_t, d) in _PARAMS[game].items()}
    for key, value in file_cfg.items():
        if key in params:
            params[key] = value
    for key in _FLAGS[game]:
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    return params


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


def _config(cls, **kwargs):
    """Build a game or training config; its validation failures are config errors."""
    try:
        return cls(**kwargs)
    except ValueError as err:
        raise ConfigError(f"{cls.__name__}: {err}") from None


def _training_config(args, params, game: str) -> TrainingConfig:
    epochs = args.epochs if args.epochs is not None else _DEFAULT_EPOCHS[game]
    return _config(
        TrainingConfig,
        epochs=int(epochs),
        games_per_epoch=int(params.get("games_per_epoch", 10)),
        seed=args.seed,
        data_loss_weight=float(params.get("data_weight", 1.0)),
    )


def _write_training(out: Path, history, nets: dict) -> list[Path]:
    """``loss_history.csv`` plus one ``checkpoint_<name>.json`` per network."""
    written = [out / "loss_history.csv"]
    write_history_csv(written[0], history)
    for name, net in nets.items():
        written.append(out / f"checkpoint_{name}.json")
        save_checkpoint(net, written[-1])
    return written


def _run_meeting(args, params, out: Path) -> list[Path]:
    config = _config(
        meeting_mod.MeetingConfig,
        scheduled=params["scheduled"], quorum=params["quorum"],
        n_agents=params["agents"], noise_std=params["noise_std"],
        turns=params["turns"], init_mean=params["init_mean"],
        drift_gain=params["drift_gain"], smoothing=params["smoothing"],
        sigma=params["sigma"],
    )
    written = []
    if args.mode == "standard":
        states = meeting_mod.run_standard(config, seed=args.seed)
    else:
        observations = [
            meeting_mod.generate_observations(seed=args.seed * 1000 + k)
            for k in range(10)
        ]
        training = _training_config(args, params, "meeting")
        game, nets, history = meeting_mod.run_neural(
            config, observations, training, net_seed=args.seed
        )
        states = meeting_mod.simulate_neural(config, nets, seed=args.seed)
        written = _write_training(out, history, nets)
    meeting_mod.write_history(out / "trajectory.csv", states, emit_histogram(out / "plotdata.csv"))
    return written + [out / "trajectory.csv", out / "plotdata.csv"]


def _run_elfarol(args, params, out: Path) -> list[Path]:
    config = _config(
        elfarol_mod.BarConfig,
        threshold=params["threshold"], n_agents=params["agents"],
        turns=params["turns"], drift_gain=params["drift_gain"],
    )
    written = []
    if args.mode == "standard":
        states = elfarol_mod.run_standard(config, seed=args.seed)
    else:
        observations = elfarol_mod.generate_attendance_observations(seed=args.seed)
        training = _training_config(args, params, "elfarol")
        game, nets, history = elfarol_mod.run_neural(
            config, observations, training, net_seed=args.seed
        )
        states = elfarol_mod.simulate_neural(config, nets, seed=args.seed)
        written = _write_training(out, history, nets)
    elfarol_mod.write_history(out / "trajectory.csv", states, emit_histogram(out / "plotdata.csv"))
    return written + [out / "trajectory.csv", out / "plotdata.csv"]


def _run_sir(args, params, out: Path) -> list[Path]:
    if not args.data:
        raise ConfigError("sir requires --data FILE")
    if params["population"] < 1:
        raise ConfigError("population must be positive")
    if params["window"] < 1:
        raise ConfigError("window must be positive")
    dataset = sir_mod.ingest_csv(args.data, population=params["population"])
    window = min(params["window"], len(dataset))
    if args.mode != "standard":  # a bad config fails before the rate fit
        epochs = args.epochs if args.epochs is not None else _DEFAULT_EPOCHS["sir"]
        cfg = _config(
            sir_mod.SIRTrainingConfig,
            epochs=int(epochs), trajectories=params["trajectories"],
            batch=params["batch"], lr=params["lr"], seed=args.seed,
            window=window, hidden_layers=params["layers"], hidden_width=params["width"],
        )
    rates, _warn = sir_mod.estimate_rates(dataset, window=window)
    days = len(dataset) - 1
    written = []
    if args.mode == "standard":
        # the pure rate equation driven by the daily fitted rates
        traj = sir_mod.integrate_kolmogorov(dataset.states[0], rates, days)
    else:
        model, history = sir_mod.train_sir(dataset, cfg, warm_rates=rates)
        traj = sir_mod.forecast(model, dataset.states[0], days, dataset.measures)
        nets = {"drift": model.drift_net, "diffusion": model.diffusion_net}
        written = _write_training(out, history,
                                  {name: net for name, net in nets.items() if net is not None})

    dates = [date.isoformat() for date in dataset.dates]
    rates_path = out / "rates.csv"
    write_csv(rates_path, ["date", "gamma", "rho", "pi"], [
        [(d, repr(rv.gamma), repr(rv.rho), repr(rv.pi)) for d, rv in zip(dates, rates)]
    ])
    forecast_path = out / "forecast.csv"
    write_csv(forecast_path, ["date", "m_S", "m_I", "m_R", "source"], [
        [(d, *float_cells(row), source) for d, row in zip(dates, states)]
        for states, source in ((dataset.states, "observed"), (traj, "predicted"))
    ])
    return [rates_path, forecast_path] + written


def _run_dice(args, params, out: Path) -> list[Path]:
    faces = params["faces"]
    try:
        theta = (
            tuple(float(x) for x in params["theta"].split(","))
            if params["theta"]
            else (1.0 / faces,) * faces
        )
    except ValueError:
        raise ConfigError(f"theta must be comma-separated numbers: {params['theta']!r}") from None
    if len(theta) != faces:
        raise ConfigError(f"theta must list {faces} probabilities")
    config = _config(
        dice_mod.DiceConfig,
        n_players=params["players"], dice_per_player=params["dice"], n_faces=faces,
        theta=theta, likelihood=params["likelihood"], bluff0=params["lambda0"],
    )
    rounds_per_game = params["rounds_per_game"]
    if rounds_per_game < 1:
        raise ConfigError("rounds_per_game must be positive")
    games = max(1, params["rounds"] // rounds_per_game)
    training = _config(TrainingConfig, epochs=1, seed=args.seed, lr=params["lr"])
    net, records = dice_mod.train_dice(
        config, training, games=games, rounds_per_game=rounds_per_game,
        neural=(args.mode == "neural"),
    )
    dice_mod.write_round_history(out / "history.csv", records)
    dice_mod.write_analysis_csv(out / "analysis.csv", dice_mod.analyze(records))
    written = [out / "history.csv", out / "analysis.csv"]
    if net is not None:
        p = out / "checkpoint_drift.json"
        save_checkpoint(net, p)
        written.append(p)
    return written


_RUNNERS = {
    "meeting": _run_meeting,
    "elfarol": _run_elfarol,
    "sir": _run_sir,
    "dice": _run_dice,
}


def run_experiment(args: argparse.Namespace) -> int:
    if args.game not in GAMES:
        raise ConfigError(f"unknown game '{args.game}'")
    file_cfg = load_config_file(args.config, args.game) if args.config else {}
    # resolution order: flag, then config file, then default
    args.mode = args.mode or file_cfg.get("mode") or "standard"
    if args.mode not in MODES:
        raise ConfigError(f"unknown mode '{args.mode}'")
    args.seed = args.seed if args.seed is not None else file_cfg.get("seed", 0)
    if not 0 <= args.seed < 2**64:  # the RNG streams take it as a uint64
        raise ConfigError(f"seed must lie in [0, 2**64), got {args.seed}")
    args.out = args.out or file_cfg.get("out") or "out"
    if args.epochs is None and "epochs" in file_cfg:
        args.epochs = file_cfg["epochs"]
    args.data = args.data or file_cfg.get("data")
    params = _params_for(args.game, file_cfg, args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    written = _RUNNERS[args.game](args, params, out)

    manifest = {
        "game": args.game,
        "mode": args.mode,
        "seed": args.seed,
        "parameters": {k: params[k] for k in sorted(params)},
        "outputs": {},
    }
    hasher = hashlib.sha256()
    for path in sorted(written):
        digest = _sha256(path)
        manifest["outputs"][path.name] = digest
        hasher.update(path.name.encode())
        hasher.update(digest.encode())
    manifest["content_hash"] = hasher.hexdigest()
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return 0


def _add_shared(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=MODES, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--data", default=None)


def _add_flags(p: argparse.ArgumentParser, games) -> None:
    """One typed flag per game parameter in ``_FLAGS``, once per name."""
    flags = {key: _PARAMS[game][key][0] for game in games for key in _FLAGS[game]}
    for key, typ in flags.items():
        p.add_argument(f"--{key}", type=typ, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mfgames", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run any game by name")
    run.add_argument("--game", required=True, choices=GAMES)
    _add_shared(run)
    _add_flags(run, GAMES)

    helps = {"meeting": "meeting arrival-times game", "elfarol": "El Farol bar game",
             "sir": "SIR epidemic game", "dice": "liar's dice game"}
    for game in GAMES:
        p = sub.add_parser(game, help=helps[game])
        _add_shared(p)
        _add_flags(p, (game,))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command != "run":
        args.game = args.command
    try:
        return run_experiment(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (sir_mod.DataError, FileNotFoundError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return 3
    except (TrainingDivergence, IntegrationError) as err:
        print(f"training error: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
