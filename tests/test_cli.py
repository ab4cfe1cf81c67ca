import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from mfgames import cli
from mfgames.games import dice, elfarol, meeting, sir
from mfgames.mfg import TrainingConfig

TINY = """
[meeting]
agents = 6
turns = 3
games_per_epoch = 2

[elfarol]
agents = 6
turns = 3
games_per_epoch = 2

[sir]
layers = 1
width = 4
batch = 2
trajectories = 2
window = 5

[dice]
players = 3
dice = 2
rounds = 4
rounds_per_game = 2
"""


GOLDEN_HASHES = Path(__file__).parent / "golden" / "content_hashes.json"

# (game, key, value) of config files that set one key of TINY's game section
# to a value the game rejects; EXIT_CASES names each "{game}_{key}_{value}"
BAD_KEYS = [
    ("elfarol", "drift_gain", "nan"),
    ("meeting", "scheduled", "inf"),
    ("meeting", "noise_std", "-1"),
    ("meeting", "sigma", "-1"),
    ("meeting", "smoothing", "-1"),
    ("sir", "lr", "nan"),
    ("dice", "faces", "0"),
]


# config files that configparser or the UTF-8 decoder rejects
MALFORMED_CONFIGS = {
    "no_section_header": b"seed = 3\n",
    "seed_twice": b"[run]\nseed = 1\nseed = 2\n",
    "run_twice": b"[run]\nseed = 1\n[run]\nmode = standard\n",
    "key_without_value": b"[run]\nseed\n",
    "utf16_byte_order_mark": b"\xff\xfe[run]\nseed = 1\n",
}


def write_inputs(tmp_path):
    config = tmp_path / "tiny.ini"
    config.write_text(TINY)
    data = tmp_path / "sir.csv"
    dataset = sir.generate_synthetic_dataset(
        12, seed=1, measures=sir.make_measure_schedule(12, seed=1), modulate=True
    )
    sir.write_dataset_csv(dataset, data)
    one_day = tmp_path / "one_day.csv"
    sir.write_dataset_csv(sir.generate_synthetic_dataset(1, seed=1), one_day)
    sir_config = tmp_path / "sir.ini"
    sir_config.write_text("[run]\ngame = sir\n" + TINY)
    bad_run = {}
    for key in ("seed", "epochs"):
        bad_run[key] = tmp_path / f"bad_{key}.ini"
        bad_run[key].write_text(f"[run]\n{key} = abc\n" + TINY)
    run_key = {}  # [run] keys that only some games take
    for key, value in (("epochs", "2"), ("data", str(data))):
        run_key[key] = tmp_path / f"run_{key}.ini"
        run_key[key].write_text(f"[run]\n{key} = {value}\n" + TINY)
    huge_lr = tmp_path / "huge_lr.ini"
    huge_lr.write_text(TINY.replace("[dice]", "[dice]\nlr = 1e300"))
    malformed = {}  # config files that do not parse or decode
    for name, text in MALFORMED_CONFIGS.items():
        malformed[name] = tmp_path / f"{name}.ini"
        malformed[name].write_bytes(text)
    undecodable = tmp_path / "undecodable.csv"
    undecodable.write_bytes(b"\xff\xfe" + data.read_bytes())
    bad_keys = {}
    for game, key, value in BAD_KEYS:
        name = f"{game}_{key}_{value}"
        bad_keys[name] = tmp_path / f"{name}.ini"
        bad_keys[name].write_text(TINY.replace(f"[{game}]", f"[{game}]\n{key} = {value}"))
    return {"config": str(config), "data": str(data), "one_day": str(one_day),
            "sir_config": str(sir_config), "bad_seed": str(bad_run["seed"]),
            "bad_epochs": str(bad_run["epochs"]), "run_epochs": str(run_key["epochs"]),
            "run_data": str(run_key["data"]), "huge_lr": str(huge_lr), "tmp": tmp_path,
            "undecodable": str(undecodable),
            **{name: str(path) for name, path in {**bad_keys, **malformed}.items()}}


@pytest.fixture
def inputs(tmp_path):
    return write_inputs(tmp_path)


def _run(inputs, *argv, out="out"):
    """``cli.main`` on ``argv``, formatted with ``inputs``; into ``out`` unless
    ``argv`` names its own ``--out``."""
    args = [a.format(**inputs) for a in argv]
    if "--out" not in args:
        args += ["--out", str(inputs["tmp"] / out)]
    return cli.main(args)


EXIT_CASES = [
    ("ok", 0, ("meeting", "--agents", "8", "--config", "{config}")),
    ("no agents", 2, ("meeting", "--agents", "0")),
    ("threshold out of range", 2, ("elfarol", "--threshold", "1.5")),
    ("one dice player", 2, ("dice", "--players", "1")),
    # dice plays whole games of rounds_per_game rounds (10 by default, 2 in TINY)
    ("dice --rounds 0", 2, ("dice", "--rounds", "0")),
    ("dice --rounds -3", 2, ("dice", "--rounds", "-3")),
    ("dice --rounds 5 in games of 10", 2, ("dice", "--rounds", "5")),
    ("dice --rounds 3 in games of 2", 2, ("dice", "--rounds", "3", "--config", "{config}")),
    ("unparsable theta", 2, ("dice", "--theta", "a,b,c,d,e,f")),
    ("theta of two values for six faces", 2, ("dice", "--theta", "0.5,0.5")),
    ("sir without data", 2, ("sir",)),
    ("empty population", 2, ("sir", "--data", "{data}", "--population", "0")),
    ("unknown config file", 2, ("meeting", "--config", "{tmp}/absent.ini")),
    ("config file for another game", 2, ("meeting", "--config", "{sir_config}")),
    ("config file for this game", 0, ("sir", "--data", "{data}", "--config", "{sir_config}")),
    ("missing data file", 3, ("sir", "--data", "{tmp}/absent.csv")),
    ("malformed data file", 3, ("sir", "--data", "{config}")),
    ("one-day data file, neural", 3, ("sir", "--mode", "neural", "--data", "{one_day}")),
    ("one-day data file, standard", 3, ("sir", "--mode", "standard", "--data", "{one_day}")),
    ("run flag meeting does not take", 2, ("run", "--game", "meeting", "--players", "5")),
    ("run flag dice does not take", 2, ("run", "--game", "dice", "--agents", "3")),
    ("negative seed, meeting", 2, ("meeting", "--seed", "-1", "--config", "{config}")),
    ("negative seed, elfarol", 2, ("elfarol", "--seed", "-1", "--config", "{config}")),
    ("negative seed, neural sir", 2,
     ("sir", "--mode", "neural", "--seed", "-1", "--data", "{data}", "--config", "{config}")),
    ("negative seed, dice", 2, ("dice", "--seed", "-1", "--config", "{config}")),
    ("non-integer seed in config file", 2, ("meeting", "--config", "{bad_seed}")),
    ("non-integer epochs in config file", 2,
     ("meeting", "--mode", "neural", "--config", "{bad_epochs}")),
    # dice never reads epochs, and only sir reads data
    ("dice --epochs", 2, ("dice", "--epochs", "2", "--config", "{config}")),
    ("dice [run] epochs", 2, ("dice", "--config", "{run_epochs}")),
    ("run --game dice --epochs", 2, ("run", "--game", "dice", "--epochs", "2")),
    *((f"{game} --data", 2, (game, "--data", "{data}", "--config", "{config}"))
      for game in ("meeting", "elfarol", "dice")),
    *((f"{game} [run] data", 2, (game, "--config", "{run_data}"))
      for game in ("meeting", "elfarol", "dice")),
    ("seed of 2**64, dice", 2, ("dice", "--seed", str(2**64), "--config", "{config}")),
    ("seed of 2**64, neural meeting", 2,
     ("meeting", "--mode", "neural", "--seed", str(2**64), "--config", "{config}")),
    # the standard modes train nothing, but their training keys are checked
    ("standard meeting --epochs -5", 2, ("meeting", "--mode", "standard", "--epochs", "-5")),
    ("standard elfarol --epochs -1", 2, ("elfarol", "--mode", "standard", "--epochs", "-1")),
    ("standard sir --trajectories 0", 2,
     ("sir", "--mode", "standard", "--trajectories", "0", "--data", "{data}")),
    # a number that is not finite, as a flag or in a config file
    ("nan drift_gain in config file", 2, ("elfarol", "--config", "{elfarol_drift_gain_nan}")),
    ("inf scheduled in config file", 2, ("meeting", "--config", "{meeting_scheduled_inf}")),
    ("dice --lambda0 nan", 2, ("dice", "--lambda0", "nan", "--config", "{config}")),
    ("dice --lambda0 inf", 2, ("dice", "--lambda0", "inf", "--config", "{config}")),
    ("nan lr, before the data is read", 2,
     ("sir", "--data", "{tmp}/absent.csv", "--config", "{sir_lr_nan}")),
    # a malformed config file, data file or output path
    *((f"config file with {name.replace('_', ' ')}", 2, ("meeting", "--config", f"{{{name}}}"))
      for name in MALFORMED_CONFIGS),
    ("undecodable data file", 3, ("sir", "--data", "{undecodable}")),
    ("data file that is a directory", 3, ("sir", "--data", "{tmp}")),
    ("--out naming a file", 2, ("meeting", "--config", "{config}", "--out", "{config}")),
    ("--out under a file", 2, ("meeting", "--config", "{config}", "--out", "{config}/out")),
    # game parameters out of range
    ("dice --theta with a nan", 2,
     ("dice", "--theta", "nan,0.2,0.2,0.2,0.2,0.2", "--config", "{config}")),
    ("dice --lambda0 above the Poisson limit", 2,
     ("dice", "--lambda0", "1e300", "--config", "{config}")),
    ("negative noise_std, neural meeting", 2,
     ("meeting", "--mode", "neural", "--config", "{meeting_noise_std_-1}")),
    ("negative sigma, standard meeting", 2, ("meeting", "--config", "{meeting_sigma_-1}")),
    ("negative smoothing, meeting", 2, ("meeting", "--config", "{meeting_smoothing_-1}")),
    # the uniform default theta is built before DiceConfig checks the faces
    ("no faces, dice", 2, ("dice", "--config", "{dice_faces_0}")),
    # the first step leaves weights near 1e300, so the next forward pass
    # overflows (inf, then inf * 0): its warnings are expected
    ("dice lr overflows the gradient", 4, ("dice", "--mode", "neural", "--config", "{huge_lr}"),
     pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning"),
     pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")),
]


@pytest.mark.parametrize("code,argv", [pytest.param(code, argv, id=name, marks=marks)
                                       for name, code, argv, *marks in EXIT_CASES])
def test_exit_codes(inputs, capsys, code, argv):
    assert _run(inputs, *argv) == code
    err = capsys.readouterr().err
    assert ("error:" in err) == (code != 0)
    assert "Traceback" not in err


@pytest.mark.parametrize("name,argv", [
    ("trajectory.csv", ("meeting", "--config", "{config}")),
    ("plotdata.csv", ("elfarol", "--config", "{config}")),
    ("checkpoint_drift.json", ("meeting", "--mode", "neural", "--epochs", "1",
                               "--config", "{config}")),
    ("rates.csv", ("sir", "--data", "{data}", "--config", "{config}")),
    ("history.csv", ("dice", "--config", "{config}")),
    ("manifest.json", ("dice", "--config", "{config}")),
])
def test_an_output_that_cannot_be_written_exits_2(inputs, capsys, name, argv):
    # a directory where the run writes the file; it raised IsADirectoryError
    blocked = inputs["tmp"] / "out" / name
    blocked.mkdir(parents=True)
    assert _run(inputs, *argv) == 2
    err = capsys.readouterr().err
    assert f"config error: cannot write {blocked}:" in err and "Traceback" not in err


def test_sha256_of_a_file_longer_than_one_chunk(tmp_path):
    data = np.random.default_rng(0).bytes(3 * (1 << 20) + 7)
    path = tmp_path / "big.bin"
    path.write_bytes(data)
    assert cli._sha256(path) == hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("key,value,mode", [
    ("layers", "0", "neural"),
    ("width", "0", "neural"),
    ("window", "0", "neural"),
    ("window", "0", "standard"),
    # a one-day window fits nothing
    ("window", "1", "neural"),
    ("window", "1", "standard"),
    ("width", "0", "standard"),
    ("lr", "0", "neural"),
    ("lr", "-1", "neural"),
    ("lr", "0", "standard"),
])
def test_sir_config_out_of_range_exits_2(inputs, capsys, key, value, mode):
    config = inputs["tmp"] / "bad.ini"
    config.write_text(f"[sir]\n{key} = {value}\n")
    argv = ("sir", "--mode", mode, "--epochs", "1", "--data", "{data}", "--config", str(config))
    assert _run(inputs, *argv) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "Traceback" not in err


def test_sir_config_is_checked_before_the_rate_fit(inputs, capsys, monkeypatch):
    def no_fit(*args, **kwargs):
        pytest.fail("the rate fit ran before the config was checked")
    monkeypatch.setattr(sir, "estimate_rates", no_fit)
    config = inputs["tmp"] / "bad.ini"
    config.write_text("[sir]\nlr = 0\n")
    argv = ("sir", "--mode", "neural", "--epochs", "1", "--data", "{data}", "--config", str(config))
    assert _run(inputs, *argv) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("section,mode", [
    ("init_mean = 1e4", "neural"),  # data loss beyond the abort threshold
    ("sigma = 1e308", "standard"),  # non-finite Euler-Maruyama step (inf is a config error)
])
def test_training_and_integration_failures_exit_4(inputs, capsys, section, mode):
    config = inputs["tmp"] / "bad.ini"
    config.write_text(TINY.replace("[meeting]", f"[meeting]\n{section}"))
    code = _run(inputs, "meeting", "--mode", mode, "--epochs", "1", "--config", str(config))
    assert code == 4
    err = capsys.readouterr().err
    assert "training error:" in err and "Traceback" not in err


@pytest.mark.parametrize("mode", cli.MODES)
@pytest.mark.parametrize("game", cli.GAMES)
def test_same_seed_same_content_hash_and_float_loss_cells(inputs, game, mode):
    epochs = () if game == "dice" else ("--epochs", "2")  # dice takes no epochs
    argv = (game, "--mode", mode, "--seed", "5", *epochs, "--config", "{config}")
    if game == "sir":
        argv += ("--data", "{data}")
    hashes = []
    for k in range(2):
        assert _run(inputs, *argv, out=f"run{k}") == 0
        out = inputs["tmp"] / f"run{k}"
        hashes.append(json.loads((out / "manifest.json").read_text())["content_hash"])
        history = out / "loss_history.csv"
        if history.exists():
            rows = history.read_text().splitlines()
            assert rows[0] == "epoch,game_cost,data_loss,total"
            assert len(rows) == 3
            for row in rows[1:]:
                for cell in row.split(","):
                    float(cell)
        rates = out / "rates.csv"
        if rates.exists():
            rows = rates.read_text().splitlines()
            assert rows[0] == "date,gamma,rho,pi"
            for row in rows[1:]:
                for cell in row.split(",")[1:]:
                    float(cell)
    assert hashes[0] == hashes[1]


@pytest.mark.parametrize("mode", cli.MODES)
@pytest.mark.parametrize("game", cli.GAMES)
def test_manifest_reports_exploitability_of_the_final_turn(inputs, game, mode):
    argv = (game, "--mode", mode, "--seed", "5", "--config", "{config}")
    if game == "sir":
        argv += ("--data", "{data}")
    assert _run(inputs, *argv) == 0
    manifest = _manifest(inputs, "out")
    if game not in ("meeting", "elfarol"):  # no cost over the population's state
        assert "exploitability" not in manifest
        return
    value = manifest["exploitability"]
    assert np.isfinite(value) and value >= 0.0
    # that of the last turn in trajectory.csv
    rows = (inputs["tmp"] / "out" / "trajectory.csv").read_text().splitlines()[1:]
    cells = [row.split(",") for row in rows]
    turns = max(int(c[0]) for c in cells)
    column = 3 if game == "meeting" else 2  # tau_tilde, or p
    last = np.array([float(c[column]) for c in cells if int(c[0]) == turns])
    module, config = {
        "meeting": (meeting, meeting.MeetingConfig(n_agents=6, turns=3)),
        "elfarol": (elfarol, elfarol.BarConfig(n_agents=6, turns=3)),
    }[game]
    assert value == module.exploitability(last, config)


def test_import_leaves_scipy_optimize_unloaded():
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, mfgames.cli; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.strip() == "False"


def test_sir_standard_run_loads_no_scipy(inputs):
    src = str(Path(cli.__file__).resolve().parents[1])
    argv = ["sir", "--mode", "standard", "--seed", "5", "--config", inputs["config"],
            "--data", inputs["data"], "--out", str(inputs["tmp"] / "out")]
    code = ("import sys; from mfgames import cli; code = cli.main(sys.argv[1:]); "
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.strip() == "0 []"


def _env_with_blas_threads(threads):
    """The environment with ``OPENBLAS_NUM_THREADS`` set to ``threads``, or unset for None.

    Importing mfgames in this process has set it, and subprocesses inherit it.
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("OPENBLAS_NUM_THREADS")
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return env


# this module imports numpy before mfgames, so only a fresh process sees the default
@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_import_sets_one_blas_thread_unless_preset(preset, expected):
    code = "import os, mfgames; print(os.environ['OPENBLAS_NUM_THREADS'])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_env_with_blas_threads(preset), check=True)
    assert proc.stdout.strip() == expected


def test_blas_thread_count_leaves_the_bytes_unchanged(tmp_path):
    hashes = []
    for threads in (None, "2"):
        out = tmp_path / f"threads-{threads}"
        subprocess.run([sys.executable, "-m", "mfgames.cli", "meeting", "--mode", "neural",
                        "--epochs", "0", "--agents", "5000", "--out", str(out)],
                       capture_output=True, env=_env_with_blas_threads(threads), check=True)
        hashes.append(json.loads((out / "manifest.json").read_text())["content_hash"])
    assert hashes[0] == hashes[1]


def _manifest(inputs, out):
    return json.loads((inputs["tmp"] / out / "manifest.json").read_text())


# per game: (flag key, default, file value, flag value), (file-only key,
# default, file value), and the [run] key seed as 0, then 3, then 5
RESOLVED = {
    "meeting": (("agents", 64, 7, 9), ("turns", 15, 4)),
    "elfarol": (("threshold", 0.9, 0.7, 0.8), ("drift_gain", 0.3, 0.5)),
    "sir": (("population", 1_000_000, 2_000_000, 3_000_000), ("window", 28, 6)),
    "dice": (("players", 30, 3, 4), ("likelihood", 0.3, 0.4)),
}


@pytest.mark.parametrize("game", cli.GAMES)
def test_keys_resolve_flag_then_config_file_then_default(inputs, game):
    (flag_key, default, in_file, in_flag), (file_key, file_default, file_value) = RESOLVED[game]
    config = inputs["tmp"] / f"{game}.ini"
    config.write_text(f"[run]\nseed = 3\n\n[{game}]\n{flag_key} = {in_file}\n"
                      f"{file_key} = {file_value}\n")
    data = ("--data", "{data}") if game == "sir" else ()
    runs = {
        "default": ((), (0, default, file_default)),
        "file": (("--config", str(config)), (3, in_file, file_value)),
        "flag": (("--config", str(config), "--seed", "5", f"--{flag_key}", str(in_flag)),
                 (5, in_flag, file_value)),
    }
    for name, (argv, (seed, flag_value, file_only)) in runs.items():
        assert _run(inputs, game, "--mode", "standard", *data, *argv, out=name) == 0
        manifest = _manifest(inputs, name)
        assert manifest["seed"] == seed
        assert manifest["parameters"][flag_key] == flag_value
        assert manifest["parameters"][file_key] == file_only


@pytest.mark.parametrize("mode", cli.MODES)
def test_manifest_reports_the_window_the_rate_fit_used(inputs, monkeypatch, mode):
    # the 12-day CSV is shorter than the default window of 28 days
    fit, windows = sir.estimate_rates, []
    monkeypatch.setattr(sir, "estimate_rates",
                        lambda dataset, window: windows.append(window) or fit(dataset, window))
    config = inputs["tmp"] / "short.ini"
    # per run: the config line, the window key it resolves to, the window used
    runs = {"default": ("", 28, 12), "five": ("window = 5\n", 5, 5)}
    for name, (line, key, used) in runs.items():
        config.write_text("[sir]\nlayers = 1\nwidth = 4\n" + line)
        argv = ("sir", "--mode", mode, "--epochs", "1", "--trajectories", "2",
                "--data", "{data}", "--config", str(config))
        assert _run(inputs, *argv, out=name) == 0
        manifest = _manifest(inputs, name)
        assert manifest["parameters"]["window"] == key
        assert manifest["rate_fit_window"] == used == windows[-1]


GAME_CONFIGS = {"meeting": meeting.MeetingConfig, "elfarol": elfarol.BarConfig,
                "sir": sir.SIRConfig, "dice": dice.DiceConfig}


def _field_names(cls) -> set:
    return {f.name for f in dataclasses.fields(cls)}


def test_every_game_config_field_is_set_by_the_cli(inputs, monkeypatch):
    # a field no key sets would only ever hold its default
    built = {}
    for cls in GAME_CONFIGS.values():
        def recording_init(self, init=cls.__init__, cls=cls, **kwargs):
            built.setdefault(cls, set(kwargs))  # the run's first config is the CLI's
            init(self, **kwargs)

        monkeypatch.setattr(cls, "__init__", recording_init)
    for game in cli.GAMES:
        data = ("--data", "{data}") if game == "sir" else ()
        assert _run(inputs, game, "--mode", "standard", "--config", "{config}", *data,
                    out=game) == 0
    for cls in GAME_CONFIGS.values():
        assert built[cls] == _field_names(cls), cls.__name__


@pytest.mark.parametrize("game", cli.GAMES)
def test_each_key_of_a_game_names_a_field_of_one_config_it_builds(game):
    # a misspelt field would leave the key's value unread and the field at its default
    configs = [_field_names(GAME_CONFIGS[game]), _field_names(TrainingConfig)]
    named = [field for _typ, defaults, _where, field in cli._KEYS.values()
             if game in defaults and field is not None]
    for field in named:
        assert sum(field in names for names in configs) == 1, field
    assert len(named) == len(set(named))


@pytest.mark.parametrize("max_iter", [400, 150])  # the fit's own cap, and one too low
@pytest.mark.parametrize("mode", cli.MODES)
def test_manifest_lists_the_days_whose_rate_fit_did_not_converge(inputs, monkeypatch,
                                                                 mode, max_iter):
    monkeypatch.setattr(sir, "RATE_FIT_MAX_ITER", max_iter)
    argv = ("sir", "--mode", mode, "--epochs", "1", "--config", "{config}", "--data", "{data}")
    assert _run(inputs, *argv) == 0
    dataset = sir.ingest_csv(inputs["data"], population=1_000_000)
    _rates, unconverged = sir.estimate_rates(dataset, window=5)
    want = [d.isoformat() for d, no in zip(dataset.dates, unconverged) if no]
    assert bool(want) == (max_iter == 150)  # the capped fit misses days 0 and 3
    manifest = _manifest(inputs, "out")
    assert manifest["rate_fit_unconverged"] == want
    # the content hash covers the outputs alone
    hasher = hashlib.sha256()
    for name, digest in sorted(manifest["outputs"].items()):
        hasher.update(name.encode() + digest.encode())
    assert manifest["content_hash"] == hasher.hexdigest()


def _flags(parser):
    return sorted(s for a in parser._actions for s in a.option_strings)


def test_each_subcommand_takes_exactly_its_flags():
    shared = ["--config", "--mode", "--out", "--seed", "-h", "--help"]
    own = {
        "meeting": ["--epochs", "--agents"],
        "elfarol": ["--epochs", "--agents", "--threshold"],
        "sir": ["--epochs", "--data", "--population", "--trajectories"],
        "dice": ["--dice", "--lambda0", "--players", "--rounds", "--theta"],
        "run": ["--game", "--epochs", "--data", "--agents", "--threshold", "--population",
                "--trajectories", "--dice", "--lambda0", "--players", "--rounds", "--theta"],
    }
    (sub,) = [a for a in cli.build_parser()._actions if a.choices and "run" in a.choices]
    assert sorted(sub.choices) == sorted(own)
    for command, flags in own.items():
        assert _flags(sub.choices[command]) == sorted(shared + flags), command


def test_sir_standard_forecasts_with_the_rate_equation(inputs):
    argv = ("sir", "--seed", "5", "--config", "{config}", "--data", "{data}")
    assert _run(inputs, *argv, "--mode", "standard", out="standard") == 0
    assert _run(inputs, *argv, "--mode", "neural", "--epochs", "1", out="neural") == 0
    standard = _manifest(inputs, "standard")
    assert sorted(standard["outputs"]) == ["forecast.csv", "rates.csv"]
    assert standard["content_hash"] != _manifest(inputs, "neural")["content_hash"]

    dataset = sir.ingest_csv(inputs["data"], population=1_000_000)
    rates, _warn = sir.estimate_rates(dataset, window=5)
    want = sir.integrate_kolmogorov(dataset.states[0], rates, len(dataset) - 1)
    rows = (inputs["tmp"] / "standard" / "forecast.csv").read_text().splitlines()[1:]
    got = [[float(c) for c in row.split(",")[1:4]] for row in rows if row.endswith("predicted")]
    assert np.array_equal(np.array(got), want)


# Every game x mode on the TINY config, as in the determinism test above,
# plus standard runs large enough to write many rows per turn and many rounds.
HASH_CASES = {
    f"{game}-{mode}": (game, "--mode", mode, "--seed", "5")
    + (() if game == "dice" else ("--epochs", "2")) + ("--config", "{config}")
    + (("--data", "{data}") if game == "sir" else ())
    for game in cli.GAMES for mode in cli.MODES
}
HASH_CASES["dice-standard-20-players-200-rounds"] = (
    "dice", "--mode", "standard", "--seed", "5", "--players", "20", "--rounds", "200")
HASH_CASES["dice-neural-10-players-40-rounds"] = (
    "dice", "--mode", "neural", "--seed", "5", "--players", "10", "--rounds", "40")
# the CLI's 30 x 15 table over 300 rounds runs the binomial term recurrence;
# 300 players of 20 dice leave 5,980 unseen dice, where (5/6)**5980 == 0.0
# and the log-space tail runs
HASH_CASES["dice-standard-300-rounds"] = (
    "dice", "--mode", "standard", "--seed", "5", "--rounds", "300")
HASH_CASES["dice-standard-300-players"] = (
    "dice", "--mode", "standard", "--seed", "5", "--players", "300", "--dice", "20",
    "--rounds", "20")
HASH_CASES["meeting-standard-500-agents"] = (
    "meeting", "--mode", "standard", "--seed", "5", "--agents", "500")
HASH_CASES["elfarol-standard-500-agents"] = (
    "elfarol", "--mode", "standard", "--seed", "5", "--agents", "500")
# neural runs at realistic batch shapes, trained and untrained
HASH_CASES.update({
    f"{game}-neural-200-agents": (game, "--mode", "neural", "--seed", "5",
                                  "--agents", "200", "--epochs", "2")
    for game in ("meeting", "elfarol")
})
HASH_CASES["meeting-neural-3000-agents-untrained"] = (
    "meeting", "--mode", "neural", "--seed", "5", "--agents", "3000", "--epochs", "0")


def _run_case(inputs, name):
    """The manifest of one golden case's run."""
    assert _run(inputs, *HASH_CASES[name], out=name) == 0
    return _manifest(inputs, name)


@pytest.mark.parametrize("name", sorted(HASH_CASES))
def test_outputs_match_golden_content_hashes(inputs, name):
    golden = json.loads(GOLDEN_HASHES.read_text())
    manifest = _run_case(inputs, name)
    want, got = golden["outputs"][name], manifest["outputs"]
    moved = sorted(f for f in want.keys() | got.keys() if want.get(f) != got.get(f))
    assert not moved, f"{name}: output digests differ from golden: {', '.join(moved)}"
    assert manifest["content_hash"] == golden["content_hash"][name]


@pytest.mark.parametrize("name", [f"{game}-standard" for game in cli.GAMES]
                         + ["elfarol-standard-500-agents", "dice-standard-20-players-200-rounds"])
def test_run_game_equals_game_subcommand(inputs, name):
    golden = json.loads(GOLDEN_HASHES.read_text())["content_hash"]
    game, *rest = HASH_CASES[name]
    assert _run(inputs, "run", "--game", game, *rest, out=name) == 0
    assert _manifest(inputs, name)["content_hash"] == golden[name]


if __name__ == "__main__":
    # Record golden hashes and output digests:
    #     PYTHONPATH=src python3 tests/test_cli.py [CASE ...]
    # With no CASE, only the cases missing from the file are recorded; an
    # existing hash is re-recorded only when named, i.e. when its output is
    # meant to change.
    golden = json.loads(GOLDEN_HASHES.read_text()) if GOLDEN_HASHES.exists() else {}
    hashes = golden.setdefault("content_hash", {})
    outputs = golden.setdefault("outputs", {})
    names = sys.argv[1:] or sorted(set(HASH_CASES) - (set(hashes) & set(outputs)))
    unknown = sorted(set(names) - set(HASH_CASES))
    if unknown:
        sys.exit(f"unknown case: {', '.join(unknown)}")
    with tempfile.TemporaryDirectory() as tmp:
        inputs = write_inputs(Path(tmp))
        for name in names:
            manifest = _run_case(inputs, name)
            hashes[name] = manifest["content_hash"]
            outputs[name] = manifest["outputs"]
    golden["content_hash"] = dict(sorted(hashes.items()))
    golden["outputs"] = dict(sorted(outputs.items()))
    GOLDEN_HASHES.write_text(json.dumps(golden, indent=1) + "\n")
