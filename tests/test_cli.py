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
from mfgames.games import sir

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
    huge_lr = tmp_path / "huge_lr.ini"
    huge_lr.write_text(TINY.replace("[dice]", "[dice]\nlr = 1e300"))
    return {"config": str(config), "data": str(data), "one_day": str(one_day),
            "sir_config": str(sir_config), "bad_seed": str(bad_run["seed"]),
            "bad_epochs": str(bad_run["epochs"]), "huge_lr": str(huge_lr), "tmp": tmp_path}


@pytest.fixture
def inputs(tmp_path):
    return write_inputs(tmp_path)


def _run(inputs, *argv, out="out"):
    args = [a.format(**inputs) for a in argv]
    return cli.main(list(args) + ["--out", str(inputs["tmp"] / out)])


EXIT_CASES = [
    ("ok", 0, ("meeting", "--agents", "8", "--config", "{config}")),
    ("no agents", 2, ("meeting", "--agents", "0")),
    ("threshold out of range", 2, ("elfarol", "--threshold", "1.5")),
    ("one dice player", 2, ("dice", "--players", "1")),
    ("unparsable theta", 2, ("dice", "--theta", "a,b,c,d,e,f")),
    ("sir without data", 2, ("sir",)),
    ("empty population", 2, ("sir", "--data", "{data}", "--population", "0")),
    ("unknown config file", 2, ("meeting", "--config", "{tmp}/absent.ini")),
    ("config file for another game", 2, ("meeting", "--config", "{sir_config}")),
    ("config file for this game", 0, ("sir", "--data", "{data}", "--config", "{sir_config}")),
    ("missing data file", 3, ("sir", "--data", "{tmp}/absent.csv")),
    ("malformed data file", 3, ("sir", "--data", "{config}")),
    ("one-day data file, neural", 3, ("sir", "--mode", "neural", "--data", "{one_day}")),
    ("one-day data file, standard", 0, ("sir", "--mode", "standard", "--data", "{one_day}")),
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
    ("seed of 2**64, dice", 2, ("dice", "--seed", str(2**64), "--config", "{config}")),
    ("seed of 2**64, neural meeting", 2,
     ("meeting", "--mode", "neural", "--seed", str(2**64), "--config", "{config}")),
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
    ("lr", "0", "neural"),
    ("lr", "-1", "neural"),
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
    ("init_mean = inf", "standard"),  # non-finite Euler-Maruyama step
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
    argv = (game, "--mode", mode, "--seed", "5", "--epochs", "2", "--config", "{config}")
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


def _manifest(inputs, out):
    return json.loads((inputs["tmp"] / out / "manifest.json").read_text())


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
    f"{game}-{mode}": (game, "--mode", mode, "--seed", "5", "--epochs", "2",
                       "--config", "{config}") + (("--data", "{data}") if game == "sir" else ())
    for game in cli.GAMES for mode in cli.MODES
}
HASH_CASES["dice-standard-20-players-200-rounds"] = (
    "dice", "--mode", "standard", "--seed", "5", "--players", "20", "--rounds", "200")
HASH_CASES["dice-neural-10-players-40-rounds"] = (
    "dice", "--mode", "neural", "--seed", "5", "--players", "10", "--rounds", "40")
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
