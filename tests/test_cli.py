import json

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


@pytest.fixture
def inputs(tmp_path):
    config = tmp_path / "tiny.ini"
    config.write_text(TINY)
    data = tmp_path / "sir.csv"
    dataset = sir.generate_synthetic_dataset(
        12, seed=1, measures=sir.make_measure_schedule(12, seed=1), modulate=True
    )
    sir.write_dataset_csv(dataset, data)
    return {"config": str(config), "data": str(data), "tmp": tmp_path}


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
    ("missing data file", 3, ("sir", "--data", "{tmp}/absent.csv")),
    ("malformed data file", 3, ("sir", "--data", "{config}")),
]


@pytest.mark.parametrize("code,argv", [c[1:] for c in EXIT_CASES],
                         ids=[c[0] for c in EXIT_CASES])
def test_exit_codes(inputs, capsys, code, argv):
    assert _run(inputs, *argv) == code
    err = capsys.readouterr().err
    assert ("error:" in err) == (code != 0)
    assert "Traceback" not in err


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
    assert hashes[0] == hashes[1]
