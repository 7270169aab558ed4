"""Every path the shipped config offers, run through ``cli.main`` at small
size with feedback off and on: each must exit 0 and print and write
finite scores.

The shipped config is used as is, except for a short waveform (T=120), an
N=24 reservoir, size sweep values cut to [10, 20] and one sweep repeat.
Lasso does not converge at the shipped settings without feedback
(ROADMAP item 2), so those two cases are strict expected failures: the
fix has to remove the marker.
"""

import csv
import math
import re
from pathlib import Path

import pytest
import yaml

from echochan.cli import main
from echochan.config import default_config_path

PRESETS = ["awgn", "data1", "data2", "data3", "data4", "bellhop_like"]
AXES = ["init", "radius", "size", "activation"]
METHODS = ["ridge", "linear", "lasso"]
INITS = ["random", "xavier", "normalized_xavier", "he"]
ACTIVATIONS = ["tanh", "relu", "sigmoid"]
SCORES = ("mape_percent", "mse", "train_seconds")


@pytest.fixture(scope="module", params=[False, True], ids=["no-feedback", "feedback"])
def feedback(request):
    return request.param


@pytest.fixture(scope="module")
def work(feedback, tmp_path_factory):
    """A directory with the small config and its generated data files."""
    directory = tmp_path_factory.mktemp("feedback" if feedback else "plain")
    raw = yaml.safe_load(default_config_path().read_text())
    raw["waveform"].update(bits_per_sequence=120, sequence_length=120)
    raw["reservoir"].update(reservoir_size=24, use_feedback=feedback)
    raw["sweep"].update(size_values=[10, 20], repeats=1)
    (directory / "config.yaml").write_text(yaml.safe_dump(raw))
    for seed, (name, preset, count) in enumerate(
        [("train", "data1", 10), ("test", "data1", 4), ("source", "bellhop_like", 8),
         ("target_train", "data3", 8), ("target_test", "data3", 4)]
    ):
        assert cli(directory, "--seed", str(seed), "generate", "--preset", preset,
                   "-n", str(count), "-o", f"{name}.esd") == 0
    return directory


def cli(directory: Path, *argv: str, config: str = "config.yaml") -> int:
    """``echochan --config <directory>/<config> *argv``, file names taken
    relative to ``directory``."""
    paths = [str(directory / a) if a.endswith((".esd", ".esn", ".csv")) else a for a in argv]
    return main(["--config", str(directory / config), *paths])


def expect_lasso_failure(request, feedback: bool, method: str) -> None:
    if method == "lasso" and not feedback:
        request.applymarker(
            pytest.mark.xfail(strict=True, reason="lasso does not converge at shipped settings")
        )


def printed_mapes(out: str) -> list[float]:
    mapes = [float(m) for m in re.findall(r"MAPE[= ](\S+)%", out)]
    assert mapes, f"no MAPE printed in {out!r}"
    return mapes


def assert_finite_scores(out: str, csv_path: Path) -> None:
    assert all(math.isfinite(m) for m in printed_mapes(out)), out
    rows = list(csv.DictReader(csv_path.read_text().splitlines()))
    assert rows
    for row in rows:
        cells = [float(row[key]) for key in SCORES]
        assert all(math.isfinite(c) for c in cells), row


@pytest.mark.parametrize("preset", PRESETS)
def test_generate(work, capsys, preset):
    assert cli(work, "generate", "--preset", preset, "-n", "3", "-o", f"{preset}.esd") == 0
    assert "3 sequences" in capsys.readouterr().out


@pytest.mark.parametrize("method", METHODS)
def test_train_and_evaluate(work, feedback, request, capsys, method):
    expect_lasso_failure(request, feedback, method)
    model = f"{method}.esn"
    assert cli(work, "train", "train.esd", "-o", model, "--regression", method) == 0
    assert cli(work, "evaluate", model, "test.esd", "--csv", f"{method}.csv") == 0
    assert_finite_scores(capsys.readouterr().out, work / f"{method}.csv")


@pytest.mark.parametrize("init", INITS)
def test_train_and_evaluate_each_init(work, capsys, init):
    model = f"init-{init}.esn"
    assert cli(work, "train", "train.esd", "-o", model, "--init", init) == 0
    assert cli(work, "evaluate", model, "test.esd", "--csv", f"init-{init}.csv") == 0
    assert_finite_scores(capsys.readouterr().out, work / f"init-{init}.csv")


@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_train_and_evaluate_each_activation(work, capsys, activation):
    # the activation has no train flag: it is set through the config
    raw = yaml.safe_load((work / "config.yaml").read_text())
    raw["reservoir"]["activation"] = activation
    config = f"config-{activation}.yaml"
    (work / config).write_text(yaml.safe_dump(raw))
    model, report = f"activation-{activation}.esn", f"activation-{activation}.csv"
    assert cli(work, "train", "train.esd", "-o", model, config=config) == 0
    assert cli(work, "evaluate", model, "test.esd", "--csv", report, config=config) == 0
    assert_finite_scores(capsys.readouterr().out, work / report)


@pytest.mark.parametrize(
    "axis, method", [(axis, None) for axis in AXES] + [("regression", m) for m in METHODS]
)
def test_sweep(work, feedback, request, capsys, axis, method):
    config = work / "config.yaml"
    if method is not None:  # one regression method per case
        expect_lasso_failure(request, feedback, method)
        raw = yaml.safe_load(config.read_text())
        raw["sweep"]["regression_values"] = [method]
        config = work / f"config-{method}.yaml"
        config.write_text(yaml.safe_dump(raw))
    out = work / f"sweep-{axis}.csv"
    code = main(["--config", str(config), "sweep", "--axis", axis,
                 "--data", str(work / "train.esd"), "-o", str(out)])
    assert code == 0
    assert_finite_scores(capsys.readouterr().out, out)


@pytest.mark.parametrize("mode", ["direct", "finetune"])
def test_transfer(work, capsys, mode):
    # finetune also at the two weights that fold only one of the datasets
    for alpha in ["0.5"] if mode == "direct" else ["0", "0.5", "1"]:
        out = f"transfer-{mode}-{alpha}.csv"
        assert cli(work, "transfer", "--source", "source.esd", "--target-train", "target_train.esd",
                   "--target-test", "target_test.esd", "--mode", mode, "--alpha", alpha,
                   "-o", out) == 0
        assert_finite_scores(capsys.readouterr().out, work / out)
