"""The demos still run against the package's public API."""

import runpy
import subprocess
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_soft_logic.py", "02_projection.py"])
def test_quick_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out


# What each training demo prints last, from its deployed teacher
# (predict_proba, predict_tags).
TRAINING_DEMOS = {
    "03_sentiment_distillation.py": "(teacher corrects the student)",
    "04_list_ner.py": "(rules repair the decode)",
}


@pytest.mark.parametrize("name", sorted(TRAINING_DEMOS))
def test_training_demo_runs(name, capsys):
    # Each trains a base and a distilled student in a few seconds.
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert TRAINING_DEMOS[name] in capsys.readouterr().out


def test_cli_demo_parses():
    subprocess.run(["bash", "-n", str(DEMOS / "05_cli_pipeline.sh")], check=True)
