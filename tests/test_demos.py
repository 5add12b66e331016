"""The demos still run against the package's public API."""

import importlib.util
import runpy
import subprocess
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_soft_logic.py", "02_projection.py"])
def test_quick_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out


@pytest.mark.parametrize("name", ["03_sentiment_distillation.py", "04_list_ner.py"])
def test_training_demo_imports(name):
    # These train for minutes, so only their imports are checked.
    spec = importlib.util.spec_from_file_location(name[:-3], DEMOS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_cli_demo_parses():
    subprocess.run(["bash", "-n", str(DEMOS / "05_cli_pipeline.sh")], check=True)
