"""The demos still run against the package's public API."""

import os
import re
import runpy
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


@pytest.mark.parametrize("name", ["01_soft_logic.py", "02_projection.py"])
def test_quick_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out


# What each training demo prints last, from its deployed teacher on a
# prepared set (soft_predict_set for one sentence, decode for the tags).
TRAINING_DEMOS = {
    "03_sentiment_distillation.py": "(teacher corrects the student)",
    "04_list_ner.py": "(rules repair the decode)",
}


@pytest.mark.parametrize("name", sorted(TRAINING_DEMOS))
def test_training_demo_runs(name, capsys):
    # Each trains a base and a distilled student in a few seconds.
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert TRAINING_DEMOS[name] in capsys.readouterr().out


def test_readme_python_blocks_run(capsys):
    # The README's Python blocks build on each other: run them in order,
    # in one namespace.
    readme = ROOT / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 4
    namespace = {"__name__": "__readme__"}
    for block in blocks:
        exec(compile(block, str(readme), "exec"), namespace)
    assert capsys.readouterr().out


def test_cli_demo_runs(tmp_path):
    # The demo calls `ruledistill`, which an uninstalled checkout lacks: a
    # shim first on PATH runs the package's CLI module from src.
    shim = tmp_path / "ruledistill"
    shim.write_text(f"#!/bin/sh\nexec {shlex.quote(sys.executable)} -m ruledistill.cli \"$@\"\n")
    shim.chmod(0o755)
    env = dict(os.environ,
               PATH=os.pathsep.join([str(tmp_path), os.environ.get("PATH", "")]),
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    run = subprocess.run(["bash", str(DEMOS / "05_cli_pipeline.sh")], env=env,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    assert "failures=0" in run.stdout
