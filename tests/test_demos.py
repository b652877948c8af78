"""Smoke test: every narrative demo runs to completion."""

import os
import pathlib
import subprocess
import sys

import pytest

import graphonlab

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
SRC = str(pathlib.Path(graphonlab.__file__).resolve().parents[1])


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # run in tmp_path, since demos may write files to the working directory
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
