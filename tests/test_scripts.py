"""The scripts under ``scripts/`` run to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *map(str, args)],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_determinism_experiment():
    proc = run_script("determinism_experiment.py", "--samples", 20)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # the whole summary but the time: a change to the random stream shows
    summary = proc.stdout.strip().rsplit(", ", 1)[0]
    assert summary == "20 languages: 20 agree on determinism (19 swap-invariant), 20 verified"


@pytest.mark.parametrize("samples", ["-3", "0", "x"])
def test_determinism_experiment_needs_a_sample(samples):
    # -3 once printed "-3 languages" and exited 1, and 0 passed vacuously
    proc = run_script("determinism_experiment.py", "--samples", samples)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "error: argument --samples: " in proc.stderr


def test_worked_examples(tmp_path):
    proc = run_script("worked_examples.py", "--out", tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert (tmp_path / "mn_double_a.hda").is_file()
