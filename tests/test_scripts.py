"""The scripts under ``scripts/`` run to completion."""

import hashlib
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


# SHA-256 of every file the worked examples write: the automata, their
# class tables and their drawings
WORKED_EXAMPLES = {
    "mn_double_a.dot": "401f7ddf678790ee334a50a1e776a52e5c0097d3d49a75922f38647553138097",
    "mn_double_a.hda": "0ec8431a47b202cb3806e497ae7bcc2d2ae5f665d93b4c1d62fefa67a63a25e0",
    "mn_double_a.json": "16656eeca459a04253e0eab715cf4fd0120619939f970bbe6f4860f3fbb8ce3a",
    "mn_par_ab_aa.dot": "641d064c799581bca0b99f4662b733617999eccab901f7d47e811a879d6bd89d",
    "mn_par_ab_aa.hda": "2ea7348c344a781880f6c877c48f6a38143b7baec64c76ef4f789f2f61c5bd61",
    "mn_par_ab_aa.json": "b780075902d7489ed8a2ae6fc066cb36b506d4bb500f20db98c33ea7a740c9ae",
    "mn_par_ab_abc.dot": "3b4c14d226c0e25ec4c9fe08f039d1c4da5eacf8e82f0eba2319da597cf67914",
    "mn_par_ab_abc.hda": "c17c474a1888042c7179a8bae12854c2c7aeca39f02b591c01dcf78cf523dfcc",
    "mn_par_ab_abc.json": "469c027903500c422a195f27f86ea70f0470c898d8d2e2ae65ad5b2deb7f8e9b",
}


def test_worked_examples(tmp_path):
    proc = run_script("worked_examples.py", "--out", tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    written = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()
    }
    assert written == WORKED_EXAMPLES
