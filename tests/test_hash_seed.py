"""Output must not depend on the order in which Python iterates a set of
strings, which changes with PYTHONHASHSEED."""

import os
import subprocess
import sys
from pathlib import Path

from hdalib.hda import build_hda, validate

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"

# two start cells, each with an a-edge to the one accept cell
TWO_STARTS = """hda two {
  cell u: [] ; cell v: [] ; cell w: [] ;
  cell e: [a] d0(1)=u d1(1)=w ;
  cell f: [a] d0(1)=v d1(1)=w ;
  start: u v ;
  accept: w ;
}
"""


def _cli(argv, seed):
    proc = subprocess.run(
        [sys.executable, "-m", "hdalib.cli", *map(str, argv)],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": seed},
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_cli_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    two = tmp_path / "two.hda"
    two.write_text(TWO_STARTS)
    log = DATA / "n_shape_intervals.csv"
    for argv in (
        ["hda", "member", two, "--expr", "a"],
        ["ingest", log, "--order", "begin"],
        ["ingest", log, "--order", "input"],
        ["ipo", "decompose", DATA / "n_shape.ipo"],
    ):
        runs = [_cli(argv, seed) for seed in ("1", "2")]
        assert runs[0][0] in (0, 1), runs[0]
        assert runs[0] == runs[1], argv


def test_validate_lists_undefined_interface_cells_sorted():
    x = build_hda([], start="pqrs", accept="tu")
    assert validate(x).problems == tuple(
        f"start/accept cell {name!r} undefined" for name in "pqrstu"
    )
