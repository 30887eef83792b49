"""Machine output of a fixed set of fast commands, byte for byte.

Machine records hold integers, booleans and names only, never a timing, so
stdout depends neither on the host nor on the run.  The stdout of each
command below is kept in tests/data/golden/<name>.jsonl; a change that alters
any record alters one of those files.  A command that caches character
tables runs twice on one cache directory, so the warm path (tables read back
and re-validated, none rejected) must give the same bytes.  Regenerate the
files (a change to name as such), all or the named ones, with:

    PYTHONPATH=src python tests/test_golden.py [name ...]
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from gelfand.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"

COMMANDS = {
    "scan-n3": ["scan", "Z2", "Z3", "S3", "D4", "Z2xZ2", "--n", "3"],
    "hecke-S3-2": ["hecke", "wr(S3,2)", "--show-constants"],
    "hecke-D4-3": ["hecke", "wr(D4,3)", "--show-constants"],
    "pair-check-S3-3": ["pair-check", "wr(S3,3)", "--method", "both"],
    "pair-check-Z2-4": ["pair-check", "wr(Z2,4)", "--method", "both"],
    "group-S4": ["group", "S4"],
    "character-D4-3": ["pair-check", "wr(D4,3)", "--method", "character"],
    "character-Z3-4": ["pair-check", "wr(Z3,4)", "--method", "character"],
    "pair-check-S4-2": ["pair-check", "wr(S4,2)", "--method", "both"],
    "hecke-S4-2": ["hecke", "wr(S4,2)", "--show-constants"],
    "hecke-Z2-4": ["hecke", "wr(Z2,4)", "--show-constants"],
    "hecke-Z1-6": ["hecke", "wr(Z1,6)", "--show-constants"],
    "hecke-only-S3-3": ["pair-check", "wr(S3,3)", "--method", "hecke"],
    "hecke-only-Z2-5": ["pair-check", "wr(Z2,5)", "--method", "hecke"],
    # past the 2^62 ids: answered on the points of X alone
    "hecke-S5-8": ["hecke", "wr(S5,8)"],
    "hecke-only-S5-8": ["pair-check", "wr(S5,8)", "--method", "hecke"],
}


def machine_output(name: str, cache_dir: str) -> str:
    """The stdout of COMMANDS[name] in machine format; it must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*COMMANDS[name], "--format", "machine", "--cache-dir", cache_dir])
    assert code == 0, f"{name} exited {code}"
    return out.getvalue()


# commands that cache character tables; their second run reads them back
WARM = ("pair-check", "scan", "group")


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_machine_output_equals_its_golden_file(name, tmp_path, capsys):
    golden = (GOLDEN / f"{name}.jsonl").read_text()
    assert machine_output(name, str(tmp_path)) == golden
    if COMMANDS[name][0] in WARM:
        capsys.readouterr()
        assert machine_output(name, str(tmp_path)) == golden
        assert capsys.readouterr().err == ""  # no cache entry was rejected


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name in sys.argv[1:] or COMMANDS:
        with tempfile.TemporaryDirectory() as cache_dir:
            (GOLDEN / f"{name}.jsonl").write_text(machine_output(name, cache_dir))
        print(f"wrote {GOLDEN / name}.jsonl", file=sys.stderr)
