"""The benchmark's outside-in trace and its correctness gate must still hold
on this code.

perfbench/tracer.py wraps gelfand names from outside the package and raises
LookupError at install time for any name that no longer exists, so a rename
or deletion in src would break the benchmark's traced runs without this test.
A name that still exists but is no longer called would read as a zero layer,
so one cold and one warm pair-check must open every traced span, and the
cold one must count eigensolves and the double-coset blocks.

perfbench/workloads.py pins the machine record of every benchmark pair; a
pinned verdict broken by a change shows here, before the benchmark runs.
"""

import importlib.util
from pathlib import Path

import pytest

import gelfand.cli
import gelfand.reports
from gelfand import check_pair

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """perfbench/<name>.py as a module, read from its file and never edited."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load("workloads")
EXPECTED = WORKLOADS.load_expected()


@pytest.mark.parametrize("key", sorted(EXPECTED))
def test_benchmark_pair_passes_its_gate(key, tmp_path, capsys):
    method, pair = key.split(" ", 1)
    argv = ["pair-check", pair, "--method", method, "--format", "machine"]
    rc = gelfand.cli.main(argv + ["--cache-dir", str(tmp_path)])
    assert WORKLOADS.gate(EXPECTED, method, pair, rc, capsys.readouterr().out) == []


def test_tracer_installs_every_span_and_restores_on_exit():
    tracer_module = _load("tracer")
    original = gelfand.reports.double_cosets
    with tracer_module.Tracer() as tracer:
        assert gelfand.reports.double_cosets is not original
        check_pair("wr(Z2,2)", cache_dir=None)
        spans, _ = tracer.take()
    assert gelfand.reports.double_cosets is original
    names = {span[0] for span in spans}
    assert {"hecke.double_cosets", "chartab.permutation_character"} <= names


def test_cold_and_warm_pair_check_open_every_span(tmp_path, capsys):
    tracer_module = _load("tracer")
    argv = ["pair-check", "wr(Z2,2)", "--format", "machine", "--cache-dir", str(tmp_path)]
    with tracer_module.Tracer() as tracer:
        assert gelfand.cli.main(argv) == 0  # cold: tables computed and saved
        cold, cold_counts = tracer.take()
        assert gelfand.cli.main(argv) == 0  # warm: tables loaded and validated
        warm, warm_counts = tracer.take()
    capsys.readouterr()
    opened = {span[0] for span in cold + warm}
    assert {name for _, _, name in tracer_module.SPANS} - opened == set()
    # the eigensolve is counted, not spanned: the base's and the wreath's
    # tables each call _extract_rows, a loaded table never does
    assert cold_counts["chartab.eig_calls"] >= 2
    assert warm_counts["chartab.eig_calls"] == 0
    # the blocks are counted off double_cosets' rank: 3 for wr(Z2,2)
    assert cold_counts["hecke.blocks"] == 3
