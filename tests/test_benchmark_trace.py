"""The benchmark's outside-in trace must still install on this code.

perfbench/tracer.py wraps gelfand names from outside the package and raises
LookupError at install time for any name that no longer exists, so a rename
or deletion in src would break the benchmark's traced runs without this test.
"""

import importlib.util
from pathlib import Path

import gelfand.reports
from gelfand import check_pair

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_every_span_and_restores_on_exit():
    tracer_module = _load_tracer()
    original = gelfand.reports.double_cosets
    with tracer_module.Tracer() as tracer:
        assert gelfand.reports.double_cosets is not original
        check_pair("wr(Z2,2)", cache_dir=None)
        spans, _ = tracer.take()
    assert gelfand.reports.double_cosets is original
    names = {span[0] for span in spans}
    assert {"hecke.double_cosets", "chartab.permutation_character"} <= names
