"""Outside-in layer trace for the benchmark's traced runs.

The spans wrap gelfand's public functions from the benchmark's own files;
nothing under src/ is edited.  Modules import names directly (reports does
``from .hecke import double_cosets``), so each span replaces the name in the
module that calls it.  Group products are counted by wrapping the ``mul`` of
every group class and are charged to the innermost open span; a product that
calls another group's ``mul`` (a direct product's components) counts each
call.  A name that no longer exists raises LookupError at install time, so a
rename can never report a layer as zero.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

# (module whose global is replaced, attribute, span name)
SPANS = (
    ("gelfand.cli", "main", "cli.main"),
    ("gelfand.cli", "check_pair", "reports.check_pair"),
    ("gelfand.reports", "build_group", "specs.build_group"),
    ("gelfand.reports", "is_abelian", "groups.is_abelian"),
    ("gelfand.reports", "embed_wreath_subgroup", "wreath.embed_wreath_subgroup"),
    ("gelfand.reports", "cached_character_table", "chartab.cached_character_table"),
    ("gelfand.reports", "induced_trivial_prediction", "partitions.induced_trivial_prediction"),
    ("gelfand.reports", "double_cosets", "hecke.double_cosets"),
    ("gelfand.reports", "structure_constants", "hecke.structure_constants"),
    ("gelfand.reports", "is_commutative", "hecke.is_commutative"),
    ("gelfand.reports", "conjugacy_classes", "groups.conjugacy_classes"),
    ("gelfand.reports", "decompose_induced_trivial", "chartab.decompose_induced_trivial"),
    ("gelfand.chartab", "conjugacy_classes", "groups.conjugacy_classes"),
    ("gelfand.chartab", "character_table", "chartab.character_table"),
    ("gelfand.chartab", "class_coefficients", "chartab.class_coefficients"),
    ("gelfand.chartab", "validate_character_table", "chartab.validate_character_table"),
    ("gelfand.chartab", "save_character_table", "chartab.save_character_table"),
    ("gelfand.chartab", "load_character_table", "chartab.load_character_table"),
    ("gelfand.chartab", "permutation_character", "chartab.permutation_character"),
)

# span name -> (counter, amount added per successful call)
RESULT_COUNTS = {
    "hecke.double_cosets": ("hecke.blocks", lambda dc: dc.rank),
    "chartab.character_table": ("chartab.classes", lambda table: table.num_classes),
}

# counted without a span, so their time stays in the caller's self time:
# one _extract_rows call is one eigensolve attempt of character_table
CALL_COUNTS = (("gelfand.chartab", "_extract_rows", "chartab.eig_calls"),)

MUL_CLASSES = (
    ("gelfand.groups", "CyclicGroup"),
    ("gelfand.groups", "SymmetricGroup"),
    ("gelfand.groups", "DihedralGroup"),
    ("gelfand.groups", "DirectProductGroup"),
    ("gelfand.groups", "GeneratedSubgroup"),
    ("gelfand.wreath", "WreathProduct"),
)

# per-layer metric -> (span name, field of its per-span totals); the span's
# field is summed over the pass.  Metrics missing here come from counters.
SPAN_METRICS = {
    "hecke.structure_constants_s": ("hecke.structure_constants", "self_s"),
    "hecke.structure_constants.products": ("hecke.structure_constants", "products"),
    "hecke.double_cosets_s": ("hecke.double_cosets", "self_s"),
    "hecke.double_cosets.products": ("hecke.double_cosets", "products"),
    "hecke.is_commutative_s": ("hecke.is_commutative", "self_s"),
    "groups.conjugacy_classes_s": ("groups.conjugacy_classes", "self_s"),
    "groups.conjugacy_classes.calls": ("groups.conjugacy_classes", "calls"),
    "groups.conjugacy_classes.products": ("groups.conjugacy_classes", "products"),
    "chartab.class_coefficients_s": ("chartab.class_coefficients", "self_s"),
    "chartab.class_coefficients.products": ("chartab.class_coefficients", "products"),
    "chartab.character_table.self_s": ("chartab.character_table", "self_s"),
    "chartab.save_character_table_s": ("chartab.save_character_table", "self_s"),
    "chartab.load_character_table.self_s": ("chartab.load_character_table", "self_s"),
    "chartab.validate_character_table_s": ("chartab.validate_character_table", "self_s"),
    "chartab.permutation_character_s": ("chartab.permutation_character", "self_s"),
    "chartab.permutation_character.products": ("chartab.permutation_character", "products"),
    "chartab.decompose_induced_trivial.self_s": ("chartab.decompose_induced_trivial", "self_s"),
    "wreath.embed_wreath_subgroup_s": ("wreath.embed_wreath_subgroup", "self_s"),
    "wreath.embed_wreath_subgroup.products": ("wreath.embed_wreath_subgroup", "products"),
    "groups.is_abelian_s": ("groups.is_abelian", "self_s"),
    "specs.build_group_s": ("specs.build_group", "self_s"),
    "partitions.induced_trivial_prediction_s": ("partitions.induced_trivial_prediction", "self_s"),
    "reports.check_pair.self_s": ("reports.check_pair", "self_s"),
    "cli.main.self_s": ("cli.main", "self_s"),
}


def _lookup(module_name: str, attr: str):
    value = getattr(importlib.import_module(module_name), attr, None)
    if value is None:
        raise LookupError(
            f"traced name {module_name}.{attr} no longer exists; update perfbench/tracer.py"
        )
    return value


class Tracer:
    """Spans and counters for one worker, installed while used as a context.

    A span is [name, start, end, parent index, pair id, products at open,
    products at close, returned normally]; spans stay in memory until taken.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.pair: str | None = None
        self._open: list[int] = []
        self._products = [0]
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for module_name, attr, name in SPANS:
                fn = _lookup(module_name, attr)
                self._replace(importlib.import_module(module_name), attr, self._span(name, fn))
            for module_name, attr, counter in CALL_COUNTS:
                fn = _lookup(module_name, attr)
                self._replace(importlib.import_module(module_name), attr, self._count(counter, fn))
            for module_name, class_name in MUL_CLASSES:
                cls = _lookup(module_name, class_name)
                if "mul" not in vars(cls):
                    raise LookupError(f"{module_name}.{class_name} no longer defines mul")
                self._replace(cls, "mul", self._mul(vars(cls)["mul"]))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def take(self) -> tuple[list[list], Counter]:
        """Hand over the finished spans and counters and start afresh."""
        if self._open:
            raise RuntimeError(f"{len(self._open)} span(s) still open")
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def _span(self, name: str, fn):
        opened = self._open
        products = self._products
        on_result = RESULT_COUNTS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), None, opened[-1] if opened else None, self.pair,
                    products[0], None, False]
            opened.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
                span[7] = True
                if on_result is not None:
                    self.counts[on_result[0]] += on_result[1](result)
                return result
            finally:
                span[2] = clock()
                span[6] = products[0]
                opened.pop()

        return traced

    def _count(self, counter: str, fn):
        def counted(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def _mul(self, fn):
        products = self._products

        def mul(group, a, b):
            products[0] += 1
            return fn(group, a, b)

        return mul


def span_totals(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, normal returns, self time and self products."""
    child_s = [0.0] * len(spans)
    child_products = [0] * len(spans)
    for name, start, end, parent, _pair, p_in, p_out, _ok in spans:
        if parent is not None:
            child_s[parent] += end - start
            child_products[parent] += p_out - p_in
    totals: dict[str, dict] = {}
    for i, (name, start, end, _parent, _pair, p_in, p_out, ok) in enumerate(spans):
        t = totals.setdefault(name, {"calls": 0, "ok": 0, "self_s": 0.0, "products": 0})
        t["calls"] += 1
        t["ok"] += ok
        t["self_s"] += (end - start) - child_s[i]
        t["products"] += (p_out - p_in) - child_products[i]
    return totals


def per_layer(spans: list[list], counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced pass (trace.overhead_s excluded)."""
    totals = span_totals(spans)
    out = {
        metric: totals.get(span, {}).get(field, 0)
        for metric, (span, field) in SPAN_METRICS.items()
    }
    for counter in ("hecke.blocks", "chartab.classes", "chartab.eig_calls"):
        out[counter] = counts[counter]
    hits = totals.get("chartab.load_character_table", {}).get("ok", 0)
    lookups = totals.get("chartab.cached_character_table", {}).get("calls", 0)
    out["chartab.cache_hits"] = hits
    out["chartab.cache_misses"] = lookups - hits
    return out


def span_lines(spans: list[list], first_id: int) -> list[dict]:
    """Spans as JSON-ready dicts with ids unique across one trace file."""
    return [
        {
            "id": first_id + i,
            "name": name,
            "start": start,
            "end": end,
            "parent": None if parent is None else first_id + parent,
            "pair": pair,
            "products": p_out - p_in,
            "ok": ok,
        }
        for i, (name, start, end, parent, pair, p_in, p_out, ok) in enumerate(spans)
    ]
