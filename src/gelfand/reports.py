"""Pair verification: run both Gelfand criteria and cross-check everything.

A PairReport records the double-coset (Hecke) verdict, the character-theoretic
verdict, the branching prediction from the base group's irreducible
dimensions, and every consistency check between them.  The two verdicts are
computed along fully independent routes, so agreement is evidence, not
tautology; any disagreement is an internal failure and must never happen.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from functools import partial

from . import __version__
from .chartab import (
    cached_character_table,
    check_limits,
    decompose_induced_trivial,
    wreath_character_table,
)
from .errors import InvalidParameterError, ResourceLimitError
from .groups import conjugacy_classes, is_abelian
from .hecke import double_cosets, is_commutative, structure_constants
from .partitions import (
    format_multipartition,
    format_partition,
    induced_trivial_prediction,
)
from .specs import build_group, parse_group_spec, parse_pair_spec
from .wreath import DEFAULT_SIZE_BUDGET, embed_wreath_subgroup

SCHEMA_VERSION = 1

SKIPPED = "skipped"


@dataclass
class PairReport:
    """Everything the toolkit can say about one pair (G wr S_n, G wr S_(n-1)).

    Every field but timings is a key of its machine record (report_record).
    """

    pair: str
    base: str = ""
    n: int = 0
    group_order: int | None = None
    subgroup_order: int | None = None
    base_abelian: bool | None = None
    rank: int | None = None
    gelfand_hecke: bool | None = None
    gelfand_character: bool | str | None = None
    multiplicities: tuple[int, ...] | None = None  # nonzero, sorted
    predicted_term_count: int | None = None
    predicted_rank: int | None = None
    predicted_multiplicities: tuple[int, ...] | None = None
    failures: tuple[str, ...] = ()
    error: str | None = None
    timings: dict = field(default_factory=dict)

    @property
    def consistent(self) -> bool:
        return self.error is None and not self.failures

    @property
    def gelfand(self) -> bool | None:
        if isinstance(self.gelfand_hecke, bool):
            return self.gelfand_hecke
        if isinstance(self.gelfand_character, bool):
            return self.gelfand_character
        return None


def _consistency_failures(report: PairReport) -> list[str]:
    out = []
    hecke_ran = isinstance(report.gelfand_hecke, bool)
    char_ran = isinstance(report.gelfand_character, bool)
    if hecke_ran and char_ran and report.gelfand_hecke != report.gelfand_character:
        out.append(
            "THE TWO CRITERIA DISAGREE: "
            f"hecke={report.gelfand_hecke} character={report.gelfand_character}"
        )
    if char_ran and report.multiplicities is not None and report.rank is not None:
        ssq = sum(m * m for m in report.multiplicities)
        if ssq != report.rank:
            out.append(
                f"sum of squared multiplicities {ssq} != double-coset rank {report.rank}"
            )
    if report.rank is not None and report.predicted_rank is not None:
        if report.rank != report.predicted_rank:
            out.append(
                f"double-coset rank {report.rank} != predicted rank {report.predicted_rank}"
            )
    if char_ran and report.predicted_multiplicities is not None:
        if report.multiplicities != report.predicted_multiplicities:
            out.append(
                f"multiplicity multiset {report.multiplicities} != predicted "
                f"{report.predicted_multiplicities}"
            )
    if report.base_abelian is not None:
        for label, verdict in (
            ("hecke", report.gelfand_hecke),
            ("character", report.gelfand_character),
        ):
            if isinstance(verdict, bool) and verdict != report.base_abelian:
                out.append(
                    f"{label} verdict {verdict} contradicts base abelian = "
                    f"{report.base_abelian}"
                )
    return out


def build_pair(pairspec: str, size_budget: int = DEFAULT_SIZE_BUDGET, *, on_points=False):
    """Parse wr(<group>,<n>), build the base group and embed the pair.

    Returns the embedding of G wr S_(n-1) into G wr S_n; its parent, a
    WreathProduct, carries the canonical name, the base group and n.  The
    size budget is enforced here, before any work proportional to a
    group's order: on |G wr S_n|, or with on_points, for the Hecke route
    alone, on the points X (wreath.point_budget).
    """
    base_ast, n = parse_pair_spec(pairspec)
    if n < 2:
        raise InvalidParameterError(f"pair spec needs n >= 2, got n={n}")
    return embed_wreath_subgroup(build_group(base_ast), n, size_budget, on_points=on_points)


def check_pair(
    pairspec: str,
    *,
    method: str = "both",
    seed: int = 0,
    size_budget: int = DEFAULT_SIZE_BUDGET,
    cache_dir=None,
    on_points: bool | None = None,
) -> PairReport:
    """Verify one pair with the selected method(s) and cross-check the results.

    The character route checks the wreath group against the character-table
    limits (chartab.check_limits) before any wreath class is computed: the
    classes of G wr S_n are indexed by the multipartitions of n over the
    classes of G, so their count is known from the construction.  A wreath
    group past the limits raises ResourceLimitError with method="character";
    with method="both" it degrades to the Hecke criterion alone (itself a
    complete exact verdict) and marks the character verdict "skipped".
    Within the limits the wreath group's table is computed in closed form
    from the base's table (chartab.wreath_character_table), the one this
    check already holds: a base past the limits has a wreath group past
    them too, with |B|^n n! > |B| elements and more classes than B.

    The branching prediction needs only the base group's degrees.  A base
    within the limits reads them from its (cached) character table; an
    abelian base past them has |G| degrees equal to 1, exactly; a non-abelian
    base past them leaves the prediction out (its fields stay None) and the
    routes still run.
    """
    if method not in ("hecke", "character", "both"):
        raise InvalidParameterError(
            f"method must be 'hecke', 'character' or 'both', got {method!r}"
        )
    t0 = time.perf_counter()
    if on_points is None:
        on_points = method == "hecke"
    embedding = build_pair(pairspec, size_budget, on_points=on_points)
    wreath = embedding.parent
    base, n = wreath.base_group, wreath.n
    report = PairReport(pair=wreath.name, base=base.name, n=n)
    timings = report.timings
    report.base_abelian = is_abelian(base)
    report.group_order = wreath.order
    report.subgroup_order = embedding.subgroup.order
    timings["build"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    base_table = None
    try:
        check_limits(base)
    except ResourceLimitError:
        # an abelian group has |G| linear characters; otherwise no prediction
        degrees = (1,) * base.order if report.base_abelian else None
    else:
        base_table = cached_character_table(base, cache_dir, seed=seed)
        degrees = base_table.degrees
    if degrees is not None:
        prediction = induced_trivial_prediction(degrees, n)
        report.predicted_term_count = prediction.term_count
        report.predicted_rank = prediction.predicted_rank
        report.predicted_multiplicities = prediction.multiplicities
    timings["prediction"] = time.perf_counter() - t0

    if method in ("hecke", "both"):
        t0 = time.perf_counter()
        cosets = double_cosets(embedding)
        witness = structure_constants(embedding, cosets)
        report.rank = cosets.rank
        report.gelfand_hecke = is_commutative(witness)
        timings["hecke"] = time.perf_counter() - t0

    if method in ("character", "both"):
        t0 = time.perf_counter()
        try:
            check_limits(wreath)
        except ResourceLimitError:
            if method == "character":
                raise
            report.gelfand_character = SKIPPED
        else:
            # the classes and the table in closed form, from the base's table:
            # no id of the wreath group is labelled, and no product counted
            conjugacy_classes(wreath)
            table = cached_character_table(
                wreath, cache_dir, compute=partial(wreath_character_table, wreath, base_table)
            )
            multiplicities = decompose_induced_trivial(embedding, table)
            report.multiplicities = tuple(sorted(m for m in multiplicities if m))
            report.gelfand_character = max(multiplicities) <= 1
        timings["character"] = time.perf_counter() - t0

    report.failures = tuple(_consistency_failures(report))
    return report


def scan_pairs(base_specs: list[str], n: int, **kwargs) -> list[PairReport]:
    """One report per base; per-row errors are recorded, never abort the scan.

    Each base is parsed on its own first, so a parse error's offset points
    into the base as typed.  Every row keeps the |G| budget, whatever the
    method.
    """
    reports = []
    for base in base_specs:
        spec = f"wr({base},{n})"
        try:
            parse_group_spec(base)
            reports.append(check_pair(spec, on_points=False, **kwargs))
        except Exception as exc:  # recorded in the row
            reports.append(PairReport(pair=spec, base=base, n=n, error=str(exc)))
    return reports


def record(kind: str, **fields) -> dict:
    """One machine record: its kind, the schema and toolkit versions, then fields.

    Every machine record on stdout is built here; json.dumps writes tuple
    values as lists.
    """
    return {
        "kind": kind,
        "schema_version": SCHEMA_VERSION,
        "toolkit_version": __version__,
        **fields,
    }


def report_record(report: PairReport, kind: str = "pair_report") -> dict:
    """Machine form of a report.

    Timings are deliberately absent: identical inputs must produce
    byte-identical machine output.
    """
    values = {f.name: getattr(report, f.name) for f in fields(report)}
    del values["timings"]
    return record(kind, **values, consistent=report.consistent)


def _multiset(values) -> str:
    return "{" + ",".join(str(v) for v in values) + "}"


def format_report(report: PairReport) -> str:
    """Human-readable multi-line rendering of one pair report."""
    lines = [f"pair {report.pair}"]
    if report.error is not None:
        lines.append(f"  error: {report.error}")
        return "\n".join(lines)
    lines.append(
        f"  G = wr({report.base},{report.n}), |G| = {report.group_order}; "
        f"K = wr({report.base},{report.n - 1}), |K| = {report.subgroup_order}"
    )
    lines.append(
        f"  base {report.base}: {'abelian' if report.base_abelian else 'non-abelian'}"
    )
    if isinstance(report.gelfand_hecke, bool):
        verdict = "commutative" if report.gelfand_hecke else "NOT commutative"
        lines.append(f"  hecke:      rank {report.rank}, double-coset algebra {verdict}")
    if report.gelfand_character == SKIPPED:
        lines.append("  character:  skipped (over character-table limits)")
    elif isinstance(report.gelfand_character, bool):
        verdict = (
            "multiplicity free" if report.gelfand_character else "NOT multiplicity free"
        )
        lines.append(
            f"  character:  nonzero multiplicities {_multiset(report.multiplicities)}, "
            f"{verdict}"
        )
    if report.predicted_term_count is None:
        lines.append("  predicted:  skipped (over character-table limits)")
    else:
        lines.append(
            f"  predicted:  {report.predicted_term_count} terms, multiplicities "
            f"{_multiset(report.predicted_multiplicities)}, rank {report.predicted_rank}"
        )
    if report.failures:
        for failure in report.failures:
            lines.append(f"  CONSISTENCY FAILURE: {failure}")
    else:
        lines.append("  consistency: all checks passed")
    gelfand = report.gelfand
    if gelfand is not None:
        lines.append(
            f"  verdict: (wr({report.base},{report.n}), "
            f"wr({report.base},{report.n - 1})) "
            f"{'IS' if gelfand else 'is NOT'} a Gelfand pair"
        )
    timing = " ".join(f"{k} {v:.3f}s" for k, v in report.timings.items())
    if timing:
        lines.append(f"  time: {timing}")
    return "\n".join(lines)


def format_branch_terms(prediction) -> str:
    """Render prediction terms like "S^(5) ⊕ S^(4,1)" (l = 1 drops the tuple)."""
    parts = []
    for mp, mult in prediction.terms:
        label = format_multipartition(mp) if len(mp) > 1 else format_partition(mp[0])
        term = f"S^{label}"
        if mult != 1:
            term = f"{mult}·{term}"
        parts.append(term)
    return " ⊕ ".join(parts)
