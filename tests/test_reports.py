"""Pair reports: dual-method agreement, predictions and failure capture."""

from collections import Counter

import pytest

import gelfand.chartab
import gelfand.reports

from gelfand import (
    InvalidParameterError,
    ResourceLimitError,
    check_pair,
    report_record,
    scan_pairs,
)
from gelfand.groups import FiniteGroup
from gelfand.reports import SKIPPED, format_report
from gelfand.wreath import WreathProduct


def test_abelian_base_pair():
    r = check_pair("wr(Z2,3)", cache_dir=None)
    assert r.group_order == 48
    assert r.subgroup_order == 8
    assert r.base_abelian is True
    assert r.gelfand_hecke is True
    assert r.gelfand_character is True
    assert r.rank == 3
    assert r.predicted_rank == 3
    assert r.multiplicities == (1, 1, 1)
    assert r.consistent


def test_nonabelian_base_pair():
    r = check_pair("wr(S3,2)", cache_dir=None)
    assert r.base_abelian is False
    assert r.gelfand_hecke is False
    assert r.gelfand_character is False
    assert r.rank == 7
    assert r.multiplicities == (1, 1, 1, 2)
    assert r.predicted_term_count == 4
    assert r.consistent


def test_trivial_base_gives_symmetric_pair():
    r = check_pair("wr(Z1,4)", cache_dir=None)
    assert (r.group_order, r.subgroup_order) == (24, 6)
    assert r.rank == 2
    assert r.gelfand_hecke is True and r.gelfand_character is True
    assert r.consistent


@pytest.mark.parametrize("pairspec, rank", [("wr(Z2,6)", 3), ("wr(S3,4)", 7)])
def test_hecke_verdict_above_the_benchmark_ladder(pairspec, rank):
    # 46,080 and 31,104 elements: exact Hecke verdicts past wr(Z2,5)
    r = check_pair(pairspec, method="hecke", cache_dir=None)
    assert r.rank == r.predicted_rank == rank
    assert r.gelfand_hecke is r.base_abelian
    assert r.consistent


def test_hecke_only_method():
    r = check_pair("wr(Z3,2)", method="hecke", cache_dir=None)
    assert r.gelfand_hecke is True
    assert r.gelfand_character is None
    assert r.multiplicities is None
    assert r.rank == r.predicted_rank == 4
    assert r.consistent


def test_character_only_method():
    r = check_pair("wr(Z3,2)", method="character", cache_dir=None)
    assert r.gelfand_hecke is None
    assert r.rank is None
    assert r.gelfand_character is True
    assert r.consistent


def test_character_skipped_when_over_limits(monkeypatch):
    # wr(Z13,2) has 104 classes, over the class limit 80: method=both degrades
    r = check_pair("wr(Z13,2)", cache_dir=None)
    assert r.gelfand_hecke is True
    assert r.gelfand_character == SKIPPED
    assert r.consistent
    # same degradation when the wreath order exceeds the order limit; the
    # base group (order 2) stays under it so the prediction still runs
    monkeypatch.setattr(gelfand.chartab, "ORDER_LIMIT", 40)
    r = check_pair("wr(Z2,3)", cache_dir=None)
    assert r.gelfand_character == SKIPPED
    assert r.rank == r.predicted_rank == 3
    assert r.consistent


def test_character_only_over_limit_raises(monkeypatch):
    with pytest.raises(ResourceLimitError, match="104 conjugacy classes"):
        check_pair("wr(Z13,2)", method="character", cache_dir=None)
    monkeypatch.setattr(gelfand.chartab, "ORDER_LIMIT", 40)
    with pytest.raises(ResourceLimitError, match="order limit 40"):
        check_pair("wr(Z2,3)", method="character", cache_dir=None)


def test_class_limit_checked_before_wreath_classes(monkeypatch):
    # the 104 classes of wr(Z13,2) are counted from the base table, so the
    # wreath classes are never computed; the Hecke side still runs in full
    calls = []
    real = gelfand.reports.conjugacy_classes
    monkeypatch.setattr(
        gelfand.reports,
        "conjugacy_classes",
        lambda group: calls.append(group.name) or real(group),
    )
    r = check_pair("wr(Z13,2)", cache_dir=None)
    assert calls == []
    assert (r.group_order, r.rank, r.predicted_rank) == (338, 14, 14)
    assert r.gelfand_hecke is True and r.gelfand_character == SKIPPED
    assert r.consistent


def test_seed_does_not_change_verdicts():
    a = report_record(check_pair("wr(S3,2)", cache_dir=None, seed=0))
    b = report_record(check_pair("wr(S3,2)", cache_dir=None, seed=123))
    assert a == b


def test_invalid_method_and_n():
    with pytest.raises(InvalidParameterError):
        check_pair("wr(Z2,2)", method="magic")
    with pytest.raises(InvalidParameterError):
        check_pair("wr(Z2,1)")


def test_scan_records_errors_per_row():
    reports = scan_pairs(["Z2", "Q8"], 2, cache_dir=None)
    assert reports[0].consistent
    assert reports[1].error is not None
    assert not reports[1].consistent


def test_report_record_shape():
    r = check_pair("wr(Z2,2)", cache_dir=None)
    record = report_record(r)
    assert record["schema_version"] == 1
    assert record["pair"] == "wr(Z2,2)"
    assert record["gelfand_hecke"] is True
    assert record["rank"] == 3
    assert "timings" not in record
    assert record["consistent"] is True


def test_format_report_mentions_verdict():
    text = format_report(check_pair("wr(S3,2)", cache_dir=None))
    assert "is NOT a Gelfand pair" in text
    text = format_report(check_pair("wr(Z2,2)", cache_dir=None))
    assert "IS a Gelfand pair" in text


def test_wreath_classes_computed_once_per_pair(monkeypatch, tmp_path):
    # counts labellings, not calls: the base table, the wreath's closed form
    # and the wreath table all ask for classes, and each group is labelled at
    # most once; the wreath table, computed from the base's or loaded, reads
    # the closed form of the wreath classes alone, so no id of G is labelled
    labelled = Counter()

    def counting(real):
        def class_labels(group):
            labelled[group.name] += 1
            return real(group)

        return class_labels

    for cls in (FiniteGroup, WreathProduct):
        monkeypatch.setattr(cls, "class_labels", counting(cls.class_labels))
    for method in ("character", "both"):
        cache = tmp_path / method
        for state in ("cold", "warm"):
            labelled.clear()
            r = check_pair("wr(S3,2)", method=method, cache_dir=str(cache))
            assert r.consistent
            assert labelled == {"S3": 1}, (method, state)
