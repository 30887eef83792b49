"""Partitions, extensions, multipartitions and branching predictions."""

import itertools

import pytest

from gelfand import (
    InvalidParameterError,
    SpecParseError,
    extensions,
    format_multipartition,
    format_partition,
    induced_trivial_prediction,
    multipartitions,
    parse_partition,
    partitions_of,
)
from gelfand.partitions import multipartition_count
from partitions_oracle import branch_induce


def partition_count(n):
    """Euler's pentagonal recurrence; independent of the enumerator."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        k = 1
        total = 0
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = 1 if k % 2 else -1
            if g1 <= m:
                total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p[n]


def brute_extensions(p):
    """Insert one box at each row (or a new row) without re-sorting; keep the
    results that are still weakly decreasing."""
    out = set()
    for i in range(len(p) + 1):
        if i < len(p):
            candidate = p[:i] + (p[i] + 1,) + p[i + 1 :]
        else:
            candidate = p + (1,)
        if all(candidate[j] >= candidate[j + 1] for j in range(len(candidate) - 1)):
            out.add(candidate)
    return out


def test_partitions_of_small():
    assert partitions_of(0) == [()]
    assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(partitions_of(10)) == 42


def test_partitions_counts_match_recurrence():
    for n in range(13):
        assert len(partitions_of(n)) == partition_count(n)


def test_partitions_are_valid_unique_and_revlex():
    for n in range(10):
        ps = partitions_of(n)
        assert len(set(ps)) == len(ps)
        assert ps == sorted(ps, reverse=True)
        for p in ps:
            assert sum(p) == n
            assert all(p[i] >= p[i + 1] >= 1 for i in range(len(p) - 1))


def test_extensions_worked_example():
    assert extensions((3, 3, 2, 2, 2, 1)) == {
        (4, 3, 2, 2, 2, 1),
        (3, 3, 2, 2, 2, 1, 1),
        (3, 3, 3, 2, 2, 1),
        (3, 3, 2, 2, 2, 2),
    }


def test_extensions_base_cases():
    assert extensions(()) == {(1,)}
    assert extensions((1,)) == {(2,), (1, 1)}


def test_extensions_match_brute_force_and_count():
    for n in range(13):
        for p in partitions_of(n):
            ext = extensions(p)
            assert ext == brute_extensions(p)
            assert len(ext) == len(set(p)) + 1
            for q in ext:
                assert sum(q) == n + 1
                assert len(q) >= len(p)
                assert all(q[i] >= p[i] for i in range(len(p)))


def test_multipartitions_counts():
    assert len(multipartitions(1, 4)) == len(partitions_of(4))
    assert [mp[0] for mp in multipartitions(1, 4)] == partitions_of(4)
    assert len(multipartitions(2, 2)) == 5
    assert len(multipartitions(3, 2)) == 9


def test_multipartitions_match_composition_formula():
    for l in range(1, 5):
        for n in range(9):
            expected = 0
            for combo in itertools.product(range(n + 1), repeat=l):
                if sum(combo) == n:
                    product = 1
                    for part in combo:
                        product *= len(partitions_of(part))
                    expected += product
            mps = multipartitions(l, n)
            assert len(mps) == expected
            assert len(set(mps)) == len(mps)
            for mp in mps:
                assert sum(sum(p) for p in mp) == n


def test_branch_induce_l1_from_row():
    pred = branch_induce(((4,),), (1,))
    assert dict(pred.terms) == {((5,),): 1, ((4, 1),): 1}


def test_branch_induce_examples():
    pred = branch_induce(((1,), ()), (1, 1))
    assert dict(pred.terms) == {((2,), ()): 1, ((1, 1), ()): 1, ((1,), (1,)): 1}

    pred = branch_induce(((1,), (), ()), (1, 1, 2))
    assert dict(pred.terms)[((1,), (), (1,))] == 2


def test_branch_induce_rejects_mismatched_dims():
    with pytest.raises(InvalidParameterError):
        branch_induce(((1,), ()), (1,))


def test_induced_trivial_prediction_examples():
    pred = induced_trivial_prediction((1,), 6)
    assert pred.term_count == 2
    assert pred.multiplicities == (1, 1)
    assert pred.predicted_rank == 2

    pred = induced_trivial_prediction((1, 1), 2)
    assert pred.term_count == 3
    assert pred.multiplicities == (1, 1, 1)
    assert pred.predicted_rank == 3

    pred = induced_trivial_prediction((1, 1, 2), 2)
    assert pred.term_count == 4
    assert pred.multiplicities == (1, 1, 1, 2)
    assert pred.predicted_rank == 7


def test_induced_trivial_prediction_shape():
    dims = (1, 1, 2, 3)
    n = 4
    pred = induced_trivial_prediction(dims, n)
    labels = [mp for mp, _ in pred.terms]
    assert labels[0] == ((n,), (), (), ())
    assert labels[1] == ((n - 1, 1), (), (), ())
    for i in range(1, len(dims)):
        expected = ((n - 1,),) + ((),) * (i - 1) + ((1,),) + ((),) * (len(dims) - 1 - i)
        assert (expected, dims[i]) in pred.terms
    assert pred.predicted_rank == 2 + sum(d * d for d in dims[1:])


def test_prediction_equals_branch_of_trivial_row():
    for dims in ((1,), (1, 1), (1, 1, 2), (1, 1, 1, 1, 2)):
        for n in (2, 3, 5):
            start = ((n - 1,),) + ((),) * (len(dims) - 1)
            assert induced_trivial_prediction(dims, n).terms == branch_induce(start, dims).terms


def test_prediction_rejects_bad_input():
    with pytest.raises(InvalidParameterError):
        induced_trivial_prediction((2, 1), 3)
    with pytest.raises(InvalidParameterError):
        induced_trivial_prediction((1, 1), 1)


# ---------------------------------------------------------------------------
# text forms


def test_format():
    assert format_partition(()) == "∅"
    assert format_partition((3, 3, 2, 1)) == "(3,3,2,1)"
    assert format_multipartition(((2,), (), (1,))) == "((2),∅,(1))"


def test_parse_partition():
    assert parse_partition("") == ()
    assert parse_partition("∅") == ()
    assert parse_partition("3,3,2,2,2,1") == (3, 3, 2, 2, 2, 1)
    assert parse_partition("(3,1)") == (3, 1)
    assert parse_partition("1^2 3^1") == (3, 1, 1)
    assert parse_partition("2^3") == (2, 2, 2)


def test_parse_partition_roundtrip():
    for n in range(8):
        for p in partitions_of(n):
            assert parse_partition(format_partition(p)) == p


def test_parse_partition_rejects_increasing():
    with pytest.raises(SpecParseError):
        parse_partition("1,2")
    with pytest.raises(SpecParseError):
        parse_partition("3,0")
    with pytest.raises(SpecParseError):
        parse_partition("a,b")
    with pytest.raises(SpecParseError):
        parse_partition("0^2")


def test_multipartition_count_matches_the_enumeration():
    for components in range(1, 7):
        for n in range(0, 8):
            assert multipartition_count(components, n) == len(multipartitions(components, n))
    for n in range(0, 41):
        assert multipartition_count(1, n) == partition_count(n)
    # far past the recursion depth of the enumerator: pairs over 1000 classes
    assert multipartition_count(1000, 2) == 1000 * 1001 // 2 + 1000
    with pytest.raises(InvalidParameterError):
        multipartition_count(0, 3)
    with pytest.raises(InvalidParameterError):
        multipartition_count(2, -1)
