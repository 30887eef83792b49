"""Conjugacy classes from the construction: generators, class counts and
wreath classes labelled by type.

Wreath products label every element by its type in one pass; the
conjugation orbits of the generators (FiniteGroup.class_labels, by
groups.orbit_labels) and the scalar walk of tests/scalar_oracle.py are the
oracles.  conjugacy_classes checks any labelling exactly (generation,
invariance, count), and the type pass checks every class size against the
centralizer order of its type; each check has a test here that breaks it.
"""

import dataclasses
import itertools
import math
import types

import numpy as np
import pytest

import gelfand.wreath
import scalar_oracle
from gelfand import (
    CyclicGroup,
    DihedralGroup,
    InternalConsistencyError,
    SymmetricGroup,
    WreathProduct,
    conjugacy_classes,
    is_abelian,
    subgroup_from_generators,
)
from gelfand.groups import (
    FiniteGroup,
    GroupPartition,
    LazyClassPartition,
    check_class_labels,
    orbit_labels,
    right_products,
)
from gelfand.specs import build_group


def _by_orbits(group):
    """The same group with its classes found as the orbits of conjugation by
    its generators (FiniteGroup.class_labels), not by its own labelling, and
    numbered by GroupPartition.from_labels (FiniteGroup.class_partition),
    not by a closed form."""
    group.class_labels = types.MethodType(FiniteGroup.class_labels, group)
    group.class_partition = types.MethodType(FiniteGroup.class_partition, group)
    return group


def _wreath(spec, n):
    return WreathProduct(build_group(spec), n)


@pytest.mark.parametrize(
    "spec, n, scalar",
    [
        ("Z2xS3", 2, True),
        ("D5", 2, True),
        ("D4", 3, True),
        # the scalar walk takes ~25 s and ~50 s on these two
        ("Z1", 8, False),
        ("S3", 4, False),
    ],
)
def test_typed_classes_match_the_orbit_walks(spec, n, scalar):
    typed = conjugacy_classes(_wreath(spec, n))
    assert typed == conjugacy_classes(_by_orbits(_wreath(spec, n)))
    if scalar:
        assert typed == scalar_oracle.conjugacy_classes(_wreath(spec, n))


@pytest.mark.parametrize("spec, n", [("S3", 3), ("D4", 3), ("Z2", 5), ("Z1", 7)])
def test_typed_classes_by_chunks_equal_the_whole_pass(spec, n, monkeypatch):
    whole = conjugacy_classes(_wreath(spec, n))
    # many blocks of codes, or of tops past 100 of them, with partial ones
    monkeypatch.setattr(gelfand.wreath, "BATCH_LIMIT", 100)
    assert conjugacy_classes(_wreath(spec, n)) == whole


@pytest.mark.parametrize("n, r", [(5, 2), (7, 1), (3, 5)])
def test_type_table_by_blocks_equals_one_block(n, r, monkeypatch):
    # the table is kept per process, so the blocks are walked uncached
    whole = gelfand.wreath._least_of_types(n, r)
    # partial blocks, and shapes with more choices (5^3) than one block holds
    monkeypatch.setattr(gelfand.wreath, "BATCH_LIMIT", 7)
    blocks = gelfand.wreath._least_of_types.__wrapped__(n, r)
    assert all(np.array_equal(a, b) for a, b in zip(whole, blocks))


@pytest.mark.parametrize("n", range(1, 8))
def test_least_top_of_each_shape_is_the_first_in_a_walk_of_s_n(n):
    # itertools lists the permutations in rank order, so the first of each
    # shape is its least
    least = {}
    for rank, p in enumerate(itertools.permutations(range(n))):
        shape = [0] * n
        for i in range(n):
            cycle = [i]
            while p[cycle[-1]] != i:
                cycle.append(p[cycle[-1]])
            shape[max(cycle)] = len(cycle)
        least.setdefault(tuple(shape), rank)
    shapes, ranks = gelfand.wreath._top_shapes(n)
    assert dict(zip(map(tuple, shapes.tolist()), ranks.tolist())) == least
    assert len(least) == math.comb(2 * n, n) // (n + 1)  # the Catalan number


def test_typed_classes_over_a_base_of_unknown_class_count():
    # a generated subgroup states no class count; the wreath walks its base
    base = subgroup_from_generators(SymmetricGroup(4), [1, 6]).subgroup
    assert base.class_count is None
    w = WreathProduct(base, 2)
    assert w.class_count == conjugacy_classes(_by_orbits(WreathProduct(base, 2))).count
    assert conjugacy_classes(w) == conjugacy_classes(_by_orbits(WreathProduct(base, 2)))


# the pairs on which the closed form was first matched against the labels
CLOSED_FORM_PAIRS = [
    ("S3", 2), ("S3", 3), ("Z3", 4), ("D4", 3), ("D4", 4), ("Z2", 4), ("Z2", 5),
    ("Z2", 6), ("Z1", 5), ("Z1", 6), ("Z1", 7), ("S4", 2), ("S4", 3), ("Z3", 5),
    ("S3xZ2", 2), ("D5", 2), ("Z2xZ2", 3),
]


@pytest.mark.parametrize("spec, n", CLOSED_FORM_PAIRS)
def test_closed_form_equals_the_labelled_classes(spec, n):
    w = _wreath(spec, n)
    closed = conjugacy_classes(w)
    assert w._classes is None  # no id labelled yet
    # numbered independently: check_class_labels and np.unique, no closed form
    labelled = GroupPartition.from_labels(check_class_labels(w, w.class_labels()))
    assert (closed.representatives, closed.sizes) == (labelled.representatives, labelled.sizes)
    assert np.array_equal(closed.block_of, labelled.block_of)


def _corrupted(classes):
    """Ways to break the closed form of wr(S3,2): (reps, sizes, message)."""
    reps, sizes = classes.representatives, classes.sizes
    last = int(np.flatnonzero(classes.block_of == len(reps) - 1)[-1])  # a later member
    assert sizes[2:4] == (6, 18)
    yield reps, sizes[:2] + (sizes[3], sizes[2]) + sizes[4:], "centralizer"
    yield reps[:-1] + (last,), sizes, "whose representative is larger"
    yield reps[:1] + (reps[2],) * 2 + reps[3:], sizes, "8 class labels, but 9"
    yield (1,) + reps[1:], sizes, "least class representative of wr.S3,2. is id 1, not 0"


def test_corrupted_closed_form_fails_at_the_first_block_of_read():
    for reps, sizes, message in _corrupted(conjugacy_classes(_wreath("S3", 2))):
        lazy = LazyClassPartition(_wreath("S3", 2), reps, sizes)
        for _ in range(2):  # a failed check keeps nothing, so it fails again
            with pytest.raises(InternalConsistencyError, match=message):
                lazy.block_of
        assert lazy.group._classes is None


def _groups():
    for k in range(1, 13):
        yield CyclicGroup(k)
    for k in range(3, 13):
        yield DihedralGroup(k)
    for n in range(1, 7):
        yield SymmetricGroup(n)
    for spec in ("Z2xS3", "D4xZ3", "Z2x(Z3xS3)", "S3xD5"):
        yield build_group(spec)
    for spec, n in (("Z3", 1), ("S3", 2), ("Z2", 3), ("Z1", 4), ("D4", 2)):
        yield _wreath(spec, n)


@pytest.mark.parametrize("group", list(_groups()), ids=lambda g: g.name)
def test_class_count_known_from_the_construction(group):
    labels = orbit_labels(right_products(group, group.generators))
    assert (labels == labels[group.identity]).all()
    assert group.class_count == conjugacy_classes(_by_orbits(group)).count


@pytest.mark.parametrize(
    "group", [g for g in _groups() if g.order <= 720], ids=lambda g: g.name
)
def test_is_abelian_matches_brute_force(group):
    xs, ys = np.divmod(np.arange(group.order**2, dtype=np.int64), group.order)
    commute = np.array_equal(group.mul_many(xs, ys), group.mul_many(ys, xs))
    assert is_abelian(group) == commute


def test_is_abelian_needs_a_generating_set():
    # (0 1) alone commutes with itself, but generates 2 of the 24 elements
    s4 = SymmetricGroup(4)
    s4.generators = s4.generators[:1]
    with pytest.raises(InternalConsistencyError, match="generate 2 of its 24"):
        is_abelian(s4)


def test_generators_as_specified():
    s4 = SymmetricGroup(4)
    assert CyclicGroup(6).generators == (1,)
    assert CyclicGroup(1).generators == ()
    assert DihedralGroup(5).generators == (1, 5)  # r and s
    assert s4.generators == (s4.id_of((1, 0, 2, 3)), s4.id_of((1, 2, 3, 0)))
    z2s3 = build_group("Z2xS3")
    assert z2s3.generators == (6, 2, 3)  # (1, e), then (0, (0 1)), (0, 3-cycle)
    w = _wreath("S3", 3)
    decoded = [w.decode(g) for g in w.generators]
    assert [(e.base, e.top) for e in decoded] == [
        ((2, 0, 0), (0, 1, 2)),
        ((3, 0, 0), (0, 1, 2)),
        ((0, 0, 0), (1, 0, 2)),
        ((0, 0, 0), (1, 2, 0)),
    ]


def test_corrupted_label_breaks_invariance():
    w = _wreath("S3", 2)
    labels = np.array(w.class_labels())
    # move a non-minimal member of a class into another class
    x = next(x for x in range(w.order) if labels[x] != labels.tolist().index(labels[x]))
    labels[x] = (labels[x] + 1) % labels.max()
    w.class_labels = lambda: labels
    for _ in range(2):  # a failed check stores nothing, so it fails again
        with pytest.raises(InternalConsistencyError, match="not invariant under conjugation"):
            conjugacy_classes(w).block_of  # a wreath labels its ids on this first read


def test_non_generating_set_falls_short_of_the_group():
    w = _wreath("S3", 3)
    w.generators = w.generators[:-1]  # no n-cycle: coordinate 2 stays fixed
    with pytest.raises(InternalConsistencyError, match=f"of its {w.order} elements"):
        conjugacy_classes(w).block_of
    s4 = SymmetricGroup(4)
    s4.generators = s4.generators[:1]
    with pytest.raises(InternalConsistencyError, match="generate 2 of its 24"):
        conjugacy_classes(s4)


def test_wrong_class_size_fails_the_centralizer_check(monkeypatch):
    real = gelfand.wreath.conjugacy_classes

    def sizes_swapped(group):
        # S3: the 3 transpositions and the 2 three-cycles trade their sizes
        classes = real(group)
        sizes = classes.sizes
        return dataclasses.replace(classes, sizes=(sizes[0], sizes[2], sizes[1]))

    monkeypatch.setattr(gelfand.wreath, "conjugacy_classes", sizes_swapped)
    with pytest.raises(InternalConsistencyError, match="centralizer"):
        conjugacy_classes(_wreath("S3", 2)).block_of


def test_label_count_must_equal_the_class_count():
    w = _wreath("Z2", 3)
    w.class_count += 1
    with pytest.raises(InternalConsistencyError, match="10 class labels, but 11"):
        conjugacy_classes(w)
    z5 = CyclicGroup(5)
    z5.class_count = 4
    with pytest.raises(InternalConsistencyError, match="5 class labels, but 4"):
        conjugacy_classes(z5)


class _Unbounded(CyclicGroup):
    """The batched product forgets to reduce mod k."""

    def mul_many(self, xs, ys):
        return np.asarray(xs) + np.asarray(ys)


def test_closure_rejects_products_outside_the_group():
    with pytest.raises(InternalConsistencyError, match="multiplication oracle is broken"):
        orbit_labels(right_products(_Unbounded(5), [1]))
    with pytest.raises(InternalConsistencyError, match="multiplication oracle is broken"):
        subgroup_from_generators(_Unbounded(5), [1])
