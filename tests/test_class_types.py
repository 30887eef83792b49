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
from gelfand.groups import FiniteGroup, orbit_labels, right_products
from gelfand.specs import build_group


def _by_orbits(group):
    """The same group with its classes found as the orbits of conjugation by
    its generators (FiniteGroup.class_labels), not by its own labelling."""
    group.class_labels = types.MethodType(FiniteGroup.class_labels, group)
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


def test_typed_classes_over_a_base_of_unknown_class_count():
    # a generated subgroup states no class count; the wreath walks its base
    base = subgroup_from_generators(SymmetricGroup(4), [1, 6]).subgroup
    assert base.class_count is None
    w = WreathProduct(base, 2)
    assert w.class_count == conjugacy_classes(_by_orbits(WreathProduct(base, 2))).count
    assert conjugacy_classes(w) == conjugacy_classes(_by_orbits(WreathProduct(base, 2)))


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
            conjugacy_classes(w)


def test_non_generating_set_falls_short_of_the_group():
    w = _wreath("S3", 3)
    w.generators = w.generators[:-1]  # no n-cycle: coordinate 2 stays fixed
    with pytest.raises(InternalConsistencyError, match=f"of its {w.order} elements"):
        conjugacy_classes(w)
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
        conjugacy_classes(_wreath("S3", 2))


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
