"""Character tables, decompositions and the character-side Gelfand verdict."""

import dataclasses

import numpy as np
import pytest

from gelfand import (
    InternalConsistencyError,
    InvalidParameterError,
    NumericalQualityError,
    ResourceLimitError,
    character_table,
    class_coefficients,
    conjugacy_classes,
    decompose_induced_trivial,
    direct_product,
    embed_wreath_subgroup,
    full_embedding,
    is_abelian,
    load_character_table,
    make_cyclic,
    make_dihedral,
    make_symmetric,
    permutation_character,
    save_character_table,
    subgroup_from_generators,
)
from gelfand.chartab import ORDER_LIMIT, cached_character_table, validate_character_table
from scalar_oracle import commutator_subgroup


def s3_pair():
    s3 = make_symmetric(3)
    return s3, subgroup_from_generators(s3, [s3.id_of((1, 0, 2))])


# ---------------------------------------------------------------------------
# class multiplication coefficients


def test_class_coefficients_abelian():
    grp = make_cyclic(5)
    cc = conjugacy_classes(grp)
    a = class_coefficients(grp, cc)
    for i in range(5):
        for j in range(5):
            k = grp.mul(i, j)  # singleton classes: ids are the representatives
            expected = np.zeros(5, dtype=np.int64)
            expected[k] = 1
            assert np.array_equal(a[i, j], expected)


def test_class_coefficients_s3():
    s3 = make_symmetric(3)
    cc = conjugacy_classes(s3)
    a = class_coefficients(s3, cc)
    # three transposition pairs square to the identity
    assert a[1, 1, 0] == 3
    # the identity class factors z_k uniquely: a[0][j][k] = [j == k]
    for j in range(3):
        for k in range(3):
            assert a[0, j, k] == (1 if j == k else 0)


def test_class_coefficients_counting_identity():
    for grp in (make_symmetric(4), make_dihedral(4)):
        cc = conjugacy_classes(grp)
        a = class_coefficients(grp, cc)
        sizes = np.array(cc.sizes, dtype=np.int64)
        assert np.array_equal(a @ sizes, np.outer(sizes, sizes))


# ---------------------------------------------------------------------------
# character tables


def test_degrees():
    assert character_table(make_cyclic(4)).degrees == (1, 1, 1, 1)
    assert character_table(make_cyclic(6)).degrees == (1, 1, 1, 1, 1, 1)
    assert character_table(make_symmetric(3)).degrees == (1, 1, 2)
    assert character_table(make_symmetric(4)).degrees == (1, 1, 2, 3, 3)
    assert character_table(make_dihedral(4)).degrees == (1, 1, 1, 1, 2)


def test_degrees_dihedral_family():
    # odd k: 2 linear + (k-1)/2 planar; even k: 4 linear + (k-2)/2 planar
    assert character_table(make_dihedral(5)).degrees == (1, 1, 2, 2)
    assert character_table(make_dihedral(6)).degrees == (1, 1, 1, 1, 2, 2)
    assert character_table(make_dihedral(7)).degrees == (1, 1, 2, 2, 2)


def test_degrees_multiply_over_direct_products():
    cases = [
        (direct_product(make_cyclic(2), make_dihedral(4)), (1,) * 8 + (2, 2)),
        (direct_product(make_cyclic(2), make_symmetric(3)), (1, 1, 1, 1, 2, 2)),
        (direct_product(make_symmetric(3), make_symmetric(3)),
         (1, 1, 1, 1, 2, 2, 2, 2, 4)),
    ]
    for grp, expected in cases:
        assert character_table(grp).degrees == expected


def test_wreath_class_count_matches_multipartition_count():
    # irreducibles of G wr S_n are indexed by l-multipartitions of n, where
    # l is the number of irreducibles of G; class count must agree
    from gelfand import multipartitions, wreath_product

    for base, n in (
        (make_cyclic(2), 3),
        (make_cyclic(3), 2),
        (make_symmetric(3), 2),
        (make_dihedral(4), 2),
    ):
        l = conjugacy_classes(base).count
        w = wreath_product(base, n)
        assert conjugacy_classes(w).count == len(multipartitions(l, n))


def test_z4_values_are_fourth_roots_of_unity():
    t = character_table(make_cyclic(4))
    rounded = set(np.round(t.values, 6).flatten())
    assert rounded == {1 + 0j, -1 + 0j, 1j, -1j}


def test_s3_table_values():
    t = character_table(make_symmetric(3))
    assert t.degrees == (1, 1, 2)
    expected = np.array([[1, 1, 1], [1, -1, 1], [2, 0, -1]], dtype=complex)
    assert np.max(np.abs(t.values - expected)) < 1e-8


def test_table_invariants_for_many_groups():
    groups = [
        make_cyclic(1),
        make_cyclic(6),
        make_symmetric(3),
        make_symmetric(4),
        make_dihedral(4),
        make_dihedral(5),
        direct_product(make_cyclic(2), make_cyclic(2)),
        direct_product(make_cyclic(2), make_symmetric(3)),
    ]
    for grp in groups:
        t = character_table(grp)
        validate_character_table(t)
        assert len(t.degrees) == t.classes.count
        assert sum(d * d for d in t.degrees) == grp.order
        assert np.allclose(t.values[0], 1.0)
        assert is_abelian(grp) == all(d == 1 for d in t.degrees)


def test_linear_character_count_is_abelianization_order():
    for grp in (make_symmetric(3), make_symmetric(4), make_dihedral(4), make_cyclic(6)):
        t = character_table(grp)
        linear = sum(1 for d in t.degrees if d == 1)
        derived = commutator_subgroup(grp).subgroup.order
        assert linear == grp.order // derived


def test_determinism_and_seed():
    a = character_table(make_symmetric(4), seed=0)
    b = character_table(make_symmetric(4), seed=0)
    assert np.array_equal(a.values, b.values)
    c = character_table(make_symmetric(4), seed=1)
    # a different seed may permute nothing (ordering is canonical) but the
    # table must represent the same characters
    assert a.degrees == c.degrees
    assert np.max(np.abs(a.values - c.values)) < 1e-6


def test_class_limit_enforced():
    # Z100 has 100 classes, over CLASS_LIMIT = 80
    with pytest.raises(ResourceLimitError, match="100 conjugacy classes"):
        character_table(make_cyclic(100))
    # the order limit is checked before any class is computed: walking the
    # classes of a group this size would not finish in test time
    with pytest.raises(ResourceLimitError, match="order limit"):
        character_table(make_cyclic(ORDER_LIMIT + 1))


# ---------------------------------------------------------------------------
# permutation characters and decompositions


def test_permutation_character_whole_group():
    grp = make_dihedral(4)
    classes = conjugacy_classes(grp)
    chi = permutation_character(grp, full_embedding(grp), classes)
    assert chi == tuple([1] * classes.count)


def test_permutation_character_s3_s2():
    s3, emb = s3_pair()
    assert permutation_character(s3, emb, conjugacy_classes(s3)) == (3, 1, 0)


def test_permutation_character_wreath_identity_value():
    emb = embed_wreath_subgroup(make_cyclic(2), 2)
    chi = permutation_character(emb.parent, emb, conjugacy_classes(emb.parent))
    assert chi[0] == emb.parent.order // emb.subgroup.order == 4


def test_permutation_character_rejects_embedding_of_another_group():
    # an equal but distinct group object: the cosets were labelled for the other one
    _, emb = s3_pair()
    other = make_symmetric(3)
    with pytest.raises(InvalidParameterError, match="does not target"):
        permutation_character(other, emb, conjugacy_classes(other))


def test_inner_products():
    # the class-by-class inner products <chi, chi_i> are the decomposition's
    # multiplicities, and <chi, chi> = sum m_i^2 = 2 for (S3, S2)
    s3, emb = s3_pair()
    t = character_table(s3)
    chi = permutation_character(s3, emb, t.classes)

    def inner(f, h):
        terms = zip(t.classes.sizes, f, h)
        return sum(size * a * complex(b).conjugate() for size, a, b in terms) / s3.order

    trivial = t.values[0]
    assert abs(inner(trivial, trivial) - 1) < 1e-12
    assert abs(inner(chi, chi) - 2) < 1e-12
    assert abs(inner(chi, trivial) - 1) < 1e-12
    multiplicities = decompose_induced_trivial(s3, emb, t)
    for row, m in zip(t.values, multiplicities):
        assert abs(inner(chi, row) - m) < 1e-12


def test_decompose_s3_s2():
    s3, emb = s3_pair()
    assert decompose_induced_trivial(s3, emb, character_table(s3)) == (1, 0, 1)


def test_decompose_whole_group_is_trivial_only():
    grp = make_symmetric(3)
    t = character_table(grp)
    assert decompose_induced_trivial(grp, full_embedding(grp), t) == (1, 0, 0)


def test_decompose_s3_wr_s2():
    emb = embed_wreath_subgroup(make_symmetric(3), 2)
    t = character_table(emb.parent)
    ms = decompose_induced_trivial(emb.parent, emb, t)
    assert sorted(m for m in ms if m) == [1, 1, 1, 2]
    assert sum(m * m for m in ms) == 7
    assert sum(m * deg for m, deg in zip(ms, t.degrees)) == 12


def _doctored_s3_table(**changes):
    """The (S3, S2) pair with its true table edited; rows: trivial, sign, standard."""
    s3, emb = s3_pair()
    t = character_table(s3)
    assert t.degrees == (1, 1, 2)
    return s3, emb, dataclasses.replace(t, **changes)


def test_decompose_rejects_a_non_integral_multiplicity():
    values = np.array(character_table(make_symmetric(3)).values)
    values[2] *= 0.5  # standard character halved: m_2 = 1/2
    s3, emb, t = _doctored_s3_table(values=values)
    with pytest.raises(NumericalQualityError, match="multiplicity of irrep 2"):
        decompose_induced_trivial(s3, emb, t)


def test_decompose_rejects_a_wrong_index_sum():
    # true multiplicities (1, 0, 1) against degrees (1, 1, 3): 4 != [S3:S2] = 3
    s3, emb, t = _doctored_s3_table(degrees=(1, 1, 3))
    message = r"sum m_i \* d_i = 4 != \[G:K\] = 3"
    with pytest.raises(InternalConsistencyError, match=message):
        decompose_induced_trivial(s3, emb, t)


def test_decompose_rejects_a_trivial_multiplicity_other_than_one():
    # sign row first: multiplicities (0, 1, 1) still sum to [G:K] = 0 + 1 + 2
    values = np.array(character_table(make_symmetric(3)).values)[[1, 0, 2]]
    s3, emb, t = _doctored_s3_table(values=values)
    message = "trivial character has multiplicity 0 != 1"
    with pytest.raises(InternalConsistencyError, match=message):
        decompose_induced_trivial(s3, emb, t)


def test_gelfand_character_verdicts():
    def multiplicity_free(emb):
        table = character_table(emb.parent)
        return max(decompose_induced_trivial(emb.parent, emb, table)) <= 1

    assert multiplicity_free(embed_wreath_subgroup(make_cyclic(1), 4))  # (S4, S3)
    assert multiplicity_free(embed_wreath_subgroup(make_cyclic(2), 3))
    assert not multiplicity_free(embed_wreath_subgroup(make_symmetric(3), 2))


# ---------------------------------------------------------------------------
# cache round trip


def test_cache_roundtrip(tmp_path):
    grp = make_symmetric(4)
    t = character_table(grp)
    path = tmp_path / "S4.chartab"
    save_character_table(t, path)
    loaded = load_character_table(path, grp)
    assert loaded.degrees == t.degrees
    assert np.array_equal(loaded.values, t.values)


def test_cache_rejects_corruption(tmp_path):
    grp = make_symmetric(3)
    t = character_table(grp)
    path = tmp_path / "S3.chartab"
    save_character_table(t, path)
    text = path.read_text()
    lines = text.splitlines()
    # corrupt one character value: validation must refuse it
    row = lines[8].split()
    row[0] = "9.75"
    lines[8] = " ".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InternalConsistencyError):
        load_character_table(path, grp)


def test_cache_rejects_wrong_group(tmp_path):
    t = character_table(make_symmetric(3))
    path = tmp_path / "S3.chartab"
    save_character_table(t, path)
    with pytest.raises(InternalConsistencyError):
        load_character_table(path, make_dihedral(3))


def test_cached_character_table_recovers_from_corruption(tmp_path):
    grp = make_symmetric(3)
    first = cached_character_table(grp, tmp_path)
    path = tmp_path / "S3.chartab"
    path.write_text("garbage\n")
    second = cached_character_table(grp, tmp_path)
    assert second.degrees == first.degrees
    # the corrupt entry was replaced by a valid one
    reloaded = load_character_table(path, grp)
    assert reloaded.degrees == first.degrees
