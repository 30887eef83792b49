"""Character tables, decompositions and the character-side Gelfand verdict."""

import base64
import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import gelfand.chartab
import gelfand.cli
import gelfand.groups
import gelfand.reports
from gelfand import (
    CyclicGroup,
    DihedralGroup,
    DirectProductGroup,
    GroupPartition,
    InternalConsistencyError,
    InvalidParameterError,
    NumericalQualityError,
    ResourceLimitError,
    SubgroupEmbedding,
    SymmetricGroup,
    WreathProduct,
    check_pair,
    character_table,
    class_coefficients,
    conjugacy_classes,
    decompose_induced_trivial,
    embed_wreath_subgroup,
    full_embedding,
    is_abelian,
    load_character_table,
    multipartitions,
    permutation_character,
    save_character_table,
    subgroup_from_generators,
    wreath_character_table,
)
from gelfand.chartab import (
    ORDER_LIMIT,
    cached_character_table,
    class_combination,
    class_steps,
    validate_character_table,
)
from gelfand.groups import stack_block_counts
from gelfand.reports import build_pair
from gelfand.specs import build_group

import scalar_oracle
from scalar_oracle import commutator_subgroup


def s3_pair():
    s3 = SymmetricGroup(3)
    return s3, subgroup_from_generators(s3, [s3.id_of((1, 0, 2))])


# ---------------------------------------------------------------------------
# class multiplication coefficients


def _group(spec):
    return build_pair(spec).parent if spec.startswith("wr(") else build_group(spec)


def whole_table(group, classes):
    """Every row A_i of the class matrices, dense: (r, r, r) int64."""
    r = classes.count
    return stack_block_counts(class_coefficients(group, classes, range(r)), r, range(r))


def test_class_coefficients_abelian():
    grp = CyclicGroup(5)
    cc = conjugacy_classes(grp)
    a = whole_table(grp, cc)
    for i in range(5):
        for j in range(5):
            k = grp.mul(i, j)  # singleton classes: ids are the representatives
            expected = np.zeros(5, dtype=np.int64)
            expected[k] = 1
            assert np.array_equal(a[i, j], expected)


def test_class_coefficients_s3():
    s3 = SymmetricGroup(3)
    cc = conjugacy_classes(s3)
    a = whole_table(s3, cc)
    # three transposition pairs square to the identity
    assert a[1, 1, 0] == 3
    # the identity class factors z_k uniquely: a[0][j][k] = [j == k]
    for j in range(3):
        for k in range(3):
            assert a[0, j, k] == (1 if j == k else 0)


def test_class_coefficients_counting_identity():
    for grp in (SymmetricGroup(4), DihedralGroup(4)):
        cc = conjugacy_classes(grp)
        a = whole_table(grp, cc)
        sizes = np.array(cc.sizes, dtype=np.int64)
        assert np.array_equal(a @ sizes, np.outer(sizes, sizes))


# perfbench's ladder-both and character-cold pairs
BENCHMARK_PAIRS = (
    "wr(Z1,5)", "wr(S3,2)", "wr(Z2,4)", "wr(Z1,6)", "wr(S4,2)", "wr(S3,3)",
    "wr(Z3,4)", "wr(D4,3)", "wr(Z2,5)",
)


@pytest.mark.parametrize("spec", BENCHMARK_PAIRS)
def test_rows_counted_equal_the_full_table(spec, monkeypatch):
    grp = build_pair(spec).parent
    cc = conjugacy_classes(grp)
    counted = []

    def recording(group, classes, rows):
        a = class_coefficients(group, classes, rows)
        counted.append((list(rows), a))
        return a

    monkeypatch.setattr(gelfand.chartab, "class_coefficients", recording)
    character_table(grp)
    full = whole_table(grp, cc)
    rows = [i for step, _ in counted for i in step]
    assert len(set(rows)) == len(rows)
    for step, a in counted:
        assert np.array_equal(stack_block_counts(a, cc.count, step), full[step]), (spec, step)


@pytest.mark.parametrize("spec", ("S4", "Z7", "Z3xS3", "wr(Z3,2)") + BENCHMARK_PAIRS)
def test_size_scaled_class_matrices_are_transposes_of_the_inverse_class(spec):
    # |C_k| a[i][j][k] = |C_j| a[i'][k][j]: both count the triples (x, y, z)
    # in C_i x C_j x C_k with x y = z, the right one as x^-1 z = y.  So
    # D^-1/2 A_i D^1/2 is the transpose of D^-1/2 A_i' D^1/2, D = diag(|C_k|),
    # which makes character_table's combination Hermitian
    grp = _group(spec)
    cc = conjugacy_classes(grp)
    a = whole_table(grp, cc)
    sizes = np.array(cc.sizes, dtype=np.int64)
    inverse = cc.block_of[grp.inv_many(cc.representatives)]
    assert np.array_equal(a * sizes, a[inverse].transpose(0, 2, 1) * sizes[:, None])


def test_counting_identity_rejects_one_changed_count(monkeypatch):
    # one product moved to another class moves one count of row 1 from
    # a[1][j][k] to a[1][j'][k], so sum_k a[1][j][k] |C_k| falls short
    grp = SymmetricGroup(4)
    cc = conjugacy_classes(grp)
    mul_many = grp.mul_many

    def one_wrong(xs, ys):
        products = mul_many(xs, ys)
        products[0] = cc.representatives[(cc.block_of[products[0]] + 1) % cc.count]
        return products

    monkeypatch.setattr(grp, "mul_many", one_wrong)
    with pytest.raises(InternalConsistencyError, match="violate the counting identity"):
        class_coefficients(grp, cc, [1])


def test_character_table_counts_under_one_percent_of_the_products(monkeypatch):
    # the products of the rows counted, not the r |G| of the whole table
    grp = build_pair("wr(S4,3)").parent
    r = conjugacy_classes(grp).count
    products = []
    mul_many, inv_many = grp.mul_many, grp.inv_many

    def counting_mul(xs, ys):
        products.append(np.broadcast(np.asarray(xs), np.asarray(ys)).size)
        return mul_many(xs, ys)

    def counting_inv(xs):
        products.append(np.asarray(xs).size)
        return inv_many(xs)

    monkeypatch.setattr(grp, "mul_many", counting_mul)
    monkeypatch.setattr(grp, "inv_many", counting_inv)
    character_table(grp)
    assert 0 < sum(products) < 0.01 * r * grp.order


@pytest.mark.parametrize("spec", BENCHMARK_PAIRS + ("S3", "Z80", "wr(Z10,2)"))
def test_step_schedule(spec, monkeypatch):
    # the first step is the fewest classes by (size, id) holding r members,
    # or all of them; every later step the fewest that at least double them
    grp = _group(spec)
    cc = conjugacy_classes(grp)
    r = cc.count
    by_size, ends = class_steps(cc.sizes)
    assert by_size.tolist() == sorted(range(r), key=lambda i: (cc.sizes[i], i))
    members = np.cumsum(np.array(cc.sizes)[by_size]).tolist()
    assert ends[-1] == r and list(ends) == sorted(set(ends))
    goal = r
    for end in ends:
        assert end == r or members[end - 1] >= goal, (spec, ends)
        assert end == 1 or members[end - 2] < goal, (spec, ends)
        goal = 2 * members[end - 1]
    # character_table counts exactly these steps, until one succeeds
    steps = []

    def recording(group, classes, rows):
        steps.append(list(rows))
        return class_coefficients(group, classes, rows)

    monkeypatch.setattr(gelfand.chartab, "class_coefficients", recording)
    character_table(grp, seed=1)
    slices = [by_size[start:end].tolist() for start, end in zip((0,) + ends, ends)]
    assert steps == slices[: len(steps)]


@pytest.mark.parametrize("spec", ("wr(D4,3)", "wr(Z3,4)", "Z80"))
def test_sparse_combination_equals_the_dense_stack(spec):
    # sum_n t[n] A_(rows[n]) from the sparse table equals the tensordot of
    # the dense rows, for real and complex t, on a first step and on all rows
    grp = _group(spec)
    cc = conjugacy_classes(grp)
    r = cc.count
    by_size, ends = class_steps(cc.sizes)
    rng = np.random.default_rng(5)
    for rows in (by_size[: ends[0]], by_size):
        table = class_coefficients(grp, cc, rows)
        dense = stack_block_counts(table, r, rows).astype(np.float64)
        for t in (rng.standard_normal(len(rows)),
                  rng.standard_normal(2 * len(rows)).view(np.complex128)):
            combined = class_combination(table, r, rows, t)
            expected = np.tensordot(t, dense, axes=(0, 0))
            assert combined.shape == (r, r) and combined.dtype == expected.dtype
            assert np.max(np.abs(combined - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_character_table_stacks_no_dense_rows(monkeypatch):
    # the combination is summed from the sparse tables, also on the retries
    # with every class
    def refuse(*args):
        raise AssertionError("dense rows stacked")

    monkeypatch.setattr(gelfand.groups, "stack_block_counts", refuse)
    monkeypatch.setattr(gelfand.chartab, "stack_block_counts", refuse, raising=False)
    for spec in ("S3", "Z80", "wr(D4,3)", "wr(Z3,4)"):
        validate_character_table(character_table(_group(spec), seed=1))
    grp = _group("wr(Z3,2)")
    steps = len(class_steps(conjugacy_classes(grp).sizes)[1])
    extract = gelfand.chartab._extract_rows
    calls = []

    def collide_at_first(*args):
        calls.append(None)
        if len(calls) <= steps + 1:  # every step and the first retry fail
            raise NumericalQualityError("eigenvalues of the random combination collide")
        return extract(*args)

    monkeypatch.setattr(gelfand.chartab, "_extract_rows", collide_at_first)
    validate_character_table(character_table(grp))
    assert len(calls) == steps + 2


# eigensolve attempts per table at seed 1, at most: 28 per character-cold
# pass (its four tables and their bases) came down to 13
ATTEMPTS_AT_SEED_1 = {
    "wr(Z1,5)": 1, "wr(S3,2)": 2, "wr(Z2,4)": 2, "wr(Z1,6)": 2, "wr(S4,2)": 3,
    "wr(S3,3)": 2, "wr(Z3,4)": 2, "wr(D4,3)": 3, "wr(Z2,5)": 1,
}


@pytest.mark.parametrize("spec", BENCHMARK_PAIRS)
def test_eigensolve_attempts_at_seed_1(spec, monkeypatch):
    extract = gelfand.chartab._extract_rows
    calls = []

    def counting(*args):
        calls.append(None)
        return extract(*args)

    monkeypatch.setattr(gelfand.chartab, "_extract_rows", counting)
    character_table(build_pair(spec).parent, seed=1)
    assert len(calls) <= ATTEMPTS_AT_SEED_1[spec]


# ---------------------------------------------------------------------------
# character tables


def test_degrees():
    assert character_table(CyclicGroup(4)).degrees == (1, 1, 1, 1)
    assert character_table(CyclicGroup(6)).degrees == (1, 1, 1, 1, 1, 1)
    assert character_table(SymmetricGroup(3)).degrees == (1, 1, 2)
    assert character_table(SymmetricGroup(4)).degrees == (1, 1, 2, 3, 3)
    assert character_table(DihedralGroup(4)).degrees == (1, 1, 1, 1, 2)


def test_degrees_dihedral_family():
    # odd k: 2 linear + (k-1)/2 planar; even k: 4 linear + (k-2)/2 planar
    assert character_table(DihedralGroup(5)).degrees == (1, 1, 2, 2)
    assert character_table(DihedralGroup(6)).degrees == (1, 1, 1, 1, 2, 2)
    assert character_table(DihedralGroup(7)).degrees == (1, 1, 2, 2, 2)


def test_degrees_multiply_over_direct_products():
    cases = [
        (DirectProductGroup(CyclicGroup(2), DihedralGroup(4)), (1,) * 8 + (2, 2)),
        (DirectProductGroup(CyclicGroup(2), SymmetricGroup(3)), (1, 1, 1, 1, 2, 2)),
        (DirectProductGroup(SymmetricGroup(3), SymmetricGroup(3)),
         (1, 1, 1, 1, 2, 2, 2, 2, 4)),
    ]
    for grp, expected in cases:
        assert character_table(grp).degrees == expected


def test_wreath_class_count_matches_multipartition_count():
    # irreducibles of G wr S_n are indexed by l-multipartitions of n, where
    # l is the number of irreducibles of G; class count must agree
    from gelfand import WreathProduct, multipartitions

    for base, n in (
        (CyclicGroup(2), 3),
        (CyclicGroup(3), 2),
        (SymmetricGroup(3), 2),
        (DihedralGroup(4), 2),
    ):
        l = conjugacy_classes(base).count
        w = WreathProduct(base, n)
        assert conjugacy_classes(w).count == len(multipartitions(l, n))


# the closed form's oracle is Dixon–Schneider on G itself; the extra pairs
# have complex (Z3, Z4), dihedral and product bases, and wr(S6,2) 77 classes
CLOSED_FORM_PAIRS = BENCHMARK_PAIRS + (
    "wr(Z3,3)", "wr(Z4,3)", "wr(D4,2)", "wr(D5,2)", "wr(Z2xZ2,3)", "wr(S3xZ2,2)", "wr(S6,2)",
)


def _closed_form(spec):
    group = build_pair(spec).parent
    return group, wreath_character_table(group, character_table(group.base_group))


def _assert_equals_dixon_schneider(group, closed):
    computed = character_table(group)
    for part in ("representatives", "sizes"):
        assert getattr(closed.classes, part) == getattr(computed.classes, part)
    assert closed.degrees == computed.degrees
    # equal as row sets: every row of each table is within 1e-8 of exactly
    # one row of the other
    distance = np.abs(closed.values[:, None, :] - computed.values[None, :, :]).max(axis=2)
    close = distance < 1e-8
    assert (close.sum(axis=0) == 1).all() and (close.sum(axis=1) == 1).all(), group.name


@pytest.mark.parametrize("spec", CLOSED_FORM_PAIRS)
def test_closed_form_table_equals_dixon_schneider(spec):
    _assert_equals_dixon_schneider(*_closed_form(spec))


def test_bases_with_one_class_count_share_one_plan():
    # D4 and Z5 both have 5 classes: the plan of n = 3, r = 5 serves both
    plan = gelfand.chartab._closed_form_plan
    plan.cache_clear()
    tables = [_closed_form(spec) for spec in ("wr(D4,3)", "wr(Z5,3)")]
    info = plan.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    for group, closed in tables:
        _assert_equals_dixon_schneider(group, closed)


@pytest.mark.parametrize("n, r", [(3, 5), (2, 11), (9, 1)])
def test_plan_arrays_are_read_only(n, r):
    plan = gelfand.chartab._closed_form_plan(n, r)
    arrays = [plan.x, plan.targets, *plan.reads]
    assert arrays and not any(array.flags.writeable for array in arrays)
    assert isinstance(plan.factors, tuple) and isinstance(plan.exponents, tuple)
    # one target per assignment: sum over the types of r^(cycles)
    assert len(plan.targets) == sum(len(read) for read in plan.reads)


def test_closed_form_past_the_class_limit_is_refused_before_a_plan():
    # wr(Z13,2) has 104 classes, over CLASS_LIMIT = 80
    group = build_pair("wr(Z13,2)").parent
    base = character_table(group.base_group)
    plan = gelfand.chartab._closed_form_plan
    plan.cache_clear()
    with pytest.raises(ResourceLimitError, match="104 conjugacy classes"):
        wreath_character_table(group, base)
    assert plan.cache_info().currsize == 0


@pytest.mark.parametrize("spec", ["wr(Z3,4)", "wr(D4,3)"])
def test_closed_form_saves_the_golden_bytes(spec, tmp_path):
    # written by the closed form as it summed M assignment by assignment,
    # before the plan; a complex base (Z3) and a dihedral one
    path = tmp_path / f"{spec}.chartab"
    save_character_table(_closed_form(spec)[1], path)
    golden = os.path.join(os.path.dirname(__file__), "data", f"{spec}.chartab")
    with open(golden, "rb") as fh:
        assert path.read_bytes() == fh.read()


def _hook_degree(shape):
    """f^shape by the hook length formula, independent of Murnaghan–Nakayama."""
    hooks = 1
    for i, part in enumerate(shape):
        for j in range(part):
            below = sum(1 for other in shape[i + 1 :] if other > j)
            hooks *= part - j + below
    return math.factorial(sum(shape)) // hooks


@pytest.mark.parametrize("spec", CLOSED_FORM_PAIRS)
def test_closed_form_degrees_are_exact(spec):
    # one degree per multipartition lambda of n over Irr(B):
    # n! / prod |lambda(gamma)|! * prod f^lambda(gamma) d_gamma^|lambda(gamma)|
    group, closed = _closed_form(spec)
    base = character_table(group.base_group).degrees
    expected = []
    for mp in multipartitions(len(base), group.n):
        degree = math.factorial(group.n)
        for shape, d in zip(mp, base):
            degree = degree * _hook_degree(shape) * d ** sum(shape) // math.factorial(sum(shape))
        expected.append(degree)
    assert closed.degrees == tuple(sorted(expected))
    assert all(type(d) is int for d in closed.degrees)
    assert sum(d * d for d in closed.degrees) == group.order
    # column 0, the identity's class, rounds to them
    identity = closed.values[:, 0]
    assert np.array_equal(np.rint(identity.real).astype(np.int64), closed.degrees)
    assert np.abs(identity - np.array(closed.degrees)).max() < 1e-8


def test_closed_form_refuses_another_base_table():
    group = build_pair("wr(S3,2)").parent
    with pytest.raises(InvalidParameterError, match="not the table of the base"):
        wreath_character_table(group, character_table(CyclicGroup(3)))


def test_closed_form_rejects_values_off_the_exact_degrees():
    # S3's degree 2 stated as 3: the exact degrees no longer match column 0
    group = build_pair("wr(S3,2)").parent
    base = character_table(group.base_group)
    wrong = dataclasses.replace(base, degrees=(1, 1, 3))
    with pytest.raises(InternalConsistencyError, match="at the identity, not its degree"):
        wreath_character_table(group, wrong)


def test_cold_character_check_labels_no_id_of_g(tmp_path, monkeypatch):
    # the closed form reads the types alone: no type walk, no row over G and
    # no proof of G's generators; the base is labelled and proven as before
    seen = []
    pairs = []
    for name in ("class_labels", "mul_all"):
        real = getattr(WreathProduct, name)

        def recording(self, *args, _real=real, _name=name, **kwargs):
            seen.append((_name, self.name))
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(WreathProduct, name, recording)
    products = gelfand.groups._generator_products

    def proving(group):
        seen.append(("_generator_products", group.name))
        return products(group)

    monkeypatch.setattr(gelfand.groups, "_generator_products", proving)
    build = gelfand.reports.build_pair

    def building(*args, **kwargs):
        pairs.append(build(*args, **kwargs))
        return pairs[-1]

    monkeypatch.setattr(gelfand.reports, "build_pair", building)
    argv = ["pair-check", "wr(S4,2)", "--method", "character", "--format", "machine"]
    assert gelfand.cli.main(argv + ["--cache-dir", str(tmp_path)]) == 0
    (embedding,) = pairs
    group = embedding.parent
    assert (tmp_path / "wr(S4,2).chartab").exists()
    assert [call for call in seen if call[1] == group.name] == []
    assert ("_generator_products", "S4") in seen
    assert group._generator_rows is None and group._classes is None


def test_z4_values_are_fourth_roots_of_unity():
    t = character_table(CyclicGroup(4))
    rounded = set(np.round(t.values, 6).flatten())
    assert rounded == {1 + 0j, -1 + 0j, 1j, -1j}


def test_s3_table_values():
    t = character_table(SymmetricGroup(3))
    assert t.degrees == (1, 1, 2)
    expected = np.array([[1, 1, 1], [1, -1, 1], [2, 0, -1]], dtype=complex)
    assert np.max(np.abs(t.values - expected)) < 1e-8


def _sort_key(row):
    """The tuple key character_table once sorted rows by, kept as an oracle."""
    return tuple((round(z.real, 8) + 0.0, round(z.imag, 8) + 0.0) for z in row)


def test_table_invariants_for_many_groups():
    groups = [
        CyclicGroup(1),
        CyclicGroup(6),
        CyclicGroup(12),
        SymmetricGroup(3),
        SymmetricGroup(4),
        DihedralGroup(4),
        DihedralGroup(5),
        DirectProductGroup(CyclicGroup(2), CyclicGroup(2)),
        DirectProductGroup(CyclicGroup(2), SymmetricGroup(3)),
    ]
    wreaths = ("wr(S3,3)", "wr(Z3,4)", "wr(D4,3)", "wr(Z2,5)")  # the character-cold pairs
    groups += [build_pair(spec).parent for spec in wreaths]
    for grp in groups:
        t = character_table(grp)
        validate_character_table(t)
        assert len(t.degrees) == t.classes.count
        assert sum(d * d for d in t.degrees) == grp.order
        assert np.allclose(t.values[0], 1.0)
        assert is_abelian(grp) == all(d == 1 for d in t.degrees)
        # rows come trivial first, then in the order of the tuple key
        keys = [(i > 0, d, _sort_key(row)) for i, (d, row) in enumerate(zip(t.degrees, t.values))]
        assert keys == sorted(keys), grp.name


def test_cyclic_table_is_the_discrete_fourier_matrix():
    # Z7's classes are its elements, so chi_a(b) = exp(2 pi i a b / 7), up to row order
    t = character_table(CyclicGroup(7))
    b = np.array(t.classes.representatives)
    assert b.tolist() == list(range(7))
    dft = np.exp(2j * np.pi * np.outer(np.arange(7), b) / 7)
    distance = np.abs(t.values[:, None, :] - dft[None, :, :]).max(axis=2)
    assert sorted(distance.argmin(axis=1).tolist()) == list(range(7))
    assert distance.min(axis=1).max() < 1e-12


def test_non_real_and_real_tables():
    # a class unequal to its inverse class gives complex coefficients and a
    # complex Hermitian eigensolve; with every class real, a real symmetric one
    t = character_table(build_pair("wr(Z3,2)").parent)
    assert np.abs(t.values.imag).max() > 0.5
    validate_character_table(t)
    for grp in (SymmetricGroup(4), build_pair("wr(S3,3)").parent):
        assert not np.imag(character_table(grp).values).any(), grp.name


@pytest.mark.parametrize(
    "spec", ("wr(S4,2)", "wr(S3,2)", "wr(S3,3)", "wr(D4,3)", "wr(Z3,4)", "wr(Z2,5)", "wr(Z5,2)")
)
def test_row_orthogonality_headroom_over_seeds(spec):
    # at least 100x under the 1e-8 that validate_character_table allows, for
    # every seed and not only the default one
    grp = build_pair(spec).parent
    for seed in range(10):
        t = character_table(grp, seed=seed)
        v = t.values
        gram = (v * np.array(t.classes.sizes)) @ v.conj().T / grp.order
        assert np.max(np.abs(gram - np.eye(len(v)))) <= 1e-10, (spec, seed)


def test_linear_character_count_is_abelianization_order():
    for grp in (SymmetricGroup(3), SymmetricGroup(4), DihedralGroup(4), CyclicGroup(6)):
        t = character_table(grp)
        linear = sum(1 for d in t.degrees if d == 1)
        derived = commutator_subgroup(grp).subgroup.order
        assert linear == grp.order // derived


def test_determinism_and_seed():
    a = character_table(SymmetricGroup(4), seed=0)
    b = character_table(SymmetricGroup(4), seed=0)
    assert np.array_equal(a.values, b.values)
    c = character_table(SymmetricGroup(4), seed=1)
    # a different seed may permute nothing (ordering is canonical) but the
    # table must represent the same characters
    assert a.degrees == c.degrees
    assert np.max(np.abs(a.values - c.values)) < 1e-6


def test_negative_seed_is_refused():
    # random.Random(-s) draws the stream of Random(s): refusing -s keeps one
    # stream per seed
    with pytest.raises(InvalidParameterError, match="non-negative integer, got -1"):
        character_table(SymmetricGroup(4), seed=-1)


# argparse's gettext imports locale on the first message it formats
_ARGPARSE = ["_locale", "locale"]


@pytest.mark.parametrize(
    "call, loads",
    [
        ('assert cli.main(["pair-check", "wr(S3,3)", "--method", "both", "--cache-dir", cache]) == 0',
         _ARGPARSE),
        ('assert cli.main(["pair-check", "wr(S3,3)", "--method", "character", "--cache-dir", cache]) == 0',
         _ARGPARSE),
        ("character_table(SymmetricGroup(4))", []),
    ],
    ids=["pair-check-both", "pair-check-character", "character_table-S4"],
)
def test_character_route_loads_no_numpy_random(call, loads, tmp_path):
    # the t_i come from the stdlib stream: numpy.random costs ~5 MiB to import.
    # Nor may the call load any other module past those it has always
    # loaded (loads): a new import shows in every process's peak RSS
    code = (
        "import json, sys\n"
        "from gelfand import SymmetricGroup, character_table, cli\n"
        f"cache = {str(tmp_path / 'cold')!r}\n"
        "before = set(sys.modules)\n"
        f"{call}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
        "print(json.dumps([m for m in ('scipy', 'sympy', 'fractions') if m in sys.modules]))\n"
        "print('numpy.random' in sys.modules)\n"
    )
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(gelfand.chartab.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    loaded, heavy, numpy_random = proc.stdout.splitlines()[-3:]
    assert numpy_random == "False"
    assert json.loads(heavy) == []
    assert set(json.loads(loaded)) <= set(loads), loaded


def test_persistent_failure_names_the_attempts_and_classes(monkeypatch):
    # S3's classes by size are {e}, the 3-cycles and the transpositions: one
    # attempt with the first two, then every retry with all three
    def collide(*args):
        raise NumericalQualityError("eigenvalues of the random combination collide")

    monkeypatch.setattr(gelfand.chartab, "_extract_rows", collide)
    message = "failed after 13 attempts, the last 12 with all 3 classes: eigenvalues"
    with pytest.raises(NumericalQualityError, match=message):
        character_table(SymmetricGroup(3))


def test_class_limit_enforced():
    # Z100 has 100 classes, over CLASS_LIMIT = 80
    with pytest.raises(ResourceLimitError, match="100 conjugacy classes"):
        character_table(CyclicGroup(100))
    # the order limit is checked before any class is computed: walking the
    # classes of a group this size would not finish in test time
    with pytest.raises(ResourceLimitError, match="order limit"):
        character_table(CyclicGroup(ORDER_LIMIT + 1))


# ---------------------------------------------------------------------------
# permutation characters and decompositions


def test_permutation_character_whole_group():
    grp = DihedralGroup(4)
    classes = conjugacy_classes(grp)
    chi = permutation_character(full_embedding(grp), classes)
    assert chi == tuple([1] * classes.count)


def test_permutation_character_s3_s2():
    s3, emb = s3_pair()
    assert permutation_character(emb, conjugacy_classes(s3)) == (3, 1, 0)


def test_permutation_character_wreath_identity_value():
    emb = embed_wreath_subgroup(CyclicGroup(2), 2)
    chi = permutation_character(emb, conjugacy_classes(emb.parent))
    assert chi[0] == emb.parent.order // emb.subgroup.order == 4


def test_permutation_character_rejects_labels_that_are_not_classes():
    # S3 ids: 0 = e, 1, 2, 5 transpositions, 3, 4 three-cycles.  Blocks {e},
    # {1, 2, 3, 5} and {4} over K = S2 = {0, 2}: [G:K] |K ∩ C_1| = 3 * 1 is
    # not divisible by |C_1| = 4
    _, emb = s3_pair()
    doctored = GroupPartition.from_labels(np.array([0, 1, 1, 1, 2, 1]))
    assert doctored.sizes == (1, 4, 1)
    with pytest.raises(InternalConsistencyError, match=r"= 3 is not divisible by \|C_1\| = 4"):
        permutation_character(emb, doctored)


def test_character_route_reads_no_left_cosets():
    # pi comes from G's classes alone, so G/K is left to the Hecke route,
    # and a wreath embedding has no left cosets or ids of K to read
    emb = embed_wreath_subgroup(SymmetricGroup(3), 2)
    decompose_induced_trivial(emb, character_table(emb.parent))
    assert not isinstance(emb, SubgroupEmbedding)
    assert not any(hasattr(emb, name) for name in ("coset_reps", "_cosets", "map", "image"))


def test_burnside_count_rejects_labels_that_are_not_classes():
    # wr(S3,2) on its 12 points: classes {e} and C_1 (6 elements, pi 0)
    # merged keep their sizes' sum, but the merged block is read at e, where
    # pi = 12, so Burnside's count reads 7 * 12 + 60 = 144, not |G| = 72
    emb = build_pair("wr(S3,2)")
    classes = conjugacy_classes(emb.parent)
    assert permutation_character(emb, classes) == (12, 0, 6, 0, 6, 0, 0, 0, 0)
    labels = classes.block_of.copy()
    labels[labels == 1] = 0
    doctored = GroupPartition.from_labels(labels)
    assert doctored.sizes[0] == 7
    message = r"Burnside's count sum \|C_j\| pi\(C_j\) = 144 != \|wr\(S3,2\)\| = 72"
    with pytest.raises(InternalConsistencyError, match=message):
        permutation_character(emb, doctored)


# perfbench's character-cold and ladder-both pairs, and two past them
X_PAIRS = BENCHMARK_PAIRS + ("wr(Z1,7)", "wr(S3,4)")


@pytest.mark.parametrize("spec", X_PAIRS)
def test_permutation_character_on_x_equals_the_forms_that_read_k(spec):
    emb = build_pair(spec)
    group = emb.parent
    classes = conjugacy_classes(group)
    on_x = permutation_character(emb, classes)
    assert {"map", "image"}.isdisjoint(vars(emb))
    # Frobenius on a generic embedding of K's ids, built and proven here
    generic = scalar_oracle.id_embedding(emb)
    assert on_x == permutation_character(generic, classes)
    # the definition: the left cosets c with z rep_c in c, over walked cosets
    reps = generic.coset_reps
    z = np.array(classes.representatives, dtype=np.int64)[:, None]
    fixed = generic.coset_index(group.mul_many(z, reps)) == np.arange(len(reps))
    assert on_x == tuple(fixed.sum(axis=1).tolist())
    assert on_x == scalar_oracle.permutation_character(group, generic, classes)


CHARACTER_COLD = ("wr(S3,3)", "wr(Z3,4)", "wr(D4,3)", "wr(Z2,5)")


@pytest.mark.parametrize("spec", CHARACTER_COLD)
def test_character_route_reads_no_id_of_k(spec, tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError(f"K's ids were read for {spec}")

    # a wreath embedding holds no id of K, and none is proven
    assert not isinstance(build_pair(spec), SubgroupEmbedding)
    monkeypatch.setattr(SubgroupEmbedding, "validate", refuse)
    cold = check_pair(spec, method="character", cache_dir=tmp_path)
    assert (tmp_path / f"{spec}.chartab").exists()
    warm = check_pair(spec, method="character", cache_dir=tmp_path)
    for report in (cold, warm):
        assert report.consistent and isinstance(report.gelfand_character, bool)
    assert cold.multiplicities == warm.multiplicities


@pytest.mark.parametrize("method", ["both", "hecke"])
@pytest.mark.parametrize("spec", CHARACTER_COLD)
def test_hecke_route_proves_k_once(spec, method, monkeypatch):
    # the Hecke route reads X alone, so no route builds K's ids, and K is
    # never proven
    proven = []
    validate = SubgroupEmbedding.validate

    def counting(self):
        proven.append(self)
        validate(self)

    monkeypatch.setattr(SubgroupEmbedding, "validate", counting)
    report = check_pair(spec, method=method)
    assert report.consistent and isinstance(report.gelfand_hecke, bool)
    assert proven == []


def test_inner_products():
    # the class-by-class inner products <chi, chi_i> are the decomposition's
    # multiplicities, and <chi, chi> = sum m_i^2 = 2 for (S3, S2)
    s3, emb = s3_pair()
    t = character_table(s3)
    chi = permutation_character(emb, t.classes)

    def inner(f, h):
        terms = zip(t.classes.sizes, f, h)
        return sum(size * a * complex(b).conjugate() for size, a, b in terms) / s3.order

    trivial = t.values[0]
    assert abs(inner(trivial, trivial) - 1) < 1e-12
    assert abs(inner(chi, chi) - 2) < 1e-12
    assert abs(inner(chi, trivial) - 1) < 1e-12
    multiplicities = decompose_induced_trivial(emb, t)
    for row, m in zip(t.values, multiplicities):
        assert abs(inner(chi, row) - m) < 1e-12


def test_decompose_s3_s2():
    s3, emb = s3_pair()
    assert decompose_induced_trivial(emb, character_table(s3)) == (1, 0, 1)


def test_decompose_whole_group_is_trivial_only():
    grp = SymmetricGroup(3)
    t = character_table(grp)
    assert decompose_induced_trivial(full_embedding(grp), t) == (1, 0, 0)


def test_decompose_s3_wr_s2():
    emb = embed_wreath_subgroup(SymmetricGroup(3), 2)
    t = character_table(emb.parent)
    ms = decompose_induced_trivial(emb, t)
    assert sorted(m for m in ms if m) == [1, 1, 1, 2]
    assert sum(m * m for m in ms) == 7
    assert sum(m * deg for m, deg in zip(ms, t.degrees)) == 12


def _doctored_s3_table(**changes):
    """The (S3, S2) pair with its true table edited; rows: trivial, sign, standard."""
    s3, emb = s3_pair()
    t = character_table(s3)
    assert t.degrees == (1, 1, 2)
    return emb, dataclasses.replace(t, **changes)


def test_decompose_rejects_a_non_integral_multiplicity():
    values = np.array(character_table(SymmetricGroup(3)).values)
    values[2] *= 0.5  # standard character halved: m_2 = 1/2
    emb, t = _doctored_s3_table(values=values)
    with pytest.raises(NumericalQualityError, match="multiplicity of irrep 2"):
        decompose_induced_trivial(emb, t)


def test_decompose_names_the_first_multiplicity_that_fails():
    # the sign row replaced by minus the trivial one: m_1 = -1 comes before
    # the halved m_2 = 1/2
    values = np.array(character_table(SymmetricGroup(3)).values)
    values[1] = -values[0]
    values[2] *= 0.5
    emb, t = _doctored_s3_table(values=values)
    with pytest.raises(NumericalQualityError, match=r"multiplicity of irrep 1 = \(-1"):
        decompose_induced_trivial(emb, t)


def test_decompose_counts_the_imaginary_part():
    # m_2 = 1 - 1e-3 i: its real part rounds, its imaginary part does not
    values = np.array(character_table(SymmetricGroup(3)).values, dtype=np.complex128)
    values[2] = values[2] + 1e-3j * values[2]
    emb, t = _doctored_s3_table(values=values)
    with pytest.raises(NumericalQualityError, match="multiplicity of irrep 2"):
        decompose_induced_trivial(emb, t)


def test_decompose_rejects_a_wrong_index_sum():
    # true multiplicities (1, 0, 1) against degrees (1, 1, 3): 4 != [S3:S2] = 3
    emb, t = _doctored_s3_table(degrees=(1, 1, 3))
    message = r"sum m_i \* d_i = 4 != \[G:K\] = 3"
    with pytest.raises(InternalConsistencyError, match=message):
        decompose_induced_trivial(emb, t)


def test_decompose_rejects_a_trivial_multiplicity_other_than_one():
    # sign row first: multiplicities (0, 1, 1) still sum to [G:K] = 0 + 1 + 2
    values = np.array(character_table(SymmetricGroup(3)).values)[[1, 0, 2]]
    emb, t = _doctored_s3_table(values=values)
    message = "trivial character has multiplicity 0 != 1"
    with pytest.raises(InternalConsistencyError, match=message):
        decompose_induced_trivial(emb, t)


def test_gelfand_character_verdicts():
    def multiplicity_free(emb):
        table = character_table(emb.parent)
        return max(decompose_induced_trivial(emb, table)) <= 1

    assert multiplicity_free(embed_wreath_subgroup(CyclicGroup(1), 4))  # (S4, S3)
    assert multiplicity_free(embed_wreath_subgroup(CyclicGroup(2), 3))
    assert not multiplicity_free(embed_wreath_subgroup(SymmetricGroup(3), 2))


# ---------------------------------------------------------------------------
# cache round trip


def _cached_values(path):
    """The values of a cache file, decoded from its base64 line."""
    line = path.read_text().splitlines()[7]
    assert line.startswith("values ")
    return np.frombuffer(base64.b64decode(line[len("values ") :]), dtype="<c16").copy()


def _with_values_line(path, line):
    lines = path.read_text().splitlines()
    lines[7] = line
    path.write_text("\n".join(lines) + "\n")


def _with_values(path, values):
    _with_values_line(path, "values " + base64.b64encode(values.astype("<c16").tobytes()).decode())


def test_cache_roundtrip(tmp_path):
    grp = SymmetricGroup(4)
    t = character_table(grp)
    path = tmp_path / "S4.chartab"
    save_character_table(t, path)
    loaded = load_character_table(path, grp)
    assert loaded.degrees == t.degrees
    # the floats come back bit for bit, as complex128 (a real table gets
    # imaginary parts 0.0, as the text format wrote them)
    exact = t.values.astype(np.complex128).tobytes()
    assert loaded.values.dtype == np.complex128
    assert loaded.values.tobytes() == exact
    assert _cached_values(path).tobytes() == exact


def test_cache_loads_a_table_written_before_the_smallest_classes_method():
    # written by the eigensolve of one combination of all 22 class matrices;
    # today's table differs from it in the last bits only
    grp = build_pair("wr(S3,3)").parent
    path = os.path.join(os.path.dirname(__file__), "data", "wr(S3,3).chartab")
    loaded = load_character_table(path, grp)
    computed = character_table(grp)
    assert loaded.degrees == computed.degrees
    assert np.max(np.abs(loaded.values - computed.values)) < 1e-9


def test_a_warm_load_reads_no_id_of_g():
    # the cached reps and sizes lines are checked against the closed form of
    # the wreath classes, so loading and decomposing label no id of G
    emb = build_pair("wr(S3,3)")
    group = emb.parent
    path = os.path.join(os.path.dirname(__file__), "data", "wr(S3,3).chartab")
    table = load_character_table(path, group)
    assert max(decompose_induced_trivial(emb, table)) == 2
    assert group._classes is None  # no id labelled
    assert "_digits" not in vars(group) and group._generator_rows is None


def test_cache_rejects_corruption(tmp_path):
    grp = SymmetricGroup(3)
    t = character_table(grp)
    path = tmp_path / "S3.chartab"
    save_character_table(t, path)
    # corrupt one character value inside the base64 line: validation must refuse it
    values = _cached_values(path)
    values[3] = 9.75
    _with_values(path, values)
    with pytest.raises(InternalConsistencyError):
        load_character_table(path, grp)


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(1.0, np.nan)])
def test_cache_rejects_non_finite_values(tmp_path, value):
    grp = SymmetricGroup(3)
    path = tmp_path / "S3.chartab"
    save_character_table(character_table(grp), path)
    values = _cached_values(path)
    values[4] = value  # row 1: every tolerance comparison is False on NaN
    _with_values(path, values)
    with pytest.raises(InternalConsistencyError, match="non-finite values"):
        load_character_table(path, grp)


@pytest.mark.parametrize("cut", [1, 16, -16])
def test_cache_rejects_a_values_line_of_the_wrong_length(tmp_path, cut):
    grp = SymmetricGroup(3)
    path = tmp_path / "S3.chartab"
    save_character_table(character_table(grp), path)
    values = _cached_values(path).tobytes()
    raw = values[:-cut] if cut > 0 else values + values[:-cut]
    _with_values_line(path, "values " + base64.b64encode(raw).decode())
    with pytest.raises(InternalConsistencyError, match="not 16 r\\^2 = 144"):
        load_character_table(path, grp)


def test_cache_rejects_a_values_line_that_is_not_base64(tmp_path):
    grp = SymmetricGroup(3)
    path = tmp_path / "S3.chartab"
    save_character_table(character_table(grp), path)
    _with_values_line(path, "values 1.0 0.0 1.0 0.0")
    with pytest.raises(InternalConsistencyError, match="not base64"):
        load_character_table(path, grp)


def _as_version_1(path):
    """The cache file rewritten in the version-1 text format: the values as
    repr floats, one row per line after a bare "values" line."""
    lines = path.read_text().splitlines()
    values = _cached_values(path)
    r = int(lines[3].split()[1])
    rows = [
        " ".join(f"{float(z.real)!r} {float(z.imag)!r}" for z in row)
        for row in values.reshape(r, r)
    ]
    lines = ["gelfand-character-table 1"] + lines[1:7] + ["values"] + rows
    path.write_text("\n".join(lines) + "\n")


def test_cache_rejects_a_version_1_file_and_replaces_it(tmp_path):
    grp = SymmetricGroup(4)
    first = cached_character_table(grp, tmp_path)
    path = tmp_path / "S4.chartab"
    _as_version_1(path)
    with pytest.raises(InternalConsistencyError, match="bad header"):
        load_character_table(path, grp)
    second = cached_character_table(grp, tmp_path)
    assert second.values.tobytes() == first.values.tobytes()
    assert path.read_text().startswith(f"gelfand-character-table {gelfand.chartab._CACHE_VERSION}\n")
    reloaded = load_character_table(path, grp)
    assert reloaded.values.tobytes() == first.values.astype(np.complex128).tobytes()


def test_cache_rejects_wrong_group(tmp_path):
    t = character_table(SymmetricGroup(3))
    path = tmp_path / "S3.chartab"
    save_character_table(t, path)
    with pytest.raises(InternalConsistencyError):
        load_character_table(path, DihedralGroup(3))


def test_cached_character_table_recovers_from_corruption(tmp_path):
    grp = SymmetricGroup(3)
    first = cached_character_table(grp, tmp_path)
    path = tmp_path / "S3.chartab"
    path.write_text("garbage\n")
    second = cached_character_table(grp, tmp_path)
    assert second.degrees == first.degrees
    # the corrupt entry was replaced by a valid one
    reloaded = load_character_table(path, grp)
    assert reloaded.degrees == first.degrees
