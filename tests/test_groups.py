"""Group constructions, conjugacy classes, subgroups and axiom checks."""

import itertools

import pytest

from gelfand import (
    CyclicGroup,
    DihedralGroup,
    DirectProductGroup,
    InternalConsistencyError,
    InvalidParameterError,
    ResourceLimitError,
    SymmetricGroup,
    conjugacy_classes,
    is_abelian,
    subgroup_from_generators,
    verify_group_axioms,
)
from gelfand.groups import (
    TABLE_ORDER_LIMIT,
    GeneratedSubgroup,
    perm_compose,
    perm_inverse,
    perm_rank,
    perm_unrank,
)
from scalar_oracle import commutator_subgroup, members


def cycle_type(p):
    """Sorted cycle lengths of an image tuple; an oracle independent of the
    conjugation-orbit code."""
    seen = [False] * len(p)
    lengths = []
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        cursor = start
        while not seen[cursor]:
            seen[cursor] = True
            cursor = p[cursor]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


# ---------------------------------------------------------------------------
# permutation plumbing


def test_perm_rank_unrank_roundtrip():
    for n in (1, 2, 3, 4, 5, 6):
        for rank, p in enumerate(itertools.permutations(range(n))):
            assert perm_rank(p) == rank
            assert perm_unrank(n, rank) == p


def test_perm_rank_beyond_materialize_limit():
    # S9 is too big to pre-list; the Lehmer-code fallback must agree with
    # the composition oracle
    s9 = SymmetricGroup(9)
    assert s9.order == 362880
    import random

    rng = random.Random(1)
    for _ in range(50):
        a = rng.randrange(s9.order)
        b = rng.randrange(s9.order)
        pa, pb = s9.permutation(a), s9.permutation(b)
        assert perm_rank(pa) == a
        assert s9.permutation(s9.mul(a, b)) == perm_compose(pa, pb)
        assert s9.mul(a, s9.inv(a)) == 0


def test_perm_compose_right_factor_first():
    p = (1, 0, 2)  # swaps 0,1
    q = (0, 2, 1)  # swaps 1,2
    # (p*q)(i) = p(q(i)): 0 -> p(0)=1, 1 -> p(2)=2, 2 -> p(1)=0
    assert perm_compose(p, q) == (1, 2, 0)
    assert perm_compose(q, p) == (2, 0, 1)
    assert perm_compose(p, perm_inverse(p)) == (0, 1, 2)


# ---------------------------------------------------------------------------
# constructions


def test_cyclic_examples():
    assert CyclicGroup(1).order == 1
    z4 = CyclicGroup(4)
    assert z4.mul(3, 2) == 1
    z6 = CyclicGroup(6)
    assert is_abelian(z6)
    assert conjugacy_classes(z6).count == 6
    with pytest.raises(InvalidParameterError):
        CyclicGroup(0)


def test_symmetric_examples():
    assert SymmetricGroup(1).order == 1
    s3 = SymmetricGroup(3)
    assert s3.order == 6
    assert conjugacy_classes(s3).count == 3
    s4 = SymmetricGroup(4)
    assert s4.order == 24
    assert conjugacy_classes(s4).count == 5
    with pytest.raises(InvalidParameterError):
        SymmetricGroup(0)


def test_symmetric_classes_match_cycle_types():
    for n in (3, 4, 5):
        sn = SymmetricGroup(n)
        cc = conjugacy_classes(sn)
        for block in members(cc):
            types = {cycle_type(sn.permutation(x)) for x in block}
            assert len(types) == 1
        types_per_class = {cycle_type(sn.permutation(r)) for r in cc.representatives}
        assert len(types_per_class) == cc.count


def test_dihedral_examples():
    d3 = DihedralGroup(3)
    assert d3.order == 6
    assert not is_abelian(d3)
    d4 = DihedralGroup(4)
    assert d4.order == 8
    assert not is_abelian(d4)
    assert sorted(conjugacy_classes(d4).sizes) == [1, 1, 2, 2, 2]
    with pytest.raises(InvalidParameterError):
        DihedralGroup(2)


def test_direct_product_examples():
    v4 = DirectProductGroup(CyclicGroup(2), CyclicGroup(2))
    assert v4.order == 4
    assert is_abelian(v4)
    assert conjugacy_classes(v4).count == 4

    g = DirectProductGroup(CyclicGroup(2), SymmetricGroup(3))
    assert g.order == 12
    assert not is_abelian(g)

    s3 = SymmetricGroup(3)
    h = DirectProductGroup(CyclicGroup(1), s3)
    assert h.order == s3.order
    assert conjugacy_classes(h).count == conjugacy_classes(s3).count


def test_group_axioms_hold():
    for grp in (
        CyclicGroup(6),
        SymmetricGroup(3),
        SymmetricGroup(4),
        DihedralGroup(4),
        DihedralGroup(5),
        DirectProductGroup(CyclicGroup(2), SymmetricGroup(3)),
    ):
        verify_group_axioms(grp)


def test_group_axioms_exhaustive_above_200():
    # S6 has 720 > 200 elements: proven by Light's test and checked at every
    # pair like S5, not sampled
    verify_group_axioms(SymmetricGroup(5))
    verify_group_axioms(SymmetricGroup(6))


class _OneWrongProduct(SymmetricGroup):
    """S6 whose scalar mul is wrong at (400, 500) alone, neither a generator."""

    def mul(self, a, b):
        product = super().mul(a, b)
        return (product + 1) % self.order if (a, b) == (400, 500) else product


def test_group_axioms_catch_one_wrong_scalar_product_past_200():
    s6 = _OneWrongProduct(6)
    assert not {400, 500} & set(s6.generators)
    with pytest.raises(InternalConsistencyError, match=r"S6: mul disagrees .* at \(400, 500\)"):
        verify_group_axioms(s6)


def test_group_axioms_refuse_past_the_table_limit_before_any_product():
    group = CyclicGroup(TABLE_ORDER_LIMIT + 1)
    calls = []
    group.mul = lambda a, b: calls.append((a, b)) or (a + b) % group.k
    with pytest.raises(ResourceLimitError, match="2049"):
        verify_group_axioms(group)
    assert len(calls) == 0


# ---------------------------------------------------------------------------
# subgroups


def test_subgroup_from_transposition():
    s3 = SymmetricGroup(3)
    emb = subgroup_from_generators(s3, [s3.id_of((1, 0, 2))])
    assert emb.subgroup.order == 2
    assert s3.order % emb.subgroup.order == 0


def test_subgroup_empty_generators_is_trivial():
    emb = subgroup_from_generators(DihedralGroup(4), [])
    assert emb.subgroup.order == 1
    assert emb.map == (0,)


def test_subgroup_whole_s4():
    s4 = SymmetricGroup(4)
    gens = [s4.id_of((1, 0, 2, 3)), s4.id_of((1, 2, 3, 0))]
    emb = subgroup_from_generators(s4, gens)
    assert emb.subgroup.order == 24


def test_subgroup_rejects_bad_generator():
    with pytest.raises(InvalidParameterError):
        subgroup_from_generators(CyclicGroup(4), [9])


def test_subgroup_refuses_a_parent_result_outside_it():
    # {0, 3} in a Z6 whose mul and inv are off by one: 3 3 = 1, 3^-1 = 4
    class OffByOne(CyclicGroup):
        def mul(self, a, b):
            return (a + b + 1) % self.k

        def inv(self, a):
            return (1 - a) % self.k

    sub = GeneratedSubgroup(OffByOne(6), (0, 3), (3,))
    with pytest.raises(InternalConsistencyError, match="not closed under multiplication$"):
        sub.mul(1, 1)
    with pytest.raises(InternalConsistencyError, match="not closed under inversion$"):
        sub.inv(1)


def test_lagrange_over_all_cyclic_subgroups():
    for grp in (SymmetricGroup(4), DihedralGroup(6)):
        for g in range(grp.order):
            emb = subgroup_from_generators(grp, [g])
            assert grp.order % emb.subgroup.order == 0


# ---------------------------------------------------------------------------
# conjugacy classes and commutators


def test_classes_partition_group():
    for grp in (SymmetricGroup(4), DihedralGroup(5), CyclicGroup(12)):
        cc = conjugacy_classes(grp)
        all_ids = sorted(x for block in members(cc) for x in block)
        assert all_ids == list(range(grp.order))
        assert sum(cc.sizes) == grp.order
        for size in cc.sizes:
            assert grp.order % size == 0
        # closure under conjugation by every element
        for block in members(cc):
            conjugates = set(block)
            for x in block:
                for h in range(grp.order):
                    assert grp.mul(h, grp.mul(x, grp.inv(h))) in conjugates


def test_class_representatives_are_minimal_and_ordered():
    cc = conjugacy_classes(SymmetricGroup(4))
    assert list(cc.representatives) == [min(b) for b in members(cc)]
    assert list(cc.representatives) == sorted(cc.representatives)
    assert members(cc)[0] == (0,)


def test_z5_classes_are_singletons():
    cc = conjugacy_classes(CyclicGroup(5))
    assert cc.sizes == (1, 1, 1, 1, 1)


def test_s3_class_sizes():
    assert sorted(conjugacy_classes(SymmetricGroup(3)).sizes) == [1, 2, 3]


def test_abelian_iff_all_classes_singletons():
    for grp in (
        CyclicGroup(6),
        DirectProductGroup(CyclicGroup(2), CyclicGroup(2)),
        SymmetricGroup(3),
        DihedralGroup(4),
    ):
        assert is_abelian(grp) == (conjugacy_classes(grp).count == grp.order)


def test_commutator_subgroups():
    for k in (2, 3, 6):
        assert commutator_subgroup(CyclicGroup(k)).subgroup.order == 1
    s3 = SymmetricGroup(3)
    derived = commutator_subgroup(s3)
    assert derived.subgroup.order == 3
    # the derived subgroup of S3 is exactly the 3-cycles plus the identity
    three_cycles = {
        x for x in range(6) if cycle_type(s3.permutation(x)) == (3,)
    }
    assert set(derived.map) == three_cycles | {0}
    assert commutator_subgroup(DihedralGroup(4)).subgroup.order == 2


def test_broken_oracle_detected():
    class Broken(CyclicGroup(4).__class__):
        def mul(self, a, b):
            return (a + b + 1) % self.k  # no identity

    broken = Broken(4)
    with pytest.raises(InternalConsistencyError):
        verify_group_axioms(broken)
