"""Double cosets, structure constants, convolution and the Hecke verdict."""

import itertools
import random

import numpy as np
import pytest

from gelfand import (
    CyclicGroup,
    DihedralGroup,
    InternalConsistencyError,
    InvalidParameterError,
    ResourceLimitError,
    SymmetricGroup,
    class_coefficients,
    conjugacy_classes,
    double_cosets,
    embed_wreath_subgroup,
    full_embedding,
    is_commutative,
    structure_constants,
    subgroup_from_generators,
)
from gelfand.groups import block_product_counts, stack_block_counts
from gelfand.hecke import dense_constants
from gelfand.reports import build_pair
from hecke_oracle import (
    BiInvariantFunction,
    bucketed_constants,
    convolve,
    convolve_via_constants,
)
from scalar_oracle import members, per_id


def s3_pair():
    """(S3, S2) with S2 generated by the transposition of the first two points."""
    s3 = SymmetricGroup(3)
    return s3, subgroup_from_generators(s3, [s3.id_of((1, 0, 2))])


def test_s3_s2_blocks():
    _, emb = s3_pair()
    dc = double_cosets(emb)
    assert dc.sizes == (2, 4)
    assert members(per_id(emb, dc))[0] == tuple(emb.image.tolist())
    assert dc.coset_block[emb.coset_index(0)] == 0


def test_whole_group_single_block():
    for grp in (SymmetricGroup(3), DihedralGroup(4)):
        dc = double_cosets(full_embedding(grp))
        assert dc.rank == 1
        sc = dense_constants(full_embedding(grp), dc)
        assert sc[0, 0, 0] == grp.order
        # rank 1 is always commutative
        assert is_commutative(structure_constants(full_embedding(grp), dc))


def test_s3_wr_s2_has_seven_blocks():
    emb = embed_wreath_subgroup(SymmetricGroup(3), 2)
    dc = double_cosets(emb)
    assert dc.rank == 7
    assert sum(dc.sizes) == 72


@pytest.mark.parametrize("spec", ["wr(S3,2)", "wr(Z2,4)", "wr(S4,2)"])
def test_wreath_double_cosets_keep_nothing_per_id(spec):
    # per left coset or per block: at most [G:K] entries, never |G|
    emb = build_pair(spec)
    dc = double_cosets(emb)
    kept = [np.asarray(value) for value in vars(dc).values()]
    assert len(kept) == 4 and emb.index < emb.parent.order
    assert all(value.size <= emb.index for value in kept)


def test_blocks_partition_the_group():
    for base, n in ((CyclicGroup(2), 3), (SymmetricGroup(3), 2)):
        emb = embed_wreath_subgroup(base, n)
        dc = double_cosets(emb)
        blocks = members(per_id(emb, dc))
        covered = sorted(x for block in blocks for x in block)
        assert covered == list(range(emb.parent.order))
        assert list(dc.representatives) == [min(b) for b in blocks]


@pytest.mark.parametrize("spec, rank", [("wr(S3,2)", 7), ("wr(S4,2)", 25), ("wr(Z30,2)", 31)])
def test_double_cosets_make_two_mul_many_calls_at_any_rank(spec, rank):
    # the moves of K's generators and the batch K g, which the K g check,
    # the coset size identity and the recount targets all read; the left
    # cosets are read and checked beforehand
    emb = build_pair(spec)
    emb.coset_reps
    group = emb.parent
    calls = []

    def counted(xs, ys):
        calls.append(1)
        return type(group).mul_many(group, xs, ys)

    group.mul_many = counted
    assert double_cosets(emb).rank == rank
    assert len(calls) == 2


def test_double_cosets_check_that_k_g_stays_in_its_block():
    # with its generators dropped, K = {e, (0 1)} moves no coset, so each
    # left coset becomes a block, but K g meets two of them, first at the
    # transposition g = (1 2), id 1
    _, emb = s3_pair()
    emb.subgroup.generators = ()
    message = r"K g leaves block\(g\) at representative 1$"
    with pytest.raises(InternalConsistencyError, match=message):
        double_cosets(emb)


def test_s3_s2_structure_constants_hand_values():
    _, emb = s3_pair()
    dc = double_cosets(emb)
    sc = dense_constants(emb, dc)
    assert sc[0, 0, 0] == 2
    assert sc[1, 1, 0] == 4
    assert sc[1, 1, 1] == 2
    assert sc[0, 1, 1] == 2
    assert sc[1, 0, 1] == 2
    assert is_commutative(structure_constants(emb, dc))


def test_counting_identity_all_pairs():
    embeddings = [s3_pair()[1]]
    for base, n in ((CyclicGroup(2), 2), (SymmetricGroup(3), 2)):
        embeddings.append(embed_wreath_subgroup(base, n))
    for emb in embeddings:
        dc = double_cosets(emb)
        sc = dense_constants(emb, dc)
        sizes = np.array(dc.sizes, dtype=np.int64)
        totals = sc @ sizes
        assert np.array_equal(totals, np.outer(sizes, sizes))


def test_identity_block_absorbs():
    # c[0][j][k] = |K| when k == j, and 0 otherwise
    emb = embed_wreath_subgroup(SymmetricGroup(3), 2)
    dc = double_cosets(emb)
    sc = dense_constants(emb, dc)
    ksize = emb.subgroup.order
    for j in range(dc.rank):
        for k in range(dc.rank):
            assert sc[0, j, k] == (ksize if j == k else 0)


def test_coset_size_identity():
    # |KgK| * |K ∩ g^-1 K g| = |K|^2, recomputed here rather than trusting
    # the constructor's internal check
    emb = embed_wreath_subgroup(CyclicGroup(2), 3)
    grp = emb.parent
    dc = double_cosets(emb)
    image = set(emb.image.tolist())
    ksq = emb.subgroup.order ** 2
    for block, g in zip(members(per_id(emb, dc)), dc.representatives):
        ginv = grp.inv(g)
        stab = sum(1 for k in image if grp.mul(grp.mul(g, k), ginv) in image)
        assert len(block) * stab == ksq


def hecke_verdict(grp, emb):
    """(commutative, rank) of the double-coset algebra of (grp, emb)."""
    dc = double_cosets(emb)
    return is_commutative(structure_constants(emb, dc)), dc.rank


def test_gelfand_verdicts():
    s3, emb = s3_pair()
    assert hecke_verdict(s3, emb) == (True, 2)

    emb = embed_wreath_subgroup(CyclicGroup(1), 4)  # (S4, S3)
    assert hecke_verdict(emb.parent, emb) == (True, 2)

    emb = embed_wreath_subgroup(CyclicGroup(2), 2)
    assert hecke_verdict(emb.parent, emb) == (True, 3)

    emb = embed_wreath_subgroup(SymmetricGroup(3), 2)
    assert hecke_verdict(emb.parent, emb) == (False, 7)


def test_noncommutative_witness():
    emb = embed_wreath_subgroup(SymmetricGroup(3), 2)
    dc = double_cosets(emb)
    witness = structure_constants(emb, dc)
    assert witness is not None
    i, j, k, ijk, jik = witness
    sc = dense_constants(emb, dc)
    assert sc[i, j, k] == ijk != jik == sc[j, i, k]

    _, emb2 = s3_pair()
    assert structure_constants(emb2, double_cosets(emb2)) is None


def test_block_functions_are_bi_invariant():
    # a function constant on blocks satisfies f(k x k') = f(x) on all of G
    emb = embed_wreath_subgroup(CyclicGroup(2), 2)
    grp = emb.parent
    dc = double_cosets(emb)
    f = [b * 3 - 1 for b in per_id(emb, dc).block_of.tolist()]
    for x in range(grp.order):
        for k in emb.image.tolist():
            for k2 in emb.image.tolist():
                assert f[grp.mul(k, grp.mul(x, k2))] == f[x]


# ---------------------------------------------------------------------------
# convolution


def test_indicator_of_k_absorbs():
    s3, emb = s3_pair()
    dc = double_cosets(emb)
    delta_k = BiInvariantFunction((1, 0))
    g = BiInvariantFunction((3, -2))
    out = convolve(delta_k, g, s3, per_id(emb, dc))
    ksize = emb.subgroup.order
    assert out.values == tuple(ksize * v for v in g.values)


def test_delta_convolution_matches_constants():
    s3, emb = s3_pair()
    dc = double_cosets(emb)
    sc = dense_constants(emb, dc)
    for i in range(dc.rank):
        for j in range(dc.rank):
            fi = BiInvariantFunction(tuple(1 if t == i else 0 for t in range(dc.rank)))
            fj = BiInvariantFunction(tuple(1 if t == j else 0 for t in range(dc.rank)))
            out = convolve(fi, fj, s3, per_id(emb, dc))
            assert out.values == tuple(int(sc[i, j, k]) for k in range(dc.rank))


def test_two_convolution_paths_agree_exactly_on_integers():
    cases = [s3_pair()]
    for base, n in ((CyclicGroup(2), 2), (SymmetricGroup(3), 2)):
        emb = embed_wreath_subgroup(base, n)
        cases.append((emb.parent, emb))
    rng = random.Random(11)
    for grp, emb in cases:
        dc = double_cosets(emb)
        sc = dense_constants(emb, dc)
        for _ in range(3):
            f = BiInvariantFunction(tuple(rng.randrange(-5, 6) for _ in range(dc.rank)))
            g = BiInvariantFunction(tuple(rng.randrange(-5, 6) for _ in range(dc.rank)))
            direct = convolve(f, g, grp, per_id(emb, dc))
            via = convolve_via_constants(f, g, sc)
            assert direct.values == via.values  # exact integer equality


def test_convolution_commutes_for_s3_s2():
    s3, emb = s3_pair()
    labels = per_id(emb, double_cosets(emb))
    rng = random.Random(5)
    for _ in range(5):
        f = BiInvariantFunction(tuple(complex(rng.random(), rng.random()) for _ in range(2)))
        g = BiInvariantFunction(tuple(complex(rng.random(), rng.random()) for _ in range(2)))
        fg = convolve(f, g, s3, labels)
        gf = convolve(g, f, s3, labels)
        assert max(abs(a - b) for a, b in zip(fg.values, gf.values)) < 1e-12


def test_convolution_associative():
    emb = embed_wreath_subgroup(CyclicGroup(2), 2)
    grp = emb.parent
    dc = double_cosets(emb)
    labels = per_id(emb, dc)
    rng = random.Random(9)
    fs = [
        BiInvariantFunction(tuple(complex(rng.random(), rng.random()) for _ in range(dc.rank)))
        for _ in range(3)
    ]
    f, g, h = fs
    left = convolve(convolve(f, g, grp, labels), h, grp, labels)
    right = convolve(f, convolve(g, h, grp, labels), grp, labels)
    scale = max(max(abs(v) for v in left.values), 1.0)
    assert max(abs(a - b) for a, b in zip(left.values, right.values)) / scale < 1e-9


# ---------------------------------------------------------------------------
# the shared block kernel against the brute-force oracle, and its checks


def small_pairs():
    """(S3, S2), whole-group pairs and the small wreath pairs, as (group, embedding)."""
    cases = [s3_pair()]
    cases += [(grp, full_embedding(grp)) for grp in (SymmetricGroup(3), DihedralGroup(4))]
    for base, n in ((CyclicGroup(2), 3), (SymmetricGroup(3), 2), (CyclicGroup(1), 5)):
        emb = embed_wreath_subgroup(base, n)
        cases.append((emb.parent, emb))
    return cases


# perfbench's ladder-both pairs; small_pairs() builds the first two
LADDER = ("wr(Z1,5)", "wr(S3,2)", "wr(Z2,4)", "wr(Z1,6)", "wr(S4,2)", "wr(S3,3)")


def test_kernel_matches_bucketing_oracle():
    """The stacked kernel table equals the scalar bucketing oracle: the class
    algebra on small_pairs(), the double-coset algebra (counted over the coset
    transversal) on those and the rest of the ladder.

    The oracle multiplies all of G x G with the scalar mul, ~40 s of the suite
    on wr(S4,2) and wr(S3,3) alone.  It is kept there because it is the one
    exhaustive check of the transversal count that shares neither the kernel
    nor mul_many (checked against mul only on sampled pairs at these orders),
    and those are the ladder's largest ranks and orders.
    """
    for grp, emb in small_pairs():
        cc = conjugacy_classes(grp)
        assert np.array_equal(
            class_coefficients(grp, cc, range(cc.count)),
            bucketed_constants(grp, members(cc), cc.representatives),
        ), grp.name
    ladder = [(emb.parent, emb) for emb in map(build_pair, LADDER[2:])]
    for grp, emb in small_pairs() + ladder:
        dc = double_cosets(emb)
        assert np.array_equal(
            dense_constants(emb, dc),
            bucketed_constants(grp, members(per_id(emb, dc)), dc.representatives),
        ), grp.name


@pytest.mark.parametrize("spec", LADDER + ("wr(S3xS4,2)",))
def test_transversal_count_matches_whole_group(spec):
    """All of G, each id once with the sizes |D_k|, counts |K| times what the
    [G:K] representatives count with the sizes |D_k|/|K|."""
    emb = build_pair(spec)
    grp = emb.parent
    dc = double_cosets(emb)
    labels = per_id(emb, dc).block_of
    table = block_product_counts(
        grp, labels.take, dc.sizes, dc.representatives, np.arange(grp.order)
    )
    whole_group = stack_block_counts(table, dc.rank, range(dc.rank))
    assert np.array_equal(dense_constants(emb, dc), whole_group)
    transversal_table = block_product_counts(
        grp, lookup(emb, dc), coset_sizes(emb, dc), dc.representatives, emb.coset_reps
    )
    ksize = emb.subgroup.order
    assert np.array_equal(transversal_table[0], table[0])
    assert np.array_equal(ksize * transversal_table[1], table[1])


@pytest.mark.parametrize("spec", LADDER + ("wr(S3xS4,2)",))
def test_transversal_count_at_second_elements_matches_whole_group(spec):
    """At the recount's targets, one more element of each block, in a left
    coset other than the representative's wherever the block spans more than
    one, all of G (sizes |D_k|) counts |K| times what the [G:K]
    representatives (sizes |D_k|/|K|) count."""
    emb = build_pair(spec)
    grp = emb.parent
    dc = double_cosets(emb)
    second = dc.recount_targets
    labels = per_id(emb, dc).block_of
    assert labels[list(second)].tolist() == list(range(dc.rank))
    ksize = emb.subgroup.order
    for size, z, target in zip(dc.sizes, dc.representatives, second):
        assert target != z or size == 1
        assert (emb.coset_index(target) != emb.coset_index(z)) == (size > ksize)
    assert any(size > ksize for size in dc.sizes)
    transversal_table = block_product_counts(
        grp, lookup(emb, dc), coset_sizes(emb, dc), second, emb.coset_reps
    )
    whole_group = block_product_counts(grp, labels.take, dc.sizes, second, np.arange(grp.order))
    assert np.array_equal(transversal_table[0], whole_group[0])
    assert np.array_equal(ksize * transversal_table[1], whole_group[1])


@pytest.mark.parametrize("name", ["wr(S3,2)", "(S3,S2)", "wr(D4,2)"])
def test_streamed_witness_is_the_first_dense_asymmetry(name):
    emb = s3_pair()[1] if name == "(S3,S2)" else build_pair(name)
    dc = double_cosets(emb)
    sc = dense_constants(emb, dc)
    witness = structure_constants(emb, dc)
    diff = np.argwhere(sc != sc.swapaxes(0, 1))
    if len(diff) == 0:
        assert witness is None
    else:
        i, j, k = diff[0]
        assert witness == (i, j, k, sc[i, j, k], sc[j, i, k])


def wr_z2_3():
    emb = embed_wreath_subgroup(CyclicGroup(2), 3)
    return emb.parent, emb, double_cosets(emb)


def coset_sizes(emb, dc):
    """The block sizes in cosets, |D_k|/|K|: the units of the coset count."""
    return [size // emb.subgroup.order for size in dc.sizes]


def lookup(emb, dc):
    """The block of any ids, through the embedding's coset lookup."""
    return lambda ids: dc.coset_block[emb.coset_index(ids)]


def corrupt_kernel(monkeypatch, entry, amount, calls):
    """Add amount at c[i][j][k] of hecke's kernel table on the given calls:
    structure_constants' call 0 counts at the representatives, call 1 at the
    second elements of the blocks."""
    i, j, k = entry
    made = itertools.count()

    def kernel(group, block_of, sizes, *args):
        r = len(sizes)
        keys, counts = block_product_counts(group, block_of, sizes, *args)
        if next(made) in calls:
            return bumped(keys, counts, (i * r + j) * r + k, amount, r)
        return keys, counts

    monkeypatch.setattr("gelfand.hecke.block_product_counts", kernel)


def bumped(keys, counts, key, amount, r):
    dense = np.zeros(r**3, dtype=np.int64)
    dense[keys] = counts
    dense[key] += amount
    keys = np.flatnonzero(dense)
    return keys, dense[keys]


def test_kernel_rejects_target_outside_its_block():
    grp, emb, dc = wr_z2_3()
    targets = list(dc.representatives)
    targets[1], targets[2] = targets[2], targets[1]
    with pytest.raises(InternalConsistencyError, match="lie in blocks"):
        block_product_counts(grp, lookup(emb, dc), coset_sizes(emb, dc), targets, emb.coset_reps)


def test_kernel_rejects_a_column_of_targets():
    # one target per block: the representatives beside the second elements
    # are shape (r, 2), two tables' worth, and the kernel counts one
    grp, emb, dc = wr_z2_3()
    targets = np.stack([dc.representatives, dc.representatives], axis=1)
    with pytest.raises(InvalidParameterError, match=rf"shape \({dc.rank}, 2\)"):
        block_product_counts(grp, lookup(emb, dc), coset_sizes(emb, dc), targets, emb.coset_reps)


def test_kernel_enforces_counting_identity():
    grp, emb, dc = wr_z2_3()
    sizes = coset_sizes(emb, dc)
    sizes[1] += 1
    with pytest.raises(InternalConsistencyError, match="counting identity"):
        block_product_counts(grp, lookup(emb, dc), sizes, dc.representatives, emb.coset_reps)


def test_kernel_rejects_a_list_that_is_not_a_transversal():
    # K twice (the identity and another element of K), the coset of reps[1] never
    grp, emb, dc = wr_z2_3()
    elements = emb.coset_reps.copy()
    elements[1] = emb.image[1]
    with pytest.raises(InternalConsistencyError, match="counting identity"):
        block_product_counts(
            grp, lookup(emb, dc), coset_sizes(emb, dc), dc.representatives, elements
        )


def test_kernel_rejects_a_block_covered_in_part():
    # every member of class 1 of S4 but its least: the rows of a class come
    # from all of its members or from none
    grp = SymmetricGroup(4)
    cc = conjugacy_classes(grp)
    elements = np.flatnonzero(cc.block_of == 1)[1:]
    with pytest.raises(InternalConsistencyError, match="5 elements of S4 lie in block 1 of size 6"):
        block_product_counts(grp, cc.block_of.take, cc.sizes, cc.representatives, elements)


@pytest.mark.parametrize(
    "dropped, message",
    [(0, "block 0 does not act as"), (-1, r"3 elements of wr\(Z2,3\) lie in block 1 of size 4")],
    ids=["0", "-1"],
)
def test_structure_constants_need_a_transversal_that_covers_every_block(dropped, message):
    # coset 0 is K, all of block 0, which the kernel leaves out as
    # uncovered, so the unit row is missing; the last coset is one of several
    # in its block, which the kernel refuses as covered in part
    _, emb, dc = wr_z2_3()
    vars(emb)["coset_reps"] = np.delete(emb.coset_reps, dropped)
    with pytest.raises(InternalConsistencyError, match=message):
        structure_constants(emb, dc)


def test_representative_recount_is_enforced(monkeypatch):
    _, emb, dc = wr_z2_3()
    corrupt_kernel(monkeypatch, (1, 1, 2), 1, calls={1})
    with pytest.raises(InternalConsistencyError, match="depends on the representative"):
        structure_constants(emb, dc)


def test_unit_identity_is_enforced(monkeypatch):
    _, emb, dc = wr_z2_3()
    corrupt_kernel(monkeypatch, (0, 1, 1), 1, calls={0, 1})
    with pytest.raises(InternalConsistencyError, match="unit"):
        structure_constants(emb, dc)


def test_associativity_is_enforced(monkeypatch):
    _, emb, dc = wr_z2_3()
    assert dc.rank >= 3
    corrupt_kernel(monkeypatch, (1, 1, 2), 1, calls={0, 1})
    with pytest.raises(InternalConsistencyError, match="not associative"):
        structure_constants(emb, dc)


def test_associativity_past_the_int64_bound_is_refused(monkeypatch):
    # 125 s^2 >= 2^63 once some target's constants sum to s >= 2.7e8, so the
    # int64 contraction could overflow: refused rather than checked inexactly
    _, emb, dc = wr_z2_3()
    corrupt_kernel(monkeypatch, (1, 1, 2), 300_000_000, calls={0, 1})
    with pytest.raises(ResourceLimitError, match="125 \\* s\\^2 < 2\\^63"):
        structure_constants(emb, dc)


def test_structure_constants_count_each_target_twice(monkeypatch):
    # two kernel calls: [G:K] products per target at the representatives and
    # as many at the second elements, 2 r [G:K] in all
    emb = build_pair("wr(S3,2)")
    grp = emb.parent
    dc = double_cosets(emb)
    products = []
    mul_many = grp.mul_many

    def counting(xs, ys):
        products.append(np.broadcast(np.asarray(xs), np.asarray(ys)).size)
        return mul_many(xs, ys)

    monkeypatch.setattr(grp, "mul_many", counting)
    structure_constants(emb, dc)
    assert sum(products) == 2 * dc.rank * emb.index
