"""Double cosets, structure constants, convolution and the Hecke verdict."""

import itertools
import json
import math
import random

import numpy as np
import pytest

from gelfand import (
    CyclicGroup,
    DihedralGroup,
    InternalConsistencyError,
    InvalidParameterError,
    ResourceLimitError,
    SubgroupEmbedding,
    SymmetricGroup,
    WreathProduct,
    class_coefficients,
    conjugacy_classes,
    double_cosets,
    embed_wreath_subgroup,
    full_embedding,
    is_abelian,
    is_commutative,
    structure_constants,
    subgroup_from_generators,
)
from gelfand.groups import block_pair_counts, block_product_counts, stack_block_counts
from gelfand.hecke import _point_counts, dense_constants
from gelfand.cli import main as cli_main
from gelfand.reports import build_pair
from gelfand.specs import build_group
from gelfand.wreath import WreathEmbedding
from hecke_oracle import (
    BiInvariantFunction,
    bucketed_constants,
    convolve,
    convolve_via_constants,
)
from scalar_oracle import id_embedding, members, per_id


def s3_pair():
    """(S3, S2) with S2 generated by the transposition of the first two points."""
    s3 = SymmetricGroup(3)
    return s3, subgroup_from_generators(s3, [s3.id_of((1, 0, 2))])


def test_s3_s2_blocks():
    _, emb = s3_pair()
    dc = double_cosets(emb)
    assert dc.sizes == (2, 4)
    assert members(per_id(emb, dc))[0] == tuple(emb.image.tolist())
    assert dc.orbits.block_of[emb.coset_index(0)] == 0


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
    # per point or per block: at most [G:K] entries, never |G|
    emb = build_pair(spec)
    dc = double_cosets(emb)
    assert len(vars(dc)) == 3 and emb.index < emb.parent.order
    kept = [*vars(dc.orbits).values(), dc.sizes, dc.recount_points]
    assert all(np.asarray(value).size <= emb.index for value in kept)


def test_blocks_partition_the_group():
    for base, n in ((CyclicGroup(2), 3), (SymmetricGroup(3), 2)):
        emb = embed_wreath_subgroup(base, n)
        dc = double_cosets(emb)
        labels = per_id(emb, dc)
        blocks = members(labels)
        covered = sorted(x for block in blocks for x in block)
        assert covered == list(range(emb.parent.order))
        assert list(labels.representatives) == [min(b) for b in blocks]


@pytest.mark.parametrize("spec, rank", [("wr(S3,2)", 7), ("wr(S4,2)", 25), ("wr(Z30,2)", 31)])
def test_double_cosets_make_two_mul_many_calls_at_any_rank(spec, rank):
    # over the walked cosets of K's ids: the moves of K's generators and the
    # batch K g, which the K g check and the coset size identity read; the
    # left cosets are read and checked beforehand.  On X, no product in G
    emb = build_pair(spec)
    generic = id_embedding(emb)
    generic.coset_reps
    group = emb.parent
    calls = []

    def counted(xs, ys):
        calls.append(1)
        return type(group).mul_many(group, xs, ys)

    group.mul_many = counted
    assert double_cosets(emb).rank == rank
    assert calls == []
    assert double_cosets(generic).rank == rank
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
    labels = per_id(emb, double_cosets(emb))
    image = set(id_embedding(emb).image.tolist())
    ksq = emb.subgroup.order ** 2
    for block, g in zip(members(labels), labels.representatives):
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
    image = id_embedding(emb).image.tolist()
    for x in range(grp.order):
        for k in image:
            for k2 in image:
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
            stack_block_counts(
                class_coefficients(grp, cc, range(cc.count)), cc.count, range(cc.count)
            ),
            bucketed_constants(grp, members(cc), cc.representatives),
        ), grp.name
    ladder = [(emb.parent, emb) for emb in map(build_pair, LADDER[2:])]
    for grp, emb in small_pairs() + ladder:
        dc = double_cosets(emb)
        labels = per_id(emb, dc)
        assert np.array_equal(
            dense_constants(emb, dc),
            bucketed_constants(grp, members(labels), labels.representatives),
        ), grp.name


@pytest.mark.parametrize("spec", LADDER + ("wr(S3xS4,2)",))
def test_transversal_count_matches_whole_group(spec):
    """All of G, each id once with the sizes |D_k|, counts |K| times what
    the [G:K] points of X count with the sizes |D_k|/|K|."""
    emb = build_pair(spec)
    grp = emb.parent
    dc = double_cosets(emb)
    labels = per_id(emb, dc)
    table = block_product_counts(
        grp, labels.block_of.take, dc.sizes, labels.representatives, np.arange(grp.order)
    )
    whole_group = stack_block_counts(table, dc.rank, range(dc.rank))
    assert np.array_equal(dense_constants(emb, dc), whole_group)
    point_table = _point_counts(emb, dc, dc.orbits.representatives)
    ksize = emb.subgroup.order
    assert np.array_equal(point_table[0], table[0])
    assert np.array_equal(ksize * point_table[1], table[1])


@pytest.mark.parametrize("spec", LADDER + ("wr(S3xS4,2)",))
def test_transversal_count_at_second_elements_matches_whole_group(spec):
    """At the recount's targets, a second point of each orbit that has one,
    all of G at the least id on that point (sizes |D_k|) counts |K| times
    what the [G:K] points of X (sizes |D_k|/|K|) count."""
    emb = build_pair(spec)
    grp = emb.parent
    dc = double_cosets(emb)
    second = dc.recount_points
    labels = per_id(emb, dc)
    ids = id_embedding(emb).coset_reps[list(second)]  # the least id on each point
    assert labels.block_of[ids].tolist() == list(range(dc.rank))
    for points, z, target in zip(dc.orbits.sizes, dc.orbits.representatives, second):
        assert (target != z) == (points > 1)
    assert any(points > 1 for points in dc.orbits.sizes)
    point_table = _point_counts(emb, dc, second)
    whole_group = block_product_counts(grp, labels.block_of.take, dc.sizes, ids, np.arange(grp.order))
    ksize = emb.subgroup.order
    assert np.array_equal(point_table[0], whole_group[0])
    assert np.array_equal(ksize * point_table[1], whole_group[1])


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
    return list(dc.orbits.sizes)


def lookup(emb, dc):
    """The block of any ids, through the walked left cosets."""
    walked = id_embedding(emb)
    return lambda ids: dc.orbits.block_of[walked.coset_index(ids)]


def rep_ids(emb, dc):
    """The least id of each block: the least id on its least point."""
    return id_embedding(emb).coset_reps[list(dc.orbits.representatives)]


def corrupt_kernel(monkeypatch, entry, amount, calls):
    """Add amount at c[i][j][k] of hecke's count on the given calls:
    structure_constants' call 0 counts at the least points, call 1 at the
    second points of the blocks."""
    i, j, k = entry
    made = itertools.count()

    def kernel(name, left, sizes, *args):
        r = len(sizes)
        keys, counts = block_pair_counts(name, left, sizes, *args)
        if next(made) in calls:
            return bumped(keys, counts, (i * r + j) * r + k, amount, r)
        return keys, counts

    monkeypatch.setattr("gelfand.hecke.block_pair_counts", kernel)


def bumped(keys, counts, key, amount, r):
    dense = np.zeros(r**3, dtype=np.int64)
    dense[keys] = counts
    dense[key] += amount
    keys = np.flatnonzero(dense)
    return keys, dense[keys]


def test_kernel_rejects_target_outside_its_block():
    grp, emb, dc = wr_z2_3()
    targets = rep_ids(emb, dc).tolist()
    targets[1], targets[2] = targets[2], targets[1]
    reps = id_embedding(emb).coset_reps
    with pytest.raises(InternalConsistencyError, match="lie in blocks"):
        block_product_counts(grp, lookup(emb, dc), coset_sizes(emb, dc), targets, reps)


def test_kernel_rejects_a_column_of_targets():
    # one target per block: the representatives beside the second elements
    # are shape (r, 2), two tables' worth, and the kernel counts one
    grp, emb, dc = wr_z2_3()
    targets = np.stack([rep_ids(emb, dc), rep_ids(emb, dc)], axis=1)
    reps = id_embedding(emb).coset_reps
    with pytest.raises(InvalidParameterError, match=rf"shape \({dc.rank}, 2\)"):
        block_product_counts(grp, lookup(emb, dc), coset_sizes(emb, dc), targets, reps)


def test_kernel_enforces_counting_identity():
    grp, emb, dc = wr_z2_3()
    sizes = coset_sizes(emb, dc)
    sizes[1] += 1
    reps = id_embedding(emb).coset_reps
    with pytest.raises(InternalConsistencyError, match="counting identity"):
        block_product_counts(grp, lookup(emb, dc), sizes, rep_ids(emb, dc), reps)


def test_kernel_rejects_a_list_that_is_not_a_transversal():
    # K twice (the identity and another element of K), the coset of reps[1] never
    grp, emb, dc = wr_z2_3()
    walked = id_embedding(emb)
    elements = walked.coset_reps.copy()
    elements[1] = walked.image[1]
    with pytest.raises(InternalConsistencyError, match="counting identity"):
        block_product_counts(
            grp, lookup(emb, dc), coset_sizes(emb, dc), rep_ids(emb, dc), elements
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
    # the transversal without the element of one point: point 0 is x0, all
    # of block 0, which the count leaves out as uncovered, so the unit row
    # is missing; the last point is one of several in its block, which the
    # count refuses as covered in part
    _, emb, dc = wr_z2_3()
    at = int(np.flatnonzero(emb.transversal_points == dropped % emb.index)[0])

    class Dropped(WreathEmbedding):
        @property
        def transversal_points(self):
            return np.delete(super().transversal_points, at)

        def back_points(self, targets):
            return np.delete(super().back_points(targets), at, axis=1)

    with pytest.raises(InternalConsistencyError, match=message):
        structure_constants(Dropped(emb.subgroup, emb.parent), dc)


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
    # two counts over the walked cosets of K's ids: [G:K] products per target
    # at the least points and as many at the second points, 2 r [G:K] in
    # all; on X, no product in G
    emb = build_pair("wr(S3,2)")
    grp = emb.parent
    generic = id_embedding(emb)
    dc = double_cosets(generic)
    products = []
    mul_many = grp.mul_many

    def counting(xs, ys):
        products.append(np.broadcast(np.asarray(xs), np.asarray(ys)).size)
        return mul_many(xs, ys)

    monkeypatch.setattr(grp, "mul_many", counting)
    assert structure_constants(emb, double_cosets(emb)) is not None
    assert products == []
    structure_constants(generic, dc)
    assert sum(products) == 2 * dc.rank * emb.index


# ---------------------------------------------------------------------------
# the engine on X against the engine on the walked cosets of K's ids


# the pairs of perfbench/workloads.py, and two past them
ORACLE_PAIRS = LADDER + ("wr(Z3,4)", "wr(D4,3)", "wr(Z2,5)", "wr(S3,4)", "wr(Z1,7)")


@pytest.mark.parametrize("spec", ORACLE_PAIRS)
def test_x_engine_equals_the_id_engine(spec):
    emb = build_pair(spec)
    generic = id_embedding(emb)
    on_x, on_ids = double_cosets(emb), double_cosets(generic)
    assert on_x.orbits == on_ids.orbits
    assert on_x.sizes == on_ids.sizes
    assert on_x.recount_points == on_ids.recount_points
    assert structure_constants(emb, on_x) == structure_constants(generic, on_ids)
    assert np.array_equal(dense_constants(emb, on_x), dense_constants(generic, on_ids))


def closed_form_table(base, n):
    """ROADMAP item 1's intersection numbers of (B wr S_n, B wr S_(n-1)):
    block 0 is x0, block x + 1 the fixed point (n-1, x) for base ids x >= 1
    (block "x" = x + 1, and 0 for x = 0), block 1 = * the other (n-1) |B|
    points.  p[x][y][x y] = 1, p[*][x][*] = p[x][*][*] = 1,
    p[*][*][x] = (n-1)|B|, p[*][*][*] = (n-2)|B|, and 0 elsewhere."""
    order = base.order
    r = order + 1
    block = [0] + list(range(2, r))  # of base id x
    p = np.zeros((r, r, r), dtype=np.int64)
    for x in range(order):
        for y in range(order):
            p[block[x], block[y], block[base.mul(x, y)]] = 1
        p[1, block[x], 1] = p[block[x], 1, 1] = 1
        p[1, 1, block[x]] = (n - 1) * order
    p[1, 1, 1] = (n - 2) * order
    return p


@pytest.mark.parametrize(
    "base, n", [("S3", 10), ("Z3", 12), ("D4", 6), ("S4", 20), ("S5", 8), ("S3", 3), ("Z1", 4)]
)
def test_intersection_numbers_match_the_closed_form_past_the_ids(base, n):
    base = build_group(base)
    emb = build_pair(f"wr({base.name},{n})", on_points=True)
    dc = double_cosets(emb)
    assert dc.rank == base.order + 1
    p = stack_block_counts(_point_counts(emb, dc, dc.orbits.representatives), dc.rank, range(dc.rank))
    assert np.array_equal(p, closed_form_table(base, n))
    witness = structure_constants(emb, dc)
    assert (witness is None) == is_abelian(base)


def test_dense_constants_past_int64_are_exact():
    # |K| = 20! and p up to 20: c passes 2^63, so it is held as Python ints
    emb = build_pair("wr(Z1,21)", on_points=True)
    c = dense_constants(emb, double_cosets(emb))
    expected = closed_form_table(build_group("Z1"), 21).astype(object) * math.factorial(20)
    assert c.dtype == object and c.tolist() == expected.tolist()
    assert int(c[1, 1, 0]) == 20 * math.factorial(20) >= 2**63


@pytest.mark.parametrize("spec", ["wr(S3,3)", "wr(D4,3)", "wr(Z2,4)", "wr(S3xZ2,2)"])
def test_action_on_x_is_the_product(spec):
    # s . (g . x0) = (s g) . x0 for every id g, at each generator of G and
    # at seeded random elements s
    emb = build_pair(spec)
    group = emb.parent
    ids = np.arange(group.order, dtype=np.int64)

    def point(xs):
        """The number of g . x0 = (p(n-1), b_(p(n-1))) for ids g."""
        base, top = group.decode_many(xs)
        last = group._top_images(top)[-1].astype(np.int64)
        return emb.transversal_points[last * group.base_group.order + base[last, np.arange(len(xs))]]

    at = point(ids)
    rng = np.random.default_rng(7)
    for s in list(group.generators) + rng.integers(0, group.order, 5).tolist():
        moves = emb._moves([group.decode(s)])[0]
        assert np.array_equal(moves[at], point(group.mul_many(s, ids))), s


LADDER_COMMANDS = [
    pytest.param(spec, command, id=f"{spec}-{command[0]}")
    for spec in LADDER + ("wr(S5,8)",)
    for command in (("hecke", "--show-constants"), ("pair-check", "--method", "hecke"))
]


@pytest.mark.parametrize("spec, command", LADDER_COMMANDS)
def test_hecke_route_reads_no_id(spec, command, monkeypatch, tmp_path, capsys):
    # a wreath embedding holds no id of K, and with the batched ops of the
    # wreath products and their decoder all refused, the Hecke-only
    # commands answer as before
    name, *flags = command
    argv = [name, spec, *flags, "--format", "machine", "--cache-dir", str(tmp_path)]
    expected = None
    if spec != "wr(S5,8)":  # past the 2^62 ids: no batched op could run
        assert cli_main(argv) == 0
        expected = capsys.readouterr().out

    def refuse(*args, **kwargs):
        raise AssertionError(f"an id was read for {spec}")

    assert not issubclass(WreathEmbedding, SubgroupEmbedding)
    for op in ("mul_many", "inv_many", "mul_all", "arith_mul_many", "arith_inv_many", "decode_many"):
        monkeypatch.setattr(WreathProduct, op, refuse)
    assert cli_main(argv) == 0
    out = capsys.readouterr().out
    assert expected in (None, out)
    assert json.loads(out)["rank"] == (121 if spec == "wr(S5,8)" else json.loads(expected)["rank"])
