"""The batched group layer: mul_many/inv_many against the scalar oracle.

Every group class must give, elementwise, the ids that its scalar mul/inv
give: exhaustively up to order 200, on seeded samples above.  The conjugacy
classes and double cosets built on the batched ops must reproduce their
scalar versions (tests/scalar_oracle.py) exactly on every pair of the
benchmark ladder, and groups.orbit_labels must reproduce a scalar union-find
on tables of steps that need not be permutations.
"""

import math

import numpy as np
import pytest

import scalar_oracle
from gelfand import (
    CyclicGroup,
    DihedralGroup,
    InternalConsistencyError,
    InvalidParameterError,
    ResourceLimitError,
    SubgroupEmbedding,
    SymmetricGroup,
    conjugacy_classes,
    double_cosets,
    permutation_character,
    subgroup_from_generators,
    verify_group_axioms,
)
from gelfand.groups import TABLE_ORDER_LIMIT, build_cayley_tables, orbit_labels
from gelfand.hecke import dense_constants
from gelfand.reports import build_pair
from gelfand.specs import build_group
from gelfand import wreath
from gelfand.wreath import WreathElement, WreathProduct

EXHAUSTIVE_ORDER = 200
SAMPLES = 4000

# the pairs of perfbench/workloads.py (ladder-both, character-cold/-warm)
BENCHMARK_PAIRS = (
    "wr(Z1,5)", "wr(S3,2)", "wr(Z2,4)", "wr(Z1,6)", "wr(S4,2)",
    "wr(S3,3)", "wr(Z3,4)", "wr(D4,3)", "wr(Z2,5)",
)


def _groups():
    yield CyclicGroup(1)
    yield CyclicGroup(7)
    yield DihedralGroup(4)
    yield DihedralGroup(5)
    for n in (1, 2, 3, 4, 5, 7, 9):  # S9 is past _PERM_MATERIALIZE_LIMIT
        yield SymmetricGroup(n)
    for spec in ("D4xZ3", "Z2xS3", "Z2x(Z3xS3)"):
        yield build_group(spec)
    # generated subgroups fall back to the scalar loop of the base class
    yield subgroup_from_generators(SymmetricGroup(4), [1, 6]).subgroup
    for spec, n in (("Z2xS3", 2), ("S3", 2), ("Z1", 5), ("Z3", 1), ("D4", 3), ("Z2", 5)):
        yield WreathProduct(build_group(spec), n)


GROUPS = list(_groups())


def _pairs(group):
    """All (x, y) up to EXHAUSTIVE_ORDER, else SAMPLES seeded pairs."""
    n = group.order
    if n <= EXHAUSTIVE_ORDER:
        return np.divmod(np.arange(n * n, dtype=np.int64), n)
    rng = np.random.default_rng(n)
    return rng.integers(0, n, SAMPLES), rng.integers(0, n, SAMPLES)


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name)
def test_mul_many_matches_mul(group):
    xs, ys = _pairs(group)
    got = group.mul_many(xs, ys)
    assert got.dtype == np.int64 and got.shape == xs.shape
    assert got.tolist() == [group.mul(x, y) for x, y in zip(xs.tolist(), ys.tolist())]


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name)
def test_inv_many_matches_inv(group):
    xs, _ = _pairs(group)
    xs = np.unique(xs)
    got = group.inv_many(xs)
    assert got.dtype == np.int64
    assert got.tolist() == [group.inv(x) for x in xs.tolist()]


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name)
def test_batched_ops_broadcast(group):
    rng = np.random.default_rng(1)
    xs = rng.integers(0, group.order, (3, 1))
    ys = rng.integers(0, group.order, (1, 4))
    expected = [[group.mul(x, y) for y in ys[0].tolist()] for x in xs[:, 0].tolist()]
    assert group.mul_many(xs, ys).tolist() == expected
    z = int(ys[0, 0])
    assert group.mul_many(xs[:, 0], z).tolist() == [row[0] for row in expected]
    assert group.inv_many(z).shape == ()
    assert int(group.inv_many(z)) == group.inv(z)


def test_batched_ops_refuse_ids_that_do_not_fit_int64():
    huge = CyclicGroup(2**63)
    with pytest.raises(ResourceLimitError):
        huge.mul_many([0], [1])
    with pytest.raises(ResourceLimitError):
        huge.inv_many([1])


class _BrokenBatch(CyclicGroup):
    """Correct scalar oracle; the batched product is off by one at odd x."""

    def mul_many(self, xs, ys):
        return (super().mul_many(xs, ys) + np.asarray(xs) % 2) % self.k


class _BrokenBatchInverse(CyclicGroup):
    """Correct scalar oracle; the batched inverse is always the identity."""

    def inv_many(self, xs):
        return np.zeros_like(super().inv_many(xs))


class _BrokenRows(CyclicGroup):
    """Correct scalar and batched products; mul_all is off by one at s = 1,
    on one side."""

    def __init__(self, k, broken_left):
        super().__init__(k)
        self.broken_left = broken_left

    def mul_all(self, s, *, left=False):
        row = super().mul_all(s, left=left)
        return (row + 1) % self.k if s == 1 and left == self.broken_left else row


@pytest.mark.parametrize("k", [5, EXHAUSTIVE_ORDER + 101])
def test_axiom_check_catches_batched_disagreement(k):
    # every pair is checked at both orders, 200 and below or above
    with pytest.raises(InternalConsistencyError, match="mul_many"):
        verify_group_axioms(_BrokenBatch(k))
    with pytest.raises(InternalConsistencyError, match="inv_many"):
        verify_group_axioms(_BrokenBatchInverse(k))
    # row 1 of the table is 1 y, column 1 is x 1
    with pytest.raises(InternalConsistencyError, match=r"mul_all disagrees .* at \(1, 0\)"):
        verify_group_axioms(_BrokenRows(k, broken_left=True))
    with pytest.raises(InternalConsistencyError, match=r"mul_all disagrees .* at \(0, 1\)"):
        verify_group_axioms(_BrokenRows(k, broken_left=False))
    verify_group_axioms(CyclicGroup(k))


# the tabled base groups of the tests and benchmark pairs, one of each kind
TABLED = (
    "S1", "S2", "S3", "S4", "S5", "S6", "D3", "D4", "D500",
    "Z1", "Z2", "Z3", "Z1000", "S4xZ2",
)


@pytest.mark.parametrize("spec", TABLED)
def test_tabled_ops_equal_the_arithmetic_on_every_pair(spec):
    group = build_group(spec)
    assert group.order <= TABLE_ORDER_LIMIT and group.cayley_tables is not None
    ids = np.arange(group.order, dtype=np.int64)
    xs, ys = np.broadcast_arrays(ids[:, None], ids)
    got = group.mul_many(xs, ys)
    assert got.dtype == np.int64
    assert np.array_equal(got, group.arith_mul_many(xs, ys))
    got = group.inv_many(ids)
    assert got.dtype == np.int64
    assert np.array_equal(got, group.arith_inv_many(ids))


def test_groups_past_the_limit_and_wreath_products_have_no_table():
    for spec in ("Z2049", "D1025", "S7"):
        assert build_group(spec).cayley_tables is None
    assert WreathProduct(build_group("Z2"), 2).cayley_tables is None


def _divmod_decode(group, xs):
    """The wreath decode by n + 1 divmods per id, the digit table's reference."""
    code, top = np.divmod(xs, math.factorial(group.n))
    base = np.empty((group.n,) + xs.shape, dtype=np.int64)
    for i in range(group.n - 1, -1, -1):
        code, base[i] = np.divmod(code, group.base_group.order)
    return base, top


@pytest.mark.parametrize("pairspec", BENCHMARK_PAIRS + ("wr(Z1,8)",))
def test_gather_decode_equals_the_divmod_decode_on_every_id(pairspec):
    group = build_pair(pairspec).parent
    ids = np.arange(group.order, dtype=np.int64)
    base, top = group.decode_many(ids)
    expected_base, expected_top = _divmod_decode(group, ids)
    assert base.dtype == np.int16 and top.dtype == np.int64
    assert np.array_equal(base, expected_base)
    assert np.array_equal(top, expected_top)
    assert np.array_equal(group.encode_many(base, top), ids)


@pytest.mark.parametrize("spec, n", [("S3", 5), ("D4", 3)])
def test_batches_past_the_cap_equal_the_scalar_ops(spec, n):
    group = WreathProduct(build_group(spec), n)
    count = 150_000
    assert count > 2 * wreath.BATCH_LIMIT
    rng = np.random.default_rng(count + n)
    xs, ys = rng.integers(0, group.order, (2, count))
    products = group.mul_many(xs, ys)
    inverses = group.inv_many(xs)
    assert products.dtype == inverses.dtype == np.int64
    assert products.tolist() == list(map(group.mul, xs.tolist(), ys.tolist()))
    assert inverses.tolist() == list(map(group.inv, xs.tolist()))


def _wreaths_for_mul_all():
    # Lehmer tops past S_n's table (wr(Z1,7)), a base of 60 elements, and a
    # base with no arithmetic of its own
    for spec, n in (("D4", 3), ("Z2", 5), ("Z1", 7), ("D30", 2)):
        yield WreathProduct(build_group(spec), n)
    yield WreathProduct(subgroup_from_generators(SymmetricGroup(4), [1, 6]).subgroup, 3)


@pytest.mark.parametrize("group", list(_wreaths_for_mul_all()), ids=lambda g: g.name)
def test_mul_all_equals_mul_many_over_every_id(group):
    base_group, n = group.base_group, group.n
    rng = np.random.default_rng(group.order)
    # seeded ids with every coordinate off the identity (Z1 has no other id)
    others = [g for g in range(base_group.order) if g != base_group.identity] or [0]
    spread = [
        group.encode(WreathElement(
            tuple(rng.choice(others, n).tolist()), tuple(rng.permutation(n).tolist())
        ))
        for _ in range(4)
    ]
    ids = np.arange(group.order, dtype=np.int64)
    for s in group.generators + tuple(spread) + tuple(rng.integers(0, group.order, 4).tolist()):
        for left in (False, True):
            got = group.mul_all(s, left=left)
            assert got.dtype == np.int64
            assert np.array_equal(got, group.mul_many(s, ids) if left else group.mul_many(ids, s))
    with pytest.raises(InvalidParameterError, match="out of range"):
        group.mul_all(group.order)


def _generator_rows(group):
    ids = np.arange(group.order, dtype=np.int64)
    gens = np.array(group.generators, dtype=np.int64)[:, None]
    right = group.arith_mul_many(*np.broadcast_arrays(ids, gens))
    left = group.arith_mul_many(*np.broadcast_arrays(gens, ids))
    return right, left


def _reject_swapped_products(side, generator, swap):
    # S6 has 720 > 200 elements
    s6 = build_group("S6")
    rows = _generator_rows(s6)
    tables = build_cayley_tables(s6.name, s6.identity, s6.generators, *rows)
    assert np.array_equal(tables.products, s6.cayley_tables.products)
    # swap two products of one generator: its row stays a permutation
    row = rows[side][generator]
    row[swap] = row[swap[::-1]]
    with pytest.raises(InternalConsistencyError, match="Cayley table of S6"):
        build_cayley_tables(s6.name, s6.identity, s6.generators, *rows)


@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("generator", [0, 1])
def test_table_build_rejects_one_corrupted_generator_row(side, generator):
    _reject_swapped_products(side, generator, [100, 500])


# the proofs read S6's table in blocks of 2^14 // 720 = 22 rows, the last
# one 704..719: a swap inside it, and one across it and the block before
@pytest.mark.parametrize("swap", [[706, 719], [700, 719]])
@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("generator", [0, 1])
def test_table_build_rejects_a_swap_at_the_last_row_block(side, generator, swap):
    _reject_swapped_products(side, generator, swap)


@pytest.mark.parametrize("pairspec", BENCHMARK_PAIRS)
def test_cosets_by_the_action_equal_the_walk(pairspec):
    """The points of X, numbered in closed form, are the walked left cosets:
    the point g . x0 of the least id of coset c is point c, and the moves of
    K's generators, the transversal's points and the points u_z^-1 y are
    the walk's, once its transversal is taken in X's order."""
    embedding = build_pair(pairspec)
    group = embedding.parent
    walked = scalar_oracle.id_embedding(embedding)
    base, top = group.decode_many(walked.coset_reps)
    last = np.array([group._idx.unrank(t)[-1] for t in top.tolist()], dtype=np.int64)
    point = last * group.base_group.order + base[last, np.arange(len(last))]
    numbers = embedding.transversal_points  # the number of each point j |B| + x
    assert numbers.dtype == np.int64
    assert np.array_equal(numbers[point], np.arange(embedding.index))
    assert embedding.base_point == walked.base_point == 0
    assert np.array_equal(embedding.point_moves(), walked.point_moves())
    targets = np.arange(embedding.index, dtype=np.int64)
    by_walk = walked.back_points(targets)
    assert np.array_equal(embedding.back_points(targets), by_walk[:, numbers])


@pytest.mark.parametrize("pairspec", BENCHMARK_PAIRS)
def test_orbit_walks_match_scalar_oracle(pairspec):
    embedding = build_pair(pairspec)
    group = embedding.parent
    classes = conjugacy_classes(group)
    assert classes == scalar_oracle.conjugacy_classes(group)
    cosets = double_cosets(embedding)
    assert scalar_oracle.per_id(embedding, cosets) == scalar_oracle.double_cosets(group, embedding)
    assert permutation_character(embedding, classes) == (
        scalar_oracle.permutation_character(group, embedding, classes)
    )


def _relabelled(rng, steps):
    """The (s, N) table of steps with its points renamed by one random
    permutation."""
    steps = np.asarray(steps)
    shuffle = rng.permutation(steps.shape[1])
    relabelled = np.empty_like(steps)
    relabelled[:, shuffle] = shuffle[steps]
    return relabelled


def _cycles(lengths):
    """x -> the next point on its cycle, for cycles of the given lengths."""
    step = np.arange(1, sum(lengths) + 1)
    ends = np.cumsum(lengths)
    step[ends - 1] = ends - np.asarray(lengths)  # the last point closes its cycle
    return step


def _step_tables():
    rng = np.random.default_rng(0)
    # random maps: repeated images and points hit by none, not permutations
    for n, s in ((1, 1), (2, 1), (9, 1), (60, 2), (500, 3)):
        yield f"map-{n}x{s}", rng.integers(0, n, size=(s, n))
    # random maps inside 40 chunks of 10 points, renamed: many components
    chunks = np.arange(400) // 10 * 10
    yield "chunked-maps", _relabelled(rng, chunks + rng.integers(0, 10, size=(2, 400)))
    # long cycles, so labels travel far: one cycle, several, and two
    # generators whose cycles join
    yield "cycle-2000", _relabelled(rng, [_cycles([2000])])
    yield "cycles-700-1-299", _relabelled(rng, [_cycles([700, 1, 299])])
    yield "two-cycle-rows", _relabelled(rng, [_cycles([300] * 4), _cycles([1, 599, 600])])
    # zero generator rows: Z1, and points with no edges at all
    yield "Z1", np.zeros((0, 1), dtype=np.int64)
    yield "no-rows-7", np.zeros((0, 7), dtype=np.int64)


@pytest.mark.parametrize("steps", [pytest.param(t, id=name) for name, t in _step_tables()])
def test_orbit_labels_match_a_scalar_union_find(steps):
    labels = orbit_labels(steps)
    assert labels.dtype == np.int64
    assert labels.tolist() == scalar_oracle.orbit_labels(steps)


@pytest.mark.parametrize("bad", [-1, 5])
def test_orbit_labels_reject_a_step_outside_the_points(bad):
    steps = np.array([[1, 2, 3, 4, 0], [0, 0, 0, 0, 0]])
    steps[1, 3] = bad
    with pytest.raises(InternalConsistencyError, match="multiplication oracle is broken"):
        orbit_labels(steps)


def test_double_cosets_match_scalar_oracle_above_the_ladder():
    # rank 31, past every rank on the benchmark ladder
    embedding = build_pair("wr(Z30,2)")
    group = embedding.parent
    dc = double_cosets(embedding)
    assert dc.rank == 31
    assert scalar_oracle.per_id(embedding, dc) == scalar_oracle.double_cosets(group, embedding)


def test_label_arrays_are_read_only_int64():
    embedding = build_pair("wr(S3,2)")
    group = embedding.parent
    cosets = double_cosets(embedding)
    k_ids = scalar_oracle.id_embedding(embedding)
    arrays = (
        conjugacy_classes(group).block_of,
        cosets.orbits.block_of,
        embedding.transversal_points,
        dense_constants(embedding, cosets),
        k_ids.map,
        k_ids.image,
    )
    for labels in arrays:
        assert labels.dtype == np.int64
        with pytest.raises(ValueError):
            labels[0] = 1


def test_left_cosets_must_partition_the_group():
    # x * {0, 2, 4} in the broken Z6 overlaps an earlier coset at odd x
    embedding = SubgroupEmbedding(CyclicGroup(3), _BrokenBatch(6), (0, 2, 4))
    with pytest.raises(InternalConsistencyError, match="left cosets do not partition"):
        double_cosets(embedding)


def _corrupt_cosets(coset_of):
    """K = {0, 3} in Z6 with coset_index reading the given coset labels in
    place of the true ones."""
    embedding = SubgroupEmbedding(CyclicGroup(2), CyclicGroup(6), (0, 3))
    assert embedding.coset_index(np.arange(6)).tolist() == [0, 1, 2, 0, 1, 2]
    embedding.__dict__["coset_index"] = np.array(coset_of).take
    return embedding


def test_double_cosets_must_be_disjoint():
    # K * 2 hits cosets 2 and 0, so coset 2 joins the block of K
    embedding = _corrupt_cosets([0, 1, 2, 0, 1, 0])
    with pytest.raises(InternalConsistencyError, match="block 0 is not K itself"):
        double_cosets(embedding)


def test_coset_size_identity_names_the_first_failing_representative(monkeypatch):
    # orbits labelled wrongly as the cosets {0}, {1, 2} and {3, 4} of Z10 over
    # K = {0, 5}: blocks {0, 5}, {1, 6, 2, 7} and {3, 8, 4, 9}, where K g
    # stays in its block, but the last two break |KgK| * |K ∩ g^-1Kg| = |K|^2,
    # and the batch reports the first
    embedding = SubgroupEmbedding(CyclicGroup(2), CyclicGroup(10), (0, 5))
    monkeypatch.setattr("gelfand.hecke.orbit_labels", lambda moves: np.array([0, 1, 1, 3, 3]))
    message = r"= 4\*2 != \|K\|\^2 = 4 at representative 1$"
    with pytest.raises(InternalConsistencyError, match=message):
        double_cosets(embedding)


def test_double_cosets_must_cover_the_group():
    # K * 1 hits coset 2 only, never coset 1: cosets 1 and 2 become one
    # block of 4 elements, where |KgK| * |K ∩ g^-1Kg| = |K|^2 allows 2
    embedding = _corrupt_cosets([0, 2, 1, 0, 2, 1])
    message = r"= 4\*2 != \|K\|\^2 = 4 at representative 1$"
    with pytest.raises(InternalConsistencyError, match=message):
        double_cosets(embedding)
