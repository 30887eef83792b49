"""Wreath product construction, encode/decode and the subgroup embedding."""

import itertools
import math
import os
import random
import re
import subprocess
import sys

import numpy as np
import pytest

import gelfand
from gelfand import (
    CyclicGroup,
    InternalConsistencyError,
    InvalidParameterError,
    ResourceLimitError,
    SubgroupEmbedding,
    SymmetricGroup,
    WreathElement,
    WreathProduct,
    conjugacy_classes,
    double_cosets,
    embed_wreath_subgroup,
    permutation_character,
    subgroup_from_generators,
    verify_group_axioms,
)
from gelfand import wreath
from gelfand.reports import build_pair
from gelfand.specs import build_group
from gelfand.wreath import WreathEmbedding
from scalar_oracle import id_embedding


def test_orders():
    assert WreathProduct(CyclicGroup(2), 3).order == 48
    assert WreathProduct(SymmetricGroup(3), 2).order == 72
    assert WreathProduct(CyclicGroup(1), 5).order == 120


def test_product_law_hand_example():
    # in Z2 wr S2: ((1,0); swap) * ((1,0); swap) = ((1,1); id)
    w = WreathProduct(CyclicGroup(2), 2)
    x = w.encode(WreathElement((1, 0), (1, 0)))
    assert w.decode(w.mul(x, x)) == WreathElement((1, 1), (0, 1))


def test_inverse_examples():
    w = WreathProduct(CyclicGroup(4), 2)
    assert w.inv(w.identity) == w.identity
    g = w.encode(WreathElement((3, 0), (0, 1)))
    assert w.decode(w.inv(g)) == WreathElement((1, 0), (0, 1))

    z2 = CyclicGroup(2)
    w2 = WreathProduct(z2, 2)
    x = w2.encode(WreathElement((1, 0), (1, 0)))
    assert w2.decode(w2.inv(x)) == WreathElement((0, 1), (1, 0))
    assert w2.mul(x, w2.inv(x)) == w2.identity


def test_wreath_inverse_function_brute_force():
    w = WreathProduct(CyclicGroup(3), 2)
    for x in range(w.order):
        assert w.mul(x, w.inv(x)) == w.identity
        assert w.mul(w.inv(x), x) == w.identity


def test_encode_decode_roundtrip_all_of_z2_wr_s3():
    w = WreathProduct(CyclicGroup(2), 3)
    seen = set()
    for x in range(w.order):
        el = w.decode(x)
        back = w.encode(el)
        assert back == x
        seen.add((el.base, el.top))
    assert len(seen) == 48  # injective over the full universe


def test_decode_out_of_range():
    w = WreathProduct(CyclicGroup(2), 2)
    with pytest.raises(InvalidParameterError):
        w.decode(8)
    with pytest.raises(InvalidParameterError):
        w.decode(-1)
    with pytest.raises(InvalidParameterError):
        w.encode(WreathElement((0, 0, 0), (0, 1)))
    with pytest.raises(InvalidParameterError):
        w.encode(WreathElement((0, 0), (1, 1)))  # top not a permutation
    with pytest.raises(InvalidParameterError):
        w.encode(WreathElement((0, 2), (0, 1)))  # base id out of range


def test_axioms_exhaustive_small():
    verify_group_axioms(WreathProduct(CyclicGroup(2), 2))  # order 8
    verify_group_axioms(WreathProduct(CyclicGroup(2), 3))  # order 48
    verify_group_axioms(WreathProduct(SymmetricGroup(3), 2))  # order 72


def test_associativity_exhaustive_above_200():
    w = WreathProduct(CyclicGroup(2), 4)  # order 384
    verify_group_axioms(w)  # Light's test and every pair, as at any tabled order
    rng = random.Random(3)
    for _ in range(10 * 40):
        a, b, c = (rng.randrange(w.order) for _ in range(3))
        assert w.mul(w.mul(a, b), c) == w.mul(a, w.mul(b, c))


def test_size_budget_names_required_order():
    with pytest.raises(ResourceLimitError) as info:
        WreathProduct(SymmetricGroup(4), 4, size_budget=1000)
    assert str(24**4 * math.factorial(4)) in str(info.value)


def test_n_equal_one_is_base_group():
    s3 = SymmetricGroup(3)
    w = WreathProduct(s3, 1)
    assert w.order == 6
    assert sorted(conjugacy_classes(w).sizes) == sorted(conjugacy_classes(s3).sizes)


def test_wr_z1_is_symmetric_group():
    # Z1 wr S_n carries exactly the S_n multiplication on matching ids
    for n in (3, 4):
        w = WreathProduct(CyclicGroup(1), n)
        sn = SymmetricGroup(n)
        assert w.order == sn.order
        assert sorted(conjugacy_classes(w).sizes) == sorted(conjugacy_classes(sn).sizes)
        for a, b in itertools.product(range(min(w.order, 24)), repeat=2):
            assert w.mul(a, b) == sn.mul(a, b)


def test_embedding_orders():
    emb = embed_wreath_subgroup(CyclicGroup(2), 2)
    assert (emb.subgroup.order, emb.parent.order) == (2, 8)
    emb = embed_wreath_subgroup(SymmetricGroup(3), 2)
    assert (emb.subgroup.order, emb.parent.order) == (6, 72)
    emb = embed_wreath_subgroup(CyclicGroup(1), 4)
    assert (emb.subgroup.order, emb.parent.order) == (6, 24)


def test_embedding_is_homomorphism_exhaustively():
    # exhaustive over all pairs with the scalar oracle, independent of the
    # generator check in validate (Z2 wr S3 has 48 elements)
    for base, n in ((CyclicGroup(2), 3), (SymmetricGroup(3), 2), (CyclicGroup(2), 4)):
        emb = id_embedding(embed_wreath_subgroup(base, n))
        k, parent = emb.subgroup, emb.parent
        for a in range(k.order):
            for b in range(k.order):
                assert emb.map[k.mul(a, b)] == parent.mul(emb.map[a], emb.map[b])
        assert emb.map[k.identity] == parent.identity
        assert len(set(emb.map)) == k.order


def test_embedding_fixes_last_coordinate():
    emb = id_embedding(embed_wreath_subgroup(CyclicGroup(3), 3))
    parent = emb.parent
    for x in emb.map:
        el = parent.decode(x)
        assert el.base[-1] == 0
        assert el.top[-1] == 2


@pytest.mark.parametrize(
    "spec", ["wr(S3,2)", "wr(S3,3)", "wr(D4,3)", "wr(Z3,4)", "wr(Z2,5)", "wr(Z1,6)"]
)
def test_widened_generators_generate_the_stabilizer_of_x0(spec):
    # K's generators, widened by e at coordinate n - 1 and a top that fixes
    # n - 1, generate exactly Stab(x0) = {b_(n-1) = e, p(n-1) = n - 1}:
    # |B|^(n-1) (n-1)! ids, those of K's construction
    emb = build_pair(spec)
    group, k = emb.parent, emb.subgroup
    identity = group.base_group.identity
    gens = [
        group.encode(WreathElement(g.base + (identity,), g.top + (k.n,)))
        for g in k.generator_elements
    ]
    stabilizer = subgroup_from_generators(group, gens)
    base, top = group.decode_many(stabilizer.image)
    assert (base[k.n] == identity).all() and (group._top_images(top)[k.n] == k.n).all()
    assert len(stabilizer.image) == group.base_group.order**k.n * math.factorial(k.n)
    assert np.array_equal(stabilizer.image, id_embedding(emb).image)


def test_wreath_embedding_holds_no_ids_of_k():
    # the action on X is all it is, before and after both routes read it
    emb = embed_wreath_subgroup(SymmetricGroup(3), 3)
    removed = ("map", "image", "coset_reps", "coset_index", "_cosets", "validate")
    assert not isinstance(emb, SubgroupEmbedding)
    assert not any(hasattr(emb, name) for name in removed)
    double_cosets(emb)
    permutation_character(emb, conjugacy_classes(emb.parent))
    assert not any(hasattr(emb, name) for name in removed)


def test_embedding_rejects_n_below_two():
    with pytest.raises(InvalidParameterError):
        embed_wreath_subgroup(CyclicGroup(2), 1)


# ---------------------------------------------------------------------------
# SubgroupEmbedding.validate: each failure mode, and the cost of the check


@pytest.mark.parametrize(
    "mapping, message",
    [
        ((0, 0), "embedding of Z2 is not injective"),
        ((0, 7), "embedding maps outside the parent group"),
        ((3, 0), "embedding does not preserve the identity"),
    ],
)
def test_validate_rejects_broken_maps(mapping, message):
    embedding = SubgroupEmbedding(CyclicGroup(2), CyclicGroup(6), mapping)
    with pytest.raises(InternalConsistencyError, match=message):
        embedding.validate()


def test_image_is_strictly_ascending_or_refused():
    z6 = CyclicGroup(6)
    assert SubgroupEmbedding(CyclicGroup(3), z6, (4, 0, 2)).image.tolist() == [0, 2, 4]
    for mapping in ((0, 0), (0, 3, 0)):
        embedding = SubgroupEmbedding(CyclicGroup(len(mapping)), z6, mapping)
        with pytest.raises(InternalConsistencyError, match="is not injective"):
            embedding.image


def test_image_of_a_generic_embedding_loads_no_numpy_ma():
    # np.unique would import numpy.ma (+0.5 MiB) on its first call
    code = (
        "import sys\n"
        "from gelfand import CyclicGroup, SubgroupEmbedding\n"
        "embedding = SubgroupEmbedding(CyclicGroup(2), CyclicGroup(6), (0, 3))\n"
        "before = 'numpy.ma' in sys.modules\n"
        "assert embedding.image.tolist() == [0, 3]\n"
        "print(before, 'numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(gelfand.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def test_validate_catches_two_swapped_non_generator_entries():
    # |K| = 384 > 200: the check is exhaustive at every size
    emb = id_embedding(embed_wreath_subgroup(CyclicGroup(2), 5))
    k = emb.subgroup
    assert k.order == 384
    a, b = [x for x in range(1, k.order) if x not in k.generators][:2]
    mapping = emb.map.copy()
    mapping[[a, b]] = mapping[[b, a]]
    broken = SubgroupEmbedding(k, emb.parent, mapping)
    with pytest.raises(InternalConsistencyError, match="not a homomorphism") as caught:
        broken.validate()
    x, s = map(int, re.search(r"at \(x, s\) = \((\d+), (\d+)\)", str(caught.value)).groups())
    assert s in k.generators
    assert {x, k.mul(x, s)} & {a, b}


@pytest.mark.parametrize("generators", [(2,), ()])
def test_validate_rejects_generators_that_do_not_generate(generators):
    k = CyclicGroup(4)
    k.generators = generators
    embedding = SubgroupEmbedding(k, CyclicGroup(4), range(4))
    reached = 2 if generators else 1
    with pytest.raises(InternalConsistencyError, match=f"generate {reached} of its 4 elements"):
        embedding.validate()


def test_validate_costs_one_parent_product_per_element_and_generator(monkeypatch):
    counted = []
    real = WreathProduct.mul_many

    def counting(self, xs, ys):
        if self.n == 5:
            counted.append(np.broadcast(np.asarray(xs), np.asarray(ys)).size)
        return real(self, xs, ys)

    monkeypatch.setattr(WreathProduct, "mul_many", counting)
    emb = embed_wreath_subgroup(CyclicGroup(2), 5)
    assert len(emb.subgroup.generators) == 3
    assert counted == []  # the embedding builds no id of K
    id_embedding(emb)
    assert sum(counted) == 3 * 384


class _LehmerTop(SymmetricGroup):
    """S_n without a table, so a wreath top on it composes by Lehmer codes."""

    cayley_tables = None


@pytest.mark.parametrize(
    "spec, n", [("Z1", 6), ("Z2", 6), ("S3", 4), ("D4", 3), ("Z3", 5), ("S3", 2), ("Z2", 1)]
)
def test_tabled_tops_equal_the_lehmer_path(spec, n):
    tabled = WreathProduct(build_group(spec), n)
    assert tabled._top.cayley_tables is not None
    lehmer = WreathProduct(tabled.base_group, n)
    lehmer._top = _LehmerTop(n)
    rng = np.random.default_rng(n)
    # past the batch cap, so both paths run over several chunks
    xs, ys = rng.integers(0, tabled.order, (2, 2 * wreath.BATCH_LIMIT + 7))
    products = tabled.mul_many(xs, ys)
    inverses = tabled.inv_many(xs)
    assert np.array_equal(products, lehmer.mul_many(xs, ys))
    assert np.array_equal(inverses, lehmer.inv_many(xs))
    sample = slice(0, 2_000)
    assert products[sample].tolist() == list(map(tabled.mul, xs[sample].tolist(), ys[sample].tolist()))
    assert inverses[sample].tolist() == list(map(tabled.inv, xs[sample].tolist()))
    # a broadcast batch keeps its shape
    grid = tabled.mul_many(xs[:40, None], ys[None, :50])
    assert grid.shape == (40, 50)
    assert np.array_equal(grid, lehmer.mul_many(xs[:40, None], ys[None, :50]))


def test_digit_table_is_int32_past_int16_ids():
    group = WreathProduct(CyclicGroup(40000), 1)
    ids = np.arange(group.order, dtype=np.int64)
    base, top = group.decode_many(ids)
    assert group._digits.dtype == base.dtype == np.int32
    assert not group._digits.flags.writeable
    assert np.array_equal(base[0], ids) and not top.any()
    rng = np.random.default_rng(40000)
    xs, ys = rng.integers(0, group.order, (2, 100_000))
    assert np.array_equal(group.mul_many(xs, ys), (xs + ys) % 40000)
    assert np.array_equal(group.inv_many(xs), -xs % 40000)


@pytest.mark.parametrize(
    "spec, n",
    [
        ("S3", 3), ("Z2", 5), ("D4", 3), ("Z1", 8), ("Z3", 2),
        ("Z2", 7), ("S3", 4), ("S3xZ2", 2), ("Z5", 3),
    ],
)
def test_points_by_chunks_equal_the_whole_array(spec, n):
    """X's closed-form numbering orders the points g . x0 by the least id
    on them, as found here over every id at once."""
    embedding = embed_wreath_subgroup(build_group(spec), n)
    group = embedding.parent
    ids = np.arange(group.order, dtype=np.int64)
    base, top = group.decode_many(ids)
    last = np.array([p[-1] for p in map(group._idx.unrank, top.tolist())], dtype=np.int64)
    point = last * group.base_group.order + base[last, ids]
    first = np.full(embedding.index, group.order, dtype=np.int64)
    np.minimum.at(first, point, ids)
    by_least_id = np.argsort(first)
    assert np.array_equal(embedding.transversal_points[by_least_id], np.arange(embedding.index))


def _swapped(embedding, a, b):
    """The embedding with the points a and b swapped in every image of its
    action, which is then no action."""

    class Swapped(WreathEmbedding):
        def _act(self, *args):
            number = super()._act(*args)
            return np.where(number == a, b, np.where(number == b, a, number))

    return Swapped(embedding.subgroup, embedding.parent)


@pytest.mark.parametrize(
    "a, b, message",
    [
        (1, 2, "not equivariant: generator"),  # coordinates 0 and 1
        (1, 7, "the transversal element of point 1 takes x0 to point 7"),
        (6, 0, "of K moves the point x0"),  # x0 is point 0
    ],
)
def test_cosets_by_the_action_reject_corrupted_points(a, b, message):
    embedding = embed_wreath_subgroup(SymmetricGroup(3), 2)
    with pytest.raises(InternalConsistencyError, match=message):
        double_cosets(_swapped(embedding, a, b))


def test_cosets_by_the_action_reject_a_point_with_too_many_ids():
    # G's base generators alone fix the coordinate of every point, so the
    # action is not transitive, and x0 would hold more ids than |K|
    embedding = embed_wreath_subgroup(SymmetricGroup(3), 2)
    group = embedding.parent
    vars(group)["generator_elements"] = group.generator_elements[:-2]
    message = r"the generators of wr\(S3,2\) are not transitive on its 12 points"
    with pytest.raises(InternalConsistencyError, match=message):
        double_cosets(embedding)
