"""Scalar reference versions of the batched orbit routines, used only by the tests.

``conjugacy_classes`` and ``double_cosets`` are one-product-at-a-time loops
over ``group.mul``/``group.inv``: the orbits {h g h^-1} over every h, and
K g K expanded element by element.  ``groups.conjugacy_classes`` and
``hecke.double_cosets`` find the same partitions with ``mul_many`` and
``groups.orbit_labels`` over the moves of generators alone, so exact
agreement checks the batched ops, the orbit labels and the array
bookkeeping at once.  ``orbit_labels`` is a scalar union-find, the oracle of
``groups.orbit_labels`` on tables of steps that need not come from a group.
``permutation_character`` counts the left cosets each class representative
fixes, coset by coset; ``chartab.permutation_character`` reads the same
integers off the classes by Frobenius reciprocity, so here a second
algorithm checks it, not a scalar copy of it.  They share no code with the
batched layer.  The partitions are built field by field from the walks' own
lists, never through ``GroupPartition.from_labels``.  ``per_id`` reads a
``DoubleCosetDecomposition``'s block of every id of G through the
embedding's walked left cosets, which number G/K as the points do
(``test_cosets_by_the_action_equal_the_walk`` checks that on wreath
pairs), so it compares with these partitions.

A wreath embedding holds no id of K, so every read of K's ids here, and in
the tests, goes through ``id_embedding``: K's ids built from its
construction and proven by ``SubgroupEmbedding.validate``.
"""

from __future__ import annotations

import numpy as np

from gelfand.groups import (
    GroupPartition,
    SubgroupEmbedding,
    perm_rank_many,
    perm_unrank_many,
    subgroup_from_generators,
)


def id_embedding(embedding) -> SubgroupEmbedding:
    """The embedding as K's ids in G: a SubgroupEmbedding as it is; for a
    wreath embedding, every id of K = B wr S_(n-1) decoded, widened by e at
    coordinate n - 1 and a top that fixes n - 1, encoded in G and proven by
    validate()."""
    if isinstance(embedding, SubgroupEmbedding):
        return embedding
    parent, sub = embedding.parent, embedding.subgroup
    base, top = sub.decode_many(np.arange(sub.order, dtype=np.int64))
    fixed = np.ones((1, sub.order), dtype=np.int64)
    widened_base = np.vstack([base, parent.base_group.identity * fixed])
    widened_top = np.vstack([perm_unrank_many(sub.n, top), sub.n * fixed])
    ids = parent.encode_many(widened_base, perm_rank_many(widened_top))
    k_ids = SubgroupEmbedding(sub, parent, ids)
    k_ids.validate()
    return k_ids


def members(partition) -> tuple[tuple[int, ...], ...]:
    """The ids of every block, ascending, read off the labels."""
    blocks = [[] for _ in partition.sizes]
    for x, b in enumerate(partition.block_of.tolist()):
        blocks[b].append(x)
    return tuple(tuple(block) for block in blocks)


def per_id(embedding, cosets) -> GroupPartition:
    """The double cosets as a partition of G: the block of every id and the
    least id of every block, read through the walked left cosets
    (coset_index and coset_reps of id_embedding)."""
    embedding = id_embedding(embedding)
    ids = np.arange(embedding.parent.order, dtype=np.int64)
    block_of = cosets.orbits.block_of[embedding.coset_index(ids)]
    reps = embedding.coset_reps[list(cosets.orbits.representatives)]
    return GroupPartition(block_of, tuple(reps.tolist()), cosets.sizes)


def _partition(blocks, reps, block_of):
    return GroupPartition(
        np.array(block_of, dtype=np.int64),
        tuple(reps),
        tuple(len(block) for block in blocks),
    )


def orbit_labels(steps) -> list[int]:
    """The least point of the component of every point, in the graph with an
    edge x -- steps[i][x] for every row i of the (s, N) array, by union-find."""
    steps = np.asarray(steps)
    parent = list(range(steps.shape[1]))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for row in steps.tolist():
        for x, y in enumerate(row):
            a, b = find(x), find(y)
            parent[max(a, b)] = min(a, b)
    return [find(x) for x in range(len(parent))]


def conjugacy_classes(group) -> GroupPartition:
    """Conjugation orbits {h g h^-1}, numbered by minimal id."""
    order = group.order
    inv = [group.inv(g) for g in range(order)]
    class_of = [-1] * order
    classes = []
    reps = []
    for g in range(order):
        if class_of[g] >= 0:
            continue
        orbit = {group.mul(h, group.mul(g, inv[h])) for h in range(order)}
        for x in orbit:
            assert class_of[x] < 0, "conjugacy orbits are not disjoint"
            class_of[x] = len(classes)
        classes.append(orbit)
        reps.append(g)
    return _partition(classes, reps, class_of)


def double_cosets(group, embedding) -> GroupPartition:
    """K g K expanded element by element, blocks numbered by minimal id."""
    image = id_embedding(embedding).image.tolist()
    mul = group.mul
    block_of = [-1] * group.order
    blocks = []
    reps = []
    for g in range(group.order):
        if block_of[g] >= 0:
            continue
        left = {mul(k, g) for k in image}
        orbit = {mul(x, k) for x in left for k in image}
        for x in orbit:
            assert block_of[x] < 0, "double cosets are not disjoint"
            block_of[x] = len(blocks)
        blocks.append(orbit)
        reps.append(g)
    return _partition(blocks, reps, block_of)


def permutation_character(group, embedding, classes) -> tuple[int, ...]:
    """Fixed left cosets xK of each class representative, coset by coset."""
    image = id_embedding(embedding).image.tolist()
    mul = group.mul
    coset_of = [-1] * group.order
    coset_reps = []
    for x in range(group.order):
        if coset_of[x] >= 0:
            continue
        for k in image:
            coset_of[mul(x, k)] = len(coset_reps)
        coset_reps.append(x)
    return tuple(
        sum(1 for x in coset_reps if coset_of[mul(z, x)] == coset_of[x])
        for z in classes.representatives
    )


def commutator_subgroup(group):
    """Closure of all commutators a^-1 b^-1 a b, as an embedding."""
    inv = [group.inv(g) for g in range(group.order)]
    commutators = set()
    for a in range(group.order):
        for b in range(group.order):
            c = group.mul(inv[a], group.mul(inv[b], group.mul(a, b)))
            commutators.add(c)
    return subgroup_from_generators(group, sorted(commutators))
