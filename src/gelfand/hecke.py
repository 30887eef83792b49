"""Double cosets and the exact double-coset algebra of a pair (G, K).

The pair is a Gelfand pair iff this algebra is commutative.  Everything that
feeds the verdict is integer arithmetic: structure constants are counted
exactly and commutativity is compared entry by entry, so the answer cannot be
corrupted by rounding.

One kernel, ``groups.block_product_counts``, counts both this algebra's
structure constants and the class algebra's coefficients.  The table is a
read-only int64 array c of shape (r, r, r), and it must satisfy:

- the counting identity sum_k c[i][j][k] |D_k| = |D_i| |D_j| (in the kernel);
- representative independence: a recount at a second element of every block
  gives the same table;
- the unit identity c[0][j][k] = c[j][0][k] = |K| delta_jk, since K = D_0;
- associativity (f*g)*h = f*(g*h) on seeded random integer vectors, exact in
  int64: with entries in -5..5 every partial sum is at most 125 s^2, where
  s = max_k sum_{i,j} |c[i][j][k]| (|G| for a correct table), so a table with
  125 s^2 >= 2^63 (|G| >= 2.7e8) raises ResourceLimitError.

The double cosets are the K-orbits on the embedding's left cosets G/K, held
as a ``groups.GroupPartition`` of G.  They must be disjoint and cover G/K,
block 0 must be K, and every representative must satisfy
|KgK| * |K ∩ g^-1 K g| = |K|^2, checked for all r representatives in one
batch of r |K| <= |G| products.
"""

from __future__ import annotations

import random

import numpy as np

from .errors import InternalConsistencyError, InvalidParameterError, ResourceLimitError
from .groups import FiniteGroup, GroupPartition, SubgroupEmbedding, block_product_counts


class DoubleCosetDecomposition(GroupPartition):
    """K-double cosets of G, numbered by minimal id, so K is block 0."""

    rank = GroupPartition.count


def double_cosets(
    group: FiniteGroup, embedding: SubgroupEmbedding
) -> DoubleCosetDecomposition:
    """The K-orbits on the left cosets G/K, labelled on every id of G.

    The orbit of coset c is the set of cosets hit by K * rep_c, one batch of
    |K| products.  Walking the cosets in ascending order of minimal id makes
    each representative the minimal id of its block and puts K first.
    """
    if embedding.parent is not group:
        raise InvalidParameterError("embedding does not target the given group")
    coset_of, coset_reps = embedding.left_cosets
    block_of_coset = np.full(len(coset_reps), -1, dtype=np.int64)
    count = 0
    for c, x in enumerate(coset_reps.tolist()):
        if block_of_coset[c] >= 0:
            continue
        orbit = coset_of[group.mul_many(embedding.image, x)]
        if (block_of_coset[orbit] >= 0).any():
            raise InternalConsistencyError("double cosets are not disjoint")
        block_of_coset[orbit] = count
        count += 1
    if (block_of_coset < 0).any():
        raise InternalConsistencyError("double cosets do not cover the group")
    dc = DoubleCosetDecomposition.from_labels(block_of_coset[coset_of])
    _check_decomposition(group, embedding, dc, embedding.image)
    return dc


def _check_decomposition(group, embedding, dc, image):
    ksize = embedding.subgroup.order
    if not np.array_equal(np.flatnonzero(dc.block_of == 0), image):
        raise InternalConsistencyError("block 0 is not K itself")
    # |KgK| * |K ∩ g^-1 K g| = |K|^2 for every representative, in one batch
    in_image = np.zeros(group.order, dtype=bool)
    in_image[image] = True
    reps = np.array(dc.representatives, dtype=np.int64)[:, None]
    conjugates = group.mul_many(group.mul_many(reps, image), group.inv_many(reps))
    stabs = np.count_nonzero(in_image[conjugates], axis=1)
    bad = np.flatnonzero(np.array(dc.sizes) * stabs != ksize * ksize)
    if len(bad):
        b = bad[0]
        raise InternalConsistencyError(
            f"|KgK|*|K ∩ g^-1Kg| = {dc.sizes[b]}*{stabs[b]} != |K|^2 = {ksize * ksize} "
            f"at representative {dc.representatives[b]}"
        )


def structure_constants(
    group: FiniteGroup,
    embedding: SubgroupEmbedding,
    cosets: DoubleCosetDecomposition,
) -> np.ndarray:
    """c[i][j][k] = #{(x, y) in D_i x D_j : x*y = z_k} as a read-only int64
    array, checked against the identities in the module docstring."""
    ksize = embedding.subgroup.order
    table = block_product_counts(
        group, cosets.block_of, cosets.sizes, cosets.representatives
    )
    # the second-smallest id of each block, or the only id of a singleton
    sizes = np.array(cosets.sizes)
    second = np.argsort(cosets.block_of, kind="stable")[np.cumsum(sizes) - sizes + (sizes > 1)]
    recount = block_product_counts(group, cosets.block_of, cosets.sizes, second.tolist())
    if not np.array_equal(table, recount):
        i, j, k = np.argwhere(table != recount)[0]
        raise InternalConsistencyError(
            f"structure constant c[{i}][{j}][{k}] depends on the representative: "
            f"{table[i, j, k]} vs {recount[i, j, k]}"
        )
    unit = ksize * np.eye(cosets.rank, dtype=np.int64)
    if not (np.array_equal(table[0], unit) and np.array_equal(table[:, 0], unit)):
        raise InternalConsistencyError(
            f"block 0 does not act as {ksize} times the unit of the double-coset algebra"
        )
    _check_associative(table)
    table.setflags(write=False)
    return table


def _check_associative(c: np.ndarray) -> None:
    """(f*g)*h = f*(g*h) exactly in int64 for three seeded random integer triples."""
    s = int(np.abs(c).sum(axis=(0, 1)).max())
    if 125 * s * s >= 2**63:
        raise ResourceLimitError(
            f"structure constants sum to {s} at one target; the int64 associativity "
            "check needs 125 * s^2 < 2^63"
        )
    r = len(c)
    rng = random.Random(0)

    def conv(f, g):  # (f*g)_k = sum_{i,j} f_i g_j c[i][j][k]
        return f @ np.tensordot(g, c, axes=(0, 1))

    for _ in range(3):
        f, g, h = (np.array([rng.randrange(-5, 6) for _ in range(r)]) for _ in range(3))
        if not np.array_equal(conv(conv(f, g), h), conv(f, conv(g, h))):
            raise InternalConsistencyError(
                "structure constants are not associative: (f*g)*h != f*(g*h) "
                f"for f={f.tolist()}, g={g.tolist()}, h={h.tolist()}"
            )


def is_commutative(table: np.ndarray) -> bool:
    return bool(np.array_equal(table, table.swapaxes(0, 1)))


def noncommutative_witness(table: np.ndarray) -> tuple[int, int, int] | None:
    """First (i, j, k) with c[i][j][k] != c[j][i][k], or None."""
    diff = np.argwhere(table != table.swapaxes(0, 1))
    if len(diff) == 0:
        return None
    i, j, k = diff[0]
    return int(i), int(j), int(k)


def is_gelfand_hecke(
    group: FiniteGroup, embedding: SubgroupEmbedding
) -> tuple[bool, int]:
    """Commutativity verdict for the double-coset algebra, plus its rank."""
    dc = double_cosets(group, embedding)
    return is_commutative(structure_constants(group, embedding, dc)), dc.rank
