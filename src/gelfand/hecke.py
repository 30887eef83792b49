"""Double cosets and the exact double-coset algebra of a pair (G, K).

The pair is a Gelfand pair iff this algebra is commutative.  Everything that
feeds the verdict is integer arithmetic: structure constants are counted
exactly and commutativity is compared entry by entry, so the answer cannot be
corrupted by rounding.

One kernel, ``groups.block_product_counts``, counts both this algebra's
structure constants and the class algebra's coefficients.  Double cosets are
unions of left cosets xK, and block(xh) = block(x), block((xh)^-1 z) =
block(x^-1 z) for h in K, so the kernel counts over the representatives of
the embedding's left cosets G/K (``coset_reps``), the block of an id read
as the block of its coset (``coset_index``), with the block sizes in cosets,
s_k = |D_k| / |K|.  What it counts are the intersection numbers of the
orbital scheme of G on G/K,

    p[i][j][k] = #{cosets c : block(rep_c) = i, block(rep_c^-1 z_k) = j},

[G:K] products per target instead of |G|, and the structure constants are
c[i][j][k] = |K| p[i][j][k].  Each kernel call batches targets so that one
mul_many call holds at most |G| products.  The table is held sparse, nonzero
entries only: each coset representative adds to exactly one (i, j) per
target, so it holds at most r [G:K] entries, never r^3.

Two kernel calls count the table, one at the block representatives and one
at their recount targets.  Every block is a union of cosets, so the
representatives cover every block, the kernel counts every row and enforces
the counting identity sum_k p[i][j][k] s_k = s_i s_j on each, and
``structure_constants`` checks, over the whole table of p:

- representative independence: both counts give the same table, the
  recount at an element of each block in a left coset other than the
  representative's wherever the block spans more than one;
- the unit identity p[0][j][k] = p[j][0][k] = delta_jk on row 0 and
  column 0, since K = D_0;
- the int64 bound 125 s^2 < 2^63, where s is the largest per-target sum
  sum_{i,j} |p[i][j][k]| ([G:K] for a correct table); past it,
  ResourceLimitError;
- associativity, (f*g)*h = f*(g*h) with (f*g)_k = sum_{i,j} f_i g_j p[i][j][k],
  for three seeded random integer triples with entries in -5..5, exactly in
  int64: every partial sum is at most 125 s^2.  Scaling by |K| keeps it, so
  it holds for c as for p.

``structure_constants`` returns the lexicographically first (i, j, k)
with p[i][j][k] != p[j][i][k], the first key where the table differs from
its transpose.  |K| enters only where c is shown: the witness values, the
recount's error message and ``dense_constants``, the dense (r, r, r) table
stacked from the same count for ``hecke --show-constants`` and the tests.

The double cosets are the K-orbits on the embedding's left cosets G/K, held
as the block of each coset, [G:K] labels and nothing per id of G, found by
``groups.orbit_labels`` from the moves of K's generators.  Block 0 must be
K, and every representative g must satisfy K g ⊆ block(g) and
|KgK| * |K ∩ g^-1 K g| = |K|^2, all read off one batch of the r |K| <= |G|
products K g at the r representatives, which also gives the recount
targets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InternalConsistencyError, ResourceLimitError
from .groups import (
    GroupPartition,
    SubgroupEmbedding,
    block_product_counts,
    orbit_labels,
    stack_block_counts,
)


@dataclass(frozen=True, eq=False)
class DoubleCosetDecomposition:
    """K-double cosets of G as blocks of the left cosets G/K, numbered by
    minimal id, so K is block 0.  The block of an id g is
    coset_block[embedding.coset_index(g)]; nothing is kept per id of G."""

    coset_block: np.ndarray  # int64, read-only: the block of each left coset
    representatives: tuple[int, ...]  # the minimal id of each block, ascending
    sizes: tuple[int, ...]
    # one more element of each block, from K rep: in a left coset other than
    # the representative's wherever the block spans more than one
    recount_targets: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.sizes)


def double_cosets(embedding: SubgroupEmbedding) -> DoubleCosetDecomposition:
    """The K-orbits on the left cosets G/K.

    Generator s of K moves coset c to coset_index(s * rep_c).  Cosets ascend
    by minimal id, so orbits labelled by their least coset number the blocks
    by minimal id and put K first.  Then, from the batch K g at every
    representative g, else InternalConsistencyError: K g ⊆ block(g); block 0
    is one coset that holds the identity, so it is K; and
    |KgK| * |K ∩ g^-1 K g| = |K|^2, as k g lies in gK iff k lies in gKg^-1,
    so |K ∩ gKg^-1| = |K ∩ g^-1 K g| is the number of k g in the coset of g.
    """
    group, image, ksize = embedding.parent, embedding.image, embedding.subgroup.order
    coset_reps = embedding.coset_reps
    gens = embedding.map[list(embedding.subgroup.generators)]
    moves = embedding.coset_index(group.mul_many(gens[:, None], coset_reps))
    # the blocks as a partition of G/K: [G:K] labels to sort, not |G|
    blocks = GroupPartition.from_labels(orbit_labels(moves))
    reps = coset_reps[list(blocks.representatives)]
    k_reps = group.mul_many(image, reps[:, None])  # row k holds K rep_k
    k_cosets = embedding.coset_index(k_reps)
    bad = np.flatnonzero((blocks.block_of[k_cosets] != np.arange(len(reps))[:, None]).any(axis=1))
    if len(bad):
        raise InternalConsistencyError(f"K g leaves block(g) at representative {reps[bad[0]]}")
    sizes = np.array(blocks.sizes) * ksize
    # block 0 is one coset, rep_0 K, and rep_0 is in K iff e is in K rep_0
    if sizes[0] != ksize or group.identity not in k_reps[0]:
        raise InternalConsistencyError("block 0 is not K itself")
    at = np.searchsorted(image, group.identity)  # e g = g: column at is g's coset
    own = k_cosets[:, at, None]
    stabs = np.count_nonzero(k_cosets == own, axis=1)
    bad = np.flatnonzero(sizes * stabs != ksize * ksize)
    if len(bad):
        b = bad[0]
        raise InternalConsistencyError(
            f"|KgK|*|K ∩ g^-1Kg| = {sizes[b]}*{stabs[b]} != |K|^2 = {ksize * ksize} "
            f"at representative {reps[b]}"
        )
    # the first k rep in another coset, else the first k rep != rep, else rep
    pick = (2 * (k_cosets != own) + (k_reps != reps[:, None])).argmax(axis=1)
    return DoubleCosetDecomposition(
        blocks.block_of,
        tuple(reps.tolist()),
        tuple(sizes.tolist()),
        tuple(k_reps[np.arange(len(reps)), pick].tolist()),
    )


class Witness(NamedTuple):
    """The lexicographically first (i, j, k) with c[i][j][k] != c[j][i][k]."""

    i: int
    j: int
    k: int
    ijk: int  # c[i][j][k]
    jik: int  # c[j][i][k]


def _coset_counts(embedding, cosets, targets):
    """The intersection numbers p[i][j][k] at the targets: the kernel over
    the left coset representatives with the block sizes in cosets, the block
    of an id read as the block of its coset.  Every block is a union of
    cosets, so the representatives cover each in full."""
    ksize = embedding.subgroup.order
    return block_product_counts(
        embedding.parent,
        lambda ids: cosets.coset_block[embedding.coset_index(ids)],
        [size // ksize for size in cosets.sizes], targets, embedding.coset_reps,
    )


def _values(keys, counts, at) -> np.ndarray:
    """The entries of a sparse table at the given keys, 0 where absent."""
    found = np.minimum(np.searchsorted(keys, at), len(keys) - 1)
    return np.where(keys[found] == at, counts[found], 0)


def _first_difference(table, other) -> tuple[int, int, int] | None:
    """The smallest key at which two sparse tables differ, with both values,
    or None when they are equal."""
    (keys, counts), (other_keys, other_counts) = table, other
    if np.array_equal(keys, other_keys) and np.array_equal(counts, other_counts):
        return None
    # each key where they differ is a key of one whose value the other lacks
    first = np.concatenate(
        [
            keys[counts != _values(other_keys, other_counts, keys)],
            other_keys[other_counts != _values(keys, counts, other_keys)],
        ]
    ).min()
    return int(first), int(_values(keys, counts, first)), int(_values(other_keys, other_counts, first))


def structure_constants(
    embedding: SubgroupEmbedding, cosets: DoubleCosetDecomposition
) -> Witness | None:
    """Count p[i][j][k] once, check it against the identities in the module
    docstring, and return the first noncommutative entry of c = |K| p, or
    None when the algebra is commutative."""
    r, ksize = cosets.rank, embedding.subgroup.order
    table = _coset_counts(embedding, cosets, cosets.representatives)
    recount = _coset_counts(embedding, cosets, cosets.recount_targets)
    moved = _first_difference(table, recount)
    if moved is not None:
        key, value, other = moved
        i, j, k = np.unravel_index(key, (r, r, r))
        raise InternalConsistencyError(
            f"structure constant c[{i}][{j}][{k}] depends on the representative: "
            f"{value * ksize} vs {other * ksize}"
        )
    keys, counts = table
    i, j, k = np.unravel_index(keys, (r, r, r))
    # row 0 holds only p[0][k][k] = 1, column 0 only p[k][0][k] = 1
    unit = np.arange(r)
    if not (
        np.array_equal(keys[i == 0], unit * (r + 1))
        and np.array_equal(keys[j == 0], unit * (r * r + 1))
        and (counts[(i == 0) | (j == 0)] == 1).all()
    ):
        raise InternalConsistencyError(
            "block 0 does not act as the unit of the double-coset algebra"
        )
    sums = np.zeros(r, dtype=np.int64)
    np.add.at(sums, k, np.abs(counts))
    s = int(sums.max())
    if 125 * s * s >= 2**63:
        raise ResourceLimitError(
            f"intersection numbers sum to {s} at one target; the int64 associativity "
            "check needs 125 * s^2 < 2^63"
        )

    def product(a, b):
        """(a*b)_k = sum_{i,j} a_i b_j p[i][j][k] for each row of a and b."""
        out = np.zeros_like(a)
        # one 1-d add.at per row: one pass over (row, k) held 3x the nonzeros
        # at once and was slower at the size budget's edge
        for t in range(len(a)):
            np.add.at(out[t], k, a[t, i] * b[t, j] * counts)
        return out

    # row t of f, g and h is triple t; the stdlib stream, as numpy.random
    # costs the Hecke-only CLI ~5 MiB to import
    draw = random.Random(0).choices(range(-5, 6), k=9 * r)
    f, g, h = np.array(draw, dtype=np.int64).reshape(3, 3, r)
    left, right = product(product(f, g), h), product(f, product(g, h))
    for t in range(3):
        if not np.array_equal(left[t], right[t]):
            raise InternalConsistencyError(
                "structure constants are not associative: (f*g)*h != f*(g*h) "
                f"for f={f[t].tolist()}, g={g[t].tolist()}, h={h[t].tolist()}"
            )
    transposed = np.ravel_multi_index((j, i, k), (r, r, r))
    order = np.argsort(transposed)
    asym = _first_difference(table, (transposed[order], counts[order]))
    if asym is None:
        return None
    key, ijk, jik = asym
    return Witness(*map(int, np.unravel_index(key, (r, r, r))), ijk * ksize, jik * ksize)


def dense_constants(
    embedding: SubgroupEmbedding, cosets: DoubleCosetDecomposition
) -> np.ndarray:
    """The (r, r, r) int64 table c[i][j][k] = |K| p[i][j][k], stacked from
    the kernel's count at the representatives.  It holds r^3 entries: for
    ``hecke --show-constants`` and the tests only; verdicts come from
    ``structure_constants``."""
    keys, counts = _coset_counts(embedding, cosets, cosets.representatives)
    r = cosets.rank
    return stack_block_counts((keys, embedding.subgroup.order * counts), r, range(r))


def is_commutative(witness: Witness | None) -> bool:
    """The verdict on structure_constants' result."""
    return witness is None

