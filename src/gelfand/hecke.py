"""Double cosets and the exact double-coset algebra of a pair (G, K).

The pair is a Gelfand pair iff this algebra is commutative.  Everything that
feeds the verdict is integer arithmetic: structure constants are counted
exactly and commutativity is compared entry by entry, so the answer cannot be
corrupted by rounding.

The algebra is read off the points G/K, numbered by the least id of each left
coset, with x0 = K.  The embedding gives them: a ``SubgroupEmbedding``, which
holds K's ids, as its walked left cosets; a ``wreath.WreathEmbedding``, which
holds none, as the points X = {0..n-1} x B of the action of B wr S_n, with
no id of G or K.  Both give the same five members (``base_point``,
``point_moves``, ``transversal_points``, ``back_points``,
``check_double_cosets``), and everything here is the one engine over them.
The double cosets KgK are the K-orbits on G/K, KgK <-> K g x0,
found by ``groups.orbit_labels`` from the moves of K's generators and
numbered by least point, which is the least id of each double coset, so K
is block 0.  The Hecke algebra is the algebra of orbitals of G on G/K
(Ceccherini-Silberstein, Scarabotti, Tolli, *Harmonic Analysis on Finite
Groups*, CUP 2008; Bannai, Ito, *Algebraic Combinatorics I*, 1984), and its
intersection numbers, with u_z a transversal element, u_z x0 = z, and y_k a
point of orbit k, are

    p[i][j][k] = #{points z : orb(z) = i, orb(u_z^-1 y_k) = j},

[G:K] lookups per target.  The structure constants are c[i][j][k] =
|K| p[i][j][k].  ``groups.block_pair_counts``, the class algebra's keying
and counting identity, counts them, at most a fixed number of lookups per
batch of targets.  The table is held sparse, nonzero entries only: each
point adds to exactly one (i, j) per target, so it holds at most r [G:K]
entries, never r^3.

Two counts make the table, one at the least point of each orbit and one at
a second point of each orbit that has one.  Every block is covered by its
points, so the count enforces the counting identity
sum_k p[i][j][k] s_k = s_i s_j on every row (s_k the orbit sizes), and
``structure_constants`` checks, over the whole table of p:

- representative independence: both counts give the same table;
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
recount's error message, the block sizes |D_k| = |K| s_k and
``dense_constants``, the dense (r, r, r) table stacked from the same count
for ``hecke --show-constants`` and the tests.

``double_cosets`` checks that block 0 is the one point x0, and has the
embedding prove that its orbits are the double cosets
(``check_double_cosets``): a generic embedding by the batch K g at the
least id g of each block, a wreath embedding by its action's checks.
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
    block_pair_counts,
    orbit_labels,
    stack_block_counts,
)
from .wreath import WreathEmbedding

# The count looks up at most this many points u_z^-1 y per batch of
# targets, so its (targets, [G:K]) temporaries stay bounded at any rank.
BATCH_POINTS = 2**16


@dataclass(frozen=True, eq=False)
class DoubleCosetDecomposition:
    """K-double cosets of G as the K-orbits on the points G/K: ``orbits``
    holds the block of each point, the least point of each block, ascending
    (so K is block 0), and the points per block.  Nothing is kept per id
    of G."""

    orbits: GroupPartition
    sizes: tuple[int, ...]  # |D_k| = |K| * points of block k
    # the second least point of each block, or its only point
    recount_points: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.sizes)


def double_cosets(embedding: SubgroupEmbedding | WreathEmbedding) -> DoubleCosetDecomposition:
    """The K-orbits on the points G/K, from the moves of K's generators.

    Orbits labelled by their least point number the blocks by least point.
    Block 0 must be the one point x0, else InternalConsistencyError; then
    the embedding proves the orbits are the double cosets.
    """
    blocks = GroupPartition.from_labels(orbit_labels(embedding.point_moves()))
    if blocks.sizes[0] != 1 or embedding.base_point != 0:
        raise InternalConsistencyError("block 0 is not K itself")
    embedding.check_double_cosets(blocks)
    ksize = embedding.subgroup.order
    counts = np.array(blocks.sizes)
    # each block's points in ascending order: its least, then the next
    order = np.argsort(blocks.block_of, kind="stable")
    second = order[np.cumsum(counts) - counts + (counts > 1)]
    return DoubleCosetDecomposition(
        blocks, tuple(ksize * size for size in blocks.sizes), tuple(second.tolist())
    )


class Witness(NamedTuple):
    """The lexicographically first (i, j, k) with c[i][j][k] != c[j][i][k]."""

    i: int
    j: int
    k: int
    ijk: int  # c[i][j][k]
    jik: int  # c[j][i][k]


def _point_counts(embedding, cosets, targets):
    """The intersection numbers p[i][j][k] at the target points: over the
    transversal, orb(u_z) against orb(u_z^-1 y_k), BATCH_POINTS lookups at
    a time."""
    orbit_of = cosets.orbits.block_of
    left = orbit_of[embedding.transversal_points]
    targets = np.array(targets, dtype=np.int64)
    return block_pair_counts(
        embedding.parent.name,
        left,
        cosets.orbits.sizes,
        targets,
        orbit_of[targets],
        lambda batch: orbit_of[embedding.back_points(batch)],
        max(1, BATCH_POINTS // len(left)),
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
    embedding: SubgroupEmbedding | WreathEmbedding, cosets: DoubleCosetDecomposition
) -> Witness | None:
    """Count p[i][j][k] once, check it against the identities in the module
    docstring, and return the first noncommutative entry of c = |K| p, or
    None when the algebra is commutative."""
    r, ksize = cosets.rank, embedding.subgroup.order
    table = _point_counts(embedding, cosets, cosets.orbits.representatives)
    recount = _point_counts(embedding, cosets, cosets.recount_points)
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

    # row t of f, g and h is triple t; drawn, as the character route's t_i,
    # from the stdlib stream, since importing numpy.random costs ~5 MiB
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
    embedding: SubgroupEmbedding | WreathEmbedding, cosets: DoubleCosetDecomposition
) -> np.ndarray:
    """The (r, r, r) table c[i][j][k] = |K| p[i][j][k], stacked from the
    count at the least points: int64, or exact Python integers where |K| p
    passes int64.  It holds r^3 entries: for ``hecke --show-constants`` and
    the tests only; verdicts come from ``structure_constants``."""
    keys, counts = _point_counts(embedding, cosets, cosets.orbits.representatives)
    r, ksize = cosets.rank, embedding.subgroup.order
    if ksize * int(counts.max()) >= 2**63:
        return stack_block_counts((keys, counts), r, range(r)).astype(object) * ksize
    return stack_block_counts((keys, ksize * counts), r, range(r))


def is_commutative(witness: Witness | None) -> bool:
    """The verdict on structure_constants' result."""
    return witness is None

