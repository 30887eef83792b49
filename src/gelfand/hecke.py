"""Double cosets and the exact double-coset algebra of a pair (G, K).

The pair is a Gelfand pair iff this algebra is commutative.  Everything that
feeds the verdict is integer arithmetic: structure constants are counted
exactly and commutativity is compared entry by entry, so the answer cannot be
corrupted by rounding.

One kernel, ``groups.block_product_counts``, counts both this algebra's
structure constants and the class algebra's coefficients.  Every table of
structure constants must satisfy:

- the counting identity sum_k c[i][j][k] |D_k| = |D_i| |D_j| (in the kernel);
- representative independence: a recount at a second element of every block
  gives the same table;
- the unit identity c[0][j][k] = c[j][0][k] = |K| delta_jk, since K = D_0;
- associativity (f*g)*h = f*(g*h) on seeded random integer vectors.

The double cosets are the K-orbits on the embedding's left cosets G/K.  They
must be disjoint and cover G/K, block 0 must be K, and every representative
must satisfy |KgK| * |K ∩ g^-1 K g| = |K|^2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError, InvalidParameterError
from .groups import FiniteGroup, SubgroupEmbedding, block_product_counts


@dataclass(frozen=True)
class DoubleCosetDecomposition:
    """K-double cosets of G, ordered by minimal element id (K itself first)."""

    blocks: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]
    block_of: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.blocks)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)


@dataclass(frozen=True)
class HeckeStructureConstants:
    """Integer table c[i][j][k] = #{(x,y) in D_i x D_j : x*y = z_k}."""

    rank: int
    block_sizes: tuple[int, ...]
    subgroup_order: int
    table: np.ndarray  # shape (rank, rank, rank), int64

    def __post_init__(self):
        self.table.setflags(write=False)


def double_cosets(
    group: FiniteGroup, embedding: SubgroupEmbedding
) -> DoubleCosetDecomposition:
    """The K-orbits on the left cosets G/K, each expanded to its elements.

    The orbit of coset c is the set of cosets hit by K * rep_c, one batch of
    |K| products.  Walking the cosets in ascending order of minimal id makes
    each representative the minimal id of its block and puts K first.
    """
    if embedding.parent is not group:
        raise InvalidParameterError("embedding does not target the given group")
    coset_of, coset_reps = embedding.left_cosets
    image = np.array(sorted(embedding.image), dtype=np.int64)
    block_of_coset = np.full(len(coset_reps), -1, dtype=np.int64)
    reps: list[int] = []
    for c, x in enumerate(coset_reps.tolist()):
        if block_of_coset[c] >= 0:
            continue
        orbit = coset_of[group.mul_many(image, x)]
        if (block_of_coset[orbit] >= 0).any():
            raise InternalConsistencyError("double cosets are not disjoint")
        block_of_coset[orbit] = len(reps)
        reps.append(x)
    if (block_of_coset < 0).any():
        raise InternalConsistencyError("double cosets do not cover the group")
    block_of = block_of_coset[coset_of]
    blocks = tuple(tuple(np.flatnonzero(block_of == b).tolist()) for b in range(len(reps)))
    dc = DoubleCosetDecomposition(blocks, tuple(reps), tuple(block_of.tolist()))
    _check_decomposition(group, embedding, dc, image)
    return dc


def _check_decomposition(group, embedding, dc, image):
    ksize = embedding.subgroup.order
    if dc.blocks[dc.block_of[group.identity]] != tuple(image.tolist()):
        raise InternalConsistencyError("block of the identity is not K itself")
    if dc.block_of[group.identity] != 0:
        raise InternalConsistencyError("block of the identity is not block 0")
    # |KgK| * |K ∩ g^-1 K g| = |K|^2 for every representative
    in_image = np.zeros(group.order, dtype=bool)
    in_image[image] = True
    rep_inverses = group.inv_many(dc.representatives)
    for block, g, ginv in zip(dc.blocks, dc.representatives, rep_inverses):
        stab = int(np.count_nonzero(in_image[group.mul_many(group.mul_many(g, image), ginv)]))
        if len(block) * stab != ksize * ksize:
            raise InternalConsistencyError(
                f"|KgK|*|K ∩ g^-1Kg| = {len(block)}*{stab} != |K|^2 = {ksize * ksize} "
                f"at representative {g}"
            )


def structure_constants(
    group: FiniteGroup,
    embedding: SubgroupEmbedding,
    cosets: DoubleCosetDecomposition,
) -> HeckeStructureConstants:
    """Count c[i][j][k] and enforce the identities in the module docstring."""
    ksize = embedding.subgroup.order
    table = block_product_counts(
        group, cosets.block_of, cosets.sizes, cosets.representatives
    )
    second = tuple(block[1] if len(block) > 1 else block[0] for block in cosets.blocks)
    recount = block_product_counts(group, cosets.block_of, cosets.sizes, second)
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
    return HeckeStructureConstants(
        rank=cosets.rank,
        block_sizes=cosets.sizes,
        subgroup_order=ksize,
        table=table,
    )


def _convolve(f: list[int], g: list[int], c: list) -> list[int]:
    """(f*g)_k = sum_{i,j} f_i g_j c[i][j][k] in Python integers."""
    r = range(len(f))
    return [sum(f[i] * g[j] * c[i][j][k] for i in r for j in r) for k in r]


def _check_associative(table: np.ndarray) -> None:
    """(f*g)*h = f*(g*h) exactly for three seeded random integer triples."""
    c = table.tolist()
    r = len(c)
    rng = random.Random(0)
    for _ in range(3):
        f, g, h = ([rng.randrange(-5, 6) for _ in range(r)] for _ in range(3))
        if _convolve(_convolve(f, g, c), h, c) != _convolve(f, _convolve(g, h, c), c):
            raise InternalConsistencyError(
                "structure constants are not associative: (f*g)*h != f*(g*h) "
                f"for f={f}, g={g}, h={h}"
            )


def is_commutative(constants: HeckeStructureConstants) -> bool:
    return bool(np.array_equal(constants.table, constants.table.swapaxes(0, 1)))


def noncommutative_witness(
    constants: HeckeStructureConstants,
) -> tuple[int, int, int] | None:
    """First (i, j, k) with c[i][j][k] != c[j][i][k], or None."""
    diff = np.argwhere(constants.table != constants.table.swapaxes(0, 1))
    if len(diff) == 0:
        return None
    i, j, k = diff[0]
    return int(i), int(j), int(k)


def is_gelfand_hecke(
    group: FiniteGroup, embedding: SubgroupEmbedding
) -> tuple[bool, int]:
    """Commutativity verdict for the double-coset algebra, plus its rank."""
    dc = double_cosets(group, embedding)
    constants = structure_constants(group, embedding, dc)
    return is_commutative(constants), dc.rank
