"""Brute-force oracles for the block-counting kernel, used only by the tests.

Convolution of bi-invariant functions evaluated on the group itself, and the
D_i x D_j bucketing count of structure constants.  Both are
quadratic in |G| and independent of ``groups.block_product_counts``, so
exact agreement with the kernel is evidence rather than tautology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BiInvariantFunction:
    """A function on G constant on each double coset, one value per block."""

    values: tuple[complex, ...]


def convolve(f, g, group, cosets) -> BiInvariantFunction:
    """(f*g)(x) = sum_y f(y) g(y^-1 x), evaluated once per block representative.

    Stays in exact integer arithmetic when both inputs are integral.
    """
    block_of = cosets.block_of
    out = []
    for z in cosets.representatives:
        acc = 0
        for y in range(group.order):
            acc += f.values[block_of[y]] * g.values[block_of[group.mul(group.inv(y), z)]]
        out.append(acc)
    return BiInvariantFunction(tuple(out))


def convolve_via_constants(f, g, c) -> BiInvariantFunction:
    """(f*g) on block k = sum_{i,j} f_i g_j c[i][j][k]; must agree with convolve."""
    r = len(c)
    out = []
    for k in range(r):
        acc = 0
        for i in range(r):
            for j in range(r):
                acc += f.values[i] * g.values[j] * int(c[i, j, k])
        out.append(acc)
    return BiInvariantFunction(tuple(out))


def bucketed_constants(group, blocks, representatives) -> np.ndarray:
    """c[i][j][k] by multiplying all of B_i x B_j and bucketing the products.

    Also asserts that every element of B_k is hit equally often, so the count
    at the representative stands for the whole block.
    """
    r = len(blocks)
    table = np.zeros((r, r, r), dtype=np.int64)
    for i, bi in enumerate(blocks):
        for j, bj in enumerate(blocks):
            hits = {}
            for x in bi:
                for y in bj:
                    p = group.mul(x, y)
                    hits[p] = hits.get(p, 0) + 1
            for k, bk in enumerate(blocks):
                counts = {hits.get(z, 0) for z in bk}
                assert len(counts) == 1, f"B_{i} B_{j} does not hit B_{k} uniformly"
                table[i, j, k] = hits.get(representatives[k], 0)
    return table
