"""Wreath products G wr S_n with exact id-level encode/decode.

An element is a pair ((g_1, ..., g_n); p): one base-group element per
coordinate plus a top permutation.  The product permutes the right factor's
coordinates before multiplying componentwise:

    ((s); p) * ((e); q) = ((s_1 e_{p^-1(1)}, ..., s_n e_{p^-1(n)}); p q)

Ids pack the base tuple big-endian in radix |G| and append the top
permutation's lexicographic rank: id = code(base) * n! + rank(top).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParameterError, ResourceLimitError
from .groups import (
    FiniteGroup,
    SubgroupEmbedding,
    perm_compose,
    perm_indexer,
    perm_inverse,
)

DEFAULT_SIZE_BUDGET = 2_000_000


@dataclass(frozen=True)
class WreathElement:
    """Base-group ids per coordinate plus a top permutation (image tuple)."""

    base: tuple[int, ...]
    top: tuple[int, ...]


class WreathProduct(FiniteGroup):
    """G wr S_n as a FiniteGroup over encoded WreathElements.

    Small instances keep a decoded-element list and a base multiplication
    table, so the quadratic double-coset work runs on lookups instead of
    repeated radix arithmetic; larger instances compute on the fly.
    """

    # decoded elements are cached up to this order, matching the group-core
    # table policy; the base table is kept only for genuinely small bases
    _DECODE_CACHE_LIMIT = 4096
    _BASE_TABLE_LIMIT = 256

    def __init__(self, base_group: FiniteGroup, n: int, size_budget: int = DEFAULT_SIZE_BUDGET):
        if n < 1:
            raise InvalidParameterError(f"wreath product needs n >= 1, got {n}")
        order = base_group.order**n * math.factorial(n)
        if order > size_budget:
            raise ResourceLimitError(
                f"wr({base_group.name},{n}) needs {order} elements, "
                f"over the size budget of {size_budget}"
            )
        self.base_group = base_group
        self.n = n
        self.order = order
        self.name = f"wr({base_group.name},{n})"
        self._nfact = math.factorial(n)
        self._idx = perm_indexer(n)
        if base_group.order <= self._BASE_TABLE_LIMIT:
            bmul = base_group.mul
            rng = range(base_group.order)
            self._base_table = tuple(tuple(bmul(a, b) for b in rng) for a in rng)
        else:
            self._base_table = None
        self._decoded = None
        if order <= self._DECODE_CACHE_LIMIT:
            self._decoded = tuple(self.decode(x) for x in range(order))

    def encode(self, element: WreathElement) -> int:
        if len(element.base) != self.n or len(element.top) != self.n:
            raise InvalidParameterError(
                f"element has {len(element.base)} base entries and a top of "
                f"length {len(element.top)}; {self.name} needs {self.n} of each"
            )
        seen = 0
        for v in element.top:
            if not 0 <= v < self.n or seen & (1 << v):
                raise InvalidParameterError(
                    f"top {element.top} is not a permutation of 0..{self.n - 1}"
                )
            seen |= 1 << v
        code = 0
        for g in element.base:
            if not 0 <= g < self.base_group.order:
                raise InvalidParameterError(
                    f"base id {g} out of range for {self.base_group.name}"
                )
            code = code * self.base_group.order + g
        return code * self._nfact + self._idx.rank(element.top)

    def decode(self, x: int) -> WreathElement:
        if not 0 <= x < self.order:
            raise InvalidParameterError(f"element id {x} out of range for {self.name}")
        code, top_rank = divmod(x, self._nfact)
        base = [0] * self.n
        for i in range(self.n - 1, -1, -1):
            code, base[i] = divmod(code, self.base_group.order)
        return WreathElement(tuple(base), self._idx.unrank(top_rank))

    def _decode_cached(self, x: int) -> WreathElement:
        if self._decoded is not None:
            return self._decoded[x]
        return self.decode(x)

    def _encode_raw(self, base: tuple[int, ...], top: tuple[int, ...]) -> int:
        code = 0
        for g in base:
            code = code * self.base_group.order + g
        return code * self._nfact + self._idx.rank(top)

    def mul(self, x: int, y: int) -> int:
        a = self._decode_cached(x)
        b = self._decode_cached(y)
        pinv = perm_inverse(a.top)
        table = self._base_table
        if table is not None:
            base = tuple(table[a.base[i]][b.base[pinv[i]]] for i in range(self.n))
        else:
            gmul = self.base_group.mul
            base = tuple(gmul(a.base[i], b.base[pinv[i]]) for i in range(self.n))
        return self._encode_raw(base, perm_compose(a.top, b.top))

    def inv(self, x: int) -> int:
        a = self._decode_cached(x)
        ginv = self.base_group.inv
        base = tuple(ginv(a.base[a.top[i]]) for i in range(self.n))
        return self._encode_raw(base, perm_inverse(a.top))


def wreath_product(
    base_group: FiniteGroup, n: int, size_budget: int = DEFAULT_SIZE_BUDGET
) -> WreathProduct:
    return WreathProduct(base_group, n, size_budget)


def embed_wreath_subgroup(
    base_group: FiniteGroup, n: int, size_budget: int = DEFAULT_SIZE_BUDGET
) -> SubgroupEmbedding:
    """Embed G wr S_{n-1} into G wr S_n.

    The last coordinate carries the identity and the top permutation fixes
    the last point; any conjugate embedding gives the same verdicts.
    """
    if n < 2:
        raise InvalidParameterError(
            f"the pair (G wr S_n, G wr S_(n-1)) needs n >= 2, got {n}"
        )
    parent = WreathProduct(base_group, n, size_budget)
    sub = WreathProduct(base_group, n - 1, size_budget)
    mapping = []
    for x in range(sub.order):
        el = sub.decode(x)
        widened = WreathElement(el.base + (base_group.identity,), el.top + (n - 1,))
        mapping.append(parent.encode(widened))
    emb = SubgroupEmbedding(subgroup=sub, parent=parent, map=tuple(mapping))
    emb.validate()
    return emb
