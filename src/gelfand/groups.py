"""Concrete finite groups with stable integer element ids.

Every group enumerates its elements once and for all as ids ``0..order-1``;
multiplication and inversion are exact oracles on those ids.  Stable ids keep
every downstream artifact (double cosets, character tables, cached reports)
reproducible across runs.

Canonical enumerations: cyclic groups by residue, symmetric groups by
lexicographic rank of the image tuple, direct products by the mixed-radix
encoding ``id = a * |B| + b``.

Composition convention for permutations: ``(p * q)(i) = p(q(i))`` -- the right
factor acts first.  Commutativity and multiplicity verdicts do not depend on
the convention, but it is fixed once so ids never move.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError, InvalidParameterError

# Exhaustive axiom / homomorphism checks up to this order, seeded sampling above.
AXIOM_EXHAUSTIVE_LIMIT = 200
# Cayley tables are only materialized up to this order.
TABLE_LIMIT = 4096
# Image tuples of S_n are pre-listed up to this many elements (n <= 8).
_PERM_MATERIALIZE_LIMIT = 40320


# ---------------------------------------------------------------------------
# permutations, stored as image tuples on 0-based points


def perm_compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Compose image tuples, right factor first: result(i) = p(q(i))."""
    return tuple(p[j] for j in q)


def perm_inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def perm_rank(p: tuple[int, ...]) -> int:
    """Lexicographic rank of an image tuple; the identity ranks 0."""
    n = len(p)
    rank = 0
    seen = 0
    for i, v in enumerate(p):
        smaller = v - (seen & ((1 << v) - 1)).bit_count()
        rank = rank * (n - i) + smaller
        seen |= 1 << v
    return rank


def perm_unrank(n: int, rank: int) -> tuple[int, ...]:
    digits = []
    for base in range(1, n + 1):
        rank, d = divmod(rank, base)
        digits.append(d)
    available = list(range(n))
    return tuple(available.pop(d) for d in reversed(digits))


class _PermIndexer:
    """Rank/unrank permutations of n points, with a cached list when small."""

    def __init__(self, n: int):
        self.n = n
        self.count = math.factorial(n)
        if self.count <= _PERM_MATERIALIZE_LIMIT:
            self._perms = list(itertools.permutations(range(n)))
            self._ranks = {p: r for r, p in enumerate(self._perms)}
        else:
            self._perms = None
            self._ranks = None

    def unrank(self, rank: int) -> tuple[int, ...]:
        if self._perms is not None:
            return self._perms[rank]
        return perm_unrank(self.n, rank)

    def rank(self, p: tuple[int, ...]) -> int:
        if self._ranks is not None:
            return self._ranks[p]
        return perm_rank(p)


@functools.lru_cache(maxsize=None)
def perm_indexer(n: int) -> _PermIndexer:
    return _PermIndexer(n)


# ---------------------------------------------------------------------------
# group interface and constructions


class FiniteGroup:
    """Base interface: element ids 0..order-1 plus mul/inv oracles.

    Instances are immutable after construction and safe to share.
    """

    name: str
    order: int
    identity: int = 0

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def inv(self, a: int) -> int:
        raise NotImplementedError

    def elements(self) -> range:
        return range(self.order)

    def cayley_table(self) -> np.ndarray:
        """Full multiplication table as an int array (order <= TABLE_LIMIT)."""
        if self.order > TABLE_LIMIT:
            raise InvalidParameterError(
                f"refusing to materialize a {self.order}x{self.order} Cayley table "
                f"(limit {TABLE_LIMIT})"
            )
        table = getattr(self, "_cayley_cache", None)
        if table is None:
            n = self.order
            table = np.empty((n, n), dtype=np.int32)
            for a in range(n):
                for b in range(n):
                    table[a, b] = self.mul(a, b)
            self._cayley_cache = table
        return table

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, order={self.order})"


class CyclicGroup(FiniteGroup):
    """Z_k, additive residues mod k; element ids are the residues."""

    def __init__(self, k: int):
        if k < 1:
            raise InvalidParameterError(f"cyclic group order must be >= 1, got {k}")
        self.k = k
        self.order = k
        self.name = f"Z{k}"

    def mul(self, a: int, b: int) -> int:
        return (a + b) % self.k

    def inv(self, a: int) -> int:
        return (-a) % self.k


class SymmetricGroup(FiniteGroup):
    """S_n with ids given by the lexicographic rank of the image tuple."""

    def __init__(self, n: int):
        if n < 1:
            raise InvalidParameterError(
                f"symmetric group needs n >= 1 (use n=1 for the trivial group), got {n}"
            )
        self.n = n
        self.order = math.factorial(n)
        self.name = f"S{n}"
        self._idx = perm_indexer(n)

    def permutation(self, a: int) -> tuple[int, ...]:
        if not 0 <= a < self.order:
            raise InvalidParameterError(f"element id {a} out of range for {self.name}")
        return self._idx.unrank(a)

    def id_of(self, p: tuple[int, ...]) -> int:
        return self._idx.rank(p)

    def mul(self, a: int, b: int) -> int:
        return self._idx.rank(perm_compose(self._idx.unrank(a), self._idx.unrank(b)))

    def inv(self, a: int) -> int:
        return self._idx.rank(perm_inverse(self._idx.unrank(a)))


class DihedralGroup(FiniteGroup):
    """D_k of order 2k: <r, s | r^k = s^2 = 1, s r s = r^-1>.

    Element id e*k + j stands for s^e r^j, so rotations come first.
    """

    def __init__(self, k: int):
        if k < 3:
            raise InvalidParameterError(f"dihedral group needs k >= 3, got {k}")
        self.k = k
        self.order = 2 * k
        self.name = f"D{k}"

    def mul(self, a: int, b: int) -> int:
        k = self.k
        e1, j1 = divmod(a, k)
        e2, j2 = divmod(b, k)
        # r^j s = s r^-j, so s^e1 r^j1 s^e2 r^j2 = s^(e1+e2) r^(±j1 + j2)
        j = (-j1 if e2 else j1) + j2
        return ((e1 + e2) % 2) * k + j % k

    def inv(self, a: int) -> int:
        e, j = divmod(a, self.k)
        if e:
            return a  # reflections are involutions
        return (-j) % self.k


class DirectProductGroup(FiniteGroup):
    """A x B with componentwise product and id encoding a * |B| + b."""

    def __init__(self, a: FiniteGroup, b: FiniteGroup):
        self.a = a
        self.b = b
        self.order = a.order * b.order
        right = f"({b.name})" if isinstance(b, DirectProductGroup) else b.name
        self.name = f"{a.name}x{right}"

    def encode(self, xa: int, xb: int) -> int:
        return xa * self.b.order + xb

    def decode(self, x: int) -> tuple[int, int]:
        return divmod(x, self.b.order)

    def mul(self, x: int, y: int) -> int:
        xa, xb = self.decode(x)
        ya, yb = self.decode(y)
        return self.encode(self.a.mul(xa, ya), self.b.mul(xb, yb))

    def inv(self, x: int) -> int:
        xa, xb = self.decode(x)
        return self.encode(self.a.inv(xa), self.b.inv(xb))


class GeneratedSubgroup(FiniteGroup):
    """Subgroup realized by its sorted parent ids and the parent's oracle."""

    def __init__(self, parent: FiniteGroup, ids: tuple[int, ...]):
        self.parent = parent
        self.ids = ids
        self._index = {g: i for i, g in enumerate(ids)}
        self.order = len(ids)
        self.identity = self._index[parent.identity]
        self.name = f"subgroup(order {len(ids)}) of {parent.name}"

    def mul(self, a: int, b: int) -> int:
        p = self.parent.mul(self.ids[a], self.ids[b])
        try:
            return self._index[p]
        except KeyError:
            raise InternalConsistencyError(
                f"subgroup of {self.parent.name} not closed under multiplication"
            ) from None

    def inv(self, a: int) -> int:
        return self._index[self.parent.inv(self.ids[a])]


@dataclass(frozen=True)
class SubgroupEmbedding:
    """Injective product-preserving map from subgroup ids into parent ids."""

    subgroup: FiniteGroup
    parent: FiniteGroup
    map: tuple[int, ...]

    @functools.cached_property
    def image(self) -> frozenset[int]:
        return frozenset(self.map)

    @property
    def index(self) -> int:
        return self.parent.order // self.subgroup.order

    def validate(self, seed: int = 0) -> None:
        """Check injectivity, identity and the homomorphism property.

        Exhaustive over all pairs up to AXIOM_EXHAUSTIVE_LIMIT subgroup
        elements, seeded sampling (10 * |K| pairs) above.
        """
        k = self.subgroup
        if len(self.map) != k.order or len(self.image) != k.order:
            raise InternalConsistencyError(f"embedding of {k.name} is not injective")
        if any(not 0 <= g < self.parent.order for g in self.map):
            raise InternalConsistencyError("embedding maps outside the parent group")
        if self.map[k.identity] != self.parent.identity:
            raise InternalConsistencyError("embedding does not preserve the identity")
        if k.order <= AXIOM_EXHAUSTIVE_LIMIT:
            pairs = itertools.product(range(k.order), repeat=2)
        else:
            rng = random.Random(seed)
            pairs = (
                (rng.randrange(k.order), rng.randrange(k.order))
                for _ in range(10 * k.order)
            )
        for a, b in pairs:
            if self.map[k.mul(a, b)] != self.parent.mul(self.map[a], self.map[b]):
                raise InternalConsistencyError(
                    f"embedding of {k.name} into {self.parent.name} is not a "
                    f"homomorphism at ids ({a}, {b})"
                )


@dataclass(frozen=True)
class ConjugacyClasses:
    """Partition of a group into conjugation orbits, ordered by minimal id."""

    classes: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]
    class_of: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.classes)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)


def make_cyclic(k: int) -> CyclicGroup:
    return CyclicGroup(k)


def make_symmetric(n: int) -> SymmetricGroup:
    return SymmetricGroup(n)


def make_dihedral(k: int) -> DihedralGroup:
    return DihedralGroup(k)


def direct_product(a: FiniteGroup, b: FiniteGroup) -> DirectProductGroup:
    return DirectProductGroup(a, b)


def _closure(group: FiniteGroup, generators: tuple[int, ...]) -> tuple[int, ...]:
    """BFS closure under right multiplication by the generators.

    Inverses need no special handling in a finite group (g^-1 is a power of g).
    """
    seen = {group.identity}
    frontier = [group.identity]
    while frontier:
        new = []
        for x in frontier:
            for g in generators:
                p = group.mul(x, g)
                if p not in seen:
                    if len(seen) >= group.order:
                        raise InternalConsistencyError(
                            f"closure in {group.name} exceeded the group order; "
                            "multiplication oracle is broken"
                        )
                    seen.add(p)
                    new.append(p)
        frontier = new
    return tuple(sorted(seen))


def subgroup_from_generators(
    group: FiniteGroup, generators: list[int] | tuple[int, ...]
) -> SubgroupEmbedding:
    """Subgroup generated by the given element ids, as an embedding."""
    gens = tuple(generators)
    for g in gens:
        if not 0 <= g < group.order:
            raise InvalidParameterError(f"generator id {g} out of range for {group.name}")
    ids = _closure(group, gens)
    if group.order % len(ids) != 0:
        raise InternalConsistencyError(
            f"subgroup order {len(ids)} does not divide |{group.name}| = {group.order}"
        )
    sub = GeneratedSubgroup(group, ids)
    emb = SubgroupEmbedding(subgroup=sub, parent=group, map=ids)
    emb.validate()
    return emb


def full_embedding(group: FiniteGroup) -> SubgroupEmbedding:
    """The identity embedding of a group into itself (the pair (G, G))."""
    return SubgroupEmbedding(
        subgroup=group, parent=group, map=tuple(range(group.order))
    )


def conjugacy_classes(group: FiniteGroup) -> ConjugacyClasses:
    """Conjugation orbits, each sorted, ordered by their minimal element id."""
    order = group.order
    inv = [group.inv(g) for g in range(order)]
    class_of = [-1] * order
    classes: list[tuple[int, ...]] = []
    reps: list[int] = []
    for g in range(order):
        if class_of[g] >= 0:
            continue
        orbit = sorted({group.mul(h, group.mul(g, inv[h])) for h in range(order)})
        idx = len(classes)
        for x in orbit:
            if class_of[x] >= 0:
                raise InternalConsistencyError(
                    f"conjugacy orbits of {group.name} are not disjoint"
                )
            class_of[x] = idx
        classes.append(tuple(orbit))
        reps.append(g)
        if order % len(orbit) != 0:
            raise InternalConsistencyError(
                f"conjugacy class size {len(orbit)} does not divide |{group.name}|"
            )
    return ConjugacyClasses(tuple(classes), tuple(reps), tuple(class_of))


def block_product_counts(
    group: FiniteGroup,
    block_of: Sequence[int],
    sizes: Sequence[int],
    targets: Sequence[int],
) -> np.ndarray:
    """a[i][j][k] = #{x in G : block(x) = i, block(x^-1 z_k) = j} for z_k = targets[k].

    The one counting kernel behind both the class algebra and the
    double-coset algebra: it counts the factorizations z_k = x * y with x in
    block i and y in block j, which is the coefficient of B_k in the product
    of block sums B_i B_j whenever the count is the same at every element of
    B_k.  It costs one product per (element, block), r |G| in all.

    targets[k] must lie in block k, and the counting identity
    sum_k a[i][j][k] |B_k| = |B_i| |B_j| is enforced; a violation of either
    raises InternalConsistencyError.
    """
    r = len(sizes)
    placed = [block_of[z] for z in targets]
    if placed != list(range(r)):
        raise InternalConsistencyError(
            f"targets {tuple(targets)} of {group.name} lie in blocks {tuple(placed)}, "
            f"expected 0..{r - 1} in order"
        )
    mul = group.mul
    inverses = [group.inv(x) for x in range(group.order)]
    left = np.asarray(block_of, dtype=np.int64) * r
    a = np.empty((r, r, r), dtype=np.int64)
    for k, z in enumerate(targets):
        right = np.fromiter(
            (block_of[mul(xi, z)] for xi in inverses), dtype=np.int64, count=group.order
        )
        a[:, :, k] = np.bincount(left + right, minlength=r * r).reshape(r, r)
    sizes_arr = np.array(sizes, dtype=np.int64)
    if not np.array_equal(a @ sizes_arr, np.outer(sizes_arr, sizes_arr)):
        raise InternalConsistencyError(
            f"block product counts of {group.name} violate the counting identity "
            "sum_k a[i][j][k] |B_k| = |B_i| |B_j|"
        )
    return a


def is_abelian(group: FiniteGroup) -> bool:
    for a in range(group.order):
        for b in range(a + 1, group.order):
            if group.mul(a, b) != group.mul(b, a):
                return False
    return True


def commutator_subgroup(group: FiniteGroup) -> SubgroupEmbedding:
    """Closure of all commutators a^-1 b^-1 a b."""
    inv = [group.inv(g) for g in range(group.order)]
    commutators = set()
    for a in range(group.order):
        for b in range(group.order):
            c = group.mul(inv[a], group.mul(inv[b], group.mul(a, b)))
            commutators.add(c)
    return subgroup_from_generators(group, sorted(commutators))


def verify_group_axioms(group: FiniteGroup, seed: int = 0) -> None:
    """Check associativity, identity and inverses.

    Exhaustive (vectorized over the Cayley table) up to
    AXIOM_EXHAUSTIVE_LIMIT; above that, 10 * |G| seeded random triples.
    Raises InternalConsistencyError on any violation.
    """
    n = group.order
    e = group.identity
    if n <= AXIOM_EXHAUSTIVE_LIMIT:
        t = group.cayley_table()
        if not ((t[e, :] == np.arange(n)).all() and (t[:, e] == np.arange(n)).all()):
            raise InternalConsistencyError(f"{group.name}: identity is not neutral")
        invs = np.array([group.inv(a) for a in range(n)])
        if not (t[np.arange(n), invs] == e).all():
            raise InternalConsistencyError(f"{group.name}: inverses are broken")
        # (ab)c == a(bc): t[t][a,b,c] = t[t[a,b],c] and t[:,t][a,b,c] = t[a,t[b,c]]
        if not np.array_equal(t[t], t[:, t]):
            raise InternalConsistencyError(f"{group.name}: multiplication is not associative")
        return
    rng = random.Random(seed)
    for _ in range(10 * n):
        a = rng.randrange(n)
        b = rng.randrange(n)
        c = rng.randrange(n)
        if group.mul(group.mul(a, b), c) != group.mul(a, group.mul(b, c)):
            raise InternalConsistencyError(
                f"{group.name}: associativity fails at ({a}, {b}, {c})"
            )
        if group.mul(a, e) != a or group.mul(e, a) != a:
            raise InternalConsistencyError(f"{group.name}: identity fails at {a}")
        if group.mul(a, group.inv(a)) != e:
            raise InternalConsistencyError(f"{group.name}: inverse fails at {a}")
