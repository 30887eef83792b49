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

Batched contract: ``mul_many(xs, ys)`` and ``inv_many(xs)`` take int64 id
arrays (or anything ``np.asarray`` accepts, broadcast against each other) and
return an int64 array of ids of the broadcast shape, elementwise equal to the
scalar ``mul``/``inv`` under the same encodings.  A group of order at most
``TABLE_ORDER_LIMIT`` answers them by one gather from its Cayley table
(``cayley_tables``: int16 ids, built once from its generator rows and proven
a group by Light's associativity test); a larger group, or a wreath product
(whose products already gather from its base's and S_n's tables), by its
arithmetic, ``arith_mul_many``/``arith_inv_many``.  The base class's arithmetic loops
over the scalar oracle; cyclic, dihedral, symmetric, direct-product and
wreath groups override it with array arithmetic.  ``mul_all(s, left=...)``
gives the row x s (or s x) over every id x: ``mul_many`` over all ids by
default, so an overridden ``mul_many`` feeds every check; a wreath product
answers it on its id grid in O(|G|) broadcasts.  The rows of the class
checks, of ``right_products`` (generation, ``is_abelian``,
``subgroup_from_generators``, K's rows in ``SubgroupEmbedding.validate``)
come from ``mul_all``; every other loop over the elements of a group (left
cosets, the block kernel, the embedding's products in G) runs on
``mul_many``.  A ``SubgroupEmbedding`` holds K's ids in G and gives the
Hecke route G/K as points: its left cosets walked over the parent
(``coset_reps``, ``coset_index``), with the moves of K's generators, the
transversal and the points u_c^-1 y read off products in G.  A wreath
embedding (``wreath.WreathEmbedding``) is not one: it gives the same
points from its action on X = {0..n-1} x B, with no id of G or K, and
the routes read either embedding by those members alone.  The permutation
character is read off the conjugacy classes: by Frobenius reciprocity here
(``SubgroupEmbedding.permutation_character``), as fixed points on X by a
wreath embedding.  Conjugacy classes are a
``GroupPartition``: a read-only int64 block label per id, blocks numbered by
minimal id, with the representatives (those minimal ids) and the sizes;
embedding maps are read-only int64 too.

Every group states what its construction fixes: ``generators`` (ids that
generate it) and ``class_count`` (its number of conjugacy classes, or None
when unknown), so limits on the class count apply before any class is
computed.  ``conjugacy_classes`` is the one entry point for classes, and it
keeps the partition that ``group.class_partition()`` gives on the group, so
a group's classes are found and checked once, however many callers ask.  By
default that labels every id by ``group.class_labels()`` (conjugation
orbits) and checks the labelling exactly (``check_class_labels``): the
generators must generate the group, the labels must be invariant under
conjugation by every generator, and their count must equal
``class_count``.  A wreath product knows its classes in closed form: it
gives their representatives and sizes from its types with no id labelled,
as a ``LazyClassPartition``, whose ``block_of`` is labelled by the type
pass, put through the same checks and required to equal the closed form
only when first read, that is when a product is counted.  The generators'
rows x s, proven to reach every id, are kept on the group too, so
``is_abelian`` and the class checks prove a group's generators once.
``orbit_labels`` is the one orbit routine: over ``right_products`` it finds
what generators generate, over conjugation the default class labels, and
over the moves of K's generators on G/K the double cosets.

``block_pair_counts`` is the one keying and counting identity of the class
algebra and the double-coset algebra: one sparse table per call, at one
target per block, each element it is given counted once (class members
for the class algebra, through ``block_product_counts``; the points of G/K
for the intersection numbers of the double cosets, through ``hecke``);
``stack_block_counts`` is the one scatter of that table into dense rows.  ``verify_group_axioms`` proves a group's scalar ``mul`` a group by the
same table build as ``cayley_tables`` and checks ``mul``, ``mul_many``,
``mul_all`` (both sides), ``inv`` and ``inv_many`` against that table at
every pair, at every order up to ``TABLE_ORDER_LIMIT``.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InternalConsistencyError, InvalidParameterError, ResourceLimitError
from .partitions import multipartition_count

# Batched ops hold ids in int64; the sum of two ids must not wrap.
_BATCH_ORDER_LIMIT = 2**62
# Image tuples of S_n are pre-listed up to this many elements (n <= 8).
_PERM_MATERIALIZE_LIMIT = 40320
# Groups up to this order multiply and invert by a gather from their Cayley
# table: int16 ids, at most 8 MiB per table.
TABLE_ORDER_LIMIT = 2048
# A block-kernel batch may hold this many products even past |G|: a small
# group counting all its rows would otherwise pay one call per target.
KERNEL_BATCH_FLOOR = 2**14


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


# Batched permutations are int8 arrays with the positions on axis 0:
# perms[i] holds the image of point i for every permutation at once.  Any
# S_n whose ids fit the batched int64 ids has n <= 20.


def perm_rank_many(perms: np.ndarray) -> np.ndarray:
    """perm_rank of every permutation in a positions-first array."""
    n = len(perms)
    rank = np.zeros(perms.shape[1:], dtype=np.int64)
    smaller = np.empty(perms.shape[1:], dtype=np.int8)
    for i in range(n):
        smaller[...] = 0  # the later images below image i, one int8 row at a time
        for later in perms[i + 1 :]:
            smaller += later < perms[i]
        rank *= n - i
        rank += smaller
    return rank


def perm_unrank_many(n: int, ranks) -> np.ndarray:
    """perm_unrank of every rank, as a positions-first array."""
    rest = np.asarray(ranks, dtype=np.int64)
    perms = np.empty((n,) + rest.shape, dtype=np.int8)
    # Lehmer digits: position i picks among the n - i points still unused
    for i in range(n - 1, -1, -1):
        rest, perms[i] = np.divmod(rest, n - i)
    # turn "k-th unused point" into the point itself, last position first
    for i in range(n - 2, -1, -1):
        later = perms[i + 1 :]
        later += later >= perms[i]
    return perms


def perm_compose_many(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """perm_compose elementwise: result[i] = p[q[i]]."""
    return np.take_along_axis(p, q, axis=0)


def perm_inverse_many(perms: np.ndarray) -> np.ndarray:
    """perm_inverse elementwise: result[perms[i]] = i."""
    inverse = np.empty_like(perms)
    points = np.arange(len(perms)).reshape((-1,) + (1,) * (perms.ndim - 1))
    np.put_along_axis(inverse, perms, points, axis=0)
    return inverse


def as_id_arrays(group: "FiniteGroup", *arrays) -> list[np.ndarray]:
    """The arrays as int64 ids broadcast to one shape (as they are, when
    their shapes already agree).  Scalar ids beside arrays of one shape are
    spread to that shape as read-only stride-0 views, without the per-call
    cost of np.broadcast_arrays, which is kept for the other shapes."""
    if group.order > _BATCH_ORDER_LIMIT:
        raise ResourceLimitError(
            f"|{group.name}| = {group.order} does not fit batched int64 ids"
        )
    arrays = [np.asarray(a, dtype=np.int64) for a in arrays]
    shapes = {a.shape for a in arrays}
    if len(shapes) == 1:
        return arrays
    shapes.discard(())
    if len(shapes) == 1:
        (shape,) = shapes
        return [a if a.ndim else _spread(a, shape) for a in arrays]
    return np.broadcast_arrays(*arrays)


def _spread(scalar: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """A 0-d array as a read-only view of the given shape, every stride 0."""
    view = np.ndarray(shape, dtype=scalar.dtype, buffer=scalar, strides=(0,) * len(shape))
    view.setflags(write=False)
    return view


class _PermIndexer:
    """Rank/unrank permutations of n points, with a cached list when small,
    S_n's tables when n! <= TABLE_ORDER_LIMIT (n <= 6) and the images of
    every permutation once a pass over all of them asks, shared by every
    S_n and every wreath top on n points in the process."""

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

    @functools.cached_property
    def tables(self) -> CayleyTables | None:
        """S_n's Cayley tables, or None past TABLE_ORDER_LIMIT."""
        if self.count > TABLE_ORDER_LIMIT:
            return None
        return cayley_tables(SymmetricGroup(self.n))

    @functools.cached_property
    def images(self) -> np.ndarray:
        """images[:, rank] is the permutation of that rank, positions first
        (int8, read-only): n n! bytes, built on first read by Lehmer codes,
        TABLE_ORDER_LIMIT ranks at a time.  Read it only to pass over every
        permutation, or when S_n is tabled (tables is not None); past that,
        a few permutations unrank by perm_unrank_many."""
        images = np.empty((self.n, self.count), dtype=np.int8)
        for start in range(0, self.count, TABLE_ORDER_LIMIT):
            ranks = np.arange(start, min(start + TABLE_ORDER_LIMIT, self.count), dtype=np.int64)
            images[:, start : start + TABLE_ORDER_LIMIT] = perm_unrank_many(self.n, ranks)
        images.setflags(write=False)
        return images


@functools.lru_cache(maxsize=None)
def perm_indexer(n: int) -> _PermIndexer:
    return _PermIndexer(n)


# ---------------------------------------------------------------------------
# group interface and constructions


class FiniteGroup:
    """Base interface: element ids 0..order-1 plus mul/inv oracles.

    Instances are immutable after construction and safe to share; the one
    thing set later is the checked partition that conjugacy_classes stores.
    """

    name: str
    order: int
    identity: int = 0
    # ids that generate the group; conjugacy_classes, is_abelian and
    # SubgroupEmbedding.validate check that they do
    generators: tuple[int, ...] = ()
    # the number of conjugacy classes, known from the construction (None if not)
    class_count: int | None = None
    # set by conjugacy_classes once its checks pass
    _classes: GroupPartition | None = None
    # the rows x * s of the generators s, set by _generator_products once
    # they are proven to reach every id
    _generator_rows: np.ndarray | None = None

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def inv(self, a: int) -> int:
        raise NotImplementedError

    def mul_many(self, xs, ys) -> np.ndarray:
        """Elementwise products of two broadcast id arrays: one gather from
        the Cayley table when the group has one, else the arithmetic."""
        xs, ys = as_id_arrays(self, xs, ys)
        tables = self.cayley_tables
        if tables is None:
            return self.arith_mul_many(xs, ys)
        at = xs * self.order
        at += ys
        products = tables.products.take(at)
        del at  # at most one int64 array of the batch's size alive at a time
        return products.astype(np.int64)

    def inv_many(self, xs) -> np.ndarray:
        """Elementwise inverses of an id array, tabled like mul_many."""
        (xs,) = as_id_arrays(self, xs)
        tables = self.cayley_tables
        if tables is None:
            return self.arith_inv_many(xs)
        return tables.inverses[xs]

    def mul_all(self, s: int, *, left: bool = False) -> np.ndarray:
        """x s (or s x, with left) for every id x, in id order, as int64: by
        mul_many over all ids, unless the group knows a cheaper way."""
        everything = np.arange(self.order, dtype=np.int64)
        return self.mul_many(s, everything) if left else self.mul_many(everything, s)

    def arith_mul_many(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """mul_many from the group's construction, for int64 ids of one shape
        (scalar fallback)."""
        products = map(self.mul, xs.ravel().tolist(), ys.ravel().tolist())
        return np.fromiter(products, dtype=np.int64, count=xs.size).reshape(xs.shape)

    def arith_inv_many(self, xs: np.ndarray) -> np.ndarray:
        """inv_many from the group's construction (scalar fallback)."""
        inverses = map(self.inv, xs.ravel().tolist())
        return np.fromiter(inverses, dtype=np.int64, count=xs.size).reshape(xs.shape)

    @functools.cached_property
    def cayley_tables(self) -> CayleyTables | None:
        """The group's Cayley tables, built on first use; None past
        TABLE_ORDER_LIMIT."""
        if self.order > TABLE_ORDER_LIMIT:
            return None
        return cayley_tables(self)

    def class_partition(self) -> GroupPartition:
        """The conjugacy classes, numbered by minimal id, as conjugacy_classes
        keeps them: class_labels() checked by check_class_labels, numbered by
        GroupPartition.from_labels, and their count checked against
        class_count.  Groups that know their representatives and sizes in
        closed form override it (a wreath product returns a
        LazyClassPartition, which labels its ids on the first read of
        block_of)."""
        classes = GroupPartition.from_labels(check_class_labels(self, self.class_labels()))
        _check_class_count(self, classes.count)
        return classes

    def class_labels(self) -> np.ndarray:
        """A conjugacy-class label for every id, equal iff the ids are conjugate.

        The orbits of x -> s x s^-1 for the generators s, by orbit_labels
        (2 |G| products per generator); orbit sizes must divide |G|.  Groups
        that know their classes better override it (wreath products label
        every id by its type).  The labels are checked and numbered by
        minimal id by class_partition, or by the first read of a
        LazyClassPartition's block_of.
        """
        conjugates = [self.mul_many(self.mul_all(s, left=True), self.inv(s)) for s in self.generators]
        labels = orbit_labels(np.reshape(conjugates, (-1, self.order)))
        sizes = np.unique(labels, return_counts=True)[1]
        bad = sizes[self.order % sizes != 0]
        if len(bad):
            raise InternalConsistencyError(
                f"conjugacy class size {bad[0]} does not divide |{self.name}|"
            )
        return labels

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
        self.generators = (1,) if k > 1 else ()
        self.class_count = k

    def mul(self, a: int, b: int) -> int:
        return (a + b) % self.k

    def inv(self, a: int) -> int:
        return (-a) % self.k

    def arith_mul_many(self, xs, ys) -> np.ndarray:
        return (xs + ys) % self.k

    def arith_inv_many(self, xs) -> np.ndarray:
        return -xs % self.k


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

    @functools.cached_property
    def generators(self) -> tuple[int, ...]:
        """The transposition (0 1) and the n-cycle i -> i + 1."""
        if self.n == 1:
            return ()
        points = tuple(range(self.n))
        swap = (1, 0) + points[2:]
        return (self.id_of(swap), self.id_of(points[1:] + (0,)))

    @functools.cached_property
    def class_count(self) -> int:
        """One class per cycle type: the partitions of n."""
        return multipartition_count(1, self.n)

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

    def arith_mul_many(self, xs, ys) -> np.ndarray:
        p = perm_unrank_many(self.n, xs)
        q = perm_unrank_many(self.n, ys)
        return perm_rank_many(perm_compose_many(p, q))

    def arith_inv_many(self, xs) -> np.ndarray:
        return perm_rank_many(perm_inverse_many(perm_unrank_many(self.n, xs)))

    @property
    def cayley_tables(self) -> CayleyTables | None:
        """S_n's tables depend on n alone: kept on perm_indexer(n)."""
        return self._idx.tables


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
        self.generators = (1, k)  # r and s
        # {1}, the rotation pairs {r^j, r^-j}, and one (odd k) or two (even
        # k) classes of reflections, plus the central r^(k/2) for even k
        self.class_count = (k + 3) // 2 if k % 2 else k // 2 + 3

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

    # ids lie in 0..2k-1: comparisons and conditional subtractions replace
    # the int64 divmod and remainder, which cost twice as much here
    def arith_mul_many(self, xs, ys) -> np.ndarray:
        k = self.k
        e1 = xs >= k
        e2 = ys >= k
        j1 = xs - k * e1
        j = np.where(e2, -j1, j1) + ys - k * e2  # in -k+1 .. 2k-2
        return k * (e1 ^ e2) + j + k * (j < 0) - k * (j >= k)

    def arith_inv_many(self, xs) -> np.ndarray:
        return np.where((xs == 0) | (xs >= self.k), xs, self.k - xs)


class DirectProductGroup(FiniteGroup):
    """A x B with componentwise product and id encoding a * |B| + b."""

    def __init__(self, a: FiniteGroup, b: FiniteGroup):
        self.a = a
        self.b = b
        self.order = a.order * b.order
        right = f"({b.name})" if isinstance(b, DirectProductGroup) else b.name
        self.name = f"{a.name}x{right}"

    @functools.cached_property
    def generators(self) -> tuple[int, ...]:
        return tuple(self.encode(g, self.b.identity) for g in self.a.generators) + tuple(
            self.encode(self.a.identity, g) for g in self.b.generators
        )

    @functools.cached_property
    def class_count(self) -> int | None:
        if self.a.class_count is None or self.b.class_count is None:
            return None
        return self.a.class_count * self.b.class_count

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

    def arith_mul_many(self, xs, ys) -> np.ndarray:
        xa, xb = np.divmod(xs, self.b.order)
        ya, yb = np.divmod(ys, self.b.order)
        return self.a.mul_many(xa, ya) * self.b.order + self.b.mul_many(xb, yb)

    def arith_inv_many(self, xs) -> np.ndarray:
        xa, xb = np.divmod(xs, self.b.order)
        return self.a.inv_many(xa) * self.b.order + self.b.inv_many(xb)


class GeneratedSubgroup(FiniteGroup):
    """Subgroup realized by its sorted parent ids and the parent's oracle.

    generators are parent ids that generate the subgroup.
    """

    def __init__(self, parent: FiniteGroup, ids: tuple[int, ...], generators: tuple[int, ...]):
        self.parent = parent
        self.ids = ids
        self._index = {g: i for i, g in enumerate(ids)}
        self.order = len(ids)
        self.identity = self._index[parent.identity]
        self.name = f"subgroup(order {len(ids)}) of {parent.name}"
        self.generators = tuple(self._index[g] for g in generators)

    def mul(self, a: int, b: int) -> int:
        return self._own(self.parent.mul(self.ids[a], self.ids[b]), "multiplication")

    def inv(self, a: int) -> int:
        return self._own(self.parent.inv(self.ids[a]), "inversion")

    def _own(self, p: int, under: str) -> int:
        """The subgroup id of parent id p; a p outside the subgroup means it
        is not closed: InternalConsistencyError."""
        try:
            return self._index[p]
        except KeyError:
            raise InternalConsistencyError(
                f"subgroup of {self.parent.name} not closed under {under}"
            ) from None


@dataclass(frozen=True, eq=False)
class SubgroupEmbedding:
    """Injective product-preserving map from subgroup ids into parent ids (int64)."""

    subgroup: FiniteGroup
    parent: FiniteGroup
    map: np.ndarray

    def __post_init__(self):
        mapping = np.array(self.map, dtype=np.int64)
        mapping.setflags(write=False)
        object.__setattr__(self, "map", mapping)

    @functools.cached_property
    def image(self) -> np.ndarray:
        """The ids of K in the parent, strictly ascending; a map that sends
        two ids to one is not injective: InternalConsistencyError.  Sorted,
        not np.unique, which imports numpy.ma."""
        image = np.sort(self.map)
        if not (image[1:] > image[:-1]).all():
            raise InternalConsistencyError(f"embedding of {self.subgroup.name} is not injective")
        image.setflags(write=False)
        return image

    @property
    def index(self) -> int:
        return self.parent.order // self.subgroup.order

    @property
    def coset_reps(self) -> np.ndarray:
        """The minimal id of each left coset xK, ascending: coset c is
        coset_reps[c] K."""
        return self._cosets[1]

    def coset_index(self, ids) -> np.ndarray:
        """The number of the left coset of every id."""
        return self._cosets[0][ids]

    @functools.cached_property
    def _cosets(self) -> tuple[np.ndarray, np.ndarray]:
        """(coset_of, reps), walked over the parent: the left coset of every
        parent id and the minimal id of each coset.

        No batch x * K labels more than |K| ids, so [G:K] cosets that cover the
        parent are disjoint and have |K| elements each.
        """
        parent = self.parent
        coset_of = np.full(parent.order, -1, dtype=np.int64)
        # free[x] is 1 until x is labelled; find() skips labelled ids in C
        free = bytearray(b"\x01") * parent.order
        reps = []
        x = free.find(1)
        while x >= 0:
            coset = parent.mul_many(x, self.image)
            coset_of[coset] = len(reps)
            np.frombuffer(free, dtype=np.uint8)[coset] = 0
            reps.append(x)
            x = free.find(1, x + 1)
        if len(reps) * self.subgroup.order != parent.order or (coset_of < 0).any():
            raise InternalConsistencyError("left cosets do not partition the group")
        reps = np.array(reps, dtype=np.int64)
        reps.setflags(write=False)
        return coset_of, reps

    # G/K as points, read by hecke: the left cosets walked above, the
    # transversal u_c = coset_reps[c].  A wreath embedding gives these five
    # members from its action on X, with no id of G or K.

    @property
    def base_point(self) -> int:
        """The point x0 = K of G/K."""
        return int(self.coset_index(self.parent.identity))

    def point_moves(self) -> np.ndarray:
        """(|gens(K)|, [G:K]) int64: the coset of s u_c for every generator s
        of K and every coset c."""
        gens = self.map[list(self.subgroup.generators)]
        return self.coset_index(self.parent.mul_many(gens[:, None], self.coset_reps))

    @property
    def transversal_points(self) -> np.ndarray:
        """The point u_c x0 of every transversal element, in the order
        back_points takes them: c itself when the cosets are honest."""
        return self.coset_index(self.coset_reps)

    def back_points(self, targets: np.ndarray) -> np.ndarray:
        """(len(targets), m) int64: the point u_c^-1 y for every target point
        y and every transversal element u_c, read off the coset of the
        product u_c^-1 u_y."""
        reps = self.coset_reps
        inverses = self.parent.inv_many(reps)
        products = self.parent.mul_many(
            np.tile(inverses, len(targets)), np.repeat(reps[targets], len(reps))
        )
        return self.coset_index(products).reshape(len(targets), len(reps))

    def check_double_cosets(self, blocks: GroupPartition) -> None:
        """Check that the orbits of K's generators on the walked cosets are
        the double cosets, else InternalConsistencyError, from one batch of
        the r |K| <= |G| products K g at the least id g of every block:
        K g ⊆ block(g), and |KgK| * |K ∩ g^-1 K g| = |K|^2, as k g lies in
        gK iff k lies in gKg^-1, so |K ∩ gKg^-1| = |K ∩ g^-1 K g| is the
        number of k g in the coset of g."""
        group, image, ksize = self.parent, self.image, self.subgroup.order
        reps = self.coset_reps[list(blocks.representatives)]
        k_cosets = self.coset_index(group.mul_many(image, reps[:, None]))  # row k: K rep_k
        bad = np.flatnonzero((blocks.block_of[k_cosets] != np.arange(len(reps))[:, None]).any(axis=1))
        if len(bad):
            raise InternalConsistencyError(f"K g leaves block(g) at representative {reps[bad[0]]}")
        sizes = np.array(blocks.sizes) * ksize
        at = np.searchsorted(image, group.identity)  # e g = g: column at is g's coset
        stabs = np.count_nonzero(k_cosets == k_cosets[:, at, None], axis=1)
        bad = np.flatnonzero(sizes * stabs != ksize * ksize)
        if len(bad):
            b = bad[0]
            raise InternalConsistencyError(
                f"|KgK|*|K ∩ g^-1Kg| = {sizes[b]}*{stabs[b]} != |K|^2 = {ksize * ksize} "
                f"at representative {reps[b]}"
            )

    def permutation_character(self, classes: GroupPartition) -> tuple[int, ...]:
        """pi(C_j) = [G:K] |K ∩ C_j| / |C_j| by Frobenius reciprocity, per
        class of G, read from the class labels of K's image alone: no
        product, no coset of G/K.  A quotient that is not an integer means
        the labels are not G's classes: InternalConsistencyError."""
        counts = np.bincount(classes.block_of[self.image], minlength=classes.count)
        fixed = self.index * counts
        sizes = np.array(classes.sizes, dtype=np.int64)
        bad = np.flatnonzero(fixed % sizes)
        if len(bad):
            j = bad[0]
            raise InternalConsistencyError(
                f"[G:K] |K ∩ C_{j}| = {fixed[j]} is not divisible by |C_{j}| = {sizes[j]}"
            )
        return tuple((fixed // sizes).tolist())

    def validate(self) -> None:
        """Check injectivity, range, identity and the homomorphism property.

        The homomorphism property is checked exhaustively from K's
        generators: phi(x s) = phi(x) phi(s) for every x in K and every
        generator s, with the generators checked to generate K.  Every y in
        K is a word s_1 ... s_l in them, so induction on l (and phi(e) = e)
        gives phi(x y) = phi(x) phi(y) for all x, y, given associative
        operations in K and G.  Costs |gens(K)| |K| products in K and as
        many in G, at most |K| in one mul_many call.
        """
        k = self.subgroup
        if len(self.map) != k.order or len(self.image) != k.order:
            raise InternalConsistencyError(f"embedding of {k.name} is not injective")
        if self.image[0] < 0 or self.image[-1] >= self.parent.order:
            raise InternalConsistencyError("embedding maps outside the parent group")
        if self.map[k.identity] != self.parent.identity:
            raise InternalConsistencyError("embedding does not preserve the identity")
        m = self.map
        for s, times_s in zip(k.generators, _generator_products(k)):
            bad = np.flatnonzero(m[times_s] != self.parent.mul_many(m, m[s]))
            if len(bad):
                raise InternalConsistencyError(
                    f"embedding of {k.name} into {self.parent.name} is not a "
                    f"homomorphism at (x, s) = ({bad[0]}, {s}), s a generator"
                )


@dataclass(frozen=True, eq=False)
class GroupPartition:
    """Block label of every id, blocks numbered by minimal id; no member lists."""

    block_of: np.ndarray  # int64, read-only when built by from_labels
    representatives: tuple[int, ...]  # the minimal id of each block, ascending
    sizes: tuple[int, ...]

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupPartition):
            return NotImplemented
        same = (self.representatives, self.sizes) == (other.representatives, other.sizes)
        return same and np.array_equal(self.block_of, other.block_of)

    @classmethod
    def from_labels(cls, labels: np.ndarray):
        """The partition whose blocks are the ids sharing a label."""
        _, first, label = np.unique(labels, return_index=True, return_inverse=True)
        block_of = np.argsort(np.argsort(first))[label]  # rank of each label's first id
        block_of.setflags(write=False)
        return cls(block_of, tuple(np.sort(first).tolist()), tuple(np.bincount(block_of).tolist()))

    @property
    def count(self) -> int:
        return len(self.sizes)


class LazyClassPartition(GroupPartition):
    """The conjugacy classes of a group whose representatives (the minimal
    id of each class, ascending) and sizes are known in closed form, with no
    label per id until block_of is first read.

    That read labels every id by group.class_labels(), checks the labels by
    check_class_labels (the generators generate G, and the labels are
    invariant under conjugation by each of them) and requires them to be
    exactly the classes given (_number_class_labels).  The count needs no
    check there: the closed form's count was checked against class_count.
    The checked partition is then kept on the group, as conjugacy_classes
    keeps any, and every later read, from this partition or another,
    returns its block_of; a failed check keeps nothing, so a later read
    fails it again.  The group does not keep this partition, which refers
    to it: a reference cycle would outlive the group's last use.
    """

    def __init__(self, group: FiniteGroup, representatives, sizes):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "representatives", tuple(representatives))
        object.__setattr__(self, "sizes", tuple(sizes))

    def __repr__(self) -> str:
        # the dataclass repr would read block_of, labelling every id
        return f"{type(self).__name__}({self.group.name}, {self.count} classes)"

    @property
    def block_of(self) -> np.ndarray:
        group = self.group
        if group._classes is None:
            labels = check_class_labels(group, group.class_labels())
            block_of = _number_class_labels(group, labels, self.representatives, self.sizes)
            group._classes = GroupPartition(block_of, self.representatives, self.sizes)
        return group._classes.block_of


def _number_class_labels(
    group: FiniteGroup, labels: np.ndarray, representatives: Sequence[int], sizes: Sequence[int]
) -> np.ndarray:
    """The class of every id, read-only int64, from int64 labels that must
    be exactly the classes whose minimal ids and sizes are given, else
    InternalConsistencyError: the first representative is id 0, the labels
    of the representatives are distinct, every id's label is one of them,
    no id lies below the representative of its class, and each class has
    the size given.  Each label is numbered by one searchsorted into the
    representatives' sorted labels, so the |G| labels are never sorted."""
    reps = np.array(representatives, dtype=np.int64)
    r = len(reps)
    if reps[0] != 0:  # the ids below it would be in no class, and unchecked below
        raise InternalConsistencyError(
            f"the least class representative of {group.name} is id {reps[0]}, not 0"
        )
    by_label = np.argsort(labels[reps])
    keys = labels[reps[by_label]]
    distinct = 1 + int(np.count_nonzero(keys[1:] != keys[:-1]))
    if distinct != r:
        raise InternalConsistencyError(
            f"{group.name} has {distinct} class labels, but {r} conjugacy classes"
        )
    at = np.searchsorted(keys, labels)
    np.minimum(at, r - 1, out=at)
    stray = np.flatnonzero(keys.take(at) != labels)
    if len(stray):
        raise InternalConsistencyError(
            f"id {stray[0]} of {group.name} has a class label that no class representative has"
        )
    block_of = by_label.take(at)
    del at
    # ids reps[k] .. reps[k+1] - 1 lie in classes 0..k iff none lies below
    # the representative of its class
    below = np.flatnonzero(np.maximum.reduceat(block_of, reps) > np.arange(r))
    if len(below):
        k = below[0]
        raise InternalConsistencyError(
            f"an id of {group.name} between {reps[k]} and the next class representative "
            "lies in a class whose representative is larger"
        )
    counts = np.bincount(block_of, minlength=r)
    bad = np.flatnonzero(counts != np.array(sizes, dtype=np.int64))
    if len(bad):
        k = bad[0]
        raise InternalConsistencyError(
            f"the class of {reps[k]} in {group.name} has {counts[k]} elements, but "
            f"{sizes[k]} by a centralizer of order {group.order // sizes[k]}"
        )
    block_of.setflags(write=False)
    return block_of


def right_products(group: FiniteGroup, generators: Sequence[int]) -> np.ndarray:
    """table[i][x] = x * generators[i] for every id x: one mul_all per generator."""
    table = np.empty((len(generators), group.order), dtype=np.int64)
    for row, g in zip(table, generators):
        row[:] = group.mul_all(g)
    return table


def orbit_labels(steps: np.ndarray) -> np.ndarray:
    """The least point of its component for every point of 0..N-1, in the
    graph with an edge x -- steps[i][x] for every row of the (s, N) table,
    which need not hold permutations: min-label hooking (np.minimum.at) and
    pointer jumping, until no edge joins two labels.  A step outside 0..N-1
    means a broken multiplication oracle: InternalConsistencyError.
    """
    steps = np.asarray(steps, dtype=np.int64)
    n = steps.shape[1]
    if steps.size and (steps.min() < 0 or steps.max() >= n):
        raise InternalConsistencyError(
            f"steps leave the points 0..{n - 1}; multiplication oracle is broken"
        )
    label = np.arange(n, dtype=np.int64)
    while True:
        roots = label.copy()
        for row in steps:
            ends = roots[row]
            np.minimum.at(label, np.maximum(roots, ends), np.minimum(roots, ends))
        if np.array_equal(label, roots):
            return label
        jumped = label[label]
        while not np.array_equal(jumped, label):
            label, jumped = jumped, jumped[jumped]


def subgroup_from_generators(
    group: FiniteGroup, generators: list[int] | tuple[int, ...]
) -> SubgroupEmbedding:
    """Subgroup generated by the given element ids, as an embedding."""
    gens = tuple(generators)
    for g in gens:
        if not 0 <= g < group.order:
            raise InvalidParameterError(f"generator id {g} out of range for {group.name}")
    labels = orbit_labels(right_products(group, gens))
    ids = tuple(np.flatnonzero(labels == labels[group.identity]).tolist())
    if group.order % len(ids) != 0:
        raise InternalConsistencyError(
            f"subgroup order {len(ids)} does not divide |{group.name}| = {group.order}"
        )
    sub = GeneratedSubgroup(group, ids, gens)
    emb = SubgroupEmbedding(subgroup=sub, parent=group, map=ids)
    emb.validate()
    return emb


def full_embedding(group: FiniteGroup) -> SubgroupEmbedding:
    """The identity embedding of a group into itself (the pair (G, G))."""
    return SubgroupEmbedding(subgroup=group, parent=group, map=np.arange(group.order))


def _generator_products(group: FiniteGroup) -> np.ndarray:
    """right_products of the generators, checked to generate all of G: the
    rows right[i][x] = x * generators[i] must reach every id from the
    identity.  The checked rows are kept on the group (read-only), so its
    generators are proven once however many checks read them (is_abelian,
    check_class_labels, SubgroupEmbedding.validate); a failed check keeps
    nothing."""
    if group._generator_rows is None:
        right = right_products(group, group.generators)
        labels = orbit_labels(right)
        reached = int(np.count_nonzero(labels == labels[group.identity]))
        if reached != group.order:
            raise InternalConsistencyError(
                f"generators {group.generators} of {group.name} generate {reached} "
                f"of its {group.order} elements"
            )
        right.setflags(write=False)
        group._generator_rows = right
    return group._generator_rows


class CayleyTables(NamedTuple):
    """A group's product and inverse as gathers, read-only:
    products[x * m + y] = x y as int16, inverses[x] = x^-1 as int64."""

    products: np.ndarray
    inverses: np.ndarray


def cayley_tables(group: FiniteGroup) -> CayleyTables:
    """The Cayley tables of a group of order m <= TABLE_ORDER_LIMIT.

    The generator rows come from the group's arithmetic.  build_cayley_tables
    fills the table from them and proves it a group, its walk proving that
    the generators generate G.
    """
    rows = _generator_rows(group, group.arith_mul_many)
    return build_cayley_tables(group.name, group.identity, group.generators, *rows)


def _generator_rows(group: FiniteGroup, mul_many) -> tuple[np.ndarray, np.ndarray]:
    """The rows x s and s y over every id, for every generator s, by
    mul_many: 2 |gens| m products."""
    ids = np.arange(group.order, dtype=np.int64)
    gens = np.array(group.generators, dtype=np.int64).reshape(-1, 1)
    return mul_many(*np.broadcast_arrays(ids, gens)), mul_many(*np.broadcast_arrays(gens, ids))


def build_cayley_tables(
    name: str, identity: int, generators: Sequence[int], right: np.ndarray, left: np.ndarray
) -> CayleyTables:
    """Fill the table T of a group of order m < 2^15 from the rows
    right[i][x] = x s_i and left[i][y] = s_i y of its generators s_i, and
    prove T a group.

    Row e is the ids.  Over a breadth-first walk of right products, row x s
    is row x gathered at s y, as (x s) y = x (s y): m^2 gathers and no
    product.  Then, else InternalConsistencyError:
    - the walk reaches every id, and column s of T is x s for every
      generator s;
    - column e is the ids;
    - Light's associativity test (A. H. Clifford, G. B. Preston, *The
      Algebraic Theory of Semigroups* I, 1961, §1.2): T[x s][y] = T[x][s y]
      for all x, y and every generator s.  The a with (x a) y = x (a y) for
      all x, y are closed under the product and hold the generators, which
      reach every id, so T is associative (two m^2 gathers per generator);
    - e occurs in every row, so every x has a right inverse, and T, with its
      identity and associative, is a group.
    The last two proofs read T in blocks of max(1, 2^14 // m) rows, so
    their temporaries hold at most 2^14 entries (or one row) at a time,
    not m^2.
    """
    m = right.shape[1]
    ids = np.arange(m, dtype=np.int64)
    for rows in (right, left):
        if rows.size and (rows.min() < 0 or rows.max() >= m):
            raise InternalConsistencyError(
                f"generator products of {name} leave its ids 0..{m - 1}"
            )
    table = np.empty((m, m), dtype=np.int16)
    table[identity] = ids
    reached = np.zeros(m, dtype=bool)
    reached[identity] = True
    frontier = ids[identity : identity + 1]
    while len(frontier):
        found = [ids[:0]]
        for times_s, s_times in zip(right, left):
            children = times_s[frontier]
            new = ~reached[children]
            children = children[new]
            reached[children] = True
            table[children] = table[frontier[new]].take(s_times, axis=1, mode="clip")
            found.append(children)
        frontier = np.concatenate(found)
    if not reached.all():
        raise InternalConsistencyError(
            f"generators {tuple(generators)} of {name} generate "
            f"{np.count_nonzero(reached)} of its {m} elements"
        )
    step = max(1, 2**14 // m)  # rows per block of the proofs below
    blocks = [slice(a, a + step) for a in range(0, m, step)]
    for s, times_s, s_times in zip(generators, right, left):
        if not np.array_equal(table[:, s], times_s):
            raise InternalConsistencyError(
                f"column {s} of the Cayley table of {name} is not x * {s}"
            )
        if not all(
            (table[times_s[b]] == table[b].take(s_times, axis=1, mode="clip")).all()
            for b in blocks
        ):
            raise InternalConsistencyError(
                f"the Cayley table of {name} fails Light's associativity test "
                f"at generator {s}: (x s) y != x (s y)"
            )
    if not np.array_equal(table[:, identity], ids):
        raise InternalConsistencyError(
            f"{identity} is not the identity of the Cayley table of {name}"
        )
    inverses = np.concatenate([np.argmax(table[b] == identity, axis=1) for b in blocks])
    missing = np.flatnonzero(table[ids, inverses] != identity)
    if len(missing):
        raise InternalConsistencyError(
            f"row {missing[0]} of the Cayley table of {name} does not hold the identity"
        )
    products = table.ravel()
    products.setflags(write=False)
    inverses.setflags(write=False)
    return CayleyTables(products, inverses)


def conjugacy_classes(group: FiniteGroup) -> GroupPartition:
    """Conjugacy classes as a partition numbered by minimal element id.

    The one entry point for classes: group.class_partition() gives them,
    and the partition is stored on the group and returned by every later
    call, so a group's classes are found and checked once; a group that
    failed a check keeps nothing and fails it again.  Every labelling is
    checked exactly, whatever produced it (check_class_labels), and a
    violation raises InternalConsistencyError:
    - the generators generate the group (the identity's orbit is all of G);
    - the labels are invariant under conjugation by every generator, so
      every label is a union of classes;
    - the label count equals group.class_count, when known, so every label
      is exactly one class.
    A group that knows its classes in closed form (a wreath product) gives
    a LazyClassPartition instead: its representatives and sizes are checked
    by its own construction (and kept by it), and its ids are labelled, put
    through every check above and required to equal the closed form only on
    the first read of block_of, which keeps the labelled partition here.
    """
    if group._classes is not None:
        return group._classes
    classes = group.class_partition()
    if not isinstance(classes, LazyClassPartition):  # that keeps itself once labelled
        group._classes = classes
    return classes


def check_class_labels(group: FiniteGroup, labels) -> np.ndarray:
    """The labels of every id as int64, checked to be unions of conjugacy
    classes, else InternalConsistencyError: the generators generate the
    group (_generator_products), and the labels are invariant under
    conjugation by every generator s: s x s^-1 has the label of x for every
    x iff s y has the label of y s for every y.  Costs one mul_all row s y
    per generator beside the rows x s kept on the group."""
    labels = np.asarray(labels, dtype=np.int64)
    for s, times_s in zip(group.generators, _generator_products(group)):
        bad = np.flatnonzero(labels[group.mul_all(s, left=True)] != labels[times_s])
        if len(bad):
            raise InternalConsistencyError(
                f"class labels of {group.name} are not invariant under "
                f"conjugation by generator {s} (s y and y s differ at y = {bad[0]})"
            )
    return labels


def _check_class_count(group: FiniteGroup, count: int) -> None:
    """count must equal group.class_count, when known: InternalConsistencyError."""
    if group.class_count is not None and count != group.class_count:
        raise InternalConsistencyError(
            f"{group.name} has {count} class labels, but {group.class_count} "
            "conjugacy classes"
        )


def block_product_counts(
    group: FiniteGroup,
    block_of: Callable[[np.ndarray], np.ndarray],
    sizes: Sequence[int],
    targets,
    elements,
) -> tuple[np.ndarray, np.ndarray]:
    """The table a[i][j][k] = #{x in elements : block(x) = i, block(x^-1 z_k) = j}.

    The counting kernel of the class algebra: it counts the factorizations
    z_k = x * y with x in block i and y in block j, which is the coefficient
    of B_k in the product of block sums B_i B_j whenever the count is the
    same at every element of B_k.  The class algebra counts the rows i it
    needs from the members of those classes.

    block_of(ids) is the block of every id of an int64 array, in its shape
    (a class partition's ``block_of.take``).  sizes are the block sizes in
    units of the elements.  targets has shape (r,), one target per block,
    and targets[k] must lie in block k.  Each mul_many call holds at most
    max(|G|, KERNEL_BATCH_FLOOR) products (at least one target).  The keying
    and the checks are block_pair_counts'.
    """
    r = len(sizes)
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (r,):
        raise InvalidParameterError(
            f"targets of {group.name} have shape {targets.shape}; expected one per block, ({r},)"
        )
    elements = np.asarray(elements, dtype=np.int64)
    looked = block_of(np.concatenate([targets, elements]))  # one lookup for both
    m = len(elements)
    inverses = group.inv_many(elements)

    def right_blocks(batch):
        # flat operands: mul_many over an (n, m) broadcast is slower
        products = group.mul_many(np.tile(inverses, len(batch)), np.repeat(batch, m))
        return block_of(products).reshape(len(batch), m)

    step = max(1, max(group.order, KERNEL_BATCH_FLOOR) // m)
    return block_pair_counts(group.name, looked[r:], sizes, targets, looked[:r], right_blocks, step)


def block_pair_counts(
    name: str,
    left: np.ndarray,
    sizes: Sequence[int],
    targets: np.ndarray,
    placed: np.ndarray,
    right_blocks: Callable[[np.ndarray], np.ndarray],
    step: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The table a[i][j][k] = #{x : left[x] = i, right_blocks(z_k)[x] = j},
    the one keying and counting of the class algebra (``block_product_counts``)
    and the double-coset algebra (``hecke``).

    left holds the block i of each of the m counted elements x, placed the
    block of each target z_k, which must be k, and right_blocks(batch) the
    block j of every x for each target of a batch of at most step targets,
    as an (len(batch), m) int64 array: block(x^-1 z) for the class algebra,
    the K-orbit of u_z^-1 y for the double cosets.  Returns one sparse table
    (keys, counts) holding its nonzero entries only: keys (i*r + j)*r + k
    ascending.  Each element adds to one (i, j) per target, so the table
    holds at most r m entries.  A batch's keys are counted at once: densely
    by one bincount over its key range (r^2 per target) when
    r^2 <= m log2 m, and otherwise by one sort of its keys, so rank ~1000
    never costs r^3.  The elements must cover each block in full (their
    number in B_i is sizes[i]) or not at all, and the rows of the blocks
    uncovered are left out.  sum_k a[i][j][k] sizes[k] = sizes[i] sizes[j]
    is enforced for every covered block i; a violation, a block covered in
    part, or a target outside its block raises InternalConsistencyError.
    """
    r = len(sizes)
    if not np.array_equal(placed, np.arange(r)):
        raise InternalConsistencyError(
            f"targets {targets.tolist()} of {name} lie in blocks {placed.tolist()}, "
            f"expected block k at position k"
        )
    m = len(left)
    sizes = np.asarray(sizes, dtype=np.int64)
    covered = np.bincount(left, minlength=r)
    full = covered == sizes
    partial = np.flatnonzero(~full & (covered != 0))
    if len(partial):
        i = partial[0]
        raise InternalConsistencyError(
            f"{covered[i]} elements of {name} lie in block {i} of size "
            f"{sizes[i]}; the counting identity sum_k a[i][j][k] |B_k| = "
            "|B_i| |B_j| holds only on whole blocks"
        )
    left = left * r
    dense = r * r <= m * m.bit_length()  # a dense count costs r^2, a sort m log m
    parts = []
    for start in range(0, r, step):
        keys = right_blocks(targets[start : start + step])
        nb = len(keys)
        keys += left  # i r + j
        k = np.arange(nb)[:, None]  # target - start
        if dense:  # one bincount over (k, i, j)
            keys += k * (r * r)
            counts = np.bincount(keys.ravel())
            keys = np.flatnonzero(counts)
            counts = counts[keys]
            k, ij = np.divmod(keys, r * r)
            keys = ij * r + (k + start)
        else:  # one sort of (i r + j) r + k
            keys *= r
            keys += start + k
            keys, counts = np.unique(keys, return_counts=True)
        parts.append((keys, counts))
    keys, counts = (np.concatenate(part) for part in zip(*parts))
    order = np.argsort(keys)
    keys, counts = keys[order], counts[order]
    ij, k = np.divmod(keys, r)
    totals = np.zeros(r * r, dtype=np.int64)
    np.add.at(totals, ij, counts * sizes[k])
    if not (totals.reshape(r, r)[full] == np.outer(sizes[full], sizes)).all():
        raise InternalConsistencyError(
            f"block product counts of {name} violate the counting identity "
            "sum_k a[i][j][k] |B_k| = |B_i| |B_j|"
        )
    return keys, counts


def stack_block_counts(table: tuple[np.ndarray, np.ndarray], r: int, rows) -> np.ndarray:
    """The rows i in rows of the kernel's sparse table a[i][j][k], as a
    read-only (len(rows), r, r) int64 array in the order of rows: len(rows)
    r^2 entries, r^3 only for rows = range(r).  Every key's row must be
    asked."""
    keys, counts = table
    position = np.zeros(r, dtype=np.int64)
    position[np.asarray(rows, dtype=np.int64)] = np.arange(len(rows))
    i, jk = np.divmod(keys, r * r)
    out = np.zeros(len(rows) * r * r, dtype=np.int64)
    out[position[i] * (r * r) + jk] = counts
    out.setflags(write=False)
    return out.reshape(len(rows), r, r)


def is_abelian(group: FiniteGroup) -> bool:
    """True iff the generators, checked to generate G, commute pairwise."""
    products = _generator_products(group)[:, list(group.generators)]  # [j][i] = g_i g_j
    return bool(np.array_equal(products, products.T))


def verify_group_axioms(group: FiniteGroup) -> None:
    """Prove the scalar mul/inv a group and check the batched ops against it,
    exhaustively at every order up to TABLE_ORDER_LIMIT.

    build_cayley_tables fills a table from the scalar mul's generator rows
    (2 |gens| m calls) and proves it a group by Light's associativity test;
    then mul, mul_many and mul_all (both sides, at every s) must equal the
    table at all m^2 pairs, and inv and inv_many its inverses.  Past
    TABLE_ORDER_LIMIT, ResourceLimitError before any product.  Raises
    InternalConsistencyError on any violation.
    """
    m = group.order
    if m > TABLE_ORDER_LIMIT:
        raise ResourceLimitError(
            f"verify_group_axioms needs a Cayley table of {group.name}, {m} > "
            f"TABLE_ORDER_LIMIT = {TABLE_ORDER_LIMIT} elements"
        )
    # the base class's arithmetic is the loop over the scalar mul
    rows = _generator_rows(group, functools.partial(FiniteGroup.arith_mul_many, group))
    tables = build_cayley_tables(group.name, group.identity, group.generators, *rows)
    ids = np.arange(m, dtype=np.int64)
    pairs = itertools.product(range(m), repeat=2)  # x * m + y
    products = np.fromiter(itertools.starmap(group.mul, pairs), dtype=np.int64, count=m * m)
    candidates = (  # each m^2 array is built only when its turn comes
        ("mul", lambda: products),
        ("mul_many", lambda: group.mul_many(ids[:, None], ids).ravel()),
        # row s of the table is s y, column s is x s
        ("mul_all", lambda: np.array([group.mul_all(s, left=True) for s in range(m)]).ravel()),
        ("mul_all", lambda: np.array([group.mul_all(s) for s in range(m)]).T.ravel()),
    )
    for op, got in candidates:
        bad = np.flatnonzero(got() != tables.products)
        if len(bad):
            x, y = divmod(int(bad[0]), m)
            raise InternalConsistencyError(
                f"{group.name}: {op} disagrees with its Cayley table at ({x}, {y})"
            )
    inverses = np.fromiter(map(group.inv, range(m)), dtype=np.int64, count=m)
    for op, got in (("inv", inverses), ("inv_many", group.inv_many(ids))):
        bad = np.flatnonzero(got != tables.inverses)
        if len(bad):
            raise InternalConsistencyError(
                f"{group.name}: {op} disagrees with its Cayley table at {bad[0]}"
            )
