"""Wreath products G wr S_n with exact id-level encode/decode.

An element is a pair ((g_1, ..., g_n); p): one base-group element per
coordinate plus a top permutation.  The product permutes the right factor's
coordinates before multiplying componentwise:

    ((s); p) * ((e); q) = ((s_1 e_{p^-1(1)}, ..., s_n e_{p^-1(n)}); p q)

Ids pack the base tuple big-endian in radix |G| and append the top
permutation's lexicographic rank: id = code(base) * n! + rank(top).

Batched ids decode by one divmod by n! and one gather from a digit table:
the n base ids of every code < |G|^n, an (n, |G|^n) int16 table (int32 for
|G| >= 2^15) built on first use.  The batched product gathers y's coordinates
into p^-1 order by one flat gather from that table, multiplies all n
coordinates by one call of the base group's ``mul_many`` (a gather from its
Cayley table when |G| <= ``groups.TABLE_ORDER_LIMIT``) and re-encodes.  For
n! within that limit (n <= 6) the tops compose and invert by S_n's table and
p^-1 comes from its rank -> image table, both shared through
``perm_indexer(n)``; past it, by Lehmer codes.  Batches are cut into chunks
of at most ``BATCH_LIMIT`` ids, so their temporaries stay bounded however
many products a caller asks for.  A wreath product keeps no Cayley table of
its own.

A whole row x s or s x (``WreathProduct.mul_all``) is read off the grid of
the ids code * n! + top: with s fixed, the new code and the new top of the
product vary apart, so |B|^n new codes (s x) or an (|B|^n, n) table of
code gains read at p(j) (x s) meet the n! new tops in one broadcast per
block of codes, with no decode or re-encode of the ids.

G wr S_n acts on the n |G| points X = {0..n-1} x G by
(b; p) . (j, x) = (p(j), b_(p(j)) x), and G wr S_(n-1), as
``embed_wreath_subgroup`` embeds it, is the stabilizer of x0 = (n-1, e).  So
``WreathEmbedding`` gives the Hecke route the points G/K as X itself: the
moves of the generators, a closed-form transversal and the points
u_z^-1 y, from base products on X alone, with no id of G or K.  Past the
2^62 ids (wr(S5,8)) the pair is still built for that route
(``embed_wreath_subgroup(..., on_points=True)``, budgeted by
``point_budget``), and its batched id ops are refused.  The permutation
character is the fixed-point count on X, |G| #{j : p(j) = j, b_j = e} at
(b; p), read off the decoded class representatives, so the character route
reads no id of G wr S_(n-1) either.  A ``WreathEmbedding`` is that action
and nothing more: it holds no id of K and walks no left coset.

Conjugacy classes come from types, not from conjugation orbits: the class of
an element is fixed by the base class of each top cycle's product (James &
Kerber, *The Representation Theory of the Symmetric Group*, ch. 4; Macdonald,
*Symmetric Functions and Hall Polynomials*, ch. I app. B).  So the classes
are indexed by the multipartitions of n over the base classes, and their
count is known from the construction.  ``WreathProduct.class_partition``
gives them in closed form, with no id labelled: by the lemma in
``WreathProduct._closed_classes`` the least id of every class has e off the
largest point of each top cycle and a base class representative on it, so
the representatives are the least such id of each type, and the sizes are
|G| / |C(type)|.  Which element of that form is least in each type depends
on n and the base's class count r alone (``_least_of_types``, kept per
process like S_n's tables), and it is found from the least permutation of
each cycle shape, which is read off the set partitions of the n points with
no permutation walked (``_top_shapes``).  A pair check's character table,
cold or warm, reads nothing more: the types index its columns and, read
over the base's irreducibles, its rows, and it is computed in closed form
from the base's table (``chartab.wreath_character_table``) or loaded.  Only
Dixon–Schneider on G itself (``chartab.character_table``, the closed
form's oracle in the tests) counts products
(``chartab.class_coefficients``) and so reads ``block_of``; then
``WreathProduct.class_labels`` keys every element by its type in a walk on
the id grid (the cursors p^-t(i) of a block of tops are found once, and
every id then takes exactly n - 1 steps, one base ``mul_many`` each on all
n points), and ``groups.LazyClassPartition`` checks the keys as any
labelling and requires them to be the closed form's classes and sizes.
The passes over every top (``class_labels``, ``mul_all`` past n = 6) read
the images of S_n's permutations from ``perm_indexer(n).images``, one
table per n in the process.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError, InvalidParameterError, ResourceLimitError
from .groups import (
    _BATCH_ORDER_LIMIT,
    FiniteGroup,
    GroupPartition,
    LazyClassPartition,
    SymmetricGroup,
    _check_class_count,
    conjugacy_classes,
    orbit_labels,
    perm_compose,
    perm_compose_many,
    perm_indexer,
    perm_inverse,
    perm_inverse_many,
    perm_rank_many,
    perm_unrank_many,
)
from .partitions import multipartition_count

DEFAULT_SIZE_BUDGET = 2_000_000
# Batched wreath products and decodes work on at most this many ids at a
# time, which bounds their (n, ...) temporaries at any batch size.
BATCH_LIMIT = 2**14


def _by_chunks(function, *arrays) -> np.ndarray:
    """function over the flat arrays (one shape), BATCH_LIMIT ids at a time,
    its int64 results put back in that shape."""
    shape = arrays[0].shape
    flat = [a.reshape(-1) for a in arrays]
    size = flat[0].size
    if size <= BATCH_LIMIT:
        return function(*flat).reshape(shape)
    out = np.empty(size, dtype=np.int64)
    for start in range(0, size, BATCH_LIMIT):
        part = slice(start, start + BATCH_LIMIT)
        out[part] = function(*(a[part] for a in flat))
    return out.reshape(shape)


def _base_digits(codes: np.ndarray, radix: int, n: int) -> np.ndarray:
    """The n base ids of every code, big-endian in the given radix, with the
    coordinates on axis 0, as int64."""
    digits = np.empty((n,) + codes.shape, dtype=np.int64)
    for i in range(n - 1, -1, -1):
        codes, digits[i] = np.divmod(codes, radix)
    return digits


def _horner(rows: np.ndarray, radix: int) -> np.ndarray:
    """The int64 key of every row of digits below radix, its first digit
    the most significant (Horner)."""
    keys = np.zeros(len(rows), dtype=np.int64)
    for column in rows.T:
        keys *= radix
        keys += column
    return keys


@functools.lru_cache(maxsize=None)
def _top_shapes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(shapes, ranks): every cycle shape of S_n, as the length of each
    cycle at its largest point and 0 at every other point ((count, n) int8,
    one row per shape), and the least rank of a permutation of that shape.
    Both depend on n alone, so they are found once per process and shared
    read-only, as perm_indexer(n) shares S_n's tables.

    No permutation is walked.  A shape is fixed by the cycles as sets, and
    among the permutations with given cycles the least in rank (in the
    lexicographic order of their images) takes every point to the next
    larger point of its cycle and the largest to the least: the choices on
    different cycles are independent, and on a cycle a_1 < ... < a_m the
    image of a_k is at least a_(k+1), as a_1..a_k must not close before
    a_m.  So the least permutation of every shape is one of these, one per
    set partition of the n points: Bell(n) of them (21,147 at n = 9, against
    9! = 362,880 permutations), built a point at a time as restricted
    growth strings (each point joins a block already open or opens one).
    """
    blocks = np.zeros((1, 1), dtype=np.int8)  # blocks[k, i]: the block of point i
    opened = np.ones(1, dtype=np.int64)  # the blocks open in each partition
    for _ in range(1, n):
        choices = opened + 1
        rows = np.repeat(np.arange(len(blocks)), choices)
        block = np.arange(len(rows)) - np.repeat(np.cumsum(choices) - choices, choices)
        blocks = np.column_stack([blocks[rows], block.astype(np.int8)])
        opened = np.maximum(opened[rows], block + 1)
    count = len(blocks)
    rows = np.arange(count)
    # from the last point down: p(i) is the next point of its block, and
    # least[k, b] ends as the least point of block b
    least = np.full((count, n), -1, dtype=np.int8)
    p = np.empty((n, count), dtype=np.int8)
    for i in range(n - 1, -1, -1):
        p[i] = least[rows, blocks[:, i]]
        least[rows, blocks[:, i]] = i
    largest = p < 0
    p[largest] = least[rows, blocks.T][largest]
    sizes = (blocks[:, :, None] == blocks[:, None, :]).sum(axis=2)  # of each point's block
    shapes = np.where(largest.T, sizes, 0).astype(np.int8)
    keys = _horner(shapes, n + 1)  # exact to n = 15
    ranks = perm_rank_many(p)
    order = np.lexsort((ranks, keys))  # by shape, the least rank first
    first = order[np.unique(keys[order], return_index=True)[1]]
    shapes, ranks = shapes[first], ranks[first]
    shapes.setflags(write=False)
    ranks.setflags(write=False)
    return shapes, ranks


@functools.lru_cache(maxsize=None)
def _least_of_types(n: int, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(classes, ranks, types) for B wr S_n over a base of r classes: for
    every type, the least element of T' (WreathProduct._closed_classes) of
    that type, as the base class index on each point ((count, n) int64, 0
    off the largest point of every cycle) and the rank of its top, and the
    type as its cycles' codes (m - 1) r + c + 1 sorted ((n, count), 0 for
    none); in the order of the least ids, read-only.

    The ids of T' compare alike over every base with r classes: an id is
    code n! + rank, and the code has the class representative rep_c at the
    largest point of each cycle and e = rep_0 = 0 elsewhere, so as the
    representatives ascend with c, codes compare as the class vectors do
    lexicographically, that is as the same ids over Z_r.  So these depend on
    n and r alone, are found once per process and shared, as
    perm_indexer(n) shares S_n's tables.

    T' has r (r + 1) ... (r + n - 1) elements, one per top and choice of
    base class on each of its cycles.  Their codes and types depend on the
    top only through its shape (_top_shapes), so only the least top of
    each shape is taken, with its r^k choices for k cycles, at most
    BATCH_LIMIT elements at once (the choices of one shape past that).  The
    type is read off the construction, no base product needed: a cycle of
    length m whose largest point holds the representative of class c has
    that representative as its cycle product, so it is the cycle (m, c).
    """
    shapes, ranks = _top_shapes(n)
    shapes = shapes.astype(np.int64)
    leads = shapes > 0
    cycle = np.cumsum(leads, axis=1) - 1  # the number of each leader's cycle
    counts = r ** leads.sum(axis=1)  # r^k elements per shape with k cycles
    ends = np.cumsum(counts)
    firsts = ends - counts  # the elements of shape j are firsts[j]..ends[j] - 1
    found = []
    start = 0
    while start < len(shapes):  # whole shapes, at most BATCH_LIMIT elements (or one shape)
        stop = max(start + 1, int(np.searchsorted(ends, firsts[start] + BATCH_LIMIT, "right")))
        shape = np.repeat(np.arange(start, stop), counts[start:stop])
        choice = np.arange(firsts[start], ends[stop - 1]) - firsts[shape]
        lead = leads[shape]
        # the class on each cycle: choice in radix r, one digit per cycle
        classes = choice[:, None] // r ** np.maximum(cycle[shape], 0) % r * lead
        codes = np.where(lead, (shapes[shape] - 1) * r + 1 + classes, 0)
        found.append((classes, ranks[shape], np.sort(codes, axis=1)))
        start = stop
    classes, tops, codes = (np.concatenate(part) for part in zip(*found))
    # a type's key: its sorted codes, Horner in radix n r + 1, below
    # (n r + 1)^n; the ids over Z_r, below r^n n! <= |G|
    keys = _horner(codes, n * r + 1)
    ids = classes @ r ** np.arange(n - 1, -1, -1, dtype=np.int64) * math.factorial(n) + tops
    order = np.lexsort((ids, keys))  # by type, then id: the least id of a type first
    keys, ids = keys[order], ids[order]
    least = np.ones(len(keys), dtype=bool)
    least[1:] = keys[1:] != keys[:-1]
    order = order[least][np.argsort(ids[least])]
    types = codes[order].T.copy()
    classes, tops = classes[order], tops[order]
    for array in (classes, tops, types):
        array.setflags(write=False)
    return classes, tops, types


@functools.lru_cache(maxsize=None)
def _type_runs(n: int, r: int) -> np.ndarray:
    """The runs of equal cycles of every type of B wr S_n over a base of r
    classes, as a read-only (4, runs) int64 array of rows (t, m, c, a): type
    t (in _least_of_types order) has a = a_(m,c) cycles of length m whose
    product lies in base class c.  They depend on n and r alone, so they are
    found once per process, for the class sizes
    (WreathProduct._centralizer_orders) and the closed-form character table
    (chartab._closed_form_plan)."""
    rows = _least_of_types(n, r)[2].T  # row t holds the n sorted codes of type t
    new_run = np.ones(rows.shape, dtype=bool)
    new_run[:, 1:] = rows[:, 1:] != rows[:, :-1]
    starts = np.flatnonzero(new_run)
    flat = rows.ravel()
    counts = np.diff(starts, append=flat.size)
    cycles = flat[starts] > 0  # a run of 0s holds no cycle
    m, c = np.divmod(flat[starts[cycles]] - 1, r)
    runs = np.stack([starts[cycles] // n, m + 1, c, counts[cycles]])
    runs.setflags(write=False)
    return runs


def wreath_order(
    base_group: FiniteGroup, n: int, size_budget: int | None = DEFAULT_SIZE_BUDGET
) -> int:
    """|G wr S_n| = |G|^n * n!, or ResourceLimitError if over the size budget,
    which is capped at the 2^62 ids that batched int64 arithmetic holds.
    With size_budget None there is no limit: the caller budgets the points
    (point_budget), and ids past 2^62 are refused by the batched ops.

    Computed from |G| and n alone, so it is safe to call before any work
    proportional to |G|.
    """
    if n < 1:
        raise InvalidParameterError(f"wreath product needs n >= 1, got {n}")
    order = base_group.order**n * math.factorial(n)
    if size_budget is None:
        return order
    limit = min(size_budget, _BATCH_ORDER_LIMIT)
    if order > limit:
        raise ResourceLimitError(
            f"wr({base_group.name},{n}) needs {order} elements, "
            f"over the size budget of {limit}"
        )
    return order


def point_budget(base_group: FiniteGroup, n: int, size_budget: int = DEFAULT_SIZE_BUDGET) -> int:
    """|X| = n |G|, the points of the Hecke route on X, or ResourceLimitError
    when n^2 |G|^2 > 2 * the size budget (capped at 2^62, as in
    wreath_order).  The route's count looks up r |X| <= |X|^2 points; at
    n = 2 the bound is |G wr S_2| <= budget, and at n >= 3 the order bound
    |G wr S_n| <= budget implies it.  Computed from |G| and n alone, before
    any work."""
    points = n * base_group.order
    limit = min(size_budget, _BATCH_ORDER_LIMIT)
    if points * points > 2 * limit:
        raise ResourceLimitError(
            f"wr({base_group.name},{n}) acts on |X| = {points} points: |X|^2 = "
            f"{points * points} is over twice the size budget of {limit}"
        )
    return points


@dataclass(frozen=True)
class WreathElement:
    """Base-group ids per coordinate plus a top permutation (image tuple)."""

    base: tuple[int, ...]
    top: tuple[int, ...]


class WreathProduct(FiniteGroup):
    """G wr S_n as a FiniteGroup over encoded WreathElements.

    The batched arithmetic works on chunks of at most BATCH_LIMIT ids: it
    splits each id into its code and top rank, gathers the base ids from the
    digit table, multiplies the n coordinates by one call of the base
    group's ``mul_many`` and re-encodes.  For n! <= TABLE_ORDER_LIMIT (n <= 6)
    the tops compose by S_n's table and their images come from its rank ->
    image table, both kept on ``perm_indexer(n)``; past it, by Lehmer codes
    (a pass over every top reads that image table at any n).  The scalar
    ops do the same one element at a time.
    """

    def __init__(
        self, base_group: FiniteGroup, n: int, size_budget: int | None = DEFAULT_SIZE_BUDGET
    ):
        self.order = wreath_order(base_group, n, size_budget)
        self.base_group = base_group
        self.n = n
        self.name = f"wr({base_group.name},{n})"
        self._nfact = math.factorial(n)

    @functools.cached_property
    def _idx(self):
        """S_n's ranks, shared through perm_indexer(n), found on first use:
        the character route reads no top of K = B wr S_(n-1), and listing
        S_8 costs ~15 ms."""
        return perm_indexer(self.n)

    @functools.cached_property
    def _top(self) -> SymmetricGroup:
        """S_n, tabled through perm_indexer(n) for n <= 6, on first use."""
        return SymmetricGroup(self.n)

    # no table of its own: each product is already a few gathers in the
    # base's and S_n's tables, while its own table costs (1 + 2 |gens|) |G|^2
    # gathers to build and prove, three times a whole pair check on wr(S3,3)
    cayley_tables = None

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
        for g in element.base:
            if not 0 <= g < self.base_group.order:
                raise InvalidParameterError(
                    f"base id {g} out of range for {self.base_group.name}"
                )
        return self._encode_raw(element.base, element.top)

    def decode(self, x: int) -> WreathElement:
        if not 0 <= x < self.order:
            raise InvalidParameterError(f"element id {x} out of range for {self.name}")
        code, top_rank = divmod(x, self._nfact)
        base = [0] * self.n
        for i in range(self.n - 1, -1, -1):
            code, base[i] = divmod(code, self.base_group.order)
        return WreathElement(tuple(base), self._idx.unrank(top_rank))

    def _encode_raw(self, base: tuple[int, ...], top: tuple[int, ...]) -> int:
        code = 0
        for g in base:
            code = code * self.base_group.order + g
        return code * self._nfact + self._idx.rank(top)

    @functools.cached_property
    def _digits(self) -> np.ndarray:
        """The n base ids of every code c < |B|^n, coordinates on axis 0:
        an (n, |B|^n) read-only table, int16 when |B| < 2^15, else int32
        (int64 past 2^31), filled by divmod in radix |B|, BATCH_LIMIT codes
        at a time.  Every batched op reads it, so a group whose ids pass
        2^62 refuses them all here: ResourceLimitError."""
        if self.order > _BATCH_ORDER_LIMIT:
            raise ResourceLimitError(f"|{self.name}| = {self.order} does not fit batched int64 ids")
        order, n = self.base_group.order, self.n
        count = order**n
        dtype = np.int16 if order < 2**15 else np.int32 if order < 2**31 else np.int64
        digits = np.empty((n, count), dtype=dtype)
        for start in range(0, count, BATCH_LIMIT):
            code = np.arange(start, min(start + BATCH_LIMIT, count), dtype=np.int64)
            digits[:, start : start + BATCH_LIMIT] = _base_digits(code, order, n)
        digits.setflags(write=False)
        return digits

    def _digits_at(self, coordinates: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Base id at coordinate coordinates[i, j] of code codes[j]: one flat
        gather from the digit table."""
        digits = self._digits
        return digits.take(coordinates.astype(np.int64, copy=False) * digits.shape[1] + codes)

    def decode_many(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """Ids -> (base ids with the n coordinates on axis 0, in the digit
        table's dtype; int64 top ranks in S_n), BATCH_LIMIT ids at a time."""
        xs = np.asarray(xs, dtype=np.int64)
        flat = xs.reshape(-1)
        base = np.empty((self.n, flat.size), dtype=self._digits.dtype)
        top = np.empty(flat.size, dtype=np.int64)
        for start in range(0, flat.size, BATCH_LIMIT):
            part = slice(start, start + BATCH_LIMIT)
            code, top[part] = np.divmod(flat[part], self._nfact)
            base[:, part] = self._digits.take(code, axis=1)
        return base.reshape((self.n,) + xs.shape), top.reshape(xs.shape)

    def encode_many(self, base: np.ndarray, top: np.ndarray) -> np.ndarray:
        """Inverse of decode_many."""
        return self._codes(base) * self._nfact + top

    def _codes(self, base: np.ndarray) -> np.ndarray:
        """The code of every base tuple (coordinates on axis 0), int64."""
        code = np.zeros(base.shape[1:], dtype=np.int64)
        for coordinate in base:
            code = code * self.base_group.order + coordinate
        return code

    def mul(self, x: int, y: int) -> int:
        a = self.decode(x)
        b = self.decode(y)
        pinv = perm_inverse(a.top)
        gmul = self.base_group.mul
        base = tuple(gmul(a.base[i], b.base[pinv[i]]) for i in range(self.n))
        return self._encode_raw(base, perm_compose(a.top, b.top))

    def inv(self, x: int) -> int:
        a = self.decode(x)
        ginv = self.base_group.inv
        base = tuple(ginv(a.base[a.top[i]]) for i in range(self.n))
        return self._encode_raw(base, perm_inverse(a.top))

    def arith_mul_many(self, xs, ys) -> np.ndarray:
        return _by_chunks(self._mul_chunk, xs, ys)

    def arith_inv_many(self, xs) -> np.ndarray:
        return _by_chunks(self._inv_chunk, xs)

    def _mul_chunk(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        x_code, x_top = np.divmod(xs, self._nfact)
        y_code, y_top = np.divmod(ys, self._nfact)
        tables = self._top.cayley_tables
        if tables is None:  # n! past the table limit
            p = perm_unrank_many(self.n, x_top)
            back = perm_inverse_many(p)
            top = perm_rank_many(perm_compose_many(p, perm_unrank_many(self.n, y_top)))
        else:
            back = self._idx.images.take(tables.inverses.take(x_top), axis=1)
            top = tables.products.take(x_top * self._nfact + y_top)
        # coordinate i of the product is x_i * y_(p^-1(i))
        products = self.base_group.mul_many(
            self._digits.take(x_code, axis=1), self._digits_at(back, y_code)
        )
        return self.encode_many(products, top)

    def _inv_chunk(self, xs: np.ndarray) -> np.ndarray:
        code, top = np.divmod(xs, self._nfact)
        tables = self._top.cayley_tables
        if tables is None:
            p = perm_unrank_many(self.n, top)
            top = perm_rank_many(perm_inverse_many(p))
        else:
            p = self._idx.images.take(top, axis=1)
            top = tables.inverses.take(top)
        # coordinate i of the inverse is x_(p(i))^-1
        return self.encode_many(self.base_group.inv_many(self._digits_at(p, code)), top)

    def mul_all(self, s: int, *, left: bool = False) -> np.ndarray:
        """x s (or s x, with left) for every id x, on the grid of the ids
        code * n! + top: the new code and the new top of a product with a
        fixed s vary apart, so one broadcast per block of codes joins them.

        For s = (c; q) and x = (b; p):
        - s x = ((c_i b_(q^-1(i))); q p): the new code is a function of the
          code of x alone, found for the |B|^n codes by one base mul_many,
          and the new top is row q of S_n's table;
        - x s = ((b_i c_(p^-1(i))); p q): the new top is column q, and the
          base changes only at coordinate p(j) for each j with c_j != e,
          where the code gains w_(p(j)) (b_(p(j)) c_j - b_(p(j))), w_i =
          |B|^(n-1-i): an (|B|^n, n) table read at p(j) over the tops.  A
          generator has at most one such j.
        Blocks hold at most BATCH_LIMIT ids (one code past that many tops).
        """
        if not 0 <= s < self.order:
            raise InvalidParameterError(f"element id {s} out of range for {self.name}")
        base_group, n, tops = self.base_group, self.n, self._nfact
        code, q = divmod(int(s), tops)
        c = self._digits[:, code].astype(np.int64)
        if left:
            moved = np.zeros(0, dtype=np.int64)
            back = np.array(perm_inverse(self._idx.unrank(q)), dtype=np.int64)
        else:
            moved = np.flatnonzero(c != base_group.identity)
            weights = base_group.order ** np.arange(n - 1, -1, -1, dtype=np.int64)
        new_top, at = self._tops_times(q, left, moved)
        count = self.order // tops  # |B|^n codes
        out = np.empty((count, tops), dtype=np.int64)
        step = max(1, BATCH_LIMIT // tops)
        if left:  # c beside the digits in their shape: no broadcast in mul_many
            cs = np.repeat(c[:, None], min(step, count), axis=1)
        for start in range(0, count, step):
            codes = np.arange(start, min(start + step, count), dtype=np.int64)
            if left:
                digits = self._digits_at(back[:, None], codes)
                new = self._codes(base_group.mul_many(cs[:, : len(codes)], digits))[:, None]
            else:
                new = codes[:, None]
                b = self._digits[:, start : start + step]
                for j, to in zip(moved.tolist(), at):
                    gain = (base_group.mul_many(b, c[j]) - b) * weights[:, None]
                    new = new + gain.T.take(to, axis=1)
            np.add(new * tops, new_top, out=out[start : start + step])
        return out.reshape(-1)

    def _tops_times(self, q: int, left: bool, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(new_top, at): the rank of q p (left) or p q for every top p, as
        int64, and at[k] = p(points[k]) for every top p, in rank order, read
        off perm_indexer(n)'s images of every top; the ranks by S_n's table
        when it has one, else by Lehmer codes, BATCH_LIMIT tops at a time."""
        tables, tops, images = self._top.cayley_tables, self._nfact, self._idx.images
        at = images[points]
        if tables is not None:
            row = tables.products[q * tops : (q + 1) * tops] if left else tables.products[q::tops]
            return row.astype(np.int64), at
        q_image = np.array(self._idx.unrank(q), dtype=np.int8)
        new_top = np.empty(tops, dtype=np.int64)
        for start in range(0, tops, BATCH_LIMIT):
            p = images[:, start : start + BATCH_LIMIT]
            # (q p)(i) = q(p(i)); (p q)(i) = p(q(i))
            new_top[start : start + BATCH_LIMIT] = perm_rank_many(q_image[p] if left else p[q_image])
        return new_top, at

    def _top_images(self, ranks: np.ndarray) -> np.ndarray:
        """The images of the tops of the given ranks, positions first (as
        perm_unrank_many gives them): from S_n's rank -> image table when S_n
        is tabled, else by Lehmer codes."""
        if self._top.cayley_tables is None:
            return perm_unrank_many(self.n, ranks)
        return self._idx.images.take(ranks, axis=1)

    @functools.cached_property
    def generator_elements(self) -> tuple[WreathElement, ...]:
        """The base generators on coordinate 0, then (0 1) and the n-cycle."""
        rest = (self.base_group.identity,) * (self.n - 1)
        points = tuple(range(self.n))
        gens = [WreathElement((g,) + rest, points) for g in self.base_group.generators]
        if self.n > 1:
            unit = (self.base_group.identity,) * self.n
            gens.append(WreathElement(unit, (1, 0) + points[2:]))
            gens.append(WreathElement(unit, points[1:] + (0,)))
        return tuple(gens)

    @functools.cached_property
    def generators(self) -> tuple[int, ...]:
        """The ids of generator_elements."""
        return tuple(self._encode_raw(g.base, g.top) for g in self.generator_elements)

    @functools.cached_property
    def class_count(self) -> int:
        """One class per multipartition of n over the classes of the base."""
        base_count = self.base_group.class_count
        if base_count is None:
            base_count = conjugacy_classes(self.base_group).count
        return multipartition_count(base_count, self.n)

    def class_partition(self) -> LazyClassPartition:
        """The classes in closed form (_closed_classes), with no id labelled:
        LazyClassPartition labels them on the first read of block_of."""
        return LazyClassPartition(self, *self._closed_classes)

    @functools.cached_property
    def _closed_classes(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(representatives, sizes): the least id and the size of every
        type, computed once per group.

        Lemma.  Let T' be the set of (b; p) with b_j = e on every point j of
        p that is not the largest point of its cycle, and b_j a base class
        representative (the least id of its base class) on the largest point
        of each cycle.  Then the least id of every class lies in T'.  Proof:
        conjugating by a base element (h; id) turns entry i into
        h_i b_i h_(p^-1(i))^-1, so along each cycle every entry but one can
        be made e, and leaving the one at the cycle's largest point lowers
        the big-endian code most, as every other point of the cycle comes
        before it; conjugating by a constant h on the cycle then turns that
        entry into any member of its base class, the least of them its
        representative.  So the least code over the class, and then the
        least top among the elements with that code, are met in T'.  This
        needs e to be id 0, the least id, which holds for every base and is
        checked here.

        The least element of T' of every type, as base class indices and a
        top, comes from _least_of_types(n, r); its id here puts the base's
        class representatives in.  The size of a type is |G| / |C(type)|
        (_centralizer_orders).  Exact checks, else InternalConsistencyError:
        the type count equals class_count, the representatives strictly
        ascend and the sizes sum to |G|.
        """
        base_group, n, tops = self.base_group, self.n, self._nfact
        if self.order > _BATCH_ORDER_LIMIT:
            raise ResourceLimitError(f"|{self.name}| = {self.order} does not fit batched int64 ids")
        if base_group.identity != 0:
            raise InternalConsistencyError(
                f"the identity of {base_group.name} is id {base_group.identity}, not 0: "
                f"the least ids of the classes of {self.name} are not read off its types"
            )
        base_classes = conjugacy_classes(base_group)
        r = base_classes.count
        classes, ranks, _ = _least_of_types(n, r)
        weights = base_group.order ** np.arange(n - 1, -1, -1, dtype=np.int64)
        reps = np.array(base_classes.representatives, dtype=np.int64)[classes] @ weights
        reps = reps * tops + ranks
        _check_class_count(self, len(reps))
        if (np.diff(reps) <= 0).any():
            raise InternalConsistencyError(f"two types of {self.name} share a least id")
        centralizers = self._centralizer_orders(base_classes.sizes, r)
        sizes = [self.order // c for c in centralizers]
        if sum(sizes) != self.order or any(c * z != self.order for c, z in zip(centralizers, sizes)):
            raise InternalConsistencyError(
                f"the classes of {self.name} by type have {sum(sizes)} elements, not "
                f"|G| = {self.order}: a centralizer order does not divide |G|, or the "
                "types are not all the classes"
            )
        return tuple(reps.tolist()), tuple(sizes)

    def class_labels(self) -> np.ndarray:
        """Label every id by its type key, by a walk of n - 1 steps per id.

        For x = ((g); p), the cycle of p through point i, of length m, has the
        cycle product g_i g_(p^-1(i)) ... g_(p^-(m-1)(i)), coordinate i of x^m.
        The type of x is the multiset of (m, base class of the cycle product)
        over the cycles of p, and two elements are conjugate iff their types
        agree (James & Kerber, The Representation Theory of the Symmetric
        Group, ch. 4).  Every point carries the code (m - 1) r + class of its
        cycle, so the n codes of an id, sorted, are its type, and the label
        is their Horner key in radix n r.

        The walk runs on the grid of the ids code * n! + top, one block of
        at most BATCH_LIMIT tops at a time: the cursors p^-t(i) of the
        block's tops for t = 1..n-1 are found once, with the point n standing
        for every step past a closed cycle, and the cycle lengths are read
        off them.  Then every id of a block of codes takes exactly n - 1
        steps, one base mul_many each on all n points, multiplying in the
        digit at the cursor; an extra identity row of the digit table answers
        the point n.  The keys are not sorted here: the first read of the
        class partition's block_of numbers them by the representatives'
        keys and checks the classes' sizes.
        """
        base_group, n, tops = self.base_group, self.n, self._nfact
        base_classes = conjugacy_classes(base_group)
        r = base_classes.count
        count = self.order // tops  # |B|^n codes
        identity = np.full((1, count), base_group.identity, dtype=self._digits.dtype)
        digits = np.concatenate([self._digits, identity]).ravel()
        # one integer key per type, Horner in radix n r.  Keys stay below
        # (n r)^n <= n^n |base|^n < e^n |G| (as n^n < e^n n!): 9^9 at most
        # within the character-table limits, ~8.9e12 up to 2^31 elements
        radix = n * r
        key = np.empty((count, tops), dtype=np.int64)
        points = np.arange(n)[:, None]
        for top_start in range(0, tops, BATCH_LIMIT):
            top_stop = min(top_start + BATCH_LIMIT, tops)
            width = top_stop - top_start
            p = self._idx.images[:, top_start:top_stop]
            back = np.full((n + 1, width), n, dtype=np.int64)
            back[:n] = perm_inverse_many(p)
            columns = np.arange(width)
            cursors = np.empty((n - 1, n, width), dtype=np.int8)
            cursor = points
            for t in range(n - 1):  # cursors[t][i] = p^-(t+1)(i), or n once closed
                cursor = back.take(cursor * width + columns)
                cursor[cursor == points] = n
                cursors[t] = cursor
            lengths = 1 + (cursors != n).sum(axis=0)
            step = max(1, BATCH_LIMIT // width)
            for start in range(0, count, step):
                codes = np.arange(start, min(start + step, count), dtype=np.int64)
                shape = (n, len(codes), width)
                running = np.broadcast_to(self._digits[:, start : start + step, None], shape)
                for cursor in cursors:
                    at = (cursor.astype(np.int64) * count)[:, None, :] + codes[:, None]
                    running = base_group.mul_many(running, digits.take(at))
                typed = base_classes.block_of.take(running) + ((lengths - 1) * r)[:, None, :]
                typed.sort(axis=0)
                block = key[start : start + step, top_start:top_stop]
                block[:] = 0
                for row in typed:
                    block *= radix
                    block += row
        return key.ravel()

    def _centralizer_orders(self, base_sizes, r) -> list[int]:
        """|C(type)| = prod (m |C_B(c)|)^a a! over the runs (m, c, a) of
        every type (_type_runs), with |C_B(c)| = |B| / |c|: exact Python
        integers, one factor per run."""
        base_order = self.base_group.order
        centralizers = [1] * len(_least_of_types(self.n, r)[1])
        for t, m, c, a in zip(*_type_runs(self.n, r).tolist()):
            centralizers[t] *= (m * (base_order // base_sizes[c])) ** a * math.factorial(a)
        return centralizers


@dataclass(frozen=True, eq=False)
class WreathEmbedding:
    """K = B wr S_(n-1) in G = B wr S_n as embed_wreath_subgroup embeds it,
    read off the action of G on the n |B| points X = {0..n-1} x B,

        (b; p) . (j, x) = (p(j), b_(p(j)) x),

    a left action in the toolkit's product convention.

    Lemma: X is G/K with gK <-> g x0, x0 = (n-1, e).  The action is
    faithful, since (b; p) fixes every point only if p = id and b_j x = x
    for all j and x, so b = e; so the images of G's generators generate a
    group P ≅ G.  check_double_cosets checks that P is transitive, so
    Stab(x0) has |G| / |X| = |K| elements, and point_moves checks that K's
    generators fix x0, so Stab(x0) holds K: Stab(x0) = K.  The double
    cosets KgK are then the K-orbits on X.

    Points are numbered by the least id on them, as a walk of the left
    cosets numbers G/K.  The least g with g x0 = (j, x) has base x at
    coordinate j and base id 0 elsewhere, and the least top with
    p(n-1) = j, tau_j = (0, .., j-1, j+1, .., n-1, j): its id is
    x |B|^(n-1-j) n! + rank(tau_j), where rank(tau_j) < n! falls as j
    rises.  So the points (j, 0) come first, by j descending, then the rest
    by j descending and x ascending.  Inside, a point is j |B| + x.  The
    transversal u_(j,x) = (x at coordinate j; tau_j) has u x0 = (j, x) and
    u^-1 (j', x') = (tau_j^-1(j'), b_(j')^-1 x'), b_j = x and e elsewhere:
    (n-1, x^-1 x') at j' = j, else (j' - [j' > j], x').

    The permutation character is the fixed-point count on X, from the class
    representatives alone.  Nothing here is indexed by the ids of G, and no
    id of K is held: the members are those that ``hecke`` and ``chartab``
    read, as they read a ``groups.SubgroupEmbedding``'s.
    """

    subgroup: WreathProduct
    parent: WreathProduct

    @property
    def index(self) -> int:
        return self.parent.order // self.subgroup.order

    def permutation_character(self, classes: GroupPartition) -> tuple[int, ...]:
        """pi(C_j) = #{points of X fixed by the class representative (b; p)}
        = |B| #{j : p(j) = j, b_j = e}, since (b; p) fixes (j, x) iff
        p(j) = j and b_j x = x.  The r representatives are decoded by divmod,
        with no digit table: no product, no other id of G and no id of K.

        The action on X is transitive, so Burnside's count
        sum_j |C_j| pi(C_j) = |G| must hold in exact integers; a wrong class
        size or a misdecoded representative breaks it:
        InternalConsistencyError.
        """
        group = self.parent
        code, top = np.divmod(np.array(classes.representatives, dtype=np.int64), group._nfact)
        base = _base_digits(code, group.base_group.order, group.n)
        p = group._top_images(top)
        fixed = (p == np.arange(group.n)[:, None]) & (base == group.base_group.identity)
        pi = (group.base_group.order * fixed.sum(axis=0)).tolist()
        total = sum(size * value for size, value in zip(classes.sizes, pi))
        if total != group.order:
            raise InternalConsistencyError(
                f"Burnside's count sum |C_j| pi(C_j) = {total} != |{group.name}| = "
                f"{group.order}: the classes are not those of a transitive action on X"
            )
        return tuple(pi)

    @functools.cached_property
    def _numbers(self) -> np.ndarray:
        """The number of every point j |B| + x, by the least id on it."""
        n, order = self.parent.n, self.parent.base_group.order
        j, x = np.divmod(np.arange(n * order, dtype=np.int64), order)
        down = n - 1 - j
        numbers = np.where(x == 0, down, n + down * (order - 1) + x - 1)
        numbers.setflags(write=False)
        return numbers

    @functools.cached_property
    def _points(self) -> np.ndarray:
        """The point j |B| + x of every number: the inverse of _numbers."""
        points = np.empty_like(self._numbers)
        points[self._numbers] = np.arange(len(points))
        points.setflags(write=False)
        return points

    def _act(self, to: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The number of the point (to, b x), for arrays of coordinates and
        base ids: (b'; p) takes (j, x) there with to = p(j), b = b'_(p(j))."""
        base_group = self.parent.base_group
        return self._numbers[to * base_group.order + base_group.mul_many(b, x)]

    def _moves(self, elements) -> np.ndarray:
        """(len(elements), |X|) int64: the number of g . z for every element
        g of G and every point z, indexed by the number of z."""
        j, x = np.divmod(self._points, self.parent.base_group.order)
        moves = np.empty((len(elements), len(j)), dtype=np.int64)
        for row, g in zip(moves, elements):
            to = np.array(g.top, dtype=np.int64)[j]
            row[:] = self._act(to, np.array(g.base, dtype=np.int64)[to], x)
        return moves

    @property
    def base_point(self) -> int:
        """The number of x0 = (n-1, e)."""
        group = self.parent
        return int(self._numbers[(group.n - 1) * group.base_group.order + group.base_group.identity])

    def point_moves(self) -> np.ndarray:
        """The moves of K's generators on X, each widened by e at coordinate
        n - 1 and a top that fixes n - 1; each must fix x0, else
        InternalConsistencyError."""
        identity, last = self.parent.base_group.identity, self.subgroup.n
        gens = [
            WreathElement(g.base + (identity,), g.top + (last,))
            for g in self.subgroup.generator_elements
        ]
        moves = self._moves(gens)
        x0 = self.base_point
        moved = np.flatnonzero(moves[:, x0] != x0)
        if len(moved):
            raise InternalConsistencyError(f"generator {gens[moved[0]]} of K moves the point x0")
        return moves

    @property
    def transversal_points(self) -> np.ndarray:
        """The number of every point z = j |B| + x, in that order: the
        transversal takes u_z point by point, and u_z x0 = z."""
        return self._numbers

    def back_points(self, targets: np.ndarray) -> np.ndarray:
        """(len(targets), |X|) int64: the number of u_z^-1 y for every target
        y and every point z, by the closed form in the class docstring: n
        lookups per target off the column of y, and |B| base products on it."""
        group = self.parent
        n, order = group.n, group.base_group.order
        j, x = np.divmod(self._points[targets], order)
        j = j[:, None]
        x = x[:, None]
        off = self._numbers[(j - (j > np.arange(n))) * order + x]  # (targets, n)
        back = np.repeat(off, order, axis=1)
        inverses = group.base_group.inv_many(np.arange(order, dtype=np.int64))
        on = self._numbers[(n - 1) * order + group.base_group.mul_many(inverses, x)]
        back.reshape(len(targets), n, order)[np.arange(len(targets)), j[:, 0]] = on
        return back

    def check_double_cosets(self, blocks: GroupPartition) -> None:
        """Check the lemma's premises that point_moves leaves, else
        InternalConsistencyError: every generator (b; p) of G takes the
        points of coordinate j to coordinate p(j), G's generators act
        transitively on X, and u_z x0 = (tau_j(n-1), x e) = (j, x e) is z at
        every point z = (j, x).  The K-orbits are then the double cosets,
        whatever the blocks."""
        group = self.parent
        gens = group.generator_elements
        moves = self._moves(gens)
        j = self._points // group.base_group.order
        tops = np.array([g.top for g in gens], dtype=np.int64)[:, j]
        off = np.argwhere(self._points[moves] // group.base_group.order != tops)
        if len(off):
            g, z = off[0]
            raise InternalConsistencyError(
                f"the action on X is not equivariant: generator {gens[g]} takes point "
                f"{z} of coordinate {j[z]} to point {moves[g, z]}, off coordinate {tops[g, z]}"
            )
        if orbit_labels(moves).any():
            raise InternalConsistencyError(
                f"the generators of {group.name} are not transitive on its {self.index} points"
            )
        j, x = np.divmod(self._points, group.base_group.order)
        moved = self._act(j, x, group.base_group.identity)
        wrong = np.flatnonzero(moved != np.arange(len(moved)))
        if len(wrong):
            raise InternalConsistencyError(
                f"the transversal element of point {wrong[0]} takes x0 to point {moved[wrong[0]]}"
            )


def embed_wreath_subgroup(
    base_group: FiniteGroup,
    n: int,
    size_budget: int = DEFAULT_SIZE_BUDGET,
    *,
    on_points: bool = False,
) -> WreathEmbedding:
    """Embed G wr S_{n-1} into G wr S_n.

    The last coordinate carries the identity and the top permutation fixes
    the last point; any conjugate embedding gives the same verdicts.  No id
    of either group is touched here or later: K is the stabilizer of x0 on
    X (WreathEmbedding).  The size budget bounds |G wr S_n|
    (wreath_order), or with on_points, for a pair read only on X by the
    Hecke route, the points (point_budget): then the orders are not
    bounded, and ids past 2^62 are refused by the batched ops.
    """
    if n < 2:
        raise InvalidParameterError(
            f"the pair (G wr S_n, G wr S_(n-1)) needs n >= 2, got {n}"
        )
    if on_points:
        point_budget(base_group, n, size_budget)
        size_budget = None
    parent = WreathProduct(base_group, n, size_budget)
    return WreathEmbedding(WreathProduct(base_group, n - 1, size_budget), parent)
