"""Complex character tables via the class-algebra eigenvector method.

The class sums K_i span the center of the group algebra; their
multiplication coefficients K_i K_j = sum_k a[i][j][k] K_k are exact integer
counts.  The central characters are the common right eigenvectors of the
class matrices (A_i)[j][k] = a[i][j][k], so a random combination of the A_i
over any set S of classes whose spectrum is simple already gives all of them,
and degrees and character values follow (J. D. Dixon, "High speed
computation of group characters", Numer. Math. 10, 1967; G. J. A. Schneider,
"Dixon's character table algorithm revisited", J. Symbolic Comput. 9, 1990).
Row A_i costs |C_i| products per target class, so S is taken from the
smallest classes: first the fewest that hold r members, r the class count,
since one attempt (a kernel call and an r x r eigensolve) costs about as
much as counting r members, and then steps that at least double them until
the spectrum splits.  The combination is summed straight from the kernel's
sparse table of the rows counted, never from dense (rows, r, r) stacks.
Dixon's method asks only that the coefficients t_i of the combination be
generic, so they are Gaussians from the standard library's
random.Random(seed): numpy.random would cost every process that computes a
table ~5 MiB and ~17 ms to import.
Scaled by the class sizes, D^-1/2 A_i D^1/2 with D = diag(|C_k|), the
class matrices of a class and of its inverse class are each other's
transposes, so the combination is made Hermitian and solved by the
symmetric eigensolver.  Its orthonormal eigenvectors u give every degree as
d = sqrt(|G|) |u[0]| and every value as
chi(z_k) = d u[k] / (u[0] sqrt(|C_k|)).  The eigensolve is floating point,
but every table is validated against the orthogonality relations and every
verdict downstream with integer identities, so rounding error cannot flip
an answer silently: anything that fails to round cleanly aborts instead of
guessing.
"""

from __future__ import annotations

import base64
import binascii
import math
import os
import random
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (
    InternalConsistencyError,
    InvalidParameterError,
    NumericalQualityError,
    ResourceLimitError,
)
from .groups import (
    FiniteGroup,
    GroupPartition,
    SubgroupEmbedding,
    block_product_counts,
    conjugacy_classes,
)
from .wreath import WreathEmbedding

CLASS_LIMIT = 80
ORDER_LIMIT = 2_000_000
_ORTHOGONALITY_TOL = 1e-8
_INTEGRALITY_TOL = 1e-6
_MAX_ATTEMPTS = 12

_CACHE_MAGIC = "gelfand-character-table"
_CACHE_VERSION = 2


@dataclass(frozen=True, eq=False)
class CharacterTable:
    """One row per irreducible character, one column per conjugacy class.

    Row 0 is the trivial character; remaining rows are sorted by ascending
    degree, ties broken by the lexicographic order of their rounded values.
    """

    group_name: str
    group_order: int
    classes: GroupPartition
    degrees: tuple[int, ...]
    values: np.ndarray  # shape (r, r), complex128

    def __post_init__(self):
        self.values.setflags(write=False)

    @property
    def num_classes(self) -> int:
        return self.classes.count


def class_coefficients(
    group: FiniteGroup, classes: GroupPartition, rows
) -> tuple[np.ndarray, np.ndarray]:
    """The rows A_i of the class matrices, (A_i)[j][k] = a[i][j][k] =
    #{(x,y) in C_i x C_j : x*y = z_k} for the class reps z_k, for the classes
    i in rows, as the kernel's sparse table (keys, counts): the nonzero
    entries only, keys (i*r + j)*r + k ascending.

    The shared block kernel over the members of those classes, sum |C_i|
    products per target; the kernel also enforces the counting identity
    sum_k a[i][j][k] |C_k| = |C_i| |C_j| on every row.  Every key's row is
    in rows, so groups.stack_block_counts(table, r, rows) gives the dense
    (len(rows), r, r) rows, and rows = range(r) the whole table.
    """
    asked = np.zeros(classes.count, dtype=bool)
    asked[np.asarray(rows, dtype=np.int64)] = True
    elements = np.flatnonzero(asked[classes.block_of])
    return block_product_counts(
        group, classes.block_of.take, classes.sizes, classes.representatives, elements
    )


def class_combination(table: tuple[np.ndarray, np.ndarray], r: int, rows, t) -> np.ndarray:
    """sum_n t[n] A_(rows[n]) as a dense (r, r) array, from the sparse table
    (keys, counts) of class_coefficients for those rows: one bincount over
    its nonzero entries, the real and imaginary parts of complex t side by
    side.  O(nnz) work and memory; no (len(rows), r, r) array is built."""
    keys, counts = table
    t = np.asarray(t)
    weight = np.zeros(r, dtype=t.dtype)
    weight[np.asarray(rows, dtype=np.int64)] = t
    i, jk = np.divmod(keys, r * r)
    terms = weight[i] * counts
    if not np.iscomplexobj(terms):
        return np.bincount(jk, terms, minlength=r * r).reshape(r, r)
    # (re, im) of entry jk at 2 jk and 2 jk + 1: complex128's own layout
    parts = np.add.outer(2 * jk, np.arange(2)).ravel()
    total = np.bincount(parts, terms.view(np.float64), minlength=2 * r * r)
    return total.view(np.complex128).reshape(r, r)


def validate_character_table(table: CharacterTable) -> None:
    """Enforce every table invariant; raises InternalConsistencyError."""
    r = table.classes.count
    v = table.values
    sizes = np.array(table.classes.sizes, dtype=np.float64)
    order = table.group_order
    if v.shape != (r, r) or len(table.degrees) != r:
        raise InternalConsistencyError(
            f"character table of {table.group_name} is not {r}x{r}"
        )
    # every tolerance check below is False on NaN, so non-finite values go first
    if not np.isfinite(v).all():
        raise InternalConsistencyError(
            f"character table of {table.group_name} has non-finite values"
        )
    if sum(d * d for d in table.degrees) != order:
        raise InternalConsistencyError(
            f"sum of squared degrees {table.degrees} != |{table.group_name}| = {order}"
        )
    if any(d < 1 for d in table.degrees):
        raise InternalConsistencyError("character degrees must be positive")
    if np.max(np.abs(v[:, 0] - np.array(table.degrees))) > _ORTHOGONALITY_TOL:
        raise InternalConsistencyError("character values at the identity != degrees")
    if np.max(np.abs(v[0] - 1.0)) > _ORTHOGONALITY_TOL:
        raise InternalConsistencyError("row 0 is not the trivial character")
    if list(table.degrees) != sorted(table.degrees):
        raise InternalConsistencyError("degrees are not sorted ascending")
    gram = (v * sizes) @ v.conj().T / order
    if np.max(np.abs(gram - np.eye(r))) > _ORTHOGONALITY_TOL:
        raise InternalConsistencyError(
            f"row orthogonality fails for {table.group_name} "
            f"(max deviation {np.max(np.abs(gram - np.eye(r))):.3e})"
        )
    col = v.conj().T @ v
    expected = np.diag(order / sizes)
    if np.max(np.abs(col - expected)) > _ORTHOGONALITY_TOL * order:
        raise InternalConsistencyError(
            f"column orthogonality fails for {table.group_name}"
        )


def _extract_rows(h, sizes, order):
    """Eigenvectors of one Hermitian class-matrix combination -> (degrees, rows).

    h is a combination of the size-scaled class matrices D^-1/2 A_i D^1/2,
    D = diag(|C_k|), so its orthonormal eigenvectors u are the central
    characters scaled by D^-1/2: u[k] = phase sqrt(|C_k|) chi(z_k) / sqrt(|G|).
    Hence d = sqrt(|G|) |u[0]| and chi(z_k) = d u[k] / (u[0] sqrt(|C_k|)),
    for every eigenvector at once.  One eigh call gives both; its
    eigenvalues are screened for a collision first.
    """
    r = len(h)
    evals, u = np.linalg.eigh(h)  # ascending eigenvalues, eigenvectors in columns
    if r > 1 and np.diff(evals).min() < 1e-6 * (1.0 + np.abs(evals).max()):
        raise NumericalQualityError("eigenvalues of the random combination collide")
    u = u.T  # one eigenvector per row
    identity = u[:, 0]
    if np.abs(identity).min() < 1e-12:
        raise NumericalQualityError("central character vanishes on the identity class")
    d_float = math.sqrt(order) * np.abs(identity)
    degrees = np.rint(d_float).astype(np.int64)
    off = (degrees < 1) | (np.abs(d_float - degrees) > _INTEGRALITY_TOL * np.maximum(1, degrees))
    if off.any():
        raise NumericalQualityError(
            f"character degree {d_float[off][0]} does not round to an integer"
        )
    return degrees, u * (degrees / identity)[:, None] / np.sqrt(sizes)


def check_limits(group: FiniteGroup, class_count: int | None = None) -> None:
    """Raise ResourceLimitError if group is past the character-table limits.

    The order is tested first, from group.order alone, then the class count:
    class_count when given, else the count group.class_count states from the
    construction, when known.  Neither needs any work proportional to |G|.
    """
    if group.order > ORDER_LIMIT:
        raise ResourceLimitError(
            f"|{group.name}| = {group.order} exceeds the character-table order "
            f"limit {ORDER_LIMIT}"
        )
    if class_count is None:
        class_count = group.class_count
    if class_count is not None and class_count > CLASS_LIMIT:
        raise ResourceLimitError(
            f"{group.name} has {class_count} conjugacy classes, over the limit "
            f"{CLASS_LIMIT}"
        )


def _table_of(group: FiniteGroup, classes: GroupPartition, h) -> CharacterTable:
    """The validated table from the eigenvectors of h, a Hermitian combination
    of size-scaled class matrices; raises NumericalQualityError or
    InternalConsistencyError."""
    r = classes.count
    degrees, rows = _extract_rows(h, np.array(classes.sizes, dtype=np.float64), group.order)
    trivial = np.max(np.abs(rows - 1.0), axis=1) <= _INTEGRALITY_TOL
    if np.count_nonzero(trivial) != 1:
        raise NumericalQualityError("trivial character not uniquely identified")
    # keys, primary first: the trivial row, degree, then the real and
    # imaginary part of each column rounded to 8 places; lexsort is stable,
    # so exact ties keep eigenvector order
    rounded = np.round(rows, 8)
    parts = np.stack([rounded.real, rounded.imag], axis=-1).reshape(r, 2 * r)
    keys = np.column_stack([~trivial, degrees, parts])
    order = np.lexsort(keys.T[::-1])
    table = CharacterTable(
        group_name=group.name,
        group_order=group.order,
        classes=classes,
        degrees=tuple(degrees[order].tolist()),
        values=rows[order],
    )
    validate_character_table(table)
    return table


def class_steps(sizes) -> tuple[np.ndarray, tuple[int, ...]]:
    """(by_size, ends): the classes by ascending (size, id), and the end of
    each step of character_table's S in that order.  The first step is the
    fewest classes whose members reach r = len(sizes) (or all of them),
    every later one the fewest that at least double the members so far."""
    by_size = np.argsort(sizes, kind="stable")
    members = np.cumsum(np.asarray(sizes, dtype=np.int64)[by_size])
    r = len(sizes)
    ends = []
    goal = r
    while not ends or ends[-1] < r:
        ends.append(min(r, int(np.searchsorted(members, goal)) + 1))
        goal = 2 * members[ends[-1] - 1]
    return by_size, tuple(ends)


def character_table(group: FiniteGroup, *, seed: int = 0) -> CharacterTable:
    """Compute and fully validate the character table of a finite group.

    Groups past ORDER_LIMIT elements or past CLASS_LIMIT classes are refused
    before any class is computed (see check_limits); a group whose class
    count is not known from its construction is refused past CLASS_LIMIT
    before the class algebra is built.

    The classes are taken by ascending (size, id) into a set S: first the
    fewest whose members sum_{i in S} |C_i| reach r, then, step by step,
    the fewest that at least double them, counting only the rows each step
    adds (class_coefficients).  A step costs a kernel call and an r x r
    eigensolve, about as much as counting r members, so a first step
    smaller than r members spends more on failed attempts than it saves in
    products.  Scaled by the class sizes, B_i = D^-1/2 A_i D^1/2 with
    D = diag(|C_k|), the class of inverses i' of class i has B_i' = B_i^T,
    since |C_k| a[i][j][k] = |C_j| a[i'][k][j].  So C = sum_{i in S} t_i B_i
    gives the Hermitian H = C + C^H, with eigenvalue 2 Re sum t_i
    omega_chi(K_i) on the central character of chi, and one symmetric
    eigensolve (_extract_rows) yields every row.  The t_i are Gaussians
    drawn by random.Random(seed).gauss in the order of the rows asked, so
    results are reproducible: real when every class is its own inverse
    class (H is then real symmetric), else complex, a real and an imaginary
    part per row in turn, which keeps a character apart from its complex
    conjugate.  Any generic t serves, and the stdlib stream spares the
    import of numpy.random (~5 MiB).  A negative seed, whose stream is its
    absolute value's, raises InvalidParameterError.  Each step draws t for
    its new rows only and adds their term, summed from the step's sparse
    table (class_combination).
    A collision of the eigenvalues, or any other defect, grows S.  Once S
    holds every class, defective combinations are retried with fresh
    coefficients for every row up to _MAX_ATTEMPTS times, from the steps'
    tables (O(nnz) entries, never r^3); persistent failure raises
    NumericalQualityError with the number of attempts and the last
    diagnostic.
    """
    if seed < 0:  # Random(-s) draws Random(s)'s stream: one seed, one stream
        raise InvalidParameterError(f"seed must be a non-negative integer, got {seed}")
    check_limits(group)
    classes = conjugacy_classes(group)
    r = classes.count
    check_limits(group, r)
    # class 0 must be the singleton class of the identity: row extraction
    # normalizes central characters there and column 0 carries the degrees
    if classes.sizes[0] != 1 or classes.block_of[group.identity] != 0:
        raise InternalConsistencyError(
            f"{group.name}: class 0 is not the identity singleton ({group.identity},)"
        )
    by_size, ends = class_steps(classes.sizes)
    root = np.sqrt(np.array(classes.sizes, dtype=np.float64))
    scale = root / root[:, None]  # B_i[j][k] = a[i][j][k] sqrt(|C_k| / |C_j|)
    inverses = classes.block_of[group.inv_many(classes.representatives)]
    real = np.array_equal(inverses, np.arange(r))
    rng = random.Random(seed)

    def combine(rows, table):
        """sum_i t_i A_i over the rows, with t_i freshly drawn."""
        t = np.array([rng.gauss(0.0, 1.0) for _ in range(len(rows) if real else 2 * len(rows))])
        return class_combination(table, r, rows, t if real else t.view(np.complex128))

    counted = []  # (rows, sparse table) of each step of S
    combination = 0.0  # sum_{i in S} t_i A_i
    attempts = 0
    last = "no attempt made"
    for start, end in zip((0,) + ends, ends):
        rows = by_size[start:end]
        counted.append((rows, class_coefficients(group, classes, rows)))
        combination = combination + combine(*counted[-1])
        # a collision or any other defect grows S; with every class, retry
        for retry in range(_MAX_ATTEMPTS if end == r else 1):
            if retry:
                combination = sum(combine(*step) for step in counted)
            attempts += 1
            c = combination * scale
            try:
                return _table_of(group, classes, c + c.conj().T)
            except (NumericalQualityError, InternalConsistencyError) as exc:
                last = str(exc)
    raise NumericalQualityError(
        f"character table of {group.name} failed after {attempts} attempts, the last "
        f"{_MAX_ATTEMPTS} with all {r} classes: {last}"
    )


def permutation_character(
    embedding: SubgroupEmbedding | WreathEmbedding, classes: GroupPartition
) -> tuple[int, ...]:
    """pi(C_j) = number of left cosets xK fixed by a member of C_j, per class,
    in the form the embedding's type gives:

    - a generic SubgroupEmbedding by Frobenius reciprocity,
      pi(C_j) = [G:K] |K ∩ C_j| / |C_j|, from the class labels of K's image;
    - a wreath embedding (wreath.WreathEmbedding) as the fixed points of the
      class representatives on the n |B| points X = {0..n-1} x B, on which K
      is the stabilizer of x0: no id of K is read.

    Neither form takes a product or reads a coset of G/K.
    """
    return embedding.permutation_character(classes)


def _round_multiplicity(value: complex, what: str) -> int:
    m = round(value.real)
    if m < 0 or abs(value - m) > _INTEGRALITY_TOL:
        raise NumericalQualityError(
            f"{what} = {value} does not round to a non-negative integer"
        )
    return m


def decompose_induced_trivial(
    embedding: SubgroupEmbedding | WreathEmbedding, table: CharacterTable
) -> tuple[int, ...]:
    """Multiplicities <perm char, chi_i>, one per irrep, in table row order.

    m_i = (1/|G|) sum_k |C_k| perm(k) conj(chi_i(k)); each must round to a
    non-negative integer, and they are checked against the exact identities
    sum_i m_i d_i = [G:K] and m_0 = 1.
    """
    group = embedding.parent
    sizes = np.array(table.classes.sizes, dtype=np.float64)
    perm = np.array(permutation_character(embedding, table.classes))
    values = table.values.conj() @ (sizes * perm) / group.order
    ms = tuple(
        _round_multiplicity(complex(v), f"multiplicity of irrep {i}")
        for i, v in enumerate(values)
    )
    weighted = sum(m * d for m, d in zip(ms, table.degrees))
    if weighted != embedding.index:
        raise InternalConsistencyError(
            f"sum m_i * d_i = {weighted} != [G:K] = {embedding.index} for {group.name}"
        )
    if ms[0] != 1:
        raise InternalConsistencyError(
            f"trivial character has multiplicity {ms[0]} != 1 in the induced trivial"
        )
    return ms


# ---------------------------------------------------------------------------
# on-disk cache (plain text, versioned; reload must re-pass all validation).
# The values are one line: base64 of the r x r little-endian complex128
# array, row-major, so a reload reads back the exact floats written.


def save_character_table(table: CharacterTable, path) -> None:
    values = np.ascontiguousarray(table.values, dtype="<c16").tobytes()
    lines = [
        f"{_CACHE_MAGIC} {_CACHE_VERSION}",
        f"group {table.group_name}",
        f"order {table.group_order}",
        f"classes {table.classes.count}",
        "sizes " + " ".join(str(s) for s in table.classes.sizes),
        "reps " + " ".join(str(x) for x in table.classes.representatives),
        "degrees " + " ".join(str(d) for d in table.degrees),
        "values " + base64.b64encode(values).decode("ascii"),
    ]
    tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write or the rename failed
            os.remove(tmp)


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise InternalConsistencyError(f"character-table cache rejected: {message}")


def load_character_table(path, group: FiniteGroup) -> CharacterTable:
    """Load a cached table and re-run every validation invariant.

    Cache entries are never trusted blindly; any mismatch with the group's
    conjugacy classes (taken after check_limits), or any failed invariant,
    raises.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
    _expect(len(lines) >= 8, "truncated file")
    _expect(lines[0] == f"{_CACHE_MAGIC} {_CACHE_VERSION}", f"bad header {lines[0]!r}")
    _expect(lines[1] == f"group {group.name}", "group spec mismatch")
    _expect(lines[2] == f"order {group.order}", "group order mismatch")
    check_limits(group)
    classes = conjugacy_classes(group)
    r = classes.count
    _expect(lines[3] == f"classes {r}", "class count mismatch")
    _expect(
        lines[4] == "sizes " + " ".join(str(s) for s in classes.sizes),
        "class sizes mismatch",
    )
    _expect(
        lines[5] == "reps " + " ".join(str(x) for x in classes.representatives),
        "class representatives mismatch",
    )
    _expect(lines[6].startswith("degrees "), "missing degrees")
    degrees = tuple(int(tok) for tok in lines[6].split()[1:])
    _expect(len(lines) == 8 and lines[7].startswith("values "), "missing value line")
    try:
        raw = base64.b64decode(lines[7][len("values ") :], validate=True)
    except binascii.Error:
        raise InternalConsistencyError(
            "character-table cache rejected: values are not base64"
        ) from None
    _expect(len(raw) == 16 * r * r, f"values hold {len(raw)} bytes, not 16 r^2 = {16 * r * r}")
    values = np.frombuffer(raw, dtype="<c16").astype(np.complex128, copy=False).reshape(r, r)
    table = CharacterTable(
        group_name=group.name,
        group_order=group.order,
        classes=classes,
        degrees=degrees,
        values=values,
    )
    validate_character_table(table)
    return table


def cached_character_table(
    group: FiniteGroup, cache_dir, *, seed: int = 0
) -> CharacterTable:
    """Load from cache_dir when valid, else compute and store.

    cache_dir=None disables caching entirely.  An entry that fails to load
    (unreadable, malformed, or failing validation) is recomputed and
    overwritten, and one line on stderr names its path and the reason;
    stdout is untouched.
    """
    if cache_dir is None:
        return character_table(group, seed=seed)
    try:
        os.makedirs(cache_dir, exist_ok=True)
    except OSError as exc:
        raise InvalidParameterError(f"cannot create cache directory {cache_dir!r}: {exc.strerror}")
    path = os.path.join(cache_dir, f"{group.name}.chartab")
    if os.path.isfile(path):  # anything else there is no entry, and fails the write
        try:
            return load_character_table(path, group)
        except (OSError, ValueError, InternalConsistencyError) as exc:
            print(f"gelfand: recomputing {path}: {exc}", file=sys.stderr)
    table = character_table(group, seed=seed)
    try:
        save_character_table(table, path)
    except OSError as exc:
        raise InvalidParameterError(f"cannot write cache file {path!r}: {exc.strerror}")
    return table
