"""Partitions, multipartitions and branching predictions.

Partitions are tuples of weakly decreasing positive ints; a multipartition is
a tuple of partitions.  Inducing a representation up one level adds a single
box to one component, weighted by that component's irreducible dimension; the
induced trivial representation therefore decomposes into l+1 explicit terms
whose squared multiplicities predict the double-coset rank.  The characters
of S_k come from the Murnaghan–Nakayama rule (symmetric_character); the
closed-form tables of wreath groups are built from them.

Orderings are deterministic everywhere: partitions list in reverse
lexicographic order, prediction terms by component index.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import InvalidParameterError, SpecParseError

Partition = tuple[int, ...]
Multipartition = tuple[Partition, ...]


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n in reverse lexicographic order."""
    if n < 0:
        raise InvalidParameterError(f"cannot partition a negative integer {n}")
    out: list[Partition] = []

    def rec(remaining: int, cap: int, prefix: list[int]) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(remaining, cap), 0, -1):
            prefix.append(part)
            rec(remaining - part, part, prefix)
            prefix.pop()

    rec(n, n, [])
    return out


def extensions(p: Partition) -> set[Partition]:
    """All partitions of |p|+1 obtained by adding one box at an addable corner."""
    out = {
        p[:i] + (p[i] + 1,) + p[i + 1 :]
        for i in range(len(p))
        if i == 0 or p[i - 1] > p[i]
    }
    out.add(p + (1,))
    return out


def multipartitions(components: int, n: int) -> list[Multipartition]:
    """All tuples of `components` partitions with total size n."""
    if components < 1:
        raise InvalidParameterError(f"need at least one component, got {components}")
    if n < 0:
        raise InvalidParameterError(f"total size must be >= 0, got {n}")
    if components == 1:
        return [(p,) for p in partitions_of(n)]
    out = []
    for size in range(n, -1, -1):
        for head in partitions_of(size):
            for tail in multipartitions(components - 1, n - size):
                out.append((head,) + tail)
    return out


def multipartition_count(components: int, n: int) -> int:
    """len(multipartitions(components, n)) without listing them.

    The count is the coefficient of x^n in prod_k (1 - x^k)^-components, so
    a(m) = (components / m) sum_{j=1..m} sigma(j) a(m - j) with sigma the
    divisor sum (Euler transform); O(n^2) exact integer steps whatever the
    number of components.  components = 1 counts the partitions of n.
    """
    if components < 1:
        raise InvalidParameterError(f"need at least one component, got {components}")
    if n < 0:
        raise InvalidParameterError(f"total size must be >= 0, got {n}")
    sigma = [0] + [sum(d for d in range(1, j + 1) if j % d == 0) for j in range(1, n + 1)]
    a = [1]
    for m in range(1, n + 1):
        a.append(components * sum(sigma[j] * a[m - j] for j in range(1, m + 1)) // m)
    return a[n]


@functools.lru_cache(maxsize=None)
def symmetric_character(shape: Partition, cycles: Partition) -> int:
    """chi^shape of S_k at the class of cycle type cycles, |shape| = |cycles| = k,
    by the Murnaghan–Nakayama rule, memoized for the process.

    The rim hooks of length m = cycles[0] are the moves of one bead of the
    beta-set {shape[i] + l - 1 - i} (l parts) down m places to a free
    position, with sign (-1)^(beads passed); the rest of the cycles then
    act on the smaller shape.
    """
    if sum(shape) != sum(cycles):
        raise InvalidParameterError(f"shape {shape} and cycle type {cycles} have different sizes")
    if not cycles:
        return 1
    m, rest = cycles[0], cycles[1:]
    length = len(shape)
    beads = [part + length - 1 - i for i, part in enumerate(shape)]  # descending
    total = 0
    for bead in beads:
        to = bead - m
        if to < 0 or to in beads:
            continue
        passed = sum(1 for other in beads if to < other < bead)
        moved = sorted((to if b == bead else b for b in beads), reverse=True)
        smaller = tuple(p for i, b in enumerate(moved) if (p := b - (length - 1 - i)) > 0)
        total += (-1) ** passed * symmetric_character(smaller, rest)
    return total


@dataclass(frozen=True)
class BranchingPrediction:
    """Distinct multipartition labels with positive multiplicities."""

    terms: tuple[tuple[Multipartition, int], ...]

    def __post_init__(self):
        labels = [mp for mp, _ in self.terms]
        if len(set(labels)) != len(labels):
            raise InvalidParameterError("branching terms carry duplicate labels")

    @property
    def term_count(self) -> int:
        return len(self.terms)

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(sorted(m for _, m in self.terms))

    @property
    def predicted_rank(self) -> int:
        return sum(m * m for _, m in self.terms)


def induced_trivial_prediction(dims: tuple[int, ...], n: int) -> BranchingPrediction:
    """The l+1 terms of the induced trivial representation of a wreath pair.

    dims are the base group's irreducible dimensions, trivial first; the
    predicted double-coset rank is 2 + sum of dims[i]^2 over i >= 2.
    """
    if not dims or dims[0] != 1:
        raise InvalidParameterError(
            f"dims must start with the trivial dimension 1, got {dims!r}"
        )
    if n < 2:
        raise InvalidParameterError(f"induction to level n needs n >= 2, got {n}")
    l = len(dims)
    empty: Multipartition = ((),) * (l - 1)
    terms: list[tuple[Multipartition, int]] = [
        (((n,),) + empty, 1),
        (((n - 1, 1),) + empty, 1),
    ]
    for i in range(1, l):
        label = ((n - 1,),) + ((),) * (i - 1) + ((1,),) + ((),) * (l - 1 - i)
        terms.append((label, dims[i]))
    return BranchingPrediction(tuple(terms))


# ---------------------------------------------------------------------------
# text forms


def format_partition(p: Partition) -> str:
    if not p:
        return "∅"
    return "(" + ",".join(str(x) for x in p) + ")"


def format_multipartition(mp: Multipartition) -> str:
    return "(" + ",".join(format_partition(p) for p in mp) + ")"


def parse_partition(text: str) -> Partition:
    """Parse "3,3,1", "(3,3,1)", "" / "∅" (empty) or exponential "1^2 3^1"."""
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1].strip()
    if not s or s == "∅":
        return ()
    if "^" in s:
        parts: list[int] = []
        for token in s.replace(",", " ").split():
            try:
                value_str, count_str = token.split("^")
                value, count = int(value_str), int(count_str)
            except ValueError:
                raise SpecParseError(
                    f"bad exponential token {token!r}, expected like 3^2",
                    text.find(token),
                ) from None
            if value < 1 or count < 0:
                raise SpecParseError(
                    f"exponential token {token!r} needs part >= 1 and count >= 0",
                    text.find(token),
                )
            parts.extend([value] * count)
        return tuple(sorted(parts, reverse=True))
    parts = []
    for token in s.split(","):
        token = token.strip()
        if not token.isdigit():
            raise SpecParseError(
                f"expected a positive integer part, got {token!r}", text.find(token) if token else 0
            )
        parts.append(int(token))
    if any(x < 1 for x in parts):
        raise SpecParseError("partition parts must be >= 1", 0)
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise SpecParseError(
            f"parts must be weakly decreasing, got {tuple(parts)}", 0
        )
    return tuple(parts)
