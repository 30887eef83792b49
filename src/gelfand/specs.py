"""Group and pair spec strings: the CLI vocabulary and cache keys.

Grammar (whitespace-insensitive, products left-associative):

    spec := atom | spec "x" atom
    atom := "Z"int | "S"int | "D"int | "(" spec ")"

Pairs are written "wr(<spec>,<n>)" and denote (G wr S_n, G wr S_(n-1)).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SpecParseError
from .groups import (
    CyclicGroup,
    DihedralGroup,
    DirectProductGroup,
    FiniteGroup,
    SymmetricGroup,
)


@dataclass(frozen=True)
class Cyclic:
    k: int


@dataclass(frozen=True)
class Symmetric:
    n: int


@dataclass(frozen=True)
class Dihedral:
    k: int


@dataclass(frozen=True)
class Product:
    left: "GroupSpec"
    right: "GroupSpec"


GroupSpec = Cyclic | Symmetric | Dihedral | Product


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def expect(self, ch: str) -> None:
        got = self.peek()
        if got != ch:
            raise SpecParseError(
                f"expected {ch!r}, got {got!r}" if got else f"expected {ch!r}, got end of input",
                self.pos,
            )
        self.pos += 1

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise SpecParseError("expected a decimal integer", start)
        return int(self.text[start : self.pos])

    def done(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def _parse_atom(cur: _Cursor) -> GroupSpec:
    ch = cur.peek()
    if ch == "(":
        cur.take()
        inner = _parse_spec(cur)
        cur.expect(")")
        return inner
    if ch in ("Z", "S", "D"):
        cur.take()
        value = cur.integer()
        if ch == "Z":
            return Cyclic(value)
        if ch == "S":
            return Symmetric(value)
        return Dihedral(value)
    raise SpecParseError(
        f"expected a group atom ('Z<k>', 'S<n>', 'D<k>' or '('), got {ch!r}"
        if ch
        else "expected a group atom ('Z<k>', 'S<n>', 'D<k>' or '('), got end of input",
        cur.pos,
    )


def _parse_spec(cur: _Cursor) -> GroupSpec:
    node = _parse_atom(cur)
    while cur.peek() == "x":
        cur.take()
        node = Product(node, _parse_atom(cur))
    return node


def parse_group_spec(text: str) -> GroupSpec:
    cur = _Cursor(text)
    node = _parse_spec(cur)
    if not cur.done():
        raise SpecParseError(f"unexpected trailing input {cur.peek()!r}", cur.pos)
    return node


def build_group(spec: GroupSpec | str) -> FiniteGroup:
    if isinstance(spec, str):
        spec = parse_group_spec(spec)
    if isinstance(spec, Cyclic):
        return CyclicGroup(spec.k)
    if isinstance(spec, Symmetric):
        return SymmetricGroup(spec.n)
    if isinstance(spec, Dihedral):
        return DihedralGroup(spec.k)
    return DirectProductGroup(build_group(spec.left), build_group(spec.right))


def parse_pair_spec(text: str) -> tuple[GroupSpec, int]:
    """Parse "wr(<groupspec>,<n>)" into (base spec, n)."""
    cur = _Cursor(text)
    cur.skip_ws()
    if not cur.text[cur.pos :].startswith("wr"):
        raise SpecParseError("expected a pair spec of the form wr(<group>,<n>)", cur.pos)
    cur.pos += 2
    cur.expect("(")
    base = _parse_spec(cur)
    cur.expect(",")
    n = cur.integer()
    cur.expect(")")
    if not cur.done():
        raise SpecParseError(f"unexpected trailing input {cur.peek()!r}", cur.pos)
    return base, n

