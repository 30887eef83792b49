"""Group/pair spec parsing and construction; built names are canonical specs."""

import pytest

from gelfand import (
    Cyclic,
    Dihedral,
    Product,
    SpecParseError,
    Symmetric,
    build_group,
    parse_group_spec,
    parse_pair_spec,
)
from gelfand.reports import build_pair


def test_atoms():
    assert parse_group_spec("Z3") == Cyclic(3)
    assert parse_group_spec("S4") == Symmetric(4)
    assert parse_group_spec("D5") == Dihedral(5)


def test_products_left_associative():
    assert parse_group_spec("Z2xZ2") == Product(Cyclic(2), Cyclic(2))
    assert parse_group_spec("Z2xZ3xS3") == Product(
        Product(Cyclic(2), Cyclic(3)), Symmetric(3)
    )


def test_whitespace_insensitive():
    assert parse_group_spec("Z2 x S3") == Product(Cyclic(2), Symmetric(3))
    assert parse_group_spec("  Z2x ( S3 x D4 ) ") == Product(
        Cyclic(2), Product(Symmetric(3), Dihedral(4))
    )


def test_parens_group_right_nesting():
    ast = parse_group_spec("Z2x(Z2xS3)")
    assert ast == Product(Cyclic(2), Product(Cyclic(2), Symmetric(3)))
    assert build_group(ast).name == "Z2x(Z2xS3)"


def test_roundtrips():
    asts = [
        Cyclic(7),
        Symmetric(5),
        Dihedral(3),
        Product(Cyclic(2), Cyclic(2)),
        Product(Product(Cyclic(2), Symmetric(3)), Dihedral(4)),
        Product(Cyclic(2), Product(Cyclic(3), Cyclic(5))),
    ]
    for ast in asts:
        assert parse_group_spec(build_group(ast).name) == ast
    for text in ["Z3", "S4", "D6", "Z2xZ2", "Z2xZ3xS3", "Z2x(Z3xS3)"]:
        assert build_group(parse_group_spec(text)).name == text


def test_parse_errors_carry_offsets():
    with pytest.raises(SpecParseError) as info:
        parse_group_spec("Q8")
    assert info.value.offset == 0
    with pytest.raises(SpecParseError) as info:
        parse_group_spec("Z2x")
    assert info.value.offset == 3
    with pytest.raises(SpecParseError) as info:
        parse_group_spec("Z")
    assert info.value.offset == 1
    with pytest.raises(SpecParseError) as info:
        parse_group_spec("Z2)S3")
    assert info.value.offset == 2
    with pytest.raises(SpecParseError):
        parse_group_spec("")
    with pytest.raises(SpecParseError):
        parse_group_spec("(Z2xZ3")


def test_build_group_orders():
    assert build_group("Z6").order == 6
    assert build_group("S4").order == 24
    assert build_group("D7").order == 14
    assert build_group("Z2xS3").order == 12
    assert build_group("Z2x(Z2xS3)").order == 24
    assert build_group("Z2xZ2xS3").order == 24


def test_build_group_name_is_canonical():
    assert build_group("Z2 x S3").name == "Z2xS3"
    assert build_group("Z2x(Z2xS3)").name == "Z2x(Z2xS3)"


def test_pair_specs():
    base, n = parse_pair_spec("wr(Z2,3)")
    assert (base, n) == (Cyclic(2), 3)
    base, n = parse_pair_spec(" wr( Z2xZ2 , 2 ) ")
    assert (base, n) == (Product(Cyclic(2), Cyclic(2)), 2)
    assert build_pair(" wr( Z2xZ2 , 2 ) ").parent.name == "wr(Z2xZ2,2)"


def test_pair_spec_errors():
    with pytest.raises(SpecParseError):
        parse_pair_spec("Z2")
    with pytest.raises(SpecParseError):
        parse_pair_spec("wr(Z2)")
    with pytest.raises(SpecParseError):
        parse_pair_spec("wr(Z2,3)x")
