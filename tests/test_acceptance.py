"""End-to-end acceptance checks, one per criterion, each printing PASS/FAIL.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every tolerance is pinned here: Gelfand verdicts, ranks and multiplicities are
exact integers (zero tolerance); character-table orthogonality is 1e-8 before
rounding and exact after; each criterion also asserts its wall-clock budget.
"""

import functools
import math
import time
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np

from gelfand import (
    character_table,
    class_coefficients,
    decompose_induced_trivial,
    double_cosets,
    embed_wreath_subgroup,
    extensions,
    induced_trivial_prediction,
    structure_constants,
    build_group,
    is_commutative,
    parse_pair_spec,
)
from gelfand.cli import main as cli_main
from gelfand.groups import stack_block_counts
from gelfand.hecke import dense_constants
from hecke_oracle import (
    BiInvariantFunction,
    bucketed_constants,
    convolve,
    convolve_via_constants,
)
from scalar_oracle import id_embedding, members, per_id

SYMMETRIC_PAIRS = ["wr(Z1,3)", "wr(Z1,4)", "wr(Z1,5)"]
ABELIAN_PAIRS = ["wr(Z2,2)", "wr(Z2,3)", "wr(Z3,2)", "wr(Z2xZ2,2)"]
NONABELIAN_PAIRS = ["wr(S3,2)", "wr(D4,2)"]
ALL_PAIRS = SYMMETRIC_PAIRS + ABELIAN_PAIRS + NONABELIAN_PAIRS


@contextmanager
def criterion(number, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    within = elapsed <= limit_seconds
    print(
        f"criterion {number}: {'PASS' if within else 'FAIL'} "
        f"({elapsed:.3f}s, limit {limit_seconds}s)"
    )
    assert within, f"criterion {number} took {elapsed:.3f}s > {limit_seconds}s"


@functools.lru_cache(maxsize=None)
def bundle(pairspec):
    """Everything both criteria can say about one pair, computed once."""
    base_ast, n = parse_pair_spec(pairspec)
    base = build_group(base_ast)
    emb = embed_wreath_subgroup(base, n)
    wreath = emb.parent
    dc = double_cosets(emb)
    witness = structure_constants(emb, dc)
    table = character_table(wreath)
    multiplicities = decompose_induced_trivial(emb, table)
    base_degrees = character_table(base).degrees
    prediction = induced_trivial_prediction(base_degrees, n)
    return SimpleNamespace(
        pairspec=pairspec,
        base=base,
        n=n,
        emb=emb,
        wreath=wreath,
        dc=dc,
        sc=dense_constants(emb, dc),
        table=table,
        multiplicities=multiplicities,
        nonzero=tuple(sorted(m for m in multiplicities if m)),
        base_degrees=base_degrees,
        prediction=prediction,
        gelfand_hecke=is_commutative(witness),
        gelfand_character=max(multiplicities) <= 1,
    )


def test_criterion_1_worked_extension_example():
    expected = {
        (4, 3, 2, 2, 2, 1),
        (3, 3, 2, 2, 2, 1, 1),
        (3, 3, 3, 2, 2, 1),
        (3, 3, 2, 2, 2, 2),
    }
    extensions((2, 1))  # warm up
    with criterion(1, 0.001):
        assert extensions((3, 3, 2, 2, 2, 1)) == expected


def test_criterion_2_symmetric_pairs():
    from gelfand import SymmetricGroup, subgroup_from_generators

    with criterion(2, 10.0):
        for spec in SYMMETRIC_PAIRS:
            b = bundle(spec)
            assert b.gelfand_hecke is True, spec
            assert b.gelfand_character is True, spec
            assert b.dc.rank == 2, spec
            assert b.nonzero == (1, 1), spec
        # same pairs built directly inside S_n (stabilizer of the last point),
        # independent of the wreath encoding
        for n in (3, 4, 5):
            sn = SymmetricGroup(n)
            gens = []
            for i in range(n - 2):
                images = list(range(n))
                images[i], images[i + 1] = images[i + 1], images[i]
                gens.append(sn.id_of(tuple(images)))
            emb = subgroup_from_generators(sn, gens)
            assert emb.subgroup.order == math.factorial(n - 1)
            dc = double_cosets(emb)
            assert is_commutative(structure_constants(emb, dc)), n
            assert dc.rank == 2, n


def test_criterion_3_abelian_direction():
    expected_ranks = {"wr(Z2,2)": 3, "wr(Z2,3)": 3, "wr(Z3,2)": 4, "wr(Z2xZ2,2)": 5}
    with criterion(3, 30.0):
        for spec in ABELIAN_PAIRS:
            b = bundle(spec)
            assert b.gelfand_hecke is True, spec
            assert b.gelfand_character is True, spec
            assert b.dc.rank == expected_ranks[spec], spec
            # the same rank, independently, from the branching prediction
            assert b.prediction.predicted_rank == expected_ranks[spec], spec


def test_criterion_4_nonabelian_converse():
    with criterion(4, 60.0):
        s3 = bundle("wr(S3,2)")
        assert s3.gelfand_hecke is False
        assert s3.gelfand_character is False
        assert s3.dc.rank == 7
        assert s3.nonzero == (1, 1, 1, 2)
        assert max(s3.multiplicities) == 2 == max(s3.base_degrees)

        d4 = bundle("wr(D4,2)")
        assert d4.gelfand_hecke is False
        assert d4.gelfand_character is False


def test_criterion_5_dual_method_agreement():
    with criterion(5, 60.0):
        for spec in ALL_PAIRS:
            b = bundle(spec)
            assert b.gelfand_hecke == b.gelfand_character, spec
            assert b.dc.rank == sum(m * m for m in b.multiplicities), spec


def test_criterion_6_prediction_matches_computation():
    with criterion(6, 60.0):
        for spec in ABELIAN_PAIRS + NONABELIAN_PAIRS:
            b = bundle(spec)
            l = len(b.base_degrees)
            assert b.prediction.term_count == l + 1, spec
            assert b.prediction.multiplicities == b.nonzero, spec


def test_criterion_7_character_table_validation_sweep():
    with criterion(7, 10.0):
        group_specs = ["Z6", "S3", "S4", "D4", "Z1", "Z2", "Z3", "Z4", "Z5", "Z2xZ2"]
        tables = [character_table(build_group(spec)) for spec in group_specs]
        tables += [bundle(spec).table for spec in ALL_PAIRS]
        for t in tables:
            r = t.classes.count
            assert len(t.degrees) == r  # irrep count == class count, exact
            assert sum(d * d for d in t.degrees) == t.group_order  # exact
            sizes = np.array(t.classes.sizes, dtype=np.float64)
            gram = (t.values * sizes) @ t.values.conj().T / t.group_order
            assert np.max(np.abs(gram - np.eye(r))) < 1e-8
            col = t.values.conj().T @ t.values
            assert np.max(np.abs(col - np.diag(t.group_order / sizes))) < 1e-8 * t.group_order
            # exact after rounding: row inner products are 0/1, column sums
            # are 0 or the centralizer order |G|/|C_k|
            for i in range(r):
                for j in range(r):
                    val = complex(gram[i, j])
                    assert round(val.real) == (1 if i == j else 0)
                    assert abs(val - round(val.real)) < 1e-8
            for k in range(r):
                for k2 in range(r):
                    val = complex(col[k, k2])
                    expected = t.group_order // t.classes.sizes[k] if k == k2 else 0
                    assert round(val.real) == expected
                    assert abs(val - expected) < 1e-8 * t.group_order


def test_criterion_8_counting_identities():
    with criterion(8, 120.0):
        for spec in ALL_PAIRS:
            b = bundle(spec)
            grp, emb, sc = b.wreath, b.emb, b.sc
            dc = per_id(emb, b.dc)  # the block of every id, for the oracles
            # double cosets partition G
            covered = sorted(x for block in members(dc) for x in block)
            assert covered == list(range(grp.order)), spec
            # |KgK| * |K ∩ g^-1 K g| = |K|^2
            image = set(id_embedding(emb).image.tolist())
            ksq = emb.subgroup.order ** 2
            for block, g in zip(members(dc), dc.representatives):
                ginv = grp.inv(g)
                stab = sum(1 for k in image if grp.mul(grp.mul(g, k), ginv) in image)
                assert len(block) * stab == ksq, spec
            # sum_k c[i][j][k] |D_k| = |D_i| |D_j|
            sizes = np.array(dc.sizes, dtype=np.int64)
            assert np.array_equal(sc @ sizes, np.outer(sizes, sizes)), spec
            # both convolution paths agree exactly on integer inputs
            values = [((i * 7 + 3) % 11) - 5 for i in range(b.dc.rank)]
            f = BiInvariantFunction(tuple(values))
            g = BiInvariantFunction(tuple(reversed(values)))
            assert (
                convolve(f, g, grp, dc).values
                == convolve_via_constants(f, g, sc).values
            ), spec
            # both algebras' counts equal the brute-force bucketing oracle
            assert np.array_equal(
                sc, bucketed_constants(grp, members(dc), dc.representatives)
            ), spec
            cc = b.table.classes
            assert np.array_equal(
                stack_block_counts(
                    class_coefficients(grp, cc, range(cc.count)), cc.count, range(cc.count)
                ),
                bucketed_constants(grp, members(cc), cc.representatives),
            ), spec


def test_criterion_9_family_sweep(tmp_path, capsys):
    bases = ["Z1", "Z2", "Z3", "Z4", "Z5", "Z2xZ2", "S3", "D4"]
    with criterion(9, 120.0):
        code = cli_main(
            ["scan", *bases, "--n", "2", "--cache-dir", str(tmp_path / "cache")]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "summary: gelfand == abelian held on 8 row(s)" in out
