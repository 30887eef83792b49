"""CLI behaviour: commands, formats, exit codes and cache interaction."""

import base64
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import gelfand
from gelfand.chartab import _CACHE_MAGIC, _CACHE_VERSION
from gelfand.cli import main
from gelfand.wreath import WreathProduct


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


V = gelfand.__version__  # the toolkit_version of every machine record


def test_pair_check_table(capsys, tmp_path):
    code, out, err = run(
        capsys, "pair-check", "wr(Z2,2)", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    assert "IS a Gelfand pair" in out
    assert "rank 3" in out


def test_pair_check_machine_record(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "pair-check",
        "wr(S3,2)",
        "--format",
        "machine",
        "--cache-dir",
        str(tmp_path),
    )
    assert code == 0
    record = json.loads(out)
    assert record["rank"] == 7
    assert record["gelfand_hecke"] is False
    assert record["schema_version"] == 1
    assert record["multiplicities"] == [1, 1, 1, 2]


def test_main_after_an_argparse_exit_still_parses(capsys, tmp_path):
    # the parser is built once per process and shared by every main call, so
    # an argparse SystemExit must leave it as it was
    args = ["pair-check", "wr(Z2,2)", "--format", "machine", "--cache-dir", str(tmp_path)]
    code, before, _ = run(capsys, *args)
    assert code == 0
    with pytest.raises(SystemExit):
        main(["pair-check", "wr(Z2,2)", "--method", "neither"])
    assert "invalid choice" in capsys.readouterr().err
    code, after, _ = run(capsys, *args)
    assert code == 0
    assert after == before


def test_machine_output_byte_identical_across_cache_states(capsys, tmp_path):
    args = ["pair-check", "wr(Z3,2)", "--format", "machine", "--cache-dir", str(tmp_path)]
    code1, out1, _ = run(capsys, *args)  # cold cache
    code2, out2, _ = run(capsys, *args)  # warm cache
    assert code1 == code2 == 0
    assert out1 == out2
    assert (tmp_path / "Z3.chartab").exists()
    assert (tmp_path / "wr(Z3,2).chartab").exists()


def test_cache_entry_with_a_nan_value_is_recomputed(capsys, tmp_path):
    args = ["pair-check", "wr(S3,2)", "--method", "character", "--format", "machine",
            "--cache-dir", str(tmp_path)]
    code, clean, _ = run(capsys, *args)
    assert code == 0
    path = tmp_path / "wr(S3,2).chartab"
    lines = path.read_text().splitlines()
    values = np.frombuffer(base64.b64decode(lines[7][len("values "):]), dtype="<c16").copy()
    r = int(lines[3].split()[1])
    values[r + 1] = complex(np.nan, 0.0)  # row 1
    lines[7] = "values " + base64.b64encode(values.tobytes()).decode()
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, *args)
    assert (code, out) == (0, clean)
    # stdout is unchanged; stderr names the rejected entry and the reason
    assert err.splitlines() == [
        f"gelfand: recomputing {path}: character table of wr(S3,2) has non-finite values"
    ]
    rewritten = path.read_text().splitlines()[7]
    assert np.isfinite(np.frombuffer(base64.b64decode(rewritten[len("values "):]), dtype="<c16")).all()


def test_scan_exit_zero_and_summary(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "scan",
        "Z1",
        "Z2",
        "S3",
        "--n",
        "2",
        "--cache-dir",
        str(tmp_path),
    )
    assert code == 0
    assert "summary: gelfand == abelian held on 3 row(s)" in out


def test_scan_machine_rows_and_summary(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "scan",
        "Z2",
        "D4",
        "--n",
        "2",
        "--format",
        "machine",
        "--cache-dir",
        str(tmp_path),
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    rows = [json.loads(line) for line in lines]
    assert rows[0]["kind"] == "scan_row"
    assert lines[-1] == (
        '{"gelfand_iff_abelian": true, "kind": "scan_summary", "rows": 2, '
        f'"schema_version": 1, "toolkit_version": "{V}"}}'
    )


def test_scan_hecke_only_method(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "scan",
        "Z2",
        "S3",
        "--n",
        "2",
        "--method",
        "hecke",
        "--cache-dir",
        str(tmp_path),
    )
    assert code == 0
    assert "summary: gelfand == abelian held on 2 row(s)" in out


def test_scan_error_rows_do_not_abort_but_fail_exit(capsys, tmp_path):
    code, out, _ = run(
        capsys, "scan", "Z2", "Q8", " Q8 ", "--n", "2", "--cache-dir", str(tmp_path)
    )
    assert code == 1
    # parse offsets point into each base as typed, not into wr(<base>,2)
    assert out.splitlines()[2:4] == [
        "Q8         error: expected a group atom ('Z<k>', 'S<n>', 'D<k>' or '('), "
        "got 'Q' (at offset 0)",
        " Q8        error: expected a group atom ('Z<k>', 'S<n>', 'D<k>' or '('), "
        "got 'Q' (at offset 1)",
    ]


def test_branch_symmetric(capsys, tmp_path):
    code, out, _ = run(capsys, "branch", "Z1", "--n", "5", "--cache-dir", str(tmp_path))
    assert code == 0
    assert "S^(5) ⊕ S^(4,1)" in out


def test_branch_s3(capsys, tmp_path):
    code, out, _ = run(capsys, "branch", "S3", "--n", "2", "--cache-dir", str(tmp_path))
    assert code == 0
    assert "2·S^((1),∅,(1))" in out
    assert "4 terms, predicted rank 7" in out


def test_branch_z2(capsys, tmp_path):
    code, out, _ = run(capsys, "branch", "Z2", "--n", "3", "--cache-dir", str(tmp_path))
    assert code == 0
    assert "3 terms, predicted rank 3" in out
    assert "2·" not in out


def test_hecke_command(capsys, tmp_path):
    code, out, _ = run(
        capsys, "hecke", "wr(Z1,3)", "--show-constants", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    assert "block sizes [2, 4]" in out
    assert "c[1][1] = [4 2]" in out

    code, out, _ = run(capsys, "hecke", "wr(Z2,2)", "--cache-dir", str(tmp_path))
    assert code == 0
    assert "rank 3" in out
    assert "commutative" in out

    code, out, _ = run(capsys, "hecke", "wr(S3,2)", "--cache-dir", str(tmp_path))
    assert code == 0
    assert "NOT commutative" in out
    # the values are c = |K| p, with |K| = 6
    assert "  witness: c[2][3][4] = 0 != c[3][2][4] = 6\n" in out


def test_hecke_constants_suppressed_above_rank_limit(capsys, tmp_path):
    # Z12 base gives rank 2 + 11 = 13 > 12: table must be suppressed
    code, out, _ = run(
        capsys, "hecke", "wr(Z12,2)", "--show-constants", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    assert "rank 13" in out
    assert "constants table suppressed" in out
    assert "c[0][0]" not in out


def test_hecke_machine(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "hecke",
        "wr(Z2,2)",
        "--format",
        "machine",
        "--show-constants",
        "--cache-dir",
        str(tmp_path),
    )
    assert code == 0
    assert out == (
        '{"block_sizes": [2, 4, 2], "commutative": true, "constants": '
        "[[[2, 0, 0], [0, 2, 0], [0, 0, 2]], [[0, 2, 0], [4, 0, 4], [0, 2, 0]], "
        '[[0, 0, 2], [0, 2, 0], [2, 0, 0]]], "group_order": 8, "kind": "hecke_report", '
        '"pair": "wr(Z2,2)", "rank": 3, "schema_version": 1, "subgroup_order": 2, '
        f'"toolkit_version": "{V}", "witness": null}}\n'
    )
    code, out, _ = run(
        capsys, "hecke", "wr(S3,2)", "--format", "machine", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    assert out == (
        '{"block_sizes": [6, 36, 6, 6, 6, 6, 6], "commutative": false, '
        '"group_order": 72, "kind": "hecke_report", "pair": "wr(S3,2)", "rank": 7, '
        f'"schema_version": 1, "subgroup_order": 6, "toolkit_version": "{V}", '
        '"witness": [2, 3, 4]}\n'
    )


def test_machine_records_name_the_pair_canonically(capsys, tmp_path):
    cache = ["--cache-dir", str(tmp_path)]
    spec = " wr( Z2x(Z1xZ2) , 2 ) "
    code, out, _ = run(capsys, "pair-check", spec, "--format", "machine", *cache)
    assert code == 0
    record = json.loads(out)
    assert (record["pair"], record["base"]) == ("wr(Z2x(Z1xZ2),2)", "Z2x(Z1xZ2)")
    code, out, _ = run(capsys, "hecke", spec, "--format", "machine", *cache)
    assert code == 0
    assert json.loads(out)["pair"] == "wr(Z2x(Z1xZ2),2)"
    code, out, _ = run(
        capsys, "scan", " Z2 x ( Z1 x Z2 )", "S3x Z1", "--format", "machine", *cache
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()[:-1]]
    assert [(row["pair"], row["base"]) for row in rows] == [
        ("wr(Z2x(Z1xZ2),2)", "Z2x(Z1xZ2)"),
        ("wr(S3xZ1,2)", "S3xZ1"),
    ]


def test_partitions_extend_worked_example(capsys):
    code, out, _ = run(capsys, "partitions", "extend", "3,3,2,2,2,1")
    assert code == 0
    assert out.splitlines() == [
        "(4,3,2,2,2,1)",
        "(3,3,3,2,2,1)",
        "(3,3,2,2,2,2)",
        "(3,3,2,2,2,1,1)",
    ]


def test_partitions_extend_empty_and_one(capsys):
    code, out, _ = run(capsys, "partitions", "extend", "")
    assert code == 0
    assert out.splitlines() == ["(1)"]
    code, out, _ = run(capsys, "partitions", "extend", "1")
    assert code == 0
    assert out.splitlines() == ["(2)", "(1,1)"]


def test_partitions_extend_rejects_bad_input(capsys):
    code, _, err = run(capsys, "partitions", "extend", "1,2,3")
    assert code == 2
    assert "parse error" in err


def test_group_command(capsys, tmp_path):
    code, out, _ = run(capsys, "group", "D4", "--cache-dir", str(tmp_path))
    assert code == 0
    assert "order 8" in out
    assert "5 conjugacy classes" in out
    assert "abelian: no" in out
    assert "[1, 1, 1, 1, 2]" in out


def test_group_machine(capsys, tmp_path):
    code, out, _ = run(
        capsys, "group", "Z6", "--format", "machine", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    record = json.loads(out)
    assert record["order"] == 6
    assert record["abelian"] is True
    assert record["dimensions"] == [1] * 6
    code, out, _ = run(
        capsys, "group", "D4 x Z2", "--format", "machine", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    assert out == (
        '{"abelian": false, "class_sizes": [1, 1, 2, 2, 1, 1, 2, 2, 2, 2], '
        '"classes": 10, "dimensions": [1, 1, 1, 1, 1, 1, 1, 1, 2, 2], '
        '"kind": "group_report", "order": 16, "schema_version": 1, "spec": "D4xZ2", '
        f'"toolkit_version": "{V}"}}\n'
    )


def test_parse_error_exit_code(capsys, tmp_path):
    code, _, err = run(capsys, "pair-check", "wr(Q8,2)", "--cache-dir", str(tmp_path))
    assert code == 2
    assert "parse error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["pair-check", "wr(Z2,2)"],
        ["pair-check", "wr(Z2,2)", "--method", "hecke"],
        ["pair-check", "wr(Z2,2)", "--method", "character"],
        ["scan", "Z2", "S3"],
        ["branch", "S3", "--n", "3"],
        ["hecke", "wr(S3,2)"],
        ["partitions", "extend", "2,1"],
        ["group", "S3"],
    ],
)
def test_negative_seed_is_an_invalid_parameter_before_any_work(capsys, tmp_path, argv):
    cache = tmp_path / "cold"
    code, out, err = run(capsys, *argv, "--seed", "-1", "--cache-dir", str(cache))
    assert code == 2
    assert out == ""
    assert err == "gelfand: invalid parameter: --seed must be a non-negative integer, got -1\n"
    assert not cache.exists()  # nothing computed, nothing cached


def test_resource_limit_exit_code(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "pair-check",
        "wr(S4,4)",
        "--size-budget",
        "1000",
        "--cache-dir",
        str(tmp_path),
    )
    assert code == 3
    assert "resource limit" in err


@pytest.mark.parametrize(
    "argv, said",
    [
        # 1.7e21 elements: the budget is capped at the 2^62 ids, before any work
        (
            ("pair-check", "wr(S5,8)", "--size-budget", "10000000000000000000000"),
            "needs 1733686198272000000000 elements, over the size budget of 4611686018427387904",
        ),
    ],
    ids=["past-the-ids"],
)
def test_huge_size_budget_is_a_resource_limit(tmp_path, argv, said):
    proc = _run_module(*argv, "--cache-dir", str(tmp_path))
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("gelfand: resource limit: "), proc.stderr
    assert said in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_huge_size_budget_answers_the_hecke_route_on_x(tmp_path):
    # 2.4e18 elements fit the ids, but no array of K's 19! ids could be
    # made; the Hecke route reads only the 20 points of X, and answers
    proc = _run_module(
        "pair-check", "wr(Z1,20)", "--method", "hecke", "--size-budget", "10000000000000000000",
        "--format", "machine", "--cache-dir", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["rank"] == record["predicted_rank"] == 2
    assert record["gelfand_hecke"] is True and record["consistent"] is True


HECKE_ONLY = (("hecke",), ("pair-check", "--method", "hecke"))


@pytest.mark.parametrize("command", HECKE_ONLY, ids=["hecke", "pair-check"])
def test_hecke_only_budget_is_on_the_points(capsys, tmp_path, command):
    # n^2 |B|^2 <= 2 * budget: at n = 2 that is |G| <= budget, exactly
    name, *flags = command
    for budget, code in (("72", 0), ("71", 3)):
        got, out, err = run(
            capsys, name, "wr(S3,2)", *flags, "--size-budget", budget, "--cache-dir", str(tmp_path)
        )
        assert got == code, err
    assert err == (
        "gelfand: resource limit: wr(S3,2) acts on |X| = 12 points: |X|^2 = 144 is "
        "over twice the size budget of 71\n"
    )
    # past the |G| budget at n >= 3 (33,592,320 elements), within the
    # points' (36^2 <= 4,000,000): answered
    got, out, err = run(capsys, name, "wr(S3,6)", *flags, "--format", "machine",
                        "--cache-dir", str(tmp_path))
    assert got == 0, err
    assert json.loads(out)["rank"] == 7


@pytest.mark.parametrize(
    "argv",
    [
        ("pair-check", "wr(S3,6)", "--method", "both"),
        ("pair-check", "wr(S3,6)", "--method", "character"),
        ("scan", "S3", "--n", "6", "--method", "hecke", "--format", "machine"),
        ("branch", "S3", "--n", "6"),
    ],
    ids=["both", "character", "scan", "branch"],
)
def test_other_commands_keep_the_order_budget(capsys, tmp_path, argv):
    code, out, err = run(capsys, *argv, "--cache-dir", str(tmp_path))
    said = "wr(S3,6) needs 33592320 elements, over the size budget of 2000000"
    if argv[0] == "scan":
        assert code == 1
        assert json.loads(out.splitlines()[0])["error"] == said
    else:
        assert code == 3
        assert err == f"gelfand: resource limit: {said}\n"


@pytest.mark.parametrize(
    "argv", [("pair-check", "wr(S3,2)"), ("group", "S3"), ("branch", "S3", "--n", "2")]
)
def test_cache_dir_that_is_a_file_is_an_invalid_parameter(capsys, tmp_path, argv):
    cache = tmp_path / "not-a-dir"
    cache.write_text("")
    code, out, err = run(capsys, *argv, "--cache-dir", str(cache))
    assert code == 2
    assert out == ""
    # one line naming the path, then the system's reason
    prefix = f"gelfand: invalid parameter: cannot create cache directory {str(cache)!r}: "
    assert err.startswith(prefix)
    assert err.count("\n") == 1 and err.endswith("\n")


def test_cache_file_that_cannot_be_written_is_an_invalid_parameter(capsys, tmp_path):
    # a directory where the pair's table would go: the write fails after
    # the table is computed, and leaves no temporary file behind
    entry = tmp_path / "wr(Z2,2).chartab"
    entry.mkdir()
    code, out, err = run(capsys, "pair-check", "wr(Z2,2)", "--cache-dir", str(tmp_path))
    assert code == 2
    assert out == ""
    prefix = f"gelfand: invalid parameter: cannot write cache file {str(entry)!r}: "
    assert err.startswith(prefix)
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not [path.name for path in tmp_path.iterdir() if ".tmp." in path.name]
    assert list(entry.iterdir()) == []


def test_cache_env_var_used(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("GELFAND_CACHE_DIR", str(tmp_path / "envcache"))
    code, _, _ = run(capsys, "group", "S3")
    assert code == 0
    assert (tmp_path / "envcache" / "S3.chartab").exists()


def _run_module(*argv, timeout=30):
    """Run the CLI in a fresh interpreter, killed after timeout seconds."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(gelfand.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "gelfand.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def test_over_budget_pair_exits_before_order_sized_work(tmp_path):
    # |Z100000| is small, but wr(Z100000,2) is far over the size budget; the
    # budget must be enforced before any O(|G|^2) work on the base group
    proc = _run_module("pair-check", "wr(Z100000,2)", "--cache-dir", str(tmp_path))
    assert proc.returncode == 3, proc.stderr
    assert "size budget" in proc.stderr


def test_over_budget_hecke_pair_exits_before_any_work(tmp_path):
    # on the points as on |G|: 200,000 points are over the budget
    proc = _run_module(
        "pair-check", "wr(Z100000,2)", "--method", "hecke", "--cache-dir", str(tmp_path)
    )
    assert proc.returncode == 3, proc.stderr
    assert "size budget" in proc.stderr
    assert not list(tmp_path.iterdir())


def test_abelian_base_past_the_table_limits_predicts_from_unit_degrees(tmp_path):
    # Z100 has 100 classes, over the limit 80, but an abelian group has |G|
    # linear characters, so the prediction needs no base character table
    proc = _run_module(
        "pair-check", "wr(Z100,2)", "--method", "hecke", "--format", "machine",
        "--cache-dir", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["rank"] == record["predicted_rank"] == 101
    assert record["consistent"] is True
    assert not list(tmp_path.iterdir())
    # a non-abelian base past the limits gets its Hecke verdict, unpredicted
    proc = _run_module(
        "pair-check", "wr(D200,2)", "--method", "hecke", "--format", "machine",
        "--cache-dir", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["rank"] == 401
    assert record["gelfand_hecke"] is False
    assert record["consistent"] is True
    assert record["predicted_rank"] is record["predicted_term_count"] is None
    assert record["predicted_multiplicities"] is None
    assert not list(tmp_path.iterdir())


def test_hecke_route_on_two_million_elements(tmp_path):
    # wr(Z1000,2): |G| = 2,000,000 at the default size budget, rank 1001
    start = time.perf_counter()
    proc = _run_module(
        "pair-check", "wr(Z1000,2)", "--method", "hecke", "--cache-dir", str(tmp_path),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "rank 1001, double-coset algebra commutative" in proc.stdout
    assert time.perf_counter() - start < 60


def test_hecke_verdict_at_rank_241(tmp_path):
    proc = _run_module(
        "pair-check", "wr(S5xZ2,2)", "--method", "hecke", "--format", "machine",
        "--cache-dir", str(tmp_path), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["rank"] == 241
    assert record["gelfand_hecke"] is False


def test_over_budget_branch_exits_before_base_character_table(tmp_path):
    # wr(S9,2) has 2 * 362880^2 elements; the budget must stop `branch`
    # before the character table of S9 is computed
    proc = _run_module("branch", "S9", "--n", "2", "--cache-dir", str(tmp_path))
    assert proc.returncode == 3, proc.stderr
    assert "size budget" in proc.stderr
    assert not list(tmp_path.iterdir())


def test_branch_rejects_n_below_two_before_the_base_table(capsys, tmp_path):
    code, _, err = run(capsys, "branch", "S5", "--n", "1", "--cache-dir", str(tmp_path))
    assert code == 2
    assert "needs n >= 2, got 1" in err
    assert not list(tmp_path.iterdir())


def test_cached_table_past_class_limit_exits_before_class_walk(tmp_path):
    # a cache entry whose header matches Z200000 must not make the loader walk
    # its 200000 classes: the limits apply before the walk, as without a cache
    lines = [f"{_CACHE_MAGIC} {_CACHE_VERSION}", "group Z200000", "order 200000", "classes 200000",
             "sizes", "reps", "degrees", "values"]
    (tmp_path / "Z200000.chartab").write_text("\n".join(lines) + "\n")
    start = time.perf_counter()
    proc = _run_module(
        "branch", "Z200000", "--n", "2", "--size-budget", "100000000000",
        "--cache-dir", str(tmp_path),
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 3, proc.stderr
    assert "200000 conjugacy classes, over the limit 80" in proc.stderr
    assert elapsed < 5, elapsed


def test_group_over_order_limit_exits_before_class_walk(tmp_path):
    # |S10| = 3628800 is over the character-table order limit; `group` must
    # stop before walking the classes or testing commutativity
    proc = _run_module("group", "S10", "--cache-dir", str(tmp_path))
    assert proc.returncode == 3, proc.stderr
    assert "order limit" in proc.stderr
    assert not list(tmp_path.iterdir())


def test_group_over_class_limit_exits_before_class_walk(tmp_path):
    # Z200000 is under the order limit, but its 200000 classes are known from
    # the construction, so `group` must stop before walking any of them
    start = time.perf_counter()
    proc = _run_module("group", "Z200000", "--cache-dir", str(tmp_path))
    elapsed = time.perf_counter() - start
    assert proc.returncode == 3, proc.stderr
    assert "200000 conjugacy classes, over the limit 80" in proc.stderr
    assert elapsed < 5, elapsed
    assert not list(tmp_path.iterdir())


def test_character_route_exits_before_wreath_classes(tmp_path):
    # wr(Z8,4) has 726 classes, counted from the 8 classes of Z8 before any
    # wreath class is computed
    proc = _run_module(
        "pair-check", "wr(Z8,4)", "--method", "character", "--cache-dir", str(tmp_path)
    )
    assert proc.returncode == 3, proc.stderr
    assert "726 conjugacy classes" in proc.stderr


def test_wrong_wreath_class_count_is_an_internal_failure(capsys, tmp_path, monkeypatch):
    real = WreathProduct.class_labels

    def one_class_short(self):
        # the last label merged into the one before it
        labels = real(self)
        values = np.unique(labels)
        return np.where(labels == values[-1], values[-2], labels)

    monkeypatch.setattr(WreathProduct, "class_labels", one_class_short)
    code, _, err = run(capsys, "pair-check", "wr(Z2,3)", "--cache-dir", str(tmp_path))
    assert code == 4
    assert "internal failure" in err and "class labels, but" in err
