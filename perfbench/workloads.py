"""Workload definitions and the correctness gate shared by run.py and worker.py.

Imports nothing from gelfand or numpy, so the parent process stays light.
"""

from __future__ import annotations

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))

# cache: "fresh" gives every timed pass a new empty cache dir, so every
# character table is computed and written; "filled" fills one dir during
# set-up, so every timed pass reads and re-validates tables, never computes.
WORKLOADS = {
    "ladder-both": {
        "method": "both",
        "cache": "fresh",
        "pairs": ["wr(Z1,5)", "wr(S3,2)", "wr(Z2,4)", "wr(Z1,6)", "wr(S4,2)", "wr(S3,3)"],
    },
    "character-cold": {
        "method": "character",
        "cache": "fresh",
        "pairs": ["wr(S3,3)", "wr(Z3,4)", "wr(D4,3)", "wr(Z2,5)"],
    },
    "character-warm": {
        "method": "character",
        "cache": "filled",
        "pairs": ["wr(S3,3)", "wr(Z3,4)", "wr(D4,3)", "wr(Z2,5)"],
    },
}

# Fields of the machine record pinned from the seed commit. schema_version
# and toolkit_version are deliberately absent: a schema bump is not a failure.
PINNED_FIELDS = (
    "kind",
    "pair",
    "group_order",
    "subgroup_order",
    "base_abelian",
    "rank",
    "gelfand_hecke",
    "gelfand_character",
    "multiplicities",
    "predicted_term_count",
    "predicted_rank",
    "predicted_multiplicities",
    "failures",
    "error",
    "consistent",
)


def load_expected() -> dict:
    """Pinned records, keyed by "<method> <pair>"."""
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def gate(expected: dict, method: str, pair: str, rc, stdout: str) -> list[str]:
    """Every way one pair-check result misses the pinned verdict; empty if none."""
    if rc != 0:
        return [f"exit code {rc}"]
    lines = stdout.strip().splitlines()
    if len(lines) != 1:
        return [f"expected one machine record, got {len(lines)} lines"]
    try:
        record = json.loads(lines[0])
    except ValueError as exc:
        return [f"machine record does not parse: {exc}"]
    if not isinstance(record, dict):
        return ["machine record is not an object"]
    pinned = expected[f"{method} {pair}"]
    return [
        f"{key} = {record.get(key, '<missing>')!r}, pinned {pinned[key]!r}"
        for key in PINNED_FIELDS
        if key not in record or record[key] != pinned[key]
    ]
