"""General one-level branching, used only by the tests.

``branch_induce`` induces any multipartition label up one level.  The library
needs only its value at the trivial row, ``partitions.induced_trivial_prediction``,
which writes the l+1 terms out directly; the tests compare the two.
"""

from __future__ import annotations

from gelfand import BranchingPrediction, InvalidParameterError, extensions
from gelfand.partitions import Multipartition


def branch_induce(mp: Multipartition, dims: tuple[int, ...]) -> BranchingPrediction:
    """Induce one level up: add a box to component i with weight dims[i]."""
    if len(dims) != len(mp):
        raise InvalidParameterError(
            f"{len(mp)} components but {len(dims)} dimensions"
        )
    terms = []
    for i, part in enumerate(mp):
        for delta in sorted(extensions(part), reverse=True):
            label = mp[:i] + (delta,) + mp[i + 1 :]
            terms.append((label, dims[i]))
    return BranchingPrediction(tuple(terms))
