"""Exact Gelfand-pair toolkit for wreath products of finite groups.

Builds G wr S_n for concrete finite groups G, decides whether
(G wr S_n, G wr S_(n-1)) is a Gelfand pair by two independent exact methods
(double-coset algebra commutativity and multiplicity freeness of the induced
trivial representation), and cross-checks both against the branching
prediction computed from the base group's irreducible dimensions.
"""

__version__ = "0.1.0"

from .errors import (
    InternalConsistencyError,
    InvalidParameterError,
    NumericalQualityError,
    ResourceLimitError,
    SpecParseError,
)
from .groups import (
    CyclicGroup,
    DihedralGroup,
    DirectProductGroup,
    FiniteGroup,
    GroupPartition,
    SubgroupEmbedding,
    SymmetricGroup,
    conjugacy_classes,
    full_embedding,
    is_abelian,
    subgroup_from_generators,
    verify_group_axioms,
)
from .wreath import (
    WreathElement,
    WreathProduct,
    embed_wreath_subgroup,
)
from .hecke import (
    DoubleCosetDecomposition,
    double_cosets,
    is_commutative,
    structure_constants,
)
from .chartab import (
    CharacterTable,
    character_table,
    class_coefficients,
    decompose_induced_trivial,
    load_character_table,
    permutation_character,
    save_character_table,
    wreath_character_table,
)
from .partitions import (
    BranchingPrediction,
    extensions,
    format_multipartition,
    format_partition,
    induced_trivial_prediction,
    multipartitions,
    parse_partition,
    partitions_of,
)
from .specs import (
    Cyclic,
    Dihedral,
    Product,
    Symmetric,
    build_group,
    parse_group_spec,
    parse_pair_spec,
)
from .reports import PairReport, check_pair, format_report, report_record, scan_pairs
