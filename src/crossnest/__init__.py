"""Crossing and nesting statistics of signed permutations.

The library models a rank-n signed permutation by its upper arc
diagram, computes the crossing/nesting pair statistics and the maximal
chain statistics, implements the two involutions that interchange them
(a rank mirror over the vertex line for the pair counts, a
growth-diagram map on Young fillings for the chain sizes), and
verifies the symmetric-distribution claims by exhaustive enumeration
at small rank.
"""

from .core import (
    Arc,
    DegreeSequence,
    SignedPermutation,
    UpperDiagram,
    VertexKind,
    degree_sequence,
    identity,
    neg,
    parse_permutation,
    permutation_from_upper,
    sigma_at,
    upper_diagram,
    vertex_kind,
    wex,
)
from .enumeration import (
    DistributionTable,
    VerificationReport,
    bn_size,
    distribution,
    enumerate_bn,
    max_crossing_count,
    max_crossing_witness,
    verify_avoider_symmetry,
    verify_chain_symmetry,
    verify_involution_properties,
    verify_max_crossing_counts,
    verify_pair_symmetry,
)
from .errors import CrossNestError
from .fillings import (
    PatternKind,
    YoungFilling,
    border_walks,
    growth_diagram,
    growth_involution,
    max_chain_involution,
    xi,
    xi_inverse,
    young_shape,
)
from .involution import crossing_nesting_involution
from .statistics import (
    PairKind,
    classify_pair,
    cro,
    cro_star,
    cro_star_brute,
    is_crossing_chain,
    is_nesting_chain,
    largest_crossing_chain,
    largest_nesting_chain,
    max_chain_sizes,
    nes,
    nes_star,
    nes_star_brute,
)

__version__ = "0.1.0"
