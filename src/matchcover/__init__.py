"""Exact combinatorial toolkit for covering calculus and matching certificates.

Submodules:
  cover      finite coverings: refinement, joins, stars
  bipartite  maximum matching with witnesses, Hall deficiency, covering graphs
  groups     Z^d, free groups, finite table groups, finite actions
  means      finitely supported rational means and convolution
  folner     almost-invariance certificates, searches, perfect nets
  ramsey     matching condition on finite rational metric spaces
  serialize  JSON codecs for every persisted value
  cli        command-line front end
"""

__version__ = "0.1.0"

from .cover import (
    Covering,
    GroundSet,
    join,
    refines,
    star_covering,
    star_iterate,
    star_refines,
    star_set,
)
from .bipartite import (
    BipartiteGraph,
    MatchingWitness,
    compose_matchings,
    covering_graph,
    hall_deficiency,
    has_perfect_matching,
    max_matching,
    mu,
    mu_partition,
    mu_partition_witness,
    mu_with_witness,
)
from .groups import (
    FiniteAction,
    FiniteTableGroup,
    FreeGroup,
    GroupModel,
    IntegerLattice,
    cyclic_group,
    group_from_json,
    rotation_action,
    symmetric_group,
)
from .means import (
    ConvexCombination,
    FiniteFunction,
    condition6_gap,
    convolve,
    dirac,
    modulus_check,
    push_function,
    rationalize,
    uniform,
)
from .folner import (
    BallsStrategy,
    Coloring,
    ExhaustiveColorings,
    FolnerCertificate,
    LocalColorings,
    LocalSetStrategy,
    adversary_coloring,
    build_certificate,
    cantor_check,
    check_certificate,
    folner_search,
    monochromatic_translate,
    moore_gap,
    perfect_net,
    theta_boost_check,
)
from .ramsey import (
    Embedding,
    FinMetric,
    embeddings,
    ramsey_condition_check,
    ramsey_mu,
)
