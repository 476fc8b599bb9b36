"""Exact combinatorial toolkit for covering calculus and matching certificates.

Submodules:
  cover      finite coverings: refinement, joins, stars
  bipartite  maximum matching with witnesses, Hall deficiency, covering graphs
  groups     Z^d, free groups, finite table groups
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
    covering_graph,
    hall_deficiency,
    max_matching,
    mu,
    mu_partition,
    mu_partition_witness,
    mu_with_witness,
)
from .groups import (
    FiniteTableGroup,
    FreeGroup,
    GroupModel,
    IntegerLattice,
    cyclic_group,
    group_from_json,
    symmetric_group,
)
from .means import (
    ConvexCombination,
    convolve,
    dirac,
    rationalize,
    uniform,
)
from .folner import (
    BallsStrategy,
    Coloring,
    FolnerCertificate,
    LocalSetStrategy,
    adversary_coloring,
    build_certificate,
    check_certificate,
    folner_search,
    monochromatic_translate,
    perfect_net,
)
from .ramsey import (
    Embedding,
    FinMetric,
    embeddings,
    ramsey_condition_check,
    ramsey_mu,
)
