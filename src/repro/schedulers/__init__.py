"""Inspector algorithms: HDagg plus the paper's baselines.

``SCHEDULERS`` maps names to runners with the uniform signature
``scheduler(g, cost, p=1, **options) -> Schedule``.  Each entry runs the
pass group registered under its name (:mod:`repro.passes.baselines`,
:mod:`repro.passes.hdagg`); the group declares the options it takes.
``epsilon=`` and ``backend=`` are accepted everywhere and ignored by the
groups that have no use for them.

========== ====================================================
name        algorithm
========== ====================================================
hdagg       Hybrid DAG Aggregation (the paper's contribution)
wavefront   level sets + global barriers [2]
spmp        level grouping + point-to-point sync [4]
lbc         load-balanced level coarsening (ParSy) [7]
dagp        acyclic partitioning, list-scheduled quotient [1]
mkl         vendor-style level sets, count chunking (SpTRSV)
coarsenk    fixed-window wavefront coarsening [5], [6]
serial      sequential order (NRE denominator)
========== ====================================================
"""

from .base import SCHEDULERS, chunk_by_cost, chunk_by_count, get_scheduler
from .dagp import acyclic_partition, edge_cut
from .lbc import elimination_tree, forest_components, tree_levels
from .spmp import lpt_assign

__all__ = [
    "SCHEDULERS",
    "get_scheduler",
    "chunk_by_cost",
    "chunk_by_count",
    "acyclic_partition",
    "edge_cut",
    "elimination_tree",
    "forest_components",
    "tree_levels",
    "lpt_assign",
]
