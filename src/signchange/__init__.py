"""Sign counting and sign change counting with generalized subgradients.

The library computes the two counting functions on real vectors, the
transition map whose squared norm reproduces the change count at weight
1/2, the associated coupled and decoupled subgradient gaps, smoothing
approximations, and the global-optimality machinery built on them:
interval condition checks in one dimension, closed-form multiplier
surfaces in two and three, and an exact finite-direction feasibility
decision in four.  The brute-force oracles in :mod:`signchange.oracles`
check the counts, norms, gaps and Hessian eigenvalues and the 4-D decision;
transition_map, count_nonzero, classify_point, gap_profile,
lagrangian_residual, the multipliers and the rest have unit tests only.

The public names of every submodule are re-exported here.
"""

from . import counting, optimality, oracles, polysys, subgradients, transitions
from .counting import *  # noqa: F403
from .optimality import *  # noqa: F403
from .oracles import *  # noqa: F403
from .polysys import *  # noqa: F403
from .subgradients import *  # noqa: F403
from .transitions import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (counting, transitions, subgradients, oracles, optimality, polysys)
    for name in module.__all__
] + ["__version__"]
