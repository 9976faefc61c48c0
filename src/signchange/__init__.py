"""Sign counting and sign change counting with generalized subgradients.

The library computes the two counting functions on real vectors, the
transition map whose squared norm reproduces the change count at weight
1/2, the associated coupled and decoupled subgradient gaps, smoothing
approximations, the count table over the sign grid (:mod:`signchange.grid`)
and the optimality machinery built on them: 1-D interval checks, 2-D and
3-D multiplier surfaces and an exact 4-D finite-direction feasibility
decision.  The brute-force oracles (:mod:`signchange.oracles`, which no
library module imports) check the counts, norms, gaps, Hessian eigenvalues
and the 4-D decision; transition_map, count_nonzero, classify_point, gap_profile,
lagrangian_residual, the multipliers and the rest have unit tests only.

The public names of every submodule are re-exported here.
"""

from . import counting, grid, optimality, oracles, polysys, subgradients, transitions
from .counting import *  # noqa: F403
from .grid import *  # noqa: F403
from .optimality import *  # noqa: F403
from .oracles import *  # noqa: F403
from .polysys import *  # noqa: F403
from .subgradients import *  # noqa: F403
from .transitions import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (counting, transitions, subgradients, grid, oracles, optimality, polysys)
    for name in module.__all__
] + ["__version__"]
