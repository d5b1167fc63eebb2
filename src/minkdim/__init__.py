"""Hausdorff dimensions of continued-fraction digit-restricted sets and of
their images under the Minkowski question-mark function.

The headline computation: the set of x in (0, 1] whose partial quotients all
lie in {1, ..., 9} has dimension at most 0.985445112 (Jarnik-type bounds),
while its Minkowski image is exactly self-similar with dimension
0.9985778625536... (Moran root) -- so the Minkowski function does not
preserve Hausdorff dimension.
"""

__version__ = "0.1.0"

from .errors import BudgetExceededError, ToleranceError
from .cf_core import (
    DEFAULT_BUDGET,
    ContinuedFraction,
    DigitSet,
    RationalInterval,
    alternate_form,
    canonicalize,
    cf_from_rational,
    cf_value,
    convergents,
    cylinder_interval,
)
from .minkowski_eval import (
    DyadicRational,
    minkowski_enclosure,
    minkowski_finite,
    minkowski_periodic,
)
from .selfsimilar import (
    image_cylinder,
    image_diameter,
    image_hulls,
    image_inf,
    image_sup,
    tail_set_diameter,
    tail_set_inf,
    tail_set_sup,
)
from .moran_solver import MoranRoot, bisect_newton, moran_function, moran_root
from .dim_bounds import (
    BoundsInterval,
    Preservation,
    PreservationVerdict,
    jarnik_bounds,
    preservation_verdict,
)
from .empirical_dim import (
    CoveringEstimate,
    Side,
    estimate_series,
    successive_differences,
)

from types import ModuleType as _ModuleType

__all__ = ["__version__"] + [  # the public names bound above, submodules aside
    name
    for name, value in [*globals().items()]
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
