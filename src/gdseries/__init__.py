"""Numerical laboratory for general Dirichlet series sum a_n e^(-lambda_n s).

Frequencies, gap conditions and density estimates live in ``frequency``;
the windowed limsup behind every abscissa estimate in ``estimates``; series
evaluation with certified line sups in ``series``; Riesz typical means and
their integral identities in ``riesz``; partial-sum bounds and abscissa
estimators in ``bounds``; the truncated Perron formula in ``perron``; the
Neder divergent-but-Cauchy construction in ``neder``; the twelve numbered
acceptance checks in ``acceptance``.  ``cli`` wires every operation to a
subcommand.

Public names are declared in one place only: the ``__all__`` of the module
that defines them.  The package re-exports every one of them, and its own
``__all__`` is their union.
"""

from . import estimates, frequency, series, riesz, bounds, perron, neder
from .estimates import *  # noqa: F401,F403
from .frequency import *  # noqa: F401,F403
from .series import *  # noqa: F401,F403
from .riesz import *  # noqa: F401,F403
from .bounds import *  # noqa: F401,F403
from .perron import *  # noqa: F401,F403
from .neder import *  # noqa: F401,F403

__version__ = "0.1.0"

_MODULES = (estimates, frequency, series, riesz, bounds, perron, neder)
__all__ = [name for module in _MODULES for name in module.__all__]
