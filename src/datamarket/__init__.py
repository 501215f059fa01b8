"""Profit-maximizing auction and purchase planning for big-data service markets.

The package models a three-party market: a data collector sells raw data at
a linear cost, a service provider turns q data units into a service whose
performance follows a fitted logarithmic law, and customers buy licenses
through a truthful posted-price auction.  Closed-form results (optimal sale
price, optimal purchased data size) come with Monte-Carlo and grid-search
validation harnesses.
"""

from . import auction, fitting, market, optimize, scenario, simulate

# read before the star imports: `from .simulate import *` rebinds the name
# simulate from the submodule to the function
__all__ = [name for module in (auction, fitting, market, optimize, scenario, simulate)
           for name in module.__all__]

from .auction import *  # noqa: E402,F401,F403
from .fitting import *  # noqa: E402,F401,F403
from .market import *  # noqa: E402,F401,F403
from .optimize import *  # noqa: E402,F401,F403
from .scenario import *  # noqa: E402,F401,F403
from .simulate import *  # noqa: E402,F401,F403

__version__ = "0.1.0"
