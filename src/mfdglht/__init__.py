"""Finite-sample general linear hypothesis tests for multivariate functional data."""

from .dataset import *
from .dof import *
from .errors import *
from .fstats import *
from .glht import *
from .simulate import *

__version__ = "0.1.0"
