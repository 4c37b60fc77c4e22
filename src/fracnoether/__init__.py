"""Fractional isoperimetric variational calculus in the Riemann-Liouville sense.

Library layers, over gammafn, grids and fields:

- frac_kernels: RL fractional integrals and derivatives on uniform grids
- problems: the isoperimetric variational problem and Euler-Lagrange residuals
- noether: fractional conservation laws via the pair operator
- hamiltonian: the optimal-control layer and Pontryagin-side residuals
- solver: direct transcription Newton solver for extremals
- cli: the `fracnoether` command line front end
"""

# Each library module declares its public names once, in its __all__, and is
# re-exported whole; a star import also binds the module here, as in asyncio.
from .fields import *
from .frac_kernels import *
from .gammafn import *
from .grids import *
from .hamiltonian import *
from .noether import *
from .problems import *
from .solver import *

__version__ = "0.1.0"

__all__ = (
    fields.__all__
    + frac_kernels.__all__
    + gammafn.__all__
    + grids.__all__
    + hamiltonian.__all__
    + noether.__all__
    + problems.__all__
    + solver.__all__
    + ["__version__"]
)
