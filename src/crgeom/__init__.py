"""Exact symbolic toolkit for infinite-type real hypersurfaces:
truncated series arithmetic, CR frames and Levi data, holomorphic-map
verification, singular (Briot-Bouquet type) ODE solving, and jet
prolongation."""

from .errors import (CrgeomError, DivisibilityError, InvariantViolation,
                     NotAContractionError, ParseError, UnitRequiredError,
                     ValidationError)
from .scalars import GaussRational
from .series import Series, hypersurface_vars, implicit_solve
from .parsing import parse_series
from .hypersurface import (EllVerdict, EssentialityVerdict, Hypersurface,
                           essentiality_check, nondegeneracy_ell)
from .frame import Frame, filtration
from .crmap import HoloMap, MapCheck, map_vars
from .briot_bouquet import (BBSystem, FormalLogSolution, bb_vars,
                            formal_solve, numeric_oracle)
from .prolongation import (ProlongedSystem, assemble_and_solve, jet_slots,
                           rhs_vars, var_name)

__version__ = "0.1.0"

__all__ = [
    "CrgeomError", "DivisibilityError", "InvariantViolation",
    "NotAContractionError", "ParseError", "UnitRequiredError",
    "ValidationError",
    "GaussRational", "Series", "hypersurface_vars", "implicit_solve",
    "parse_series",
    "EllVerdict", "EssentialityVerdict", "Hypersurface",
    "essentiality_check", "nondegeneracy_ell",
    "Frame", "filtration",
    "HoloMap", "MapCheck", "map_vars",
    "BBSystem", "FormalLogSolution", "bb_vars", "formal_solve",
    "numeric_oracle",
    "ProlongedSystem", "assemble_and_solve", "jet_slots", "rhs_vars",
    "var_name",
    "__version__",
]
