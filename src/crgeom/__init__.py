"""Exact symbolic toolkit for infinite-type real hypersurfaces:
truncated series arithmetic, CR frames and Levi data, holomorphic-map
verification, singular (Briot-Bouquet type) ODE solving, and jet
prolongation."""

from .errors import (CrgeomError, DivisibilityError, InvariantViolation,
                     NotAContractionError, ParseError, TruncationError,
                     UnitRequiredError, ValidationError)
from .scalars import GaussRational
from .series import Series, hypersurface_vars, implicit_solve
from .parsing import parse_series
from .hypersurface import (EllVerdict, EssentialityVerdict, Hypersurface,
                           InvariantReport, essentiality_check, full_report,
                           nondegeneracy_ell)
from .frame import (Frame, Filtration, LeviData, filtration, iterated_forms,
                    levi)
from .crmap import (ComposedTarget, HoloMap, MapFrameData, ResidualReport,
                    RestrictionData, check_identities, compose_target,
                    frame_data, map_vars, maps_into, restrict_map,
                    restriction_data)
from .briot_bouquet import (BBSystem, DulacReport, FormalLogSolution,
                            LinearPart, bb_vars, dulac_classify, formal_solve,
                            linear_part, numeric_oracle, resonances)
from .prolongation import (ProlongedSystem, assemble_and_solve,
                           contact_prolong, jet_slots, rhs_vars, var_name)

__version__ = "0.1.0"

__all__ = [
    "CrgeomError", "DivisibilityError", "InvariantViolation",
    "NotAContractionError", "ParseError", "TruncationError",
    "UnitRequiredError", "ValidationError",
    "GaussRational", "Series", "hypersurface_vars", "implicit_solve",
    "parse_series",
    "EllVerdict", "EssentialityVerdict", "Hypersurface", "InvariantReport",
    "essentiality_check", "full_report", "nondegeneracy_ell",
    "Frame", "Filtration", "LeviData", "filtration",
    "iterated_forms", "levi",
    "ComposedTarget", "HoloMap", "MapFrameData", "ResidualReport",
    "RestrictionData", "check_identities", "compose_target", "frame_data",
    "map_vars", "maps_into", "restrict_map", "restriction_data",
    "BBSystem", "DulacReport", "FormalLogSolution", "LinearPart", "bb_vars",
    "dulac_classify", "formal_solve", "linear_part", "numeric_oracle",
    "resonances",
    "ProlongedSystem", "assemble_and_solve", "contact_prolong",
    "jet_slots", "rhs_vars", "var_name",
    "__version__",
]
