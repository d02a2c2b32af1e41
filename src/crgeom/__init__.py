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
                           InvariantReport, compute_infinite_type,
                           essentiality_check, full_report, nondegeneracy_ell,
                           validate)
from .frame import (Frame, FrameField, Filtration, LeviData, bracket,
                    desingularize, filtration, iterated_forms, levi_matrix)
from .crmap import (HoloMap, MapFrameData, ResidualReport, check_identities,
                    frame_data, map_vars, maps_into, restrict_map)
from .briot_bouquet import (BBSystem, DulacReport, FormalLogSolution,
                            LinearPart, bb_vars, dulac_classify, formal_solve,
                            linear_part, numeric_oracle, resonances)
from .prolongation import (JetSpace, ProlongedSystem, assemble_and_solve,
                           contact_prolong, jet_of_function, jet_slots,
                           rhs_vars, var_name)

__version__ = "0.1.0"

__all__ = [
    "CrgeomError", "DivisibilityError", "InvariantViolation",
    "NotAContractionError", "ParseError", "TruncationError",
    "UnitRequiredError", "ValidationError",
    "GaussRational", "Series", "hypersurface_vars", "implicit_solve",
    "parse_series",
    "EllVerdict", "EssentialityVerdict", "Hypersurface", "InvariantReport",
    "compute_infinite_type", "essentiality_check", "full_report",
    "nondegeneracy_ell", "validate",
    "Frame", "FrameField", "Filtration", "LeviData", "bracket",
    "desingularize", "filtration", "iterated_forms", "levi_matrix",
    "HoloMap", "MapFrameData", "ResidualReport", "check_identities",
    "frame_data", "map_vars", "maps_into", "restrict_map",
    "BBSystem", "DulacReport", "FormalLogSolution", "LinearPart", "bb_vars",
    "dulac_classify", "formal_solve", "linear_part", "numeric_oracle",
    "resonances",
    "JetSpace", "ProlongedSystem", "assemble_and_solve", "contact_prolong",
    "jet_of_function", "jet_slots", "rhs_vars", "var_name",
    "__version__",
]
