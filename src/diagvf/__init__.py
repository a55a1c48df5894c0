"""Bivariate natural exponential families with quadratic diagonal variance
functions: quartic characterization, admissibility, measures, verification.
"""

from .errors import (ConfigError, DiagVFError, DomainViolation, NoDominantAtom,
                     NotAdmissible, NotARoot, NRootDeficit, WeightCountMismatch)
from .roots import (DiagonalVFParams, Quartic, RootPattern, RootSet,
                    build_characteristic_quartic, classify_root_pattern,
                    solve_quartic)
from .model import (AdmissibilityVerdict, CandidateModel, LatticeMatrix,
                    StarReport, admissibility_verdict, candidate_model,
                    make_model, star_condition)
from .measure import (CheckReport, FiniteMeasure, check_model, cumulant_eval,
                      realize_measure, tilt_member)
from .series import EliminationForm, SeriesReport, expand_series, magnitude_scan
from .pipeline import (PipelineReport, emit_report, parse_config,
                       report_to_dict, run_characterize)

__version__ = "0.1.0"
