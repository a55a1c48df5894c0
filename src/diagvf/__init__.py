"""Bivariate natural exponential families with quadratic diagonal variance
functions: quartic characterization, admissibility, measures, verification.
"""

from .errors import (ConfigError, Degenerate, DiagVFError, DomainViolation,
                     NoDominantAtom, NotAdmissible, NotARoot, NotNormalized,
                     NRootDeficit, OutOfMeanDomain, WeightCountMismatch)
from .roots import (DiagonalVFParams, Quartic, RootPattern, RootSet,
                    build_characteristic_quartic, classify_root_pattern,
                    dual_ordinate, solve_quartic)
from .model import (AdmissibilityVerdict, CandidateModel, LatticeMatrix,
                    StarReport, admissibility_verdict, candidate_model,
                    make_model, star_condition)
from .measure import (DiagCheckReport, FiniteMeasure, RegressionReport,
                      check_model, cumulant_eval, diag_variance_check,
                      mean_to_theta, realize_measure, regression_check,
                      tilt_member)
from .series import (EliminationForm, SeriesReport, expand_series,
                     first_negative_coefficient, magnitude_scan)
from .pipeline import (PipelineReport, emit_report, parse_config,
                       report_to_dict, run_characterize)

__version__ = "0.1.0"
