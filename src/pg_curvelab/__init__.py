"""Invariants, classification and offset mates for curves in a
degenerate-metric 3-space.

The ambient space measures a vector by its first component when that is
nonzero and by a 1+1 Lorentzian form on the remaining two otherwise.
This package provides:

* the metric, cross product and similarity motions (:mod:`.algebra`);
* curve handles carrying analytic or finite-difference jets
  (:mod:`.curves`);
* the classical moving frame with curvature, torsion and the frame sign
  (:mod:`.frenet`);
* the similarity-invariant apparatus — curvature radius, its rate, the
  torsion-to-curvature ratio and the scaled frame (:mod:`.equiform`);
* span-condition classification of the higher derivative vectors in the
  moving frame, in scalar and vector form (:mod:`.aw`);
* construction and verification of constant normal-offset mate pairs
  (:mod:`.bertrand`);
* a catalogue of closed-form example curves with oracle data
  (:mod:`.zoo`) and a deterministic CSV/JSON command line (:mod:`.cli`).
"""

from .algebra import (CausalClass, PGVector, SimilarityMotion,
                      apply_similarity, apply_similarity_linear, causal_class,
                      det3, pg_cross, pg_dot)
from .aw import (AWReport, AWResiduals, AWVerdict, DerivativeVectors,
                 UnitDirections, aw_residuals, classify, derivative_vectors,
                 sigma_rates, unit_directions, vector_identity_residuals)
from .bertrand import (BertrandNature, BertrandPair, bertrand_mate,
                       bertrand_nature, verify_bertrand_pair)
from .curves import (CurveJet, JetKind, apply_homothety, make_analytic_curve,
                     make_sampled_curve)
from .equiform import (EquiformData, NaturalClass, NaturalClassTag,
                       equiform_data, equiform_grid, equiform_residual,
                       natural_class)
from .errors import (CurveLabError, EmptyDomainError, EmptyGridError,
                     InadmissibleCurveError, IsotropicTangentError,
                     JetOrderError, LightlikeNormalError,
                     MateInadmissibleError, NarrowDomainError,
                     ParameterConstraintError, StepTooSmallError,
                     UnknownCurveError)
from .frenet import (AdmissibilityReport, FrenetData, check_admissibility,
                     equiform_parameter, frame_determinant, frenet_data,
                     frenet_residual, invariants_general)
from .series import DSeries
from .zoo import (OracleForms, ZooEntry, bertrand_fixture, get_example,
                  isotropic_circle_fixture, zoo_names)

__version__ = "0.1.0"

__all__ = [
    "AWReport", "AWResiduals", "AWVerdict", "AdmissibilityReport",
    "BertrandNature", "BertrandPair", "CausalClass", "CurveJet",
    "CurveLabError", "DSeries", "DerivativeVectors", "EmptyDomainError",
    "EmptyGridError", "EquiformData", "FrenetData", "InadmissibleCurveError",
    "IsotropicTangentError", "JetKind", "JetOrderError",
    "LightlikeNormalError", "MateInadmissibleError", "NarrowDomainError",
    "NaturalClass", "NaturalClassTag", "OracleForms",
    "ParameterConstraintError", "PGVector", "SimilarityMotion",
    "StepTooSmallError", "UnitDirections", "UnknownCurveError", "ZooEntry",
    "apply_homothety", "apply_similarity", "apply_similarity_linear",
    "aw_residuals", "bertrand_fixture", "bertrand_mate", "bertrand_nature",
    "causal_class", "check_admissibility", "classify", "derivative_vectors",
    "det3", "equiform_data", "equiform_grid", "equiform_parameter",
    "equiform_residual", "frame_determinant", "frenet_data",
    "frenet_residual", "get_example", "invariants_general",
    "isotropic_circle_fixture", "make_analytic_curve", "make_sampled_curve",
    "natural_class", "pg_cross", "pg_dot", "sigma_rates", "unit_directions",
    "vector_identity_residuals", "verify_bertrand_pair", "zoo_names",
    "__version__",
]
