"""Invariants, classification and offset mates for curves in a
degenerate-metric 3-space.

The ambient space measures a vector by its first component when that is
nonzero and by a 1+1 Lorentzian form on the remaining two otherwise.
This package provides:

* the metric and the similarity motions (:mod:`.algebra`);
* curve handles carrying analytic or finite-difference jets, and the
  similarity group acting on them (:mod:`.curves`);
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

from .algebra import PGVector, SimilarityMotion, det3, pg_dot
from .aw import (AWReport, AWResiduals, AWVerdict, DerivativeVectors,
                 aw_residuals, classify, derivative_vectors, sigma_rates,
                 vector_identity_residuals)
from .bertrand import (BertrandNature, BertrandPair, bertrand_mate,
                       bertrand_nature, verify_bertrand_pair)
from .curves import (CurveJet, JetKind, apply_homothety, apply_similarity,
                     make_analytic_curve, make_sampled_curve)
from .equiform import (EquiformData, NaturalClass, NaturalClassTag,
                       equiform_data, equiform_grid, equiform_residual,
                       natural_class)
from .errors import (CurveLabError, EmptyDomainError, EmptyGridError,
                     InadmissibleCurveError, JetOrderError,
                     LightlikeNormalError, MateInadmissibleError,
                     NarrowDomainError, ParameterConstraintError,
                     StepTooSmallError, UnknownCurveError)
from .frenet import (AdmissibilityReport, FrenetData, check_admissibility,
                     frenet_data, frenet_residual)
from .series import DSeries
from .zoo import ZooEntry, get_example, zoo_names

__version__ = "0.1.0"

__all__ = [
    "AWReport", "AWResiduals", "AWVerdict", "AdmissibilityReport",
    "BertrandNature", "BertrandPair", "CurveJet", "CurveLabError", "DSeries",
    "DerivativeVectors", "EmptyDomainError", "EmptyGridError",
    "EquiformData", "FrenetData", "InadmissibleCurveError", "JetKind",
    "JetOrderError", "LightlikeNormalError", "MateInadmissibleError",
    "NarrowDomainError", "NaturalClass", "NaturalClassTag",
    "ParameterConstraintError", "PGVector", "SimilarityMotion",
    "StepTooSmallError", "UnknownCurveError", "ZooEntry",
    "apply_homothety", "apply_similarity", "aw_residuals",
    "bertrand_mate", "bertrand_nature",
    "check_admissibility", "classify", "derivative_vectors", "det3",
    "equiform_data", "equiform_grid", "equiform_residual", "frenet_data",
    "frenet_residual", "get_example",
    "make_analytic_curve", "make_sampled_curve", "natural_class", "pg_dot",
    "sigma_rates", "vector_identity_residuals", "verify_bertrand_pair",
    "zoo_names", "__version__",
]
