"""Confidence bounds on individual-level consumer welfare loss.

Pipeline: per-good confidence intervals for the demand parameter theta
(rank-dependence inversion, least squares with the delta method, or their
intersection), assembled into a joint box, over which the welfare-loss
functional is minimized and maximized, optionally under a sum constraint.
"""

from .confset import (
    GridSpec,
    ShapeDiagnostic,
    XiProfile,
    bonferroni_share,
    cs_combined,
    cs_xi,
    intersect,
    shape_diagnostic,
    smooth_instrument,
)
from .errors import (
    ConfigError,
    DataError,
    DegenerateResponse,
    EmptyConfidenceSet,
    InvalidGrid,
    InvalidLevel,
    InvalidQuery,
    InvalidSample,
    InvalidTheta,
    NearZeroSlope,
    NegativePriceChange,
    NonpositiveSlope,
    NumericalError,
    ParseError,
    SchemaError,
    SingularDesign,
    TooFewObservations,
    WeakFirstStage,
    WelfareBoundsError,
)
from .regress import GoodSample, Interval, LsFit, fit_inverse_demand, theta_interval_delta
from .simulate import DgpConfig, McReport, draw_sample, mc_table1, mc_table2
from .welfare import (
    POSITIVITY_FLOOR,
    ConstraintSet,
    WelfareBounds,
    WelfareQuery,
    bounds_box,
    welfare_loss,
)
from .xicor import PairedSample, critical_value, xi

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ConstraintSet",
    "DataError",
    "DegenerateResponse",
    "DgpConfig",
    "EmptyConfidenceSet",
    "GoodSample",
    "GridSpec",
    "Interval",
    "InvalidGrid",
    "InvalidLevel",
    "InvalidQuery",
    "InvalidSample",
    "InvalidTheta",
    "LsFit",
    "McReport",
    "NearZeroSlope",
    "NegativePriceChange",
    "NonpositiveSlope",
    "NumericalError",
    "POSITIVITY_FLOOR",
    "PairedSample",
    "ParseError",
    "SchemaError",
    "ShapeDiagnostic",
    "SingularDesign",
    "TooFewObservations",
    "WeakFirstStage",
    "WelfareBounds",
    "WelfareBoundsError",
    "WelfareQuery",
    "XiProfile",
    "bonferroni_share",
    "bounds_box",
    "critical_value",
    "cs_combined",
    "cs_xi",
    "draw_sample",
    "fit_inverse_demand",
    "intersect",
    "mc_table1",
    "mc_table2",
    "shape_diagnostic",
    "smooth_instrument",
    "theta_interval_delta",
    "welfare_loss",
    "xi",
]
