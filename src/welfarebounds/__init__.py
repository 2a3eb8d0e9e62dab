"""Confidence bounds on individual-level consumer welfare loss.

Pipeline: per-good confidence intervals for the demand parameter theta
(rank-dependence inversion, least squares with the delta method, or their
intersection), assembled into a joint box, over which the welfare-loss
functional is minimized and maximized, optionally under a sum constraint.

Each public name is imported from its submodule on first use (PEP 562),
so `import welfarebounds` loads no submodule and a command of
`welfarebounds.cli` loads only the layers it runs.
"""

import importlib

__version__ = "0.1.0"

# The public names of each submodule.
_EXPORTS = {
    name: module
    for module, names in {
        "confset": (
            "GridSpec", "ShapeDiagnostic", "XiProfile", "bonferroni_share", "cs_combined",
            "cs_xi", "intersect", "shape_diagnostic", "smooth_instrument",
        ),
        "errors": (
            "ConfigError", "DataError", "DegenerateResponse", "InvalidLevel", "InvalidQuery",
            "InvalidSample", "InvalidTheta", "NearZeroSlope", "NonpositiveSlope", "NumericalError",
            "ParseError", "SchemaError", "SingularDesign", "WeakFirstStage", "WelfareBoundsError",
        ),
        "regress": ("GoodSample", "Interval", "LsFit", "fit_inverse_demand", "theta_interval_delta"),
        "simulate": ("DgpConfig", "McReport", "draw_sample", "mc_table1", "mc_table2"),
        "welfare": (
            "POSITIVITY_FLOOR", "ConstraintSet", "WelfareBounds", "WelfareQuery", "bounds_box",
            "welfare_loss",
        ),
        "xicor": ("PairedSample", "critical_value", "xi"),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _EXPORTS.keys())
