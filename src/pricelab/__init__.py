"""Pricing laboratory for health expenditure models.

Three model families share one tabular pipeline: a linear model (GLM), an
additive model with spline smooths and optional interaction terms (GAM), and
a small backpropagation network (ANN).  The evaluation harness compares them
on held-out accuracy bands and overfitting behaviour.
"""

__version__ = "0.1.0"

from .ann import (
    AnnModel,
    NetworkTopology,
    TargetScaler,
    TrainingConfig,
    Weights,
    gradient_check,
    init_weights,
    predict_ann,
    train,
)
from .artifacts import load_model, save_model
from .dataset import (
    CLAIMS,
    Dataset,
    EncodingConfig,
    FEATURE_NAMES,
    Gender,
    GeneratorParams,
    PriorClaim,
    encode_dataset,
    generate_synthetic,
    load_csv,
    split_half,
    write_csv,
)
from .evaluation import (
    AccuracyBand,
    AnnFamily,
    ComparisonReport,
    GamFamily,
    GlmFamily,
    OverfitReport,
    accuracy_band,
    compare,
    format_band,
    learning_curve,
    learning_curve_csv,
    overfit_scan,
    render_markdown,
    report_csv,
)
from .gam import (
    CollinearityReport,
    GamModel,
    InteractionTerm,
    SmoothConfig,
    SmoothFunction,
    add_interaction,
    collinearity_report,
    fit_gam,
    interaction_scan,
    predict_gam,
)
from .glm import GlmModel, LinkKind, fit_glm, predict_glm

__all__ = [
    "__version__",
    "AccuracyBand", "AnnFamily", "AnnModel", "CollinearityReport",
    "CLAIMS", "ComparisonReport", "Dataset", "EncodingConfig",
    "FEATURE_NAMES", "GamFamily", "GamModel", "Gender", "GeneratorParams",
    "GlmFamily", "GlmModel", "InteractionTerm", "LinkKind", "NetworkTopology",
    "OverfitReport", "PriorClaim", "SmoothConfig", "SmoothFunction",
    "TargetScaler", "TrainingConfig", "Weights",
    "accuracy_band", "add_interaction", "collinearity_report", "compare",
    "encode_dataset", "fit_gam", "fit_glm", "format_band",
    "generate_synthetic", "gradient_check", "init_weights",
    "interaction_scan", "learning_curve", "learning_curve_csv", "load_csv",
    "load_model", "overfit_scan", "predict_ann", "predict_gam", "predict_glm",
    "render_markdown", "report_csv", "save_model", "split_half", "train",
    "write_csv",
]
