"""Pricing laboratory for health expenditure models.

Three model families share one tabular pipeline: a linear model (GLM), an
additive model with spline smooths (GAM), and a small backpropagation
network (ANN).  The evaluation harness compares them on held-out accuracy
bands and overfitting behaviour.

Public names live in the submodules; the package exports only ``__version__``.
The layers are ``dataset``, ``glm``, ``smoothing``, ``gam``, ``ann``,
``evaluation``, ``artifacts``, ``config``, ``errors`` and ``cli``.
"""

__version__ = "0.1.0"
