"""Artifact format edge cases (round-trips live in the per-model suites)."""

import pytest

from pricelab.artifacts import load_model, save_model
from pricelab.dataset import EncodingConfig, GeneratorParams, generate_synthetic
from pricelab.errors import ValidationError
from pricelab.glm import fit_glm, predict_glm

import numpy as np


def test_unknown_family_rejected(tmp_path):
    path = tmp_path / "weird.model"
    path.write_text("family = forest\n")
    with pytest.raises(ValidationError, match="family"):
        load_model(path)


def test_unserializable_object_rejected(tmp_path):
    with pytest.raises(ValidationError, match="serialize"):
        save_model({"not": "a model"}, tmp_path / "x.model")


def test_artifact_is_self_contained(tmp_path):
    """A model fit under a custom encoding must reload with that encoding
    embedded, so predictions need no side channel."""
    encoding = EncodingConfig(age_range=(18.0, 90.0), income_range=(0.0, 99000.0))
    data = generate_synthetic(GeneratorParams(n=40, seed=1), encoding)
    model = fit_glm(data, encoding)
    path = tmp_path / "custom.model"
    save_model(model, path)
    back = load_model(path)
    assert back.encoding == encoding
    X = np.full((1, 6), 0.25)
    assert np.array_equal(predict_glm(back, X), predict_glm(model, X))


def test_artifact_text_is_stable(tmp_path):
    model = fit_glm(generate_synthetic(GeneratorParams(n=30, seed=2)))
    a = tmp_path / "a.model"
    b = tmp_path / "b.model"
    save_model(model, a)
    save_model(model, b)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().startswith("family = glm")
