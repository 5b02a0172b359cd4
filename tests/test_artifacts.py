"""Artifact format edge cases (round-trips live in the per-model suites)."""

import re

import pytest

from pricelab.artifacts import load_model, save_model
from pricelab.config import ENCODING_PAIRS
from pricelab.dataset import GeneratorParams, generate_synthetic
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


@pytest.mark.parametrize("key", [key for key, _ in ENCODING_PAIRS])
def test_load_refuses_another_encoding(tmp_path, key):
    """An artifact fitted under another encoding (older versions had encoding
    keys) is refused, naming the key, instead of priced on the wrong inputs.
    The same number written another way still loads."""
    model = fit_glm(generate_synthetic(GeneratorParams(n=40, seed=1)))
    path = tmp_path / "glm.model"
    save_model(model, path)
    text = path.read_text()
    written = dict(ENCODING_PAIRS)[key]
    line, value = f"\n{key} = {written}\n", float(written)
    assert text.count(line) == 1
    path.write_text(text.replace(line, f"\n{key} = {value + 1.0!r}\n"))
    with pytest.raises(ValidationError, match=re.escape(f"{path}: [encoding]: key '{key}': ")):
        load_model(path)
    path.write_text(text.replace(line, f"\n{key} = {value:.3e}\n"))
    X = np.full((1, 6), 0.25)
    assert np.array_equal(predict_glm(load_model(path), X), predict_glm(model, X))


def test_artifact_text_is_stable(tmp_path):
    model = fit_glm(generate_synthetic(GeneratorParams(n=30, seed=2)))
    a = tmp_path / "a.model"
    b = tmp_path / "b.model"
    save_model(model, a)
    save_model(model, b)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().startswith("family = glm")
