"""Plain-text model artifacts.

Every fitted model serializes to a sectioned key-value file that starts with
``family = <model.family>`` and embeds the encoding configuration it was fit
with, so prediction needs nothing beyond the artifact.  Floats are written
with ``repr`` and therefore reload bit-exactly: a reloaded model's batch
predictions equal those of the model that was saved.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .ann import AnnModel, NetworkTopology, TargetScaler, Weights
from .config import (
    Pairs,
    Sections,
    _bool_of,
    _float_of,
    _hidden_of,
    _int_of,
    _link_of,
    _value_of,
    dump_sections,
    encoding_from_pairs,
    encoding_to_pairs,
    format_float,
    read_sections,
)
from .dataset import FEATURE_NAMES
from .errors import ValidationError
from .gam import GamModel, InteractionTerm, SmoothConfig, SmoothFunction
from .glm import GlmModel


def _floats(values) -> str:
    return " ".join(format_float(v) for v in np.asarray(values, dtype=float).ravel())


def _array_of(mapping: dict[str, str], key: str) -> np.ndarray:
    """Space-separated floats; an empty value is an empty array."""
    return np.array(
        [_float_of({key: token}, key) for token in _value_of(mapping, key).split()],
        dtype=float,
    )


def _feature_index(name: str) -> int:
    try:
        return FEATURE_NAMES.index(name)
    except ValueError:
        raise ValidationError(f"unknown feature name {name!r} in artifact") from None


# -- GLM ---------------------------------------------------------------------


def _glm_sections(model: GlmModel) -> Sections:
    head: Pairs = [
        ("family", "glm"),
        ("link", model.link.value),
        ("intercept", format_float(model.intercept)),
    ]
    head += [
        (f"coef_{name}", format_float(value))
        for name, value in zip(FEATURE_NAMES, model.coef)
    ]
    head += [
        ("rss", format_float(model.rss)),
        ("iterations", str(model.iterations)),
    ]
    return [("", head), ("encoding", encoding_to_pairs(model.encoding))]


def _glm_from_sections(sections: Sections) -> GlmModel:
    head = dict(sections[0][1])
    encoding = encoding_from_pairs(_section(sections, "encoding"))
    return GlmModel(
        intercept=_float_of(head, "intercept"),
        coef=np.array([_float_of(head, f"coef_{name}") for name in FEATURE_NAMES]),
        link=_link_of(head, "link"),
        rss=_float_of(head, "rss"),
        iterations=_int_of(head, "iterations"),
        encoding=encoding,
    )


# -- GAM ---------------------------------------------------------------------


def _gam_sections(model: GamModel) -> Sections:
    head: Pairs = [
        ("family", "gam"),
        ("link", model.link.value),
        ("intercept", format_float(model.intercept)),
        ("rss", format_float(model.rss)),
        ("knots", str(model.smooth_config.knots)),
        ("penalty", format_float(model.smooth_config.penalty)),
        ("force_linear", "yes" if model.smooth_config.force_linear else "no"),
    ]
    sections: Sections = [("", head), ("encoding", encoding_to_pairs(model.encoding))]
    for name, smooth in zip(FEATURE_NAMES, model.smooths):
        pairs: Pairs = [("kind", smooth.kind), ("center", format_float(smooth.center))]
        if smooth.kind == "linear":
            pairs.append(("slope", format_float(smooth.slope)))
        else:
            pairs.append(("knot_positions", _floats(smooth.knots)))
            pairs.append(("knot_values", _floats(smooth.values)))
        sections.append((f"smooth {name}", pairs))
    for term in model.interactions:
        sections.append(
            (
                "interaction",
                [
                    ("pair", f"{FEATURE_NAMES[term.i]} {FEATURE_NAMES[term.j]}"),
                    ("gamma", format_float(term.gamma)),
                ],
            )
        )
    return sections


def _gam_from_sections(sections: Sections) -> GamModel:
    head = dict(sections[0][1])
    encoding = encoding_from_pairs(_section(sections, "encoding"))
    smooths: dict[int, SmoothFunction] = {}
    interactions: list[InteractionTerm] = []
    for name, pairs in sections[1:]:
        data = dict(pairs)
        if name.startswith("smooth "):
            feature = _feature_index(name.split(" ", 1)[1])
            kind = _value_of(data, "kind")
            if kind == "linear":
                knots, values, slope = np.empty(0), np.empty(0), _float_of(data, "slope")
            elif kind == "spline":
                knots, values = _array_of(data, "knot_positions"), _array_of(data, "knot_values")
                if knots.size != values.size:
                    raise ValidationError(f"[{name}]: {knots.size} knots but {values.size} values")
                slope = 0.0
            else:
                raise ValidationError(f"[{name}]: unknown smooth kind {kind!r}")
            center = _float_of(data, "center")
            smooths[feature] = SmoothFunction(kind, knots, values, slope, center)
        elif name == "interaction":
            names = _value_of(data, "pair").split()
            if len(names) != 2:
                raise ValidationError(f"interaction pair needs two feature names, got {names}")
            interactions.append(
                InteractionTerm(*map(_feature_index, names), _float_of(data, "gamma"))
            )
    if sorted(smooths) != list(range(len(FEATURE_NAMES))):
        raise ValidationError("artifact is missing smooth sections")
    return GamModel(
        intercept=_float_of(head, "intercept"),
        link=_link_of(head, "link"),
        smooths=tuple(smooths[j] for j in range(len(FEATURE_NAMES))),
        interactions=tuple(interactions),
        rss=_float_of(head, "rss"),
        smooth_config=SmoothConfig(
            knots=_int_of(head, "knots"),
            penalty=_float_of(head, "penalty"),
            force_linear=_bool_of(head, "force_linear"),
        ),
        encoding=encoding,
    )


# -- ANN ---------------------------------------------------------------------


def _ann_sections(model: AnnModel) -> Sections:
    sizes = model.topology.layer_sizes()
    head: Pairs = [
        ("family", "ann"),
        ("inputs", str(sizes[0])),
        ("hidden", ",".join(str(h) for h in model.topology.hidden)),
        ("outputs", str(sizes[-1])),
        ("scaler_lo", format_float(model.scaler.lo)),
        ("scaler_hi", format_float(model.scaler.hi)),
        ("stopped_epoch", str(model.stopped_epoch)),
    ]
    sections: Sections = [("", head), ("encoding", encoding_to_pairs(model.encoding))]
    for index, (w, b) in enumerate(zip(model.weights.matrices, model.weights.biases)):
        pairs: Pairs = [("rows", str(w.shape[0])), ("cols", str(w.shape[1]))]
        pairs += [(f"row_{r}", _floats(w[r])) for r in range(w.shape[0])]
        pairs.append(("bias", _floats(b)))
        sections.append((f"layer {index}", pairs))
    sections.append(
        (
            "loss_history",
            [
                ("train", _floats(model.train_loss)),
                ("val", _floats(model.val_loss)),
            ],
        )
    )
    return sections


def _ann_from_sections(sections: Sections) -> AnnModel:
    head = dict(sections[0][1])
    encoding = encoding_from_pairs(_section(sections, "encoding"))
    topology = NetworkTopology(hidden=_hidden_of(head, "hidden"))
    sizes = topology.layer_sizes()
    for key, width in (("inputs", sizes[0]), ("outputs", sizes[-1])):
        if _int_of(head, key) != width:
            raise ValidationError(f"key {key!r}: the network has {width}, got {head[key]!r}")
    layers: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    losses: dict[str, np.ndarray] = {"train": np.empty(0), "val": np.empty(0)}
    for name, pairs in sections[1:]:
        data = dict(pairs)
        if name.startswith("layer "):
            index = _int_of({name: name.split(" ", 1)[1]}, name)
            if not 0 <= index < len(sizes) - 1:
                raise ValidationError(f"[{name}]: no such layer in topology {sizes}")
            rows, cols = sizes[index + 1], sizes[index]
            if (_int_of(data, "rows"), _int_of(data, "cols")) != (rows, cols):
                raise ValidationError(f"[{name}]: shape does not match topology {sizes}")
            matrix = [_array_of(data, f"row_{r}") for r in range(rows)]
            bias = _array_of(data, "bias")
            if bias.shape != (rows,) or any(row.shape != (cols,) for row in matrix):
                raise ValidationError(f"[{name}]: matrix shape mismatch")
            layers[index] = (np.vstack(matrix), bias)
        elif name == "loss_history":
            losses["train"] = _array_of(data, "train")
            losses["val"] = _array_of(data, "val")
    expected = len(sizes) - 1
    if sorted(layers) != list(range(expected)):
        raise ValidationError("artifact is missing layer sections")
    return AnnModel(
        topology=topology,
        weights=Weights(
            matrices=tuple(layers[i][0] for i in range(expected)),
            biases=tuple(layers[i][1] for i in range(expected)),
        ),
        scaler=TargetScaler(lo=_float_of(head, "scaler_lo"), hi=_float_of(head, "scaler_hi")),
        train_loss=tuple(losses["train"]),
        val_loss=tuple(losses["val"]),
        stopped_epoch=_int_of(head, "stopped_epoch"),
        encoding=encoding,
    )


# -- public API ---------------------------------------------------------------


def _section(sections: Sections, name: str) -> Pairs:
    for sec_name, pairs in sections:
        if sec_name == name:
            return pairs
    raise ValidationError(f"artifact is missing [{name}] section")


_CODECS = {
    "glm": (_glm_sections, _glm_from_sections),
    "gam": (_gam_sections, _gam_from_sections),
    "ann": (_ann_sections, _ann_from_sections),
}


def save_model(model, path: str | Path) -> None:
    codec = _CODECS.get(getattr(model, "family", None))
    if codec is None:
        raise ValidationError(f"cannot serialize {type(model).__name__}")
    Path(path).write_text(dump_sections(codec[0](model)), encoding="utf-8")


def load_model(path: str | Path):
    sections = read_sections(path)
    family = dict(sections[0][1]).get("family")
    codec = _CODECS.get(family)
    if codec is None:
        raise ValidationError(f"{path}: unknown or missing model family {family!r}")
    try:
        return codec[1](sections)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
