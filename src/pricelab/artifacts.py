"""Plain-text model artifacts.

Every fitted model serializes to a sectioned key-value file that starts with
``family = <model.family>`` and holds only what prediction and ``compare``
need: the parameters, the settings ``compare`` rebuilds its scan from (link,
GAM smoothing, ANN hidden sizes) and one-line fit summaries (``rss``,
``iterations``, ``stopped_epoch``).  Its ``[encoding]`` section records the
one encoding, ``config.ENCODING_PAIRS``; ``load_model`` refuses a section
with another value (an older version's custom encoding), naming the key, so
such a model is never priced on inputs it was not fit on.  For the same
reason it refuses a GAM's ``[interaction]`` section, which older versions
wrote: no model prices interaction terms.  A loaded ANN has empty loss
histories.  Keys and sections no codec asks for are skipped, so
older artifacts, such as ANN ones with ``[loss_history]``, still load.
``save_model`` and ``load_model`` write and read the frame; each family's
codec handles its head keys and its own sections.  Floats are written with
``repr`` and reload bit-exactly: a reloaded model predicts as the saved one.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .ann import AnnModel, NetworkTopology, TargetScaler, Weights
from .config import (
    ENCODING_PAIRS,
    Pairs,
    Sections,
    _bool_of,
    _float_of,
    _hidden_of,
    _int_of,
    _link_of,
    _value_of,
    dump_sections,
    format_float,
    read_sections,
)
from .dataset import FEATURE_NAMES
from .errors import NumericError, ValidationError
from .gam import GamModel, SmoothConfig, SmoothFunction
from .glm import GlmModel


def _floats(values) -> str:
    return " ".join(format_float(v) for v in np.asarray(values, dtype=float).ravel())


def _finite_of(mapping: dict[str, str], key: str) -> float:
    """Every float an artifact holds is read here; inf and nan are refused."""
    value = _float_of(mapping, key)
    if not np.isfinite(value):
        raise ValidationError(f"key {key!r}: not a finite number: {mapping[key]!r}")
    return value


def _array_of(mapping: dict[str, str], key: str) -> np.ndarray:
    """Space-separated finite floats; an empty value is an empty array."""
    return np.array(
        [_finite_of({key: token}, key) for token in _value_of(mapping, key).split()],
        dtype=float,
    )


def _feature_index(name: str) -> int:
    try:
        return FEATURE_NAMES.index(name)
    except ValueError:
        raise ValidationError(f"unknown feature name {name!r} in artifact") from None


# -- GLM ---------------------------------------------------------------------


def _glm_sections(model: GlmModel) -> tuple[Pairs, Sections]:
    head: Pairs = [
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
    return head, []


def _glm_from_sections(head: dict, sections: Sections) -> GlmModel:
    return GlmModel(
        intercept=_finite_of(head, "intercept"),
        coef=np.array([_finite_of(head, f"coef_{name}") for name in FEATURE_NAMES]),
        link=_link_of(head, "link"),
        rss=_finite_of(head, "rss"),
        iterations=_int_of(head, "iterations"),
    )


# -- GAM ---------------------------------------------------------------------


def _gam_sections(model: GamModel) -> tuple[Pairs, Sections]:
    head: Pairs = [
        ("link", model.link.value),
        ("intercept", format_float(model.intercept)),
        ("rss", format_float(model.rss)),
        ("knots", str(model.smooth_config.knots)),
        ("penalty", format_float(model.smooth_config.penalty)),
        ("force_linear", "yes" if model.smooth_config.force_linear else "no"),
    ]
    sections: Sections = []
    for name, smooth in zip(FEATURE_NAMES, model.smooths):
        pairs: Pairs = [("kind", smooth.kind), ("center", format_float(smooth.center))]
        if smooth.kind == "linear":
            pairs.append(("slope", format_float(smooth.slope)))
        else:
            pairs.append(("knot_positions", _floats(smooth.knots)))
            pairs.append(("knot_values", _floats(smooth.values)))
        sections.append((f"smooth {name}", pairs))
    return head, sections


def _gam_from_sections(head: dict, sections: Sections) -> GamModel:
    smooths: dict[int, SmoothFunction] = {}
    for name, pairs in sections:
        data = dict(pairs)
        if name.startswith("smooth "):
            feature = _feature_index(name.split(" ", 1)[1])
            kind = _value_of(data, "kind")
            if kind == "linear":
                knots, values, slope = np.empty(0), np.empty(0), _finite_of(data, "slope")
            elif kind == "spline":
                knots, values = _array_of(data, "knot_positions"), _array_of(data, "knot_values")
                if knots.size < 2 or not np.all(np.diff(knots) > 0):
                    raise ValidationError(
                        f"[{name}]: key 'knot_positions': need 2 or more strictly increasing knots"
                    )
                if knots.size != values.size:
                    got = f"expected {knots.size} numbers, got {values.size}"
                    raise ValidationError(f"[{name}]: key 'knot_values': {got}")
                slope = 0.0
            else:
                raise ValidationError(f"[{name}]: unknown smooth kind {kind!r}")
            center = _finite_of(data, "center")
            smooths[feature] = SmoothFunction(kind, knots, values, slope, center)
        elif name == "interaction":
            raise ValidationError("[interaction]: interaction terms are no longer priced; "
                                  "refit the model")
    if sorted(smooths) != list(range(len(FEATURE_NAMES))):
        raise ValidationError("artifact is missing smooth sections")
    return GamModel(
        intercept=_finite_of(head, "intercept"),
        link=_link_of(head, "link"),
        smooths=tuple(smooths[j] for j in range(len(FEATURE_NAMES))),
        rss=_finite_of(head, "rss"),
        smooth_config=SmoothConfig(
            knots=_int_of(head, "knots"),
            penalty=_finite_of(head, "penalty"),
            force_linear=_bool_of(head, "force_linear"),
        ),
    )


# -- ANN ---------------------------------------------------------------------


def _ann_sections(model: AnnModel) -> tuple[Pairs, Sections]:
    head: Pairs = [
        ("hidden", ",".join(str(h) for h in model.topology.hidden)),
        ("scaler_lo", format_float(model.scaler.lo)),
        ("scaler_hi", format_float(model.scaler.hi)),
        ("stopped_epoch", str(model.stopped_epoch)),
    ]
    sections: Sections = []
    for index, (w, b) in enumerate(zip(model.weights.matrices, model.weights.biases)):
        pairs: Pairs = [(f"row_{r}", _floats(w[r])) for r in range(w.shape[0])]
        pairs.append(("bias", _floats(b)))
        sections.append((f"layer {index}", pairs))
    return head, sections


def _ann_from_sections(head: dict, sections: Sections) -> AnnModel:
    topology = NetworkTopology(hidden=_hidden_of(head, "hidden"))
    sizes = topology.layer_sizes()
    scaler = TargetScaler(lo=_finite_of(head, "scaler_lo"), hi=_finite_of(head, "scaler_hi"))
    if scaler.lo > scaler.hi:
        raise ValidationError(f"key 'scaler_lo': {head['scaler_lo']} exceeds scaler_hi")
    layers: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for name, pairs in sections:
        data = dict(pairs)
        if name.startswith("layer "):
            index = _int_of({name: name.split(" ", 1)[1]}, name)
            if not 0 <= index < len(sizes) - 1:
                raise ValidationError(f"[{name}]: no such layer in topology {sizes}")
            rows, cols = sizes[index + 1], sizes[index]
            keys = [*(f"row_{r}" for r in range(rows)), "bias"]
            arrays = [_array_of(data, key) for key in keys]
            for key, values, width in zip(keys, arrays, [cols] * rows + [rows]):
                if values.size != width:
                    got = f"expected {width} numbers, got {values.size}"
                    raise ValidationError(f"[{name}]: key {key!r}: {got}")
            layers[index] = (np.vstack(arrays[:-1]), arrays[-1])
    expected = len(sizes) - 1
    if sorted(layers) != list(range(expected)):
        raise ValidationError("artifact is missing layer sections")
    return AnnModel(
        topology=topology,
        weights=Weights(
            matrices=tuple(layers[i][0] for i in range(expected)),
            biases=tuple(layers[i][1] for i in range(expected)),
        ),
        scaler=scaler,
        train_loss=(),
        val_loss=(),
        stopped_epoch=_int_of(head, "stopped_epoch"),
    )


# -- public API ---------------------------------------------------------------


# What ``format_float`` writes for a float that ``load_model`` would refuse.
_NOT_FINITE = {"inf", "-inf", "nan"}

_CODECS = {
    "glm": (_glm_sections, _glm_from_sections),
    "gam": (_gam_sections, _gam_from_sections),
    "ann": (_ann_sections, _ann_from_sections),
}


def save_model(model, path: str | Path) -> None:
    codec = _CODECS.get(getattr(model, "family", None))
    if codec is None:
        raise ValidationError(f"cannot serialize {type(model).__name__}")
    head, sections = codec[0](model)
    frame = [("", [("family", model.family), *head]),
             ("encoding", ENCODING_PAIRS), *sections]
    for name, pairs in frame:
        for key, value in pairs:
            if _NOT_FINITE.intersection(value.split()):
                where = f"[{name}]: " if name else ""
                raise NumericError(f"{path}: {where}key {key!r}: the fit is not finite; "
                                   "nothing written")
    Path(path).write_text(dump_sections(frame), encoding="utf-8")


def load_model(path: str | Path):
    sections = read_sections(path)
    head = dict(sections[0][1])
    family = head.get("family")
    codec = _CODECS.get(family)
    if codec is None:
        raise ValidationError(f"{path}: unknown or missing model family {family!r}")
    try:
        encoding = next((dict(pairs) for name, pairs in sections if name == "encoding"), None)
        if encoding is None:
            raise ValidationError("artifact is missing [encoding] section")
        for key, value in ENCODING_PAIRS:
            if key in encoding and _float_of(encoding, key) != float(value):
                raise ValidationError(f"[encoding]: key {key!r}: {encoding[key]}, but every "
                                      f"model is encoded with {value}")
        return codec[1](head, sections[1:])
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
