"""Plain-text key-value files: run configs and model artifact sections.

Config files are flat ``key = value`` lines (``#`` comments allowed).
Artifacts reuse the same line syntax grouped under ``[section]`` headers.
Floats are serialized with ``repr`` so artifacts round-trip bit-exactly.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from .ann import NetworkTopology, TrainingConfig
from .dataset import DEFAULT_ENCODING, GeneratorParams, PriorClaim
from .errors import ValidationError, read_text
from .gam import SmoothConfig
from .glm import LinkKind

Pairs = list[tuple[str, str]]
Sections = list[tuple[str, Pairs]]


def format_float(value: float) -> str:
    return repr(float(value))


def read_sections(path: str | Path) -> Sections:
    """Split a key-value file into ordered (section, pairs) groups.

    Lines before the first header belong to the unnamed section ``""``.  A
    syntax error names the file and the line.
    """
    sections: Sections = [("", [])]
    for line_no, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            sections.append((line[1:-1].strip(), []))
            continue
        if "=" not in line:
            raise ValidationError(f"{path}: line {line_no}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        sections[-1][1].append((key.strip(), value.strip()))
    return sections


def dump_sections(sections: Sections) -> str:
    chunks = []
    for name, pairs in sections:
        if name:
            chunks.append(f"[{name}]")
        chunks.extend(f"{key} = {value}" for key, value in pairs)
    return "\n".join(chunks) + "\n"


def read_config(path: str | Path) -> dict[str, str]:
    """Read a flat config file; section headers are not allowed here."""
    sections = read_sections(path)
    if len(sections) > 1:
        raise ValidationError(f"{path}: config files must not contain [section] headers")
    pairs = sections[0][1]
    out: dict[str, str] = {}
    for key, value in pairs:
        if key in out:
            raise ValidationError(f"{path}: duplicate key {key!r}")
        out[key] = value
    unknown = set(out) - KNOWN_KEYS
    if unknown:
        raise ValidationError(f"{path}: unknown key(s): {', '.join(sorted(unknown))}")
    return out


def _value_of(mapping: dict[str, str], key: str) -> str:
    try:
        return mapping[key]
    except KeyError:
        raise ValidationError(f"missing key {key!r}") from None


def _float_of(mapping: dict[str, str], key: str) -> float:
    value = _value_of(mapping, key)
    try:
        return float(value)
    except ValueError:
        raise ValidationError(f"key {key!r}: not a number: {value!r}") from None


def _int_of(mapping: dict[str, str], key: str) -> int:
    value = _value_of(mapping, key)
    try:
        return int(value)
    except ValueError:
        raise ValidationError(f"key {key!r}: not an integer: {value!r}") from None


def _bool_of(mapping: dict[str, str], key: str) -> bool:
    value = _value_of(mapping, key)
    if value.lower() in ("true", "yes", "1"):
        return True
    if value.lower() in ("false", "no", "0"):
        return False
    raise ValidationError(f"key {key!r}: not a boolean: {value!r}")


def _link_of(mapping: dict[str, str], key: str) -> LinkKind:
    value = _value_of(mapping, key)
    try:
        return LinkKind(value)
    except ValueError:
        raise ValidationError(f"key {key!r}: not a link: {value!r}") from None


def _hidden_of(mapping: dict[str, str], key: str) -> tuple[int, ...]:
    return tuple(_int_of({key: size}, key) for size in _value_of(mapping, key).split(","))


def _present(mapping: dict[str, str], fields: dict) -> dict[str, object]:
    """Typed values of the ``fields`` keys present in ``mapping``, by setting name."""
    return {name: read(mapping, key) for key, (name, read) in fields.items() if key in mapping}


# config key -> (setting it fills, typed reader)
_SMOOTH_FIELDS = {
    "knots": ("knots", _int_of),
    "penalty": ("penalty", _float_of),
    "force_linear": ("force_linear", _bool_of),
}
_TRAINING_FIELDS = {
    "learning_rate": ("learning_rate", _float_of),
    "max_epochs": ("max_epochs", _int_of),
}
# one key per GeneratorParams field, read as its declared type
_GENERATOR_FIELDS = {
    f.name: (f.name, _int_of if f.type in (int, "int") else _float_of)
    for f in dataclasses.fields(GeneratorParams)
}


GENERATOR_KEYS = frozenset(_GENERATOR_FIELDS)
MODEL_KEYS = frozenset({"link", "hidden", *_SMOOTH_FIELDS, *_TRAINING_FIELDS})
KNOWN_KEYS = GENERATOR_KEYS | MODEL_KEYS

# The ``[encoding]`` section of every artifact: ``DEFAULT_ENCODING``, age_min first.
ENCODING_PAIRS = (
    *((f"{name}_{end}", format_float(value))
      for name in ("age", "income")
      for end, value in zip(("min", "max"), getattr(DEFAULT_ENCODING, f"{name}_range"))),
    *((f"severity_{claim.value}", format_float(DEFAULT_ENCODING.claim_severity[claim]))
      for claim in PriorClaim),
)


def generator_from_mapping(mapping: dict[str, str]) -> GeneratorParams:
    return GeneratorParams(**_present(mapping, _GENERATOR_FIELDS))


def model_settings_from_mapping(mapping: dict[str, str]) -> dict[str, object]:
    """Family settings from the model keys, by family field; absent keys keep defaults."""
    return {
        "link": _link_of(mapping, "link") if "link" in mapping else LinkKind.IDENTITY,
        "smooth": SmoothConfig(**_present(mapping, _SMOOTH_FIELDS)),
        "topology": NetworkTopology(**_present(mapping, {"hidden": ("hidden", _hidden_of)})),
        "training": TrainingConfig(**_present(mapping, _TRAINING_FIELDS)),
    }
