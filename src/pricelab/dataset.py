"""The customer table, feature encoding, CSV files and the synthetic generator.

A ``Dataset`` holds the table as read-only numpy columns, one entry per
customer in file order:

    ids          int64    record id, unique
    male         bool     gender
    age          int64    years, in [18, 100]
    income       float64  finite, >= 0
    smoker       bool
    claim        int64    previous claim, a code into ``CLAIMS`` (0 is none)
    expenditure  float64  finite, >= 0; None when the response column is absent

Every model in the package consumes the same six-component feature vector,
all components scaled into [0, 1]:

    (gender, age_scaled, income_scaled, smoker, claim_present, claim_severity)

The single categorical predictor (previous claim) is split into a presence
flag and a severity score so that downstream models see purely numeric
inputs.  Synthetic datasets keep their generating parameters attached, which
lets tests evaluate the exact ground-truth function behind each record.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import ParseError, SchemaError, ValidationError, not_utf8

CSV_COLUMNS = ("id", "gender", "age", "income", "smoke", "previous_claim", "expenditure")
FEATURE_NAMES = ("gender", "age", "income", "smoker", "claim_present", "claim_severity")
N_FEATURES = len(FEATURE_NAMES)
# Largest synthetic portfolio: a bound on the generated columns, checked
# before any of them is allocated.
MAX_ROWS = 1_000_000

# Design constants of the generator population.  Smoking and claim rates are
# equal on purpose: copying the smoker flag into the claim flag with
# probability phi then leaves both marginals untouched while the correlation
# between the two flags is exactly phi.
_SMOKE_RATE = 0.35
_CLAIM_RATE = 0.35
_CLAIM_CATEGORY_PROBS = (0.35, 0.25, 0.15, 0.25)  # of claim codes 1-4

class Gender(enum.Enum):
    FEMALE = "female"
    MALE = "male"


class PriorClaim(enum.Enum):
    NONE = "none"
    DIABETES = "diabetes"
    COPD = "copd"
    LUNG_CANCER = "lung_cancer"
    OTHER = "other"


CLAIMS = tuple(PriorClaim)  # the ``Dataset.claim`` codes; code 0 is NONE

_DEFAULT_SEVERITY: dict[PriorClaim, float] = {
    PriorClaim.NONE: 0.0,
    PriorClaim.DIABETES: 0.4,
    PriorClaim.COPD: 0.6,
    PriorClaim.LUNG_CANCER: 1.0,
    PriorClaim.OTHER: 0.5,
}


@dataclass(frozen=True)
class EncodingConfig:
    """Scaling ranges and the claim-severity lookup used by ``encode_dataset``."""

    age_range: tuple[float, float] = (18.0, 80.0)
    income_range: tuple[float, float] = (0.0, 150000.0)
    claim_severity: Mapping[PriorClaim, float] = field(
        default_factory=lambda: dict(_DEFAULT_SEVERITY)
    )

    def __post_init__(self) -> None:
        for name, (lo, hi) in (("age", self.age_range), ("income", self.income_range)):
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValidationError(f"{name}_range must satisfy lo < hi, got ({lo}, {hi})")
        for claim in PriorClaim:
            if claim not in self.claim_severity:
                raise ValidationError(f"claim_severity map is missing {claim.value}")
            sev = self.claim_severity[claim]
            if not (0.0 <= sev <= 1.0):
                raise ValidationError(
                    f"claim_severity[{claim.value}] = {sev} outside [0, 1]"
                )
        if self.claim_severity[PriorClaim.NONE] != 0.0:
            raise ValidationError("claim_severity[none] must be 0")


DEFAULT_ENCODING = EncodingConfig()


@dataclass(frozen=True)
class GeneratorParams:
    """Knobs of the synthetic population.

    Expenditure ground truth, evaluated on the encoded feature vector x:

        eta = base_cost + sum_j coef_j * x_j
              + age_curvature * x_age^2
              + interaction * x_smoker * x_claim_severity
        expenditure = softplus(eta + noise)

    The noise is a zero-mean gaussian scale mixture: spread ``noise_scale``
    for most records, inflated by ``noise_outlier_factor`` for a random
    ``noise_outlier_rate`` fraction.  Medical expenditure residuals are
    heavy-tailed, and the occasional large shock is what makes overfitting
    visible on validation curves at realistic sample sizes; set the rate to 0
    for plain gaussian noise.  softplus keeps expenditures positive; for any
    eta above ~40 it is the identity to double precision, so noiseless
    configurations reproduce the linear ground truth exactly.
    ``collinearity_rho`` is the target sample correlation between the smoker
    flag and the claim-severity feature.
    """

    n: int = 200
    seed: int = 0
    base_cost: float = 2000.0
    coef_gender: float = 500.0
    coef_age: float = 4000.0
    coef_income: float = -1000.0
    coef_smoker: float = 1500.0
    coef_claim_present: float = 2000.0
    coef_claim_severity: float = 6000.0
    age_curvature: float = 0.0
    interaction: float = 5000.0
    collinearity_rho: float = 0.3
    noise_scale: float = 600.0
    noise_outlier_rate: float = 0.1
    noise_outlier_factor: float = 8.0

    def __post_init__(self) -> None:
        if not (1 <= self.n <= MAX_ROWS):
            raise ValidationError(f"n must lie in [1, {MAX_ROWS}], got {self.n}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if not (0.0 <= self.collinearity_rho < 1.0):
            raise ValidationError(
                f"collinearity_rho must lie in [0, 1), got {self.collinearity_rho}"
            )
        if not (math.isfinite(self.noise_scale) and self.noise_scale >= 0):
            raise ValidationError(f"noise_scale must be >= 0, got {self.noise_scale}")
        if not (0.0 <= self.noise_outlier_rate <= 1.0):
            raise ValidationError(
                f"noise_outlier_rate must lie in [0, 1], got {self.noise_outlier_rate}"
            )
        if not (math.isfinite(self.noise_outlier_factor) and self.noise_outlier_factor >= 0):
            raise ValidationError(
                f"noise_outlier_factor must be >= 0, got {self.noise_outlier_factor}"
            )
        for name in ("base_cost", "coef_gender", "coef_age", "coef_income",
                     "coef_smoker", "coef_claim_present", "coef_claim_severity",
                     "age_curvature", "interaction"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")

    def coefficients(self) -> np.ndarray:
        return np.array(
            [self.coef_gender, self.coef_age, self.coef_income,
             self.coef_smoker, self.coef_claim_present, self.coef_claim_severity]
        )

    def eta(self, x: np.ndarray) -> float:
        """Noise-free linear predictor at one encoded feature vector."""
        return (
            self.base_cost
            + float(self.coefficients() @ x)
            + self.age_curvature * x[1] ** 2
            + self.interaction * x[3] * x[5]
        )


# Column name -> dtype; ``expenditure`` may also be None.
_COLUMNS = {
    "ids": np.int64, "male": bool, "age": np.int64, "income": float,
    "smoker": bool, "claim": np.int64, "expenditure": float,
}


@dataclass(frozen=True, eq=False)
class Dataset:
    """The customer table as read-only columns (see the module docstring).

    Constructing one is the only validation of customer data: failures name
    the first offending ``record id=...`` in row order.
    """

    ids: np.ndarray
    male: np.ndarray
    age: np.ndarray
    income: np.ndarray
    smoker: np.ndarray
    claim: np.ndarray
    expenditure: np.ndarray | None = None
    provenance: str = "loaded"
    generator_params: GeneratorParams | None = None

    def __post_init__(self) -> None:
        for name in self._columns():
            try:
                column = np.array(getattr(self, name), dtype=_COLUMNS[name])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValidationError(f"column {name}: {exc}") from None
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if {getattr(self, name).shape for name in self._columns()} != {(self.n,)}:
            raise ValidationError("columns must be one-dimensional and of equal length")
        if self.n == 0:
            raise ValidationError("empty dataset")

        checks = [
            ((self.age < 18) | (self.age > 100), self.age, "age {} outside [18, 100]"),
            (~(np.isfinite(self.income) & (self.income >= 0)), self.income,
             "income {} must be finite and >= 0"),
            ((self.claim < 0) | (self.claim >= len(CLAIMS)), self.claim,
             f"previous_claim code {{}} outside [0, {len(CLAIMS)})"),
        ]
        if self.expenditure is not None:
            checks.append((~(np.isfinite(self.expenditure) & (self.expenditure >= 0)),
                           self.expenditure, "expenditure {} must be finite and >= 0"))
        bad = np.logical_or.reduce([mask for mask, _, _ in checks])
        if bad.any():
            i = int(np.argmax(bad))
            column, text = next((c, t) for mask, c, t in checks if mask[i])
            raise ValidationError(f"record id={self.ids[i]}: " + text.format(column[i].item()))

        repeated = np.ones(self.n, dtype=bool)
        repeated[np.unique(self.ids, return_index=True)[1]] = False
        if repeated.any():
            raise ValidationError(
                f"duplicate record ids in dataset: record id={self.ids[np.argmax(repeated)]} "
                "appears more than once"
            )

    @property
    def n(self) -> int:
        return self.ids.size

    def _columns(self) -> list[str]:
        return [name for name in _COLUMNS if name != "expenditure" or self.expenditure is not None]

    def take(self, index) -> "Dataset":
        """The rows at ``index`` (positions or a boolean mask), in that order."""
        return replace(self, **{name: getattr(self, name)[index] for name in self._columns()})


def encode_dataset(
    dataset: Dataset, config: EncodingConfig = DEFAULT_ENCODING
) -> tuple[np.ndarray, np.ndarray | None]:
    """(X, y): the (n, 6) feature matrix, clamped into [0, 1], and the
    expenditure column (None when absent)."""
    age_lo, age_hi = config.age_range
    inc_lo, inc_hi = config.income_range
    severity = np.array([config.claim_severity[claim] for claim in CLAIMS])
    X = np.empty((dataset.n, N_FEATURES))
    X[:, 0] = dataset.male
    X[:, 1] = np.clip((dataset.age - age_lo) / (age_hi - age_lo), 0.0, 1.0)
    X[:, 2] = np.clip((dataset.income - inc_lo) / (inc_hi - inc_lo), 0.0, 1.0)
    X[:, 3] = dataset.smoker
    X[:, 4] = dataset.claim != 0
    X[:, 5] = severity[dataset.claim]
    return X, dataset.expenditure


def encode_with_response(
    dataset: Dataset, config: EncodingConfig = DEFAULT_ENCODING
) -> tuple[np.ndarray, np.ndarray]:
    """``encode_dataset`` for fitting and scoring, which need the response."""
    X, y = encode_dataset(dataset, config)
    if y is None:
        raise ValidationError("no expenditure column: fitting and scoring need the response")
    return X, y


def feature_matrix(X) -> np.ndarray:
    """``X`` as an (n, 6) float matrix of encoded rows; one row is a batch of one."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != N_FEATURES:
        raise ValidationError(f"features must have shape (n, {N_FEATURES}), got {X.shape}")
    return X


def _severity_attenuation(config: EncodingConfig) -> float:
    """Correlation carried from the claim flag into the severity feature.

    With severity = claim_present * S and S independent of the smoker flag,
    corr(smoker, severity) = phi * kappa where phi = corr(smoker, claim flag)
    and kappa depends only on the claim rate and the severity distribution.
    """
    p = _CLAIM_RATE
    sev = np.array([config.claim_severity[claim] for claim in CLAIMS[1:]])
    probs = np.array(_CLAIM_CATEGORY_PROBS)
    mean_s = float(probs @ sev)
    mean_s2 = float(probs @ sev**2)
    var_v = p * mean_s2 - p**2 * mean_s**2
    if var_v <= 0:
        return 0.0
    return mean_s * math.sqrt(p * (1 - p)) / math.sqrt(var_v)


def generate_synthetic(
    params: GeneratorParams, config: EncodingConfig = DEFAULT_ENCODING
) -> Dataset:
    """Draw a synthetic customer population with known ground truth.

    Deterministic for a fixed seed.  The returned dataset keeps ``params``
    attached so the exact generating function stays available for tests.
    """
    rng = np.random.default_rng(params.seed)
    n = params.n

    age_lo, age_hi = (int(round(v)) for v in config.age_range)
    inc_lo, inc_hi = (int(round(v)) for v in config.income_range)

    genders = rng.integers(0, 2, size=n)
    try:
        ages = rng.integers(age_lo, age_hi + 1, size=n)
        incomes = rng.integers(inc_lo, inc_hi + 1, size=n).astype(float)
    except ValueError as exc:  # a bound outside the 64-bit integers
        raise ValidationError(f"encoding ranges too wide to draw from: {exc}") from None
    smokers = rng.random(n) < _SMOKE_RATE

    kappa = _severity_attenuation(config)
    phi = 0.0 if kappa <= 0 else min(1.0, params.collinearity_rho / kappa)
    copy_smoker = rng.random(n) < phi
    fresh_claims = rng.random(n) < _CLAIM_RATE
    claim_present = np.where(copy_smoker, smokers, fresh_claims)
    categories = rng.choice(len(_CLAIM_CATEGORY_PROBS), size=n, p=_CLAIM_CATEGORY_PROBS)
    if params.noise_scale > 0:
        noise = rng.normal(0.0, params.noise_scale, size=n)
        heavy = rng.random(n) < params.noise_outlier_rate
        noise[heavy] *= params.noise_outlier_factor
    else:
        noise = np.zeros(n)

    data = Dataset(
        ids=np.arange(1, n + 1), male=genders == 1, age=ages, income=incomes,
        smoker=smokers, claim=np.where(claim_present, categories + 1, 0),
        provenance="synthetic", generator_params=params,
    )
    X, _ = encode_dataset(data, config)
    eta = np.array([params.eta(x) for x in X])
    return replace(data, expenditure=np.logaddexp(0.0, eta + noise))


def split_half(dataset: Dataset, seed: int) -> tuple[Dataset, Dataset]:
    """Shuffle deterministically and split; the train half gets ceil(n/2) rows."""
    if dataset.n < 2:
        raise ValidationError("split_half needs at least 2 records")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    perm = np.random.default_rng(seed).permutation(dataset.n)
    k = math.ceil(dataset.n / 2)
    return dataset.take(perm[:k]), dataset.take(perm[k:])


def _format_number(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def write_csv(dataset: Dataset, path: str | Path) -> None:
    """Write records in the canonical column order (UTF-8, no currency symbols)."""
    columns = [
        dataset.ids.tolist(),
        [Gender.MALE.value if m else Gender.FEMALE.value for m in dataset.male.tolist()],
        dataset.age.tolist(),
        [_format_number(v) for v in dataset.income.tolist()],
        ["yes" if s else "no" for s in dataset.smoker.tolist()],
        [CLAIMS[c].value for c in dataset.claim.tolist()],
    ]
    header = CSV_COLUMNS[:-1]
    if dataset.expenditure is not None:
        header = CSV_COLUMNS
        columns.append([_format_number(v) for v in dataset.expenditure.tolist()])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))


def _parse_enum(cls, text: str, column: str, row: int):
    try:
        return cls(text)
    except ValueError:
        allowed = ", ".join(m.value for m in cls)
        raise ParseError(
            f"row {row}: invalid {column} {text!r} (expected one of: {allowed})", row=row
        ) from None


def _lines(fh, path: Path):
    """The lines of an open text file; undecodable bytes raise ``ParseError``."""
    try:
        yield from fh
    except UnicodeDecodeError:
        raise not_utf8(path) from None


def load_csv(path: str | Path) -> Dataset:
    """Load and validate a customer CSV.

    The header must match the canonical contract exactly; the expenditure
    column may be absent (prediction-only input).  Parse failures name the
    offending row, invariant failures name the record id.
    """
    path = Path(path)
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(_lines(fh, path))
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: file is empty") from None
        header = tuple(h.strip() for h in header)
        if header not in (CSV_COLUMNS, CSV_COLUMNS[:-1]):
            missing = [c for c in CSV_COLUMNS[:-1] if c not in header]
            extra = [c for c in header if c not in CSV_COLUMNS]
            detail = []
            if missing:
                detail.append(f"missing column(s): {', '.join(missing)}")
            if extra:
                detail.append(f"unexpected column(s): {', '.join(extra)}")
            if not detail:
                detail.append(f"column order must be {','.join(CSV_COLUMNS)}")
            raise SchemaError(f"{path}: bad header; " + "; ".join(detail))
        has_expenditure = header == CSV_COLUMNS

        columns: list[list] = [[] for _ in header]
        for row_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"row {row_no}: expected {len(header)} cells, got {len(row)}",
                    row=row_no,
                )
            cells = [c.strip() for c in row]
            try:
                rec_id = int(cells[0])
                age = int(cells[2])
                income = float(cells[3])
            except ValueError as exc:
                raise ParseError(f"row {row_no}: {exc}", row=row_no) from None
            gender = _parse_enum(Gender, cells[1], "gender", row_no)
            smoke = cells[4].lower()
            if smoke not in ("yes", "no"):
                raise ParseError(
                    f"row {row_no}: invalid smoke {cells[4]!r} (expected yes or no)",
                    row=row_no,
                )
            claim = _parse_enum(PriorClaim, cells[5], "previous_claim", row_no)
            values = [rec_id, gender is Gender.MALE, age, income, smoke == "yes",
                      CLAIMS.index(claim)]
            if has_expenditure:
                try:
                    values.append(float(cells[6]))
                except ValueError as exc:
                    raise ParseError(f"row {row_no}: {exc}", row=row_no) from None
            for column, value in zip(columns, values):
                column.append(value)
    if not columns[0]:
        raise ValidationError(f"{path}: empty dataset")
    return Dataset(*columns, provenance="loaded")
