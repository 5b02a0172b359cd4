"""Call tracing from outside the package: wraps pricelab's public functions.

``Tracer.install`` replaces every public function of the layer modules with a
wrapper, at every module attribute that holds it, so from-import aliases such
as ``pricelab.cli.load_csv`` are traced as well as ``pricelab.dataset.load_csv``.
A wrapped call either records a span (name, start, end, parent span,
iteration) or, for functions called once per row or value, only adds to a
call count and a time sum.  Both kinds sit on one stack, so the self time of
each layer (its time minus the time of the wrapped calls it made) is exact.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

LAYERS = (
    "cli", "config", "artifacts", "dataset", "glm", "smoothing", "gam", "ann", "evaluation",
)

# Called once per record, per value or per epoch: one span each would cost
# more than the call itself, so these keep counts and summed time only.
_COUNTED = {
    "dataset.encode", "glm.predict_glm", "gam.predict_gam", "ann.predict_ann",
    "ann.forward", "ann.sigmoid", "config.format_float",
}
_COUNTED_LAYERS = {"smoothing"}


def _epochs_of_train(args, kwargs, model):
    """Epochs ``ann.train`` ran: early stopping ends ``patience`` epochs
    after the best one, unless ``max_epochs`` comes first."""
    training = kwargs.get("training", args[3] if len(args) > 3 else None)
    if training is None:
        training = sys.modules["pricelab.ann"].TrainingConfig()
    return min(model.stopped_epoch + training.early_stop_patience, training.max_epochs)


def _overfit_counts(args, kwargs, report, seconds):
    family = args[0]
    steps = kwargs.get("steps", args[3] if len(args) > 3 else None)
    if family.name == "glm":
        tried = 1
    elif steps is not None:
        tried = len(tuple(steps))
    else:
        evaluation = sys.modules["pricelab.evaluation"]
        default = {"gam": "DEFAULT_GAM_STEPS", "ann": "DEFAULT_ANN_STEPS"}[family.name]
        tried = len(getattr(evaluation, default))
    return {
        f"evaluation.overfit_scan_s.{family.name}": seconds,
        "evaluation.thresholds_found": int(bool(report.threshold_found)),
        "evaluation.overfit_steps_used": len(report.steps),
        "evaluation.overfit_steps_tried": tried,
    }


def _artifact_bytes(args, kwargs, result, seconds):
    return {"artifacts.bytes": Path(kwargs.get("path", args[1])).stat().st_size}


# Post-call hooks: (args, kwargs, result, seconds) -> counter increments.
_HOOKS = {
    "artifacts.save_model": _artifact_bytes,
    "gam.fit_gam": lambda a, k, model, s: {"gam.cycles": model.cycles},
    "gam.add_interaction": lambda a, k, model, s: {"gam.cycles": model.cycles},
    "ann.train": lambda a, k, model, s: {"ann.epochs": _epochs_of_train(a, k, model)},
    "ann.train_trajectory": lambda a, k, result, s: {"ann.epochs": result[1][-1][0]},
    "evaluation.overfit_scan": _overfit_counts,
}


class Tracer:
    """Collects spans and per-function totals while installed."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()
        self.errors: Counter = Counter()
        self.self_seconds: Counter = Counter()
        self.counters: Counter = Counter()
        self.hook_errors: dict[str, str] = {}
        self.found: set[str] = set()
        self.iteration: int | None = None
        # Open frames: [span id, or the enclosing span's id for a counted
        # call; layer; start; time spent in wrapped calls made from it].
        self._stack: list[list] = []
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    # -- recording --------------------------------------------------------

    def _open(self, layer: str, spanned: bool) -> list:
        enclosing = self._stack[-1][0] if self._stack else None
        if spanned:
            frame = [len(self.spans), layer, 0.0, 0.0, enclosing]
            self.spans.append({})  # reserve the id; filled in by _close
        else:
            frame = [enclosing, layer, 0.0, 0.0, None]
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _close(self, name: str, frame: list, spanned: bool, error: str | None) -> float:
        end = time.perf_counter()
        self._stack.pop()
        seconds = end - frame[2]
        if self._stack:
            self._stack[-1][3] += seconds
        self.calls[name] += 1
        self.seconds[name] += seconds
        self.self_seconds[frame[1]] += seconds - frame[3]
        if error is not None:
            self.errors[name] += 1
        if spanned:
            self.spans[frame[0]] = {
                "id": frame[0],
                "name": name,
                "start": frame[2] - self.origin,
                "end": end - self.origin,
                "parent": frame[4],
                "iteration": self.iteration,
                **({"error": error} if error else {}),
            }
        return seconds

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one CLI command."""
        frame = self._open("bench", True)
        error = None
        try:
            yield
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            self._close(name, frame, True, error)

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        spanned = name not in _COUNTED and layer not in _COUNTED_LAYERS
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._open(layer, spanned)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(name, frame, spanned, type(exc).__name__)
                raise
            seconds = tracer._close(name, frame, spanned, None)
            if hook is not None:
                try:
                    tracer.counters.update(hook(args, kwargs, result, seconds))
                except Exception as exc:  # a changed signature must not fail the run
                    tracer.hook_errors[name] = f"{type(exc).__name__}: {exc}"
            return result

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the layer modules wherever it is bound."""
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"pricelab.{layer}")
            for attr, obj in vars(module).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    name = f"{layer}.{attr}"
                    self.found.add(name)
                    wrappers[id(obj)] = (obj, self._wrap(name, obj))
        for modname, module in list(sys.modules.items()):
            if modname != "pricelab" and not modname.startswith("pricelab."):
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    # -- output -----------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def self_time_table(self, iterations: int) -> str:
        total = sum(self.self_seconds.values()) or 1.0
        lines = [f"{'layer':<12} {'self s/iter':>12} {'share':>7}"]
        for layer, seconds in self.self_seconds.most_common():
            lines.append(
                f"{layer:<12} {seconds / iterations:>12.4f} {seconds / total:>7.1%}"
            )
        return "\n".join(lines)
