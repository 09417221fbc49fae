"""Per-layer tracing from outside the library.

Each public function of the layers below is wrapped at every name it is
bound to in the ``tenspec`` package (``from``-imports copy the function into
the importing module, so patching only the defining module would miss the
calls made through ``tenspec.decompose.contract`` or
``tenspec.cli.write_tensor``).  A wrapper records one span per call: name,
start, end, parent span and the input it belongs to.  Spans stay in memory;
``write_jsonl`` dumps them once the run is over, and :func:`layer_stats`
derives calls, busy time and self time from them.
"""

import functools
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


def _sym_eig_counts(args, kwargs, result):
    n = len(args[0])
    return {"n_max": n, "n3_sum": n**3}


def _components(args, kwargs, result):
    import tenspec

    return {"components": tenspec.component_count(result)}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (module, function, counter) for every wrapped function.  A counter maps
# (args, kwargs, result) to extra per-call counts.
TARGETS = (
    ("core", "contract", None),
    ("core", "unfold", None),
    ("core", "norm", None),
    ("jacobi", "sym_eig", _sym_eig_counts),
    ("decompose", "gram_operator", None),
    ("decompose", "decompose_sa_nnd", _components),
    ("decompose", "decompose_transform", _components),
    ("decompose", "decompose_triple", _components),
    ("decompose", "reconstruct", None),
    ("decompose", "residual_curve", None),
    ("oracle", "verify_decomposition", None),
    ("oracle", "matricized_singulars", None),
    ("oracle", "replay_reconstruction", None),
    ("tz1", "read_tensor", _file_bytes),
    ("tz1", "write_tensor", _file_bytes),
    ("cli", "main", None),
    ("cli", "run_decompose", None),
    ("cli", "run_verify", None),
)

STATS = ("calls", "busy_s", "self_s")

# Extra counts per span name; ``n_max`` is the largest value in a set,
# every other count is summed over the set.
COUNTS = (
    ("jacobi.sym_eig", "n_max"),
    ("jacobi.sym_eig", "n3_sum"),
    ("tz1.read_tensor", "bytes"),
    ("tz1.write_tensor", "bytes"),
)


def unit(metric):
    """Unit of a per-layer metric, from its last name component."""
    last = metric.rsplit(".", 1)[-1]
    if last.endswith("_s"):
        return "s"
    return "bytes" if last == "bytes" else "count"


@dataclass
class Span:
    id: int
    parent: object
    name: str
    set_index: int
    input_index: int
    start: float
    end: float = 0.0
    nested: bool = False  # an ancestor span has the same name
    counts: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.set_index = -1
        self.input_index = -1

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(
                id=len(self.spans),
                parent=parent.id if parent else None,
                name=name,
                set_index=self.set_index,
                input_index=self.input_index,
                start=0.0,
                nested=any(s.name == name for s in self._stack),
            )
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target at each of its bindings; restore on exit."""
        swaps = []
        for module, func, counter in TARGETS:
            original = getattr(sys.modules[f"tenspec.{module}"], func)
            wrapper = self._wrap(f"{module}.{func}", original, counter)
            swaps += rebind(original, wrapper)
        try:
            yield
        finally:
            for namespace, attr, original in swaps:
                setattr(namespace, attr, original)

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


def rebind(original, replacement):
    """Point every ``tenspec`` module attribute bound to ``original`` at
    ``replacement``; returns (module, attribute, original) for undoing."""
    swaps = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "tenspec" or mod_name.startswith("tenspec.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                swaps.append((mod, attr, original))
    return swaps


def layer_stats(spans, sets):
    """Layer metrics of each traced input set, one dict per set.

    ``self_s`` is a span's duration minus the durations of its direct
    children; ``busy_s`` sums only the outermost span of each name, so a
    function that reaches itself is not counted twice.
    """
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    per_set = []
    for index in sets:
        acc = {}
        for module, func, _ in TARGETS:
            for stat in STATS:
                acc[f"{module}.{func}.{stat}"] = 0.0
        for name, key in COUNTS:
            acc[f"{name}.{key}"] = 0
        acc["decompose.components"] = 0
        for s in spans:
            if s.set_index != index:
                continue
            dur = s.end - s.start
            acc[f"{s.name}.calls"] += 1
            acc[f"{s.name}.self_s"] += dur - child_time.get(s.id, 0.0)
            if not s.nested:
                acc[f"{s.name}.busy_s"] += dur
            for key, value in s.counts.items():
                if key == "components":
                    acc["decompose.components"] += value
                elif key == "n_max":
                    acc[f"{s.name}.n_max"] = max(acc[f"{s.name}.n_max"], value)
                else:
                    acc[f"{s.name}.{key}"] += value
        per_set.append(acc)
    return per_set
