"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public functions of statecone's modules from the
outside: each wrapper records a span (name, start, end, parent) and is
bound in every statecone module that holds the original object, since
several modules import functions by name.  Methods are wrapped on their
class.  The numpy eigensolvers are wrapped too, but only calls made
inside a statecone span are recorded.  A name that does not exist is
reported as absent.  Nothing is written until the caller asks for it.
"""

from __future__ import annotations

import sys
import time
import weakref
from collections import defaultdict

import numpy as np

# module -> public names (``Class.method`` for methods) around which
# spans are recorded
LAYERS = {
    "jacobi": ["jacobi_eigh"],
    "algebras": ["JordanElement.reps", "element_from_reps",
                 "spectral_decompose", "seed_spectral_cache", "trace"],
    "states": ["random_state", "random_channel", "Affinity.apply_element",
               "State.make", "channel_catalog", "marginal", "tensor_state",
               "permute_factors", "measure", "spectral_measurement"],
    "bregman": ["bregman_divergence", "log_on_support",
                "check_monotonicity"],
    "multipartite": ["mutual_information", "conditional_mutual_information",
                     "PartitionedState.marginal", "check_separoid"],
    "entropy": ["fine_grained_entropy_bound", "spectral_entropy",
                "decomposition_entropy"],
    "serialize": ["state_from_json"],
    "boxes": ["maximize_quantum_chsh", "box_from_quantum"],
    "cli": ["main"],
}
NUMPY_EIGENSOLVERS = ("eigh", "eigvalsh")
EIGENSOLVER_SPANS = ("jacobi.jacobi_eigh", "numpy.linalg.eigh",
                     "numpy.linalg.eigvalsh")
# spans whose results count as cache hits when returned before
# (or, for spectral decompositions, installed by seed_spectral_cache)
HIT_TRACKED = ("algebras.spectral_decompose",
               "multipartite.PartitionedState.marginal")
PACKAGE = "statecone"


class Tracer:
    """Records spans of wrapped calls; use as a context manager."""

    def __init__(self):
        self.spans = []  # (op, name, parent, start_ns, end_ns, self_ns)
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.hits = defaultdict(int)
        self.max_dim = 0
        self.absent = []
        self.op = -1
        self._stack = []  # [span index, child time] per open span
        self._seen = {name: weakref.WeakValueDictionary()
                      for name in HIT_TRACKED}
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _enter(self):
        self._stack.append([len(self.spans), 0])
        self.spans.append(None)
        return time.perf_counter_ns()

    def _exit(self, name: str, start: int) -> None:
        end = time.perf_counter_ns()
        index, child_ns = self._stack.pop()
        duration = end - start
        parent = self._stack[-1][0] if self._stack else -1
        if self._stack:
            self._stack[-1][1] += duration
        self.spans[index] = (self.op, name, parent, start, end,
                             duration - child_ns)
        self.calls[name] += 1
        self.total_ns[name] += duration
        self.self_ns[name] += duration - child_ns

    def _note_hit(self, name: str, result) -> None:
        seen = self._seen[name]
        if seen.get(id(result)) is result:
            self.hits[name] += 1
        else:
            seen[id(result)] = result

    def _wrap(self, name: str, fn):
        tracer = self
        tracked = name in self._seen
        seeds_cache = name == "algebras.seed_spectral_cache"

        def traced(*args, **kwargs):
            start = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, start)
            if tracked:
                tracer._note_hit(name, result)
            elif seeds_cache:
                decomposition = args[1] if len(args) > 1 \
                    else kwargs["decomposition"]
                tracer._seen["algebras.spectral_decompose"][
                    id(decomposition)] = decomposition
            elif name == "jacobi.jacobi_eigh":
                tracer.max_dim = max(tracer.max_dim, len(args[0]))
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_numpy(self, name: str, fn):
        tracer = self
        label = f"numpy.linalg.{name}"

        def traced(a, *args, **kwargs):
            if not tracer._stack:  # not called from statecone
                return fn(a, *args, **kwargs)
            tracer.max_dim = max(tracer.max_dim, np.shape(a)[-1])
            start = tracer._enter()
            try:
                return fn(a, *args, **kwargs)
            finally:
                tracer._exit(label, start)

        return traced

    # -- installing --------------------------------------------------------

    def _modules(self):
        return [m for key, m in list(sys.modules.items())
                if m is not None and (key == PACKAGE
                                      or key.startswith(PACKAGE + "."))]

    def __enter__(self):
        modules = self._modules()
        for short, names in LAYERS.items():
            module = sys.modules.get(f"{PACKAGE}.{short}")
            for dotted in names:
                label = f"{short}.{dotted}"
                owner_name, _, attr = dotted.rpartition(".")
                owner = module
                if module is not None and owner_name:
                    owner = getattr(module, owner_name, None)
                raw = None if owner is None else vars(owner).get(attr)
                if raw is None:
                    self.absent.append(label)
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(label, raw.__func__))
                else:
                    wrapped = self._wrap(label, raw)
                if owner_name:
                    self._set(owner, attr, raw, wrapped)
                    continue
                # bind in every statecone module that imported the name
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is raw:
                            self._set(m, key, raw, wrapped)
        for name in NUMPY_EIGENSOLVERS:
            raw = getattr(np.linalg, name)
            self._set(np.linalg, name, raw, self._wrap_numpy(name, raw))
        return self

    def _set(self, owner, attr, raw, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, raw))

    def __exit__(self, *exc):
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()
        return False

    # -- summaries ---------------------------------------------------------

    def layer_metrics(self, n_ops: int, speed: float) -> dict:
        """Per-layer metrics per operation, keyed by metric name; times
        are multiplied by ``speed``."""
        per_op = 1.0 / n_ops
        ms = 1e-6 * per_op * speed
        out = {}

        def calls(name):
            return self.calls.get(name, 0)

        def put(metric, value, unit):
            out[metric] = {"value": value, "unit": unit}

        eig_calls = sum(calls(n) for n in EIGENSOLVER_SPANS)
        eig_self = sum(self.self_ns.get(n, 0) for n in EIGENSOLVER_SPANS)
        put("eigensolver.calls", eig_calls * per_op, "calls/op")
        put("eigensolver.self_ms", eig_self * ms, "ms/op")
        put("eigensolver.max_dim", self.max_dim, "rows")
        for name in ("algebras.JordanElement.reps",
                     "algebras.element_from_reps", "algebras.trace",
                     "algebras.spectral_decompose",
                     "bregman.bregman_divergence",
                     "multipartite.conditional_mutual_information"):
            short = name.replace("JordanElement.", "")
            put(f"{short}.calls", calls(name) * per_op, "calls/op")
        name = "algebras.spectral_decompose"
        put(f"{name}.misses", (calls(name) - self.hits[name]) * per_op,
            "calls/op")
        for name in HIT_TRACKED:
            ratio = self.hits[name] / calls(name) if calls(name) else 0.0
            put(f"{name}.hit_ratio", ratio, "ratio")
        for short, names in LAYERS.items():
            for dotted in names:
                name = f"{short}.{dotted}"
                if name in EIGENSOLVER_SPANS:
                    continue
                metric = name.replace("JordanElement.", "")
                put(f"{metric}.self_ms", self.self_ns.get(name, 0) * ms,
                    "ms/op")
        return out

    def table(self) -> dict:
        """Calls, total and self milliseconds per span name."""
        return {
            name: {"calls": self.calls[name],
                   "total_ms": 1e-6 * self.total_ns[name],
                   "self_ms": 1e-6 * self.self_ns[name]}
            for name in sorted(self.calls)
        }
