"""Per-layer tracing for the benchmark, installed from outside the library.

The tracer times calls into each layer's public functions by replacing the
module attributes through which ``mm_gks_solve`` reaches them, and by wrapping
the forward operator and the difference operator ``D`` in counting proxies.
Nothing under ``src/`` knows about it.  Spans nest: a layer's self time is its
span minus the spans of the layers it called, so the self times of all layers
plus the solver loop's own share add up to the solve's wall time.

A target that no longer exists (renamed or removed by a refactor) is recorded
as an absent layer instead of failing the run.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module name under dyntv, attribute, layer) for every wrapped function.
FUNCTION_TARGETS = (
    ("solver", "seed_subspace", "solver.seed"),
    ("solver", "init_state", "solver.init"),
    ("solver", "refresh_penalty", "solver.refresh"),
    ("solver", "solve_projected", "solver.projected_solve"),
    ("solver", "expand_subspace", "solver.expand"),
    ("solver", "select_lambda", "paramselect.select"),
    ("solver", "update_weights", "regularization.weights"),
    ("solver", "regularizer_value", "regularization.value"),
)
# build_D is looked up by the solver (for its own D) and by the regularizers
# (inside the weight and value evaluations); both results are wrapped.
BUILD_D_MODULES = ("solver", "regularization")
ROOT_LAYER = "solver.loop"


class Tracer:
    """Span clock plus counters, reset once per benchmark sample."""

    def __init__(self):
        self.absent = []
        self._stack = []
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.states = []

    def span(self, layer, fn, *args, **kwargs):
        """Call fn inside a span of `layer`; charge its time to the enclosing span."""
        self._stack.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - t0
            children = self._stack.pop()
            self.self_s[layer] += elapsed - children
            self.calls[layer] += 1
            if self._stack:
                self._stack[-1] += elapsed

    def wrap(self, fn, layer, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = self.span(layer, fn, *args, **kwargs)
            if observe is not None:
                observe(out, args, kwargs)
            return out

        return traced

    def span_cost(self, n=20000):
        """Seconds one wrapped call adds over a plain call (calibrated here)."""

        def noop():
            return None

        traced = self.wrap(noop, "calibration")
        t0 = perf_counter()
        for _ in range(n):
            noop()
        plain = perf_counter() - t0
        t0 = perf_counter()
        for _ in range(n):
            traced()
        wrapped = perf_counter() - t0
        self.self_s.pop("calibration", None)
        self.calls.pop("calibration", None)
        return max(wrapped - plain, 0.0) / n


class TracedOperator:
    """Counting proxy for a linear operator; everything but the applies delegates."""

    def __init__(self, op, tracer, apply_layer, adjoint_layer):
        self._op = op
        self._tracer = tracer
        self._apply_layer = apply_layer
        self._adjoint_layer = adjoint_layer

    def __getattr__(self, name):
        return getattr(self._op, name)

    def apply(self, x):
        cols = 1 if np.ndim(x) == 1 else np.shape(x)[1]
        self._tracer.counts[self._apply_layer + "_cols"] += cols
        return self._tracer.span(self._apply_layer, self._op.apply, x)

    def apply_adjoint(self, y):
        return self._tracer.span(self._adjoint_layer, self._op.apply_adjoint, y)


def _observers(tracer, default_grid):
    def seed(out, args, kwargs):
        tracer.counts["solver.seed_breakdown"] += bool(out[1])

    def init(out, args, kwargs):
        tracer.states.append(out)

    def expand(out, args, kwargs):
        tracer.counts["solver.expand_added"] += bool(out)

    def select(out, args, kwargs):
        grid = args[1] if len(args) > 1 else kwargs.get("grid")
        if grid is None:
            if default_grid is None:
                return
            grid = default_grid()
        grid = np.asarray(grid, dtype=float)
        tracer.counts["paramselect.edge"] += bool(out <= grid.min() or out >= grid.max())

    return {"solver.seed": seed, "solver.init": init, "solver.expand": expand,
            "paramselect.select": select}


@contextmanager
def installed(tracer, package):
    """Patch the layer entry points of `package` (the imported dyntv) while active."""
    observers = _observers(tracer, getattr(package, "default_lambda_grid", None))
    saved = []

    def patch(module_name, attr, make):
        module = getattr(package, module_name, None)
        fn = getattr(module, attr, None) if module is not None else None
        if fn is None:
            tracer.absent.append(f"{module_name}.{attr}")
            return
        saved.append((module, attr, fn))
        setattr(module, attr, make(fn))

    def traced_build_d(fn):
        @functools.wraps(fn)
        def build_d(spec):
            return TracedOperator(fn(spec), tracer, "operators.D_apply", "operators.D_adjoint")

        return build_d

    try:
        for module_name, attr, layer in FUNCTION_TARGETS:
            patch(module_name, attr,
                  lambda fn, layer=layer: tracer.wrap(fn, layer, observers.get(layer)))
        for module_name in BUILD_D_MODULES:
            patch(module_name, "build_D", traced_build_d)
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def basis_orth_err(state):
    """||V^T V - I||_2 of a solver state's search basis."""
    v = state.basis
    return float(np.linalg.norm(v.T @ v - np.eye(v.shape[1]), 2))
