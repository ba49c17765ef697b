"""Outside-in span tracer for polarmuon.

Every wrap point is an attribute of a module, class or dict that the calling
code looks up at call time, so replacing the attribute catches calls made
from other modules and calls made inside the same module alike.  Nothing in
``src/`` is changed: the tracer swaps attributes in and restores them.

Self time of a span is its duration minus the time covered by its child
spans.  Aggregates (calls, inclusive ns, self ns) are kept for every span;
full span records (id, parent, op, name, start, end) are kept for the first
``keep_ops`` ops, up to ``MAX_SPANS`` records, so a long run does not hold
millions of records.
"""

from __future__ import annotations

import functools
import importlib
import time

SUITE_SCOPES = (
    "polynomials",
    "prop1",
    "prop2",
    "sketch-moments",
    "noise-moments",
    "flops",
    "lemma1",
)

# (module, owner inside the module or "", attribute, span name).  A span name
# may appear on several rows when one function is imported into several
# namespaces; each caller's lookup goes through its own row.
WRAP_POINTS = (
    ("polarmuon.cli", "", "main", "cli.main"),
    ("polarmuon.config", "", "load", "config.load"),
    ("polarmuon.config", "ProblemSpec", "build", "config.ProblemSpec.build"),
    ("polarmuon.runner", "", "run_experiment", "runner.run_experiment"),
    ("polarmuon.optimizer", "", "muon_step", "optimizer.muon_step"),
    ("polarmuon.noise", "", "calibrate", "noise.calibrate"),
    ("polarmuon.noise", "", "gradient_oracle", "noise.gradient_oracle"),
    ("polarmuon.noise", "", "sample_noise", "noise.sample_noise"),
    ("polarmuon.noise", "Problem", "gradient", "noise.Problem.gradient"),
    ("polarmuon.noise", "Problem", "value", "noise.Problem.value"),
    ("polarmuon.noise", "", "empirical_alpha_moment", "noise.empirical_alpha_moment"),
    ("polarmuon.noise", "", "empirical_batch_moments", "noise.empirical_batch_moments"),
    ("polarmuon.polar", "", "inexact_polar", "polar.inexact_polar"),
    ("polarmuon.polar", "", "exact_polar", "polar.exact_polar"),
    ("polarmuon.polar", "", "polynomial_iterate", "polar.polynomial_iterate"),
    ("polarmuon.polar", "PolarConfig", "resolve_delta", "polar.PolarConfig.resolve_delta"),
    ("polarmuon.runner", "", "randomized_polar", "sketch.randomized_polar"),
    ("polarmuon.verify", "", "randomized_polar", "sketch.randomized_polar"),
    ("polarmuon.sketch", "", "gaussian_sketch", "sketch.gaussian_sketch"),
    ("polarmuon.suites", "", "gaussian_sketch", "sketch.gaussian_sketch"),
    ("polarmuon.sketch", "", "power_iterate", "sketch.power_iterate"),
    ("polarmuon.matcore", "", "orthonormal_basis", "sketch.orthonormal_basis"),
    ("polarmuon.sketch", "", "polynomial_iterate", "sketch.polynomial_iterate"),
    ("polarmuon.matcore", "", "as_matrix", "matcore.as_matrix"),
    ("polarmuon.matcore", "", "frobenius_norm", "matcore.frobenius_norm"),
    ("polarmuon.matcore", "", "operator_norm", "matcore.operator_norm"),
    ("polarmuon.matcore", "", "nuclear_norm", "matcore.nuclear_norm"),
    ("polarmuon.matcore", "", "svd", "matcore.svd"),
    ("polarmuon.matcore", "RngStream", "normal", "matcore.RngStream.normal"),
    ("polarmuon.matcore", "RngStream", "uniform", "matcore.RngStream.uniform"),
    ("polarmuon.suites", "", "check_prop2", "verify.check_prop2"),
    ("polarmuon.suites", "", "estimate_gamma_nu", "verify.estimate_gamma_nu"),
) + tuple(("polarmuon.suites", "SCOPES", s, f"suites.{s}") for s in SUITE_SCOPES)

SPAN_NAMES = tuple(dict.fromkeys(row[3] for row in WRAP_POINTS))

MAX_SPANS = 50_000

_MISSING = object()


def _owner(module: str, qual: str):
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(obj, qual, None) if qual else obj


def _get(owner, attr):
    if isinstance(owner, dict):
        return owner.get(attr, _MISSING)
    return owner.__dict__.get(attr, _MISSING)


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    """Collects spans from the wrap points while installed.

    ``hooks`` maps a span name to ``hook(tracer, args, result)``, called after
    the span closes; hooks must only read shapes or keep references, never
    call into the package.
    """

    def __init__(self, hooks=None, keep_ops: int = 2):
        self.hooks = dict(hooks or {})
        self.keep_ops = keep_ops
        self.stats = {}  # span name -> [calls, inclusive ns, self ns]
        self.spans = []  # (id, parent id, op, name, start ns, end ns)
        self.op = -1  # -1 marks spans outside any op (set-up, probes)
        self.missing = []
        self._stack = []
        self._next_id = 0
        self._installed = []

    def _wrap(self, name, fn):
        st = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        hook = self.hooks.get(name)
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0, tracer._next_id]  # child ns, span id
            tracer._next_id += 1
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if tracer.op < tracer.keep_ops and len(tracer.spans) < MAX_SPANS:
                    parent = stack[-1][1] if stack else -1
                    tracer.spans.append((frame[1], parent, tracer.op, name, t0, t1))
            if hook is not None:
                hook(tracer, args, out)
            return out

        return traced

    def install(self) -> "Tracer":
        present = set()
        for module, qual, attr, name in WRAP_POINTS:
            owner = _owner(module, qual)
            original = _MISSING if owner is None else _get(owner, attr)
            if original is _MISSING:
                continue
            _set(owner, attr, self._wrap(name, original))
            self._installed.append((owner, attr, original))
            present.add(name)
        self.missing = [n for n in SPAN_NAMES if n not in present]
        return self

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            _set(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def ms(self, name: str) -> float:
        return self.stats[name][1] / 1e6 if name in self.stats else 0.0

    def self_ms(self, name: str) -> float:
        return self.stats[name][2] / 1e6 if name in self.stats else 0.0

    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0
