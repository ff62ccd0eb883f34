"""In-memory span tracer for the traced benchmark run.

The tracer replaces each traced function, in every module that binds it, by a
wrapper that records a span ``[name, start_ns, end_ns, parent, op]``.  Spans
are only recorded inside an op span, so set-up and output checks stay
untraced.  A span's self time is its duration minus that of its direct
children.  Nothing under ``src/`` is edited: the wrappers are installed on the
imported modules and removed again when the traced phase ends.
"""

import functools
import importlib
import json
import sys
import time

# (metric name, module, attribute); several attributes may share one name
TRACED = (
    ("L0.logm", "scipy.linalg", "logm"),
    ("L0.expm", "scipy.linalg", "expm"),
    ("L0.schur", "scipy.linalg", "schur"),
    ("L0.solve_sylvester", "scipy.linalg", "solve_sylvester"),
    ("L0.eigvals", "numpy.linalg", "eigvals"),
    ("L0.eigh", "numpy.linalg", "eigh"),
    ("L0.eigh", "numpy.linalg", "eigvalsh"),
    ("L0.svd", "numpy.linalg", "svd"),
    ("L0.solve", "numpy.linalg", "solve"),
    ("L0.inv", "numpy.linalg", "inv"),
    ("matcore.require_invertible", "tracegeo.matcore", "require_invertible"),
    ("matcore.spectral_profile", "tracegeo.matcore", "spectral_profile"),
    ("matcore.real_log_principal", "tracegeo.matcore", "real_log_principal"),
    ("matcore.polar_decompose", "tracegeo.matcore", "polar_decompose"),
    ("matcore.so_log", "tracegeo.matcore", "so_log"),
    ("geodesy.classify_arc", "tracegeo.geodesy", "classify_arc"),
    ("geodesy.broken_arc", "tracegeo.geodesy", "broken_arc"),
    ("geodesy.Geodesic.point", "tracegeo.geodesy", "Geodesic.point"),
    ("geodesy.curve_residual", "tracegeo.geodesy", "curve_residual"),
    ("geodesy.nabla", "tracegeo.geodesy", "nabla"),
    ("metricspace.trace_metric", "tracegeo.metricspace", "trace_metric"),
    ("metricspace.gram_matrix", "tracegeo.metricspace", "gram_matrix"),
    ("metricspace.signature_at", "tracegeo.metricspace", "signature_at"),
    ("metricspace.apply_isometry", "tracegeo.metricspace", "apply_isometry"),
    ("metricspace.pushforward", "tracegeo.metricspace", "pushforward"),
    ("metricspace.sl_tangent_project", "tracegeo.metricspace", "sl_tangent_project"),
    ("curvature.riemann_04", "tracegeo.curvature", "riemann_04"),
    ("curvature.riemann_13", "tracegeo.curvature", "riemann_13"),
    ("curvature.sectional", "tracegeo.curvature", "sectional"),
    ("curvature.ricci", "tracegeo.curvature", "ricci"),
    ("curvature.scalar_curvature", "tracegeo.curvature", "scalar_curvature"),
    ("curvature.christoffel_closed", "tracegeo.curvature", "christoffel_closed"),
    ("verify.run_suite", "tracegeo.verify", "run_suite"),
)
TRACED_NAMES = tuple(dict.fromkeys(name for name, _, _ in TRACED))
OP_SPAN = "op"


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = -1
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            record = [name, clock(), 0, stack[-1], self._op]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def install(self):
        """Bind a wrapper in place of every traced function, wherever it is bound."""
        bindings = [m for name, m in sorted(sys.modules.items())
                    if name == "tracegeo" or name.startswith("tracegeo.")]
        for name, module_name, attr in TRACED:
            owner = importlib.import_module(module_name)
            if "." in attr:  # a method: bind on the class
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for target in {id(t): t for t in (owner, *bindings)}.values():
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._undo.append((target, key, original))
                        setattr(target, key, wrapper)

    def uninstall(self):
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    def run_op(self, label, call):
        """Run one op under a root span; returns its result."""
        self._op += 1
        record = [f"{OP_SPAN}:{label}", time.perf_counter_ns(), 0, -1, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            return call()
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def write(self, path, header):
        """One JSON header line, then one JSON array per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "fields": ["name", "start_ns", "end_ns", "parent", "op"]}))
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


def layer_stats(spans, lo, hi):
    """Per-name calls and self time (ns) over spans[lo:hi], plus profiles per classify_arc.

    Parents always precede their children, so one pass suffices.
    """
    child = [0] * (hi - lo)
    for i in range(lo, hi):
        name, start, end, parent, _ = spans[i]
        if parent >= lo:
            child[parent - lo] += end - start
    calls = dict.fromkeys(TRACED_NAMES, 0)
    self_ns = dict.fromkeys(TRACED_NAMES, 0)
    in_classify = [False] * (hi - lo)
    profiles = 0
    for i in range(lo, hi):
        name, start, end, parent, _ = spans[i]
        inside = parent >= lo and (in_classify[parent - lo]
                                   or spans[parent][0] == "geodesy.classify_arc")
        in_classify[i - lo] = inside
        if name in calls:
            calls[name] += 1
            self_ns[name] += end - start - child[i - lo]
            if name == "matcore.spectral_profile" and inside:
                profiles += 1
    return calls, self_ns, profiles
