"""Spans recorded from outside the package, around its layer-boundary functions.

The tracer replaces each function named in ``BOUNDARY`` by a wrapper, in its
defining module and in every ``gasket_fgf`` module that bound the function
by name at import time (``fields`` imports ``kernel_matrix`` that way).
Nothing under ``src/`` is edited.  Spans stay in memory; the caller writes
them out when the run ends.

Per-element helpers such as ``io.fmt`` are deliberately not wrapped: they run
millions of times per job, and the wrapper would cost more than the work.
"""

import functools
import importlib
import os
import resource
import sys
import time
from dataclasses import asdict, dataclass, field

#: Layer -> the public functions that form its boundary.
BOUNDARY = {
    "cli": ("main",),
    "geometry": ("build_level",),
    "operators": ("assemble_energy", "assemble_mass"),
    "spectral": ("solve_eigen", "pick_truncation", "tail_variance"),
    "kernels": ("kernel_matrix", "pair_sample", "estimate_bound_fit", "increment_l2_check"),
    "fields": ("sample_field", "empirical_covariance", "variogram", "hoelder_statistic"),
    "io": ("write_graph_json", "write_matrix_coo", "write_eigen_json",
           "write_eigen_csv", "write_field_csv", "write_pgm"),
}

LAYERS = tuple(BOUNDARY)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 at the top
    job: str
    rss_start_kb: int
    rss_end_kb: int
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start


def max_rss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ---------------------------------------------------------------------------
# counts taken at the boundary; each reads sizes only, so it costs microseconds
# ---------------------------------------------------------------------------


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _written_bytes(args, kwargs, result):
    path = kwargs.get("path") or next(a for a in args if isinstance(a, (str, os.PathLike)))
    return {"bytes": os.path.getsize(path)}


def _solve_attrs(args, kwargs, basis):
    return {"level": basis.level, "dim": basis.dim, "modes": basis.count,
            "residual": float(basis.residual_norm), "lam": basis.lam.copy()}


def _kernel_attrs(args, kwargs, matrix):
    basis = args[0]
    j = _arg(args, kwargs, 2, "J")
    return {"n": matrix.shape[0], "level": basis.level,
            "J": basis.count if j is None else int(j), "modes": basis.count}


def _pair_attrs(args, kwargs, result):
    n = len(args[0])
    return {"n": n, "kept": len(result[0]), "enumerated": n * (n - 1) // 2}


def _sample_attrs(args, kwargs, sample):
    return {"J": sample.modes, "modes": args[0].count}


def _covariance_attrs(args, kwargs, report):
    return {"pairs": report.npairs, "reps": report.replications,
            "J": report.modes, "modes": args[0].count}


def _variogram_attrs(args, kwargs, report):
    j = _arg(args, kwargs, 6, "J")
    return {"mode": report.mode, "reps": report.replications,
            "J": args[0].count if j is None else int(j), "modes": args[0].count}


def _hoelder_attrs(args, kwargs, report):
    n = len(args[1])
    return {"pairs": n * (n - 1) // 2}


COLLECT = {
    "geometry.build_level": lambda a, k, g: {"level": g.level, "vertices": len(g)},
    "spectral.solve_eigen": _solve_attrs,
    "spectral.pick_truncation": lambda a, k, j: {"J": int(j), "modes": a[0].count},
    "kernels.kernel_matrix": _kernel_attrs,
    "kernels.pair_sample": _pair_attrs,
    "fields.sample_field": _sample_attrs,
    "fields.empirical_covariance": _covariance_attrs,
    "fields.variogram": _variogram_attrs,
    "fields.hoelder_statistic": _hoelder_attrs,
}
for _writer in BOUNDARY["io"]:
    COLLECT["io." + _writer] = _written_bytes
COLLECT["io.write_eigen_csv"] = lambda a, k, r: {**_written_bytes(a, k, r), "J": a[0].count}


class Tracer:
    """Records one span per call of a boundary function while installed."""

    def __init__(self):
        self.spans = []
        self.job = "setup"
        self._stack = []
        self._patched = []  # (namespace, attribute, original)

    def _wrap(self, name, orig):
        collect = COLLECT.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.job, max_rss_kb(), 0)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.rss_end_kb = max_rss_kb()
                stack.pop()
            if collect is not None:
                try:
                    span.attrs = collect(args, kwargs, result)
                except Exception as exc:  # a count must never fail the program's call
                    span.attrs = {"collect_error": repr(exc)}
            return result

        return traced

    def install(self):
        """Swap every boundary function for its wrapper in all loaded package modules."""
        if self._patched:
            return
        homes = {layer: importlib.import_module(f"gasket_fgf.{layer}") for layer in BOUNDARY}
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "gasket_fgf" or n.startswith("gasket_fgf."))]
        for layer, names in BOUNDARY.items():
            home = homes[layer]
            for fn in names:
                orig = getattr(home, fn)
                wrapper = self._wrap(f"{layer}.{fn}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def dump(self):
        out = []
        for s in self.spans:
            d = asdict(s)
            d["attrs"] = {k: v for k, v in s.attrs.items() if k != "lam"}
            out.append(d)
        return out


# ---------------------------------------------------------------------------
# reductions over a finished span list
# ---------------------------------------------------------------------------


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def self_rss_raises(spans):
    """Rise of ru_maxrss inside each span, less the rise inside its children."""
    own = [(s.rss_end_kb - s.rss_start_kb) / 1024.0 for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= (s.rss_end_kb - s.rss_start_kb) / 1024.0
    return own
