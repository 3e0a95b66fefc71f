"""Per-layer metrics from a traced run, and the printed report.

Time metrics named after a function (``fields.sample_field_s``) are the mean
self time of one call; ``cli.self_s`` is the mean self time of one CLI
invocation.  Counts and shares are per traced job (median over the traced
jobs).  A layer a workload never calls reads 0.  Work counts and ratios
taken from array sizes are *computed*, not measured, and are labelled so.
"""

import statistics
from collections import defaultdict

import numpy as np

from spans import LAYERS, self_rss_raises, self_times

#: The benchmark's own cluster rule: neighbours closer than this relative gap.
CLUSTER_RTOL = 1e-9

#: Spans whose J says how many computed modes a consumer used.
MODE_CONSUMERS = ("spectral.pick_truncation", "kernels.kernel_matrix", "fields.sample_field",
                  "fields.empirical_covariance", "fields.variogram", "io.write_eigen_csv")

IO_WRITERS = ("write_graph_json", "write_matrix_coo", "write_eigen_json",
              "write_eigen_csv", "write_field_csv", "write_pgm")

#: Hand-timed cells of the ROADMAP baseline table: (label, span, level, seconds).
BASELINE = (
    ("build_level L7", "geometry.build_level", 7, 0.07),
    ("build_level L8", "geometry.build_level", 8, 0.25),
    ("solve_eigen L6, all modes dense", "spectral.solve_eigen", 6, 0.66),
    ("solve_eigen L7, all modes dense", "spectral.solve_eigen", 7, 11.4),
    ("solve_eigen L8, 300 modes iterative", "spectral.solve_eigen", 8, 14.5),
    ("kernel_matrix L6, dense n x n", "kernels.kernel_matrix", 6, 0.05),
)
BASELINE_TOL = 0.10

#: Units of the per-layer metrics, in report order.
UNITS = {
    "cli.self_s": "s",
    "geometry.build_level_s": "s",
    "geometry.vertices": "count",
    "operators.assemble_s": "s",
    "spectral.solve_eigen_s": "s",
    "spectral.pick_truncation_s": "s",
    "spectral.dim": "count",
    "spectral.modes_computed": "count",
    "spectral.clusters": "count",
    "spectral.max_cluster": "count",
    "spectral.residual": "1",
    "spectral.modes_used_frac": "fraction",
    "spectral.share_of_job": "fraction",
    "kernels.kernel_matrix_s": "s",
    "kernels.kernel_matrix_calls": "count",
    "kernels.kernel_mb_computed": "MB",
    "kernels.entries_used_frac": "fraction",
    "kernels.pair_sample_s": "s",
    "kernels.pairs_kept_frac": "fraction",
    "kernels.estimate_bound_fit_s": "s",
    "kernels.increment_l2_check_s": "s",
    "fields.sample_field_s": "s",
    "fields.empirical_covariance_s": "s",
    "fields.variogram_s": "s",
    "fields.hoelder_statistic_s": "s",
    "fields.hoelder_pairs": "count",
    "fields.replications": "count",
    **{f"io.{w}_s": "s" for w in IO_WRITERS},
    "io.bytes_written": "B",
    "io.mb_per_s": "MB/s",
    "io.share_of_job": "fraction",
    **{f"{layer}.rss_raise_mb": "MB" for layer in LAYERS},
    "trace.overhead_frac": "fraction",
    "fields_per_s": "1/s",
    "mc_reps_per_s": "1/s",
    "regression_s": "s",
    "error_rate": "fraction",
}

#: Metrics derived from array sizes rather than timed or counted at run time.
COMPUTED = ("kernels.kernel_mb_computed", "kernels.entries_used_frac",
            "kernels.pairs_kept_frac", "spectral.modes_used_frac", "fields.hoelder_pairs")

#: Callers of kernel_matrix that read its diagonal besides their pair entries.
READS_DIAGONAL = ("fields.variogram", "kernels.increment_l2_check")


def cluster_sizes(lam, rtol=CLUSTER_RTOL):
    lam = np.asarray(lam)
    if lam.size == 0:
        return np.zeros(0, dtype=np.int64)
    cut = np.nonzero(np.diff(lam) > rtol * np.maximum(lam[:-1], 1.0))[0] + 1
    return np.diff(np.concatenate([[0], cut, [lam.size]]))


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


class LayerMetrics:
    """Reduces the span list of one traced run to the per-layer metrics."""

    def __init__(self, spans, traced_jobs):
        self.spans = spans
        self.own = self_times(spans)
        self.rss = self_rss_raises(spans)
        self.jobs = traced_jobs  # job id -> wall seconds
        self.by_name = defaultdict(list)
        self.children = defaultdict(list)
        for i, s in enumerate(spans):
            self.by_name[s.name].append(i)
            self.children[s.parent].append(i)
        self.bases = {}  # metric -> "numerator / denominator" text

    def per_call(self, *names):
        idx = [i for n in names for i in self.by_name[n]]
        return _ratio(sum(self.own[i] for i in idx), len(idx))

    def per_job(self, value_of_span):
        """Median over traced jobs of the summed per-span value."""
        totals = {job: 0.0 for job in self.jobs}
        for i, s in enumerate(self.spans):
            if s.job in totals:
                totals[s.job] += value_of_span(i, s)
        return _median(totals.values())

    def attrs(self, name, key):
        return [self.spans[i].attrs[key] for i in self.by_name[name] if key in self.spans[i].attrs]

    def share_of_job(self, layer):
        shares = []
        for job, wall in self.jobs.items():
            own = sum(self.own[i] for i, s in enumerate(self.spans) if s.job == job and s.layer == layer)
            shares.append(_ratio(own, wall))
        return _median(shares)

    def kernel_entries(self):
        """(entries read, entries built) over all kernel_matrix calls, from their callers."""
        used = built = 0
        for i in self.by_name["kernels.kernel_matrix"]:
            k = self.spans[i]
            n = k.attrs.get("n", 0)
            built += n * n
            parent = self.spans[k.parent] if k.parent >= 0 else None
            if parent is None:
                used += n * n
                continue
            if parent.name == "fields.empirical_covariance":
                pairs = parent.attrs.get("pairs", 0)
            else:
                pairs = sum(self.spans[j].attrs.get("kept", 0) for j in self.children[k.parent]
                            if self.spans[j].name == "kernels.pair_sample")
            used += pairs + (n if parent.name in READS_DIAGONAL else 0)
        return used, built

    def compute(self):
        m = {}
        m["cli.self_s"] = self.per_call("cli.main")
        m["geometry.build_level_s"] = self.per_call("geometry.build_level")
        m["geometry.vertices"] = max(self.attrs("geometry.build_level", "vertices"), default=0)
        m["operators.assemble_s"] = (self.per_call("operators.assemble_energy")
                                     + self.per_call("operators.assemble_mass"))

        m["spectral.solve_eigen_s"] = self.per_call("spectral.solve_eigen")
        m["spectral.pick_truncation_s"] = self.per_call("spectral.pick_truncation")
        solves = [self.spans[i].attrs for i in self.by_name["spectral.solve_eigen"]]
        last = solves[-1] if solves else {}
        sizes = cluster_sizes(last.get("lam", []))
        m["spectral.dim"] = last.get("dim", 0)
        m["spectral.modes_computed"] = last.get("modes", 0)
        m["spectral.clusters"] = int(sizes.size)
        m["spectral.max_cluster"] = int(sizes.max()) if sizes.size else 0
        m["spectral.residual"] = max((a.get("residual", 0.0) for a in solves), default=0.0)
        used = max((self.spans[i].attrs.get("J", 0) for n in MODE_CONSUMERS for i in self.by_name[n]),
                   default=0)
        m["spectral.modes_used_frac"] = _ratio(used, m["spectral.modes_computed"])
        self.bases["spectral.modes_used_frac"] = f"{used} / {m['spectral.modes_computed']} modes"
        m["spectral.share_of_job"] = self.share_of_job("spectral")

        m["kernels.kernel_matrix_s"] = self.per_call("kernels.kernel_matrix")
        m["kernels.kernel_matrix_calls"] = self.per_job(lambda i, s: s.name == "kernels.kernel_matrix")
        m["kernels.kernel_mb_computed"] = self.per_job(
            lambda i, s: s.attrs.get("n", 0) ** 2 * 8 / 1e6 if s.name == "kernels.kernel_matrix" else 0)
        used, built = self.kernel_entries()
        m["kernels.entries_used_frac"] = _ratio(used, built)
        self.bases["kernels.entries_used_frac"] = f"{used} / {built} entries"
        m["kernels.pair_sample_s"] = self.per_call("kernels.pair_sample")
        kept = sum(self.attrs("kernels.pair_sample", "kept"))
        enumerated = sum(self.attrs("kernels.pair_sample", "enumerated"))
        m["kernels.pairs_kept_frac"] = _ratio(kept, enumerated)
        self.bases["kernels.pairs_kept_frac"] = f"{kept} / {enumerated} triu pairs"
        m["kernels.estimate_bound_fit_s"] = self.per_call("kernels.estimate_bound_fit")
        m["kernels.increment_l2_check_s"] = self.per_call("kernels.increment_l2_check")

        for fn in ("sample_field", "empirical_covariance", "variogram", "hoelder_statistic"):
            m[f"fields.{fn}_s"] = self.per_call(f"fields.{fn}")
        m["fields.hoelder_pairs"] = max(self.attrs("fields.hoelder_statistic", "pairs"), default=0)
        m["fields.replications"] = self.per_job(
            lambda i, s: s.attrs.get("reps", 0) if s.layer == "fields" else 0)

        for w in IO_WRITERS:
            m[f"io.{w}_s"] = self.per_call(f"io.{w}")
        m["io.bytes_written"] = self.per_job(lambda i, s: s.attrs.get("bytes", 0))
        io_bytes = sum(s.attrs.get("bytes", 0) for s in self.spans)
        io_secs = sum(self.own[i] for i, s in enumerate(self.spans) if s.layer == "io")
        m["io.mb_per_s"] = _ratio(io_bytes / 1e6, io_secs)
        self.bases["io.mb_per_s"] = f"{io_bytes / 1e6:.3f} MB / {io_secs:.3f} s"
        m["io.share_of_job"] = self.share_of_job("io")

        for layer in LAYERS:
            m[f"{layer}.rss_raise_mb"] = sum(r for r, s in zip(self.rss, self.spans) if s.layer == layer)
        return m

    def baseline_cells(self):
        """(label, hand seconds, measured seconds, note) for the cells this run covers."""
        cells = []
        for label, name, level, hand in BASELINE:
            calls = [self.spans[i] for i in self.by_name[name]
                     if self.spans[i].attrs.get("level") == level]
            if calls:
                note = f"{len(calls)} calls"
                if "J" in calls[0].attrs:  # a kernel built from fewer modes than the hand cell
                    note += f", J = {calls[0].attrs['J']} of {calls[0].attrs['modes']} modes"
                cells.append((label, hand, statistics.median(s.duration for s in calls), note))
        return cells


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def print_environment(env, out):
    blas = env["blas"]
    threads = ", ".join(f"{k}={v}" for k, v in env["threads"].items())
    print(f"environment: nproc {env['nproc']} (affinity {env['affinity']}), "
          f"BLAS {blas.get('name')} {blas.get('version')}, threads {threads}", file=out)
    print(f"             python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"commit {env['commit']}, workload seed {env['seed']}", file=out)


def print_metrics(title, metrics, notes, out):
    print(title, file=out)
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:<32} {value:>16.6g} {unit:<9} {note}", file=out)


def print_baseline(cells, out):
    if not cells:
        return
    print("ROADMAP hand baseline vs this traced run (median wall of one call):", file=out)
    for label, hand, measured, note in cells:
        diff = measured / hand - 1.0
        flag = "  <-- differs by more than 10%" if abs(diff) > BASELINE_TOL else ""
        print(f"  {label:<38} hand {hand:>7.3f} s  measured {measured:>8.4f} s "
              f"({diff:+.0%}, {note}){flag}", file=out)
