"""The benchmark workloads: inputs from the seed, one timed job, and its gates.

A job is what one closed-loop client does before it asks for the next one:

* ``sample-l7``: one ``gasket-fgf sample`` CLI call at level 7.
* ``deep-l8``:   ``gasket-fgf build`` then ``gasket-fgf eigs`` at level 8.
* ``stats-l6``:  one round of a library session on a level-6 basis solved in
  set-up: a batch of ``sample_field`` draws, ``empirical_covariance``, the
  Monte Carlo ``variogram`` and the exact-regression bundle.

Only the time spent inside the program's calls counts towards a job; input
conversion and gates run outside it.  Every program call is looked up on its
module at call time, so the tracer's wrappers see it.
"""

import json
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gasket_fgf.io  # noqa: F401  the CLI imports it lazily; load it before the first job
from gasket_fgf import cli, constants, fields, geometry, kernels, operators, spectral

import gates

#: Workload parameters at full size ...
FULL = {
    "sample-l7": {"kind": "sample", "level": 7, "hurst": 0.3, "budget": 0.01},
    "deep-l8": {"kind": "deep", "level": 8, "count": 300},
    "stats-l6": {"kind": "stats", "level": 6, "s": 0.5, "budget": 0.01,
                 "draws": 1000, "cov_reps": 2000, "mc_reps": 1000, "pairs": 100},
}

#: ... and in smoke mode, which runs the same code paths in seconds.
SMOKE = {
    "sample-l7": {"kind": "sample", "level": 4, "hurst": 0.3, "budget": 0.01},
    "deep-l8": {"kind": "deep", "level": 3, "count": 20},
    "stats-l6": {"kind": "stats", "level": 4, "s": 0.5, "budget": 0.01,
                 "draws": 50, "cov_reps": 1000, "mc_reps": 100, "pairs": 100},
}

#: Upper bound on jobs in one run; inputs for this many are made in set-up.
MAX_JOBS = 256

#: Keeps generated seeds inside the signed 64-bit range the CLI accepts.
SEED_LIMIT = 2 ** 63

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# the cache behind build_level, reachable even while the tracer wraps the function
_clear_graph_cache = geometry.build_level.cache_clear


class SetupError(RuntimeError):
    """The workload could not be prepared; no job can run."""


@dataclass
class Job:
    """Outcome of one job: program time, operations and their failures."""

    wall: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    phases: dict = field(default_factory=dict)  # name -> (work count, seconds)

    def timed(self, fn, *args, **kwargs):
        """Run one program call, adding its time; returns (ok, result)."""
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:  # a failing operation is counted, never fatal
            self.wall += time.perf_counter() - t0
            self.errors.append(traceback.format_exc(limit=4))
            return False, None
        self.wall += time.perf_counter() - t0
        return True, result

    def operation(self, ok, gate=None):
        """Count one operation: failed when the call failed or a gate reports."""
        self.attempted += 1
        fails = []
        if ok and gate is not None:
            try:
                fails = gate()
            except Exception:
                fails = [traceback.format_exc(limit=4)]
        if not ok or fails:
            self.failed += 1
            self.errors.extend(fails)
        return ok and not fails


def run_cli(job, argv):
    """One CLI invocation as a fresh process would see it; True on exit 0."""
    _clear_graph_cache()
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code = "exception"
        job.errors.append(traceback.format_exc(limit=4))
    job.wall += time.perf_counter() - t0
    if code:
        job.errors.append(f"gasket-fgf {' '.join(argv)} exited with {code}")
    return not code


def _unlink(*paths):
    for p in paths:
        p.unlink(missing_ok=True)


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


class Workload:
    """Parameters, seed and scratch directory of one workload; subclasses add the job."""

    def __init__(self, cfg, seed, workdir):
        self.cfg, self.seed, self.workdir = cfg, seed, workdir

    def summary(self, jobs):
        """End-to-end rates of its own beyond job_s; the CLI workloads have none."""
        return {}


class SampleWorkload(Workload):
    """``sample --level 7 --H 0.3 --tail-budget 0.01`` with a fresh field seed per job."""

    def setup(self):
        self.field_seeds = np.random.default_rng(self.seed).integers(0, SEED_LIMIT, MAX_JOBS).tolist()
        self.expected_j = load_reference()["sample"][str(self.cfg["level"])]["J"]

    def job(self, k):
        job = Job()
        level = self.cfg["level"]
        out, pgm = self.workdir / "field.csv", self.workdir / "field.pgm"
        argv = ["sample", "--level", str(level), "--H", str(self.cfg["hurst"]),
                "--tail-budget", str(self.cfg["budget"]), "--seed", str(self.field_seeds[k]),
                "--out", str(out), "--pgm", str(pgm)]
        ok = run_cli(job, argv)
        job.operation(ok, lambda: gates.check_field_csv(out, level, self.expected_j))
        _unlink(out, pgm)
        return job


class DeepWorkload(Workload):
    """``build --level 8`` then ``eigs --level 8 --count 300``; no seeded input."""

    def setup(self):
        self.reference = load_reference()["deep"][str(self.cfg["level"])]["lambdas"]

    def job(self, k):
        job = Job()
        level, d = self.cfg["level"], self.workdir
        graph, coo, lam, modes = d / "graph.json", d / "stiffness.coo", d / "eigs.json", d / "modes.csv"
        ok = run_cli(job, ["build", "--level", str(level), "--out", str(graph),
                           "--matrix-out", str(coo)])
        points = []

        def gate_graph():
            with open(graph) as fh:
                doc = json.load(fh)
            points.append(gates.graph_points(doc))
            return gates.check_graph(doc, level)

        job.operation(ok, gate_graph)
        ok = run_cli(job, ["eigs", "--level", str(level), "--count", str(self.cfg["count"]),
                           "--out", str(lam), "--vectors-out", str(modes)])

        def gate_eigs():
            if not points:
                return ["no graph artifact from build to gate the eigenvectors against"]
            return gates.check_eigs(lam, modes, coo, points[0], level, self.reference)

        job.operation(ok, gate_eigs)
        _unlink(graph, coo, lam, modes)
        return job


class StatsWorkload(Workload):
    """A library session on a level-6 basis: draws, Monte Carlo and exact regressions."""

    def setup(self):
        cfg = self.cfg
        rng = np.random.default_rng(self.seed)
        n = gates.level_counts(cfg["level"])[0]
        # distinct vertex pairs i < j, drawn by flat index into the upper triangle
        flat = np.sort(rng.choice(n * (n - 1) // 2, cfg["pairs"], replace=False))
        iu, ju = np.triu_indices(n, 1)
        self.pairs = np.column_stack([iu[flat], ju[flat]])
        self.draw_seeds = rng.integers(0, SEED_LIMIT, (MAX_JOBS, cfg["draws"]))
        self.cov_seeds = rng.integers(0, SEED_LIMIT, (MAX_JOBS, cfg["cov_reps"]))
        self.mc_seeds = rng.integers(0, SEED_LIMIT, (MAX_JOBS, cfg["mc_reps"]))

        self.s = cfg["s"]
        self.hurst = constants.hurst_from_s(self.s)
        self.graph = geometry.build_level(cfg["level"])
        self.basis = spectral.solve_eigen(operators.assemble_energy(self.graph),
                                          operators.assemble_mass(self.graph),
                                          len(self.graph) - 1, graph=self.graph)
        self.J = spectral.pick_truncation(self.basis, self.s, budget=cfg["budget"])
        want = load_reference()["stats"][str(cfg["level"])]["J"]
        if self.J != want:
            raise SetupError(f"pick_truncation gave J* = {self.J}, the reference spectrum gives {want}")

    def _phase(self, job, name, work, fn, *args, **kwargs):
        before = job.wall
        ok, result = job.timed(fn, *args, **kwargs)
        job.phases[name] = (work, job.wall - before)
        return ok, result

    def job(self, k):
        job = Job()
        basis, s, J = self.basis, self.s, self.J
        draw_seeds = self.draw_seeds[k].tolist()
        cov_seeds = self.cov_seeds[k].tolist()
        mc_seeds = self.mc_seeds[k].tolist()

        def draw_all():
            first = fields.sample_field(basis, s, draw_seeds[0], J=J)
            for sd in draw_seeds[1:]:
                fields.sample_field(basis, s, sd, J=J)
            return first

        ok, sample = self._phase(job, "draws", len(draw_seeds), draw_all)
        job.operation(ok)
        ok, cov = self._phase(job, "covariance", len(cov_seeds), fields.empirical_covariance,
                              basis, s, cov_seeds, self.pairs, J=J)
        job.operation(ok, lambda: gates.check_covariance(cov))
        ok, _ = self._phase(job, "mc_variogram", len(mc_seeds), fields.variogram,
                            basis, s, seeds=mc_seeds, mode="mc", J=J)
        job.operation(ok)

        def bundle():
            return (fields.variogram(basis, s, J=J),
                    kernels.estimate_bound_fit(basis, s, J=J),
                    kernels.increment_l2_check(basis, s, J=J),
                    fields.hoelder_statistic(sample, self.graph, self.hurst) if sample else None)

        ok, reports = self._phase(job, "regression", 1, bundle)
        job.operation(ok, lambda: gates.check_variogram_slope(reports[0], self.hurst)
                      + gates.check_increment(reports[2]))
        return job

    def summary(self, jobs):
        """The session's own end-to-end rates over every job given."""
        def total(*names):
            work = sum(j.phases[n][0] for j in jobs for n in names if n in j.phases)
            secs = sum(j.phases[n][1] for j in jobs for n in names if n in j.phases)
            return work, secs

        draws, draw_s = total("draws")
        reps, rep_s = total("covariance", "mc_variogram")
        bundles = [j.phases["regression"][1] for j in jobs if "regression" in j.phases]
        return {
            "fields_per_s": (draws / draw_s if draw_s else 0.0, "1/s"),
            "mc_reps_per_s": (reps / rep_s if rep_s else 0.0, "1/s"),
            "regression_s": (statistics.median(bundles) if bundles else 0.0, "s"),
        }


KINDS = {"sample": SampleWorkload, "deep": DeepWorkload, "stats": StatsWorkload}


def make(name, seed, workdir, smoke=False):
    cfg = (SMOKE if smoke else FULL)[name]
    return KINDS[cfg["kind"]](cfg, seed, workdir)
