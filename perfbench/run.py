"""Benchmark of the gasket-fgf package, timed from outside through its public API.

Run from the repository root, one workload per process:

    python3 perfbench/run.py --workload sample-l7 --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped; ``--trace 1``
wraps the layer-boundary functions (see ``spans.py``) and reports per-layer
metrics instead.  ``--smoke`` runs the same code at levels 3-4 in seconds.
The report goes to standard output; its last line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans and the
environment of each run are written to ``.perfbench_out/`` at the end.

The load is closed-loop: one client runs one job at a time, and starts the
next only while the jobs so far leave room for it in ``--seconds`` of program
time.  Every run makes at least three jobs, so that one slow job cannot move
the median and a traced run has both traced and untraced jobs.
"""

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sample-l7", "deep-l8", "stats-l6")

#: BLAS threads for every run: one client on a 2-core machine uses both cores.
BLAS_THREADS = "2"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "GASKET_FGF_THREADS")

#: Set-ups per run (this process plus fresh child processes); setup_s is their median.
SETUPS = 5
SETUP_TIMEOUT_S = 150

OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True, help="workload seed: all inputs derive from it")
    p.add_argument("--seconds", type=float, default=40.0, help="program time to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="levels 3-4: gates, spans and printing in seconds")
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up, print {\"setup_s\": ...} and exit (used for the repeats)")
    return p.parse_args(argv)


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def environment(args):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "smoke": args.smoke,
    }


def repeat_setups(args, count):
    """Time ``count`` more set-ups, each in a fresh process as the first one was."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(count):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=True)
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def run_jobs(workload, seconds, tracer):
    """Closed loop: the next job starts only while the program time so far leaves room for it."""
    from workloads import MAX_JOBS

    jobs = []  # (job id, Job, traced)
    spent = longest = 0.0
    min_jobs = 3  # an odd median that one slow job cannot move; traced runs alternate
    while len(jobs) < MAX_JOBS and (len(jobs) < min_jobs or spent + longest <= seconds):
        k = len(jobs)
        traced = tracer is not None and k % 2 == 0
        gc.collect()
        if traced:
            tracer.job = f"job{k}"
            tracer.install()
        try:
            job = workload.job(k)
        finally:
            if traced:
                tracer.uninstall()
        for err in job.errors:
            print(f"perfbench: job {k}: {err}", file=sys.stderr)
        jobs.append((f"job{k}", job, traced))
        spent += job.wall
        longest = max(longest, job.wall)
    return jobs


def finite(metrics):
    """Metrics as the JSON line wants them; a value that could not be measured is an error."""
    out = {}
    for name, (value, unit) in metrics.items():
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None):
    args = parse_args(argv)
    # fixed before numpy is first imported; recorded with every result
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    src = ROOT / "src"
    if not (src / "gasket_fgf" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {src / 'gasket_fgf'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    t0 = time.perf_counter()
    import gasket_fgf

    if Path(gasket_fgf.__file__).resolve().parent != (src / "gasket_fgf").resolve():
        print(f"perfbench: imported gasket_fgf from {gasket_fgf.__file__}, not {src}", file=sys.stderr)
        return 2
    import report
    import spans
    import workloads

    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tracer = spans.Tracer() if args.trace else None
        workload = workloads.make(args.workload, args.seed, workdir, smoke=args.smoke)
        try:
            # one untraced smoke-size job first, so lazy imports and library start-up
            # are paid in set-up rather than by whichever timed job comes first
            warm = workloads.make(args.workload, args.seed, workdir, smoke=True)
            warm.setup()
            warm.job(0)
            if tracer:
                tracer.install()
            workload.setup()
        except workloads.SetupError as exc:
            print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
            return 1
        finally:
            if tracer:
                tracer.uninstall()
        setup_s = time.perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setups = [setup_s] if tracer else [setup_s] + repeat_setups(args, SETUPS - 1)
        jobs = run_jobs(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args)
    attempted = sum(j.attempted for _, j, _ in jobs)
    failed = sum(j.failed for _, j, _ in jobs)
    untraced = [j for _, j, traced in jobs if not traced]
    measured = [j for _, j, traced in jobs if traced == bool(tracer)]
    session = workload.summary(measured)
    job_s = statistics.median(j.wall for j in untraced)

    out = sys.stdout
    mode = "traced" if tracer else "untraced"
    print(f"perfbench {args.workload}{' (smoke)' if args.smoke else ''}, {mode} run, "
          f"{len(jobs)} jobs, {len(measured)} measured", file=out)
    report.print_environment(env, out)
    end_to_end = {
        "setup_s": (statistics.median(setups), "s"),
        "job_s": (job_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    rates = {**session, "error_rate": (failed / attempted, "fraction")}
    notes = {"setup_s": f"median of {len(setups)} set-ups",
             "job_s": f"median of {len(untraced)} untraced jobs",
             "error_rate": f"{failed} of {attempted} operations failed"}
    record = {"environment": env, "jobs": [[jid, j.wall, traced] for jid, j, traced in jobs]}
    if tracer:
        layer = report.LayerMetrics(tracer.spans, {jid: j.wall for jid, j, t in jobs if t})
        traced_s = statistics.median(j.wall for j in measured)
        values = {**layer.compute(), "trace.overhead_frac": traced_s / job_s - 1.0,
                  **{name: v for name, (v, _) in rates.items()}}
        # every per-layer metric is reported; what this workload never runs reads 0
        per_layer = {name: (values.get(name, 0.0), unit) for name, unit in report.UNITS.items()}
        for name in report.COMPUTED:
            notes[name] = "computed" + (f": {layer.bases[name]}" if name in layer.bases else "")
        for name, base in layer.bases.items():
            notes.setdefault(name, base)
        notes["trace.overhead_frac"] = f"traced job {traced_s:.4g} s / untraced {job_s:.4g} s - 1"
        report.print_metrics("end-to-end (untraced jobs of this run):", end_to_end, notes, out)
        report.print_metrics("per layer (traced jobs):", per_layer, notes, out)
        print(f"spectral self time is {per_layer['spectral.share_of_job'][0]:.1%} of job_s; "
              f"io self time is {per_layer['io.share_of_job'][0]:.1%}", file=out)
        report.print_baseline(layer.baseline_cells(), out)
        record["spans"] = tracer.dump()
        result = per_layer
    else:
        report.print_metrics("end-to-end:", {**end_to_end, **rates}, notes, out)
        result = end_to_end
    record["metrics"] = {name: v for name, (v, _) in {**end_to_end, **rates, **result}.items()}

    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}{'-smoke' if args.smoke else ''}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT_DIR / name, "w") as fh:
        json.dump(record, fh)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": finite(result)}), file=out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
