"""Command-line entry point: graphs -> spectra -> kernels -> fields -> reports.

One binary with subcommands; a JSON config file can predefine any flag and
explicit flags win.  All artifacts embed the resolved mathematical
configuration (never output paths or timestamps), so identical
configurations rerun to byte-identical files.

Exit codes: 0 success (and, for `verify`, all checks passed); 1 verify
checks failed; 2 invalid configuration (message names the violated
invariant and admissible interval); 3 eigensolver failure.

Heavy numerical imports happen inside the command handlers, after the
``--threads`` cap has been exported to the BLAS thread-count variables --
they only take effect if set before numpy loads.  An explicit ``--threads``
overrides inherited thread variables; the GASKET_FGF_THREADS fallback only
fills those that are unset.
"""

import argparse
import json
import os
import sys

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: config keys whose attribute name differs from a plain dash swap
_KEY_ALIASES = {"H": "hurst"}


def _peel_threads(argv):
    n = None
    for k, a in enumerate(argv):
        if a == "--threads" and k + 1 < len(argv):
            n = argv[k + 1]
        elif a.startswith("--threads="):
            n = a.split("=", 1)[1]
    if n:
        # an explicit flag overrides thread variables inherited from the shell
        for var in _THREAD_VARS:
            os.environ[var] = str(n)
        return
    n = os.environ.get("GASKET_FGF_THREADS")
    if n:
        for var in _THREAD_VARS:
            os.environ.setdefault(var, n)


def _add_common(sp):
    sp.add_argument("--config", metavar="JSON",
                    help="JSON file of flag defaults; explicit flags win")
    sp.add_argument("--threads", type=int, metavar="N",
                    help="cap BLAS/OpenMP threads (fallback: GASKET_FGF_THREADS)")


def _add_exponent(sp):
    sp.add_argument("--s", type=float,
                    help="field exponent s (exactly one of --s/--H)")
    sp.add_argument("--H", dest="hurst", type=float,
                    help="Hurst exponent H = s*d_w - d_h/2 (exactly one of --s/--H)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gasket-fgf",
        description="Fractional Gaussian fields on the Sierpinski gasket: "
                    "level graphs, Laplacian spectra, Riesz kernels, field samples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a level graph, write JSON (+ stiffness COO)")
    _add_common(b)
    b.add_argument("--level", type=int)
    b.add_argument("--out", help="graph JSON path")
    b.add_argument("--matrix-out", dest="matrix_out", help="stiffness coordinate-list path")

    e = sub.add_parser("eigs", help="solve the generalized eigenproblem, write spectra")
    _add_common(e)
    e.add_argument("--level", type=int)
    e.add_argument("--count", type=int, help="number of nonzero modes (default 300)")
    e.add_argument("--tol", type=float, help="residual tolerance (default 1e-8)")
    e.add_argument("--out", help="eigenvalue JSON path")
    e.add_argument("--vectors-out", dest="vectors_out", help="eigenvector CSV path")

    k = sub.add_parser("kernel", help="evaluate the Riesz kernel G_s, write CSV (+ decay report)")
    _add_common(k)
    k.add_argument("--level", type=int)
    _add_exponent(k)
    k.add_argument("--modes", type=int, help="truncation J (default: every mode)")
    k.add_argument("--tail-budget", dest="tail_budget", type=float,
                   help="pick J so the omitted variance fraction stays below this")
    k.add_argument("--regime", choices=("auto", "power", "log", "bounded"))
    k.add_argument("--out", help="kernel CSV path (upper triangle)")
    k.add_argument("--report", help="decay-estimate report JSON path")

    f = sub.add_parser("sample", help="draw a field realization, write CSV (+ PGM raster)")
    _add_common(f)
    f.add_argument("--level", type=int)
    _add_exponent(f)
    f.add_argument("--modes", type=int, help="truncation J")
    f.add_argument("--tail-budget", dest="tail_budget", type=float,
                   help="pick J from a tail-variance budget (default 0.01)")
    f.add_argument("--seed", type=int, help="64-bit generator seed (default 42)")
    f.add_argument("--pin", type=int, nargs="?", const=0, default=None, metavar="Q",
                   help="pin the field to zero at vertex Q (default corner 0)")
    f.add_argument("--out", help="field CSV path")
    f.add_argument("--pgm", help="512x512 grayscale raster path")

    v = sub.add_parser("verify", help="run acceptance check suites")
    _add_common(v)
    v.add_argument("suite", nargs="?", help="suite name (default: all)")
    v.add_argument("--level", type=int)
    _add_exponent(v)
    v.add_argument("--seed", type=int)

    return parser


def _merge_config(args, parser):
    if not getattr(args, "config", None):
        return
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config file: {exc}")
    if not isinstance(cfg, dict):
        parser.error("config file must hold a JSON object")
    for key, value in cfg.items():
        if key == "command":
            continue
        attr = _KEY_ALIASES.get(key, key.replace("-", "_"))
        if not hasattr(args, attr):
            parser.error(f"unknown config key {key!r} for command {args.command!r}")
        if getattr(args, attr) is None:
            setattr(args, attr, value)


def _resolve_exponent(args, parser, required=True):
    from .constants import check_hurst, check_s, hurst_from_s, s_from_hurst

    has_s = args.s is not None
    has_h = args.hurst is not None
    if has_s and has_h:
        parser.error("exactly one of --s or --H may be given")
    if not has_s and not has_h:
        if required:
            parser.error("exactly one of --s or --H is required")
        args.s = 0.5
        args.hurst = hurst_from_s(0.5)
        return
    try:
        if has_s:
            args.s = check_s(args.s)
            args.hurst = hurst_from_s(args.s)
        else:
            args.hurst = check_hurst(args.hurst)
            args.s = check_s(s_from_hurst(args.hurst))
    except ValueError as exc:
        parser.error(str(exc))


def _require(args, parser, *names):
    for name in names:
        if getattr(args, name) is None:
            flag = "--" + name.replace("_", "-")
            parser.error(f"{flag} is required (flag or config)")


def _solve(level, count, tol=None):
    from .geometry import build_level
    from .operators import assemble_energy, assemble_mass
    from .spectral import solve_eigen

    graph = build_level(level)
    kwargs = {} if tol is None else {"tol": tol}
    return graph, solve_eigen(assemble_energy(graph), assemble_mass(graph), count,
                              graph=graph, **kwargs)


def _modes(args):
    """Graph and J of ``kernel``/``sample``, fixed before any vector exists.

    ``--modes`` is J itself; ``--tail-budget`` picks J from the exact level
    spectrum; neither means every mode.
    """
    from .geometry import build_level
    from .spectral import pick_truncation, spectrum

    graph = build_level(args.level)  # checks the level before the spectrum is formed
    n = len(graph)
    if args.modes is not None:
        j = int(args.modes)
        if not 1 <= j <= n - 1:
            raise ValueError(f"count must lie in [1, {n - 1}] for dimension {n}")
    elif args.tail_budget is not None:
        j = pick_truncation(spectrum(args.level), args.s, budget=args.tail_budget)
    else:
        j = n - 1
    return graph, j


def cmd_build(args, parser):
    from .geometry import build_level
    from .io import write_graph_json, write_matrix_coo
    from .operators import assemble_energy

    _require(args, parser, "level", "out")
    graph = build_level(args.level)
    write_graph_json(graph, args.out, config={"command": "build", "level": args.level})
    if args.matrix_out:
        write_matrix_coo(assemble_energy(graph), args.matrix_out)
    return 0


def cmd_eigs(args, parser):
    from .io import write_eigen_csv, write_eigen_json

    _require(args, parser, "level", "out")
    count = 300 if args.count is None else args.count
    tol = 1e-8 if args.tol is None else args.tol
    _, basis = _solve(args.level, count, tol)
    echo = {"command": "eigs", "level": args.level, "count": count, "tol": tol}
    write_eigen_json(basis, args.out, config=echo)
    if args.vectors_out:
        write_eigen_csv(basis, args.vectors_out)
    return 0


def cmd_kernel(args, parser):
    from .io import to_jsonable, write_json, write_kernel_csv
    from .kernels import estimate_bound_fit, kernel_matrix

    _require(args, parser, "level", "out")
    _resolve_exponent(args, parser)
    _, j = _modes(args)
    _, basis = _solve(args.level, max(j, 1))  # J = 0 (a budget of 1) still solves one mode
    echo = {"command": "kernel", "level": args.level, "s": args.s, "H": args.hurst,
            "J": j}
    write_kernel_csv(kernel_matrix(basis, args.s, j), args.out, header=echo)
    if args.report:
        report = estimate_bound_fit(basis, args.s, regime=args.regime or "auto", J=j)
        doc = {"config": echo}
        doc.update(to_jsonable(report))
        # the regression slope itself, in addition to the regime's exponent
        doc["slope"] = report.fitted_exponent if report.regime == "log" else -report.fitted_exponent
        write_json(doc, args.report)
    return 0


def cmd_sample(args, parser):
    from .fields import pinned_field, stream_field
    from .io import write_field_csv, write_pgm
    from .operators import assemble_energy, assemble_mass

    _require(args, parser, "level", "out")
    _resolve_exponent(args, parser)
    if args.seed is None:
        args.seed = 42
    if args.modes is None and args.tail_budget is None:
        args.tail_budget = 0.01
    graph, j = _modes(args)
    sample = stream_field(assemble_energy(graph), assemble_mass(graph), args.s, args.seed, j,
                          graph=graph)
    extra = {}
    if args.pin is not None:
        sample = pinned_field(sample, args.pin)
        extra["pinned"] = args.pin
    write_field_csv(sample, graph, args.out, extra=extra)
    if args.pgm:
        write_pgm(sample.values, graph, args.pgm)
    return 0


def cmd_verify(args, parser):
    from .verify import SUITES, run_suite

    suite = args.suite or "all"
    if suite not in SUITES:
        parser.error(f"unknown suite {suite!r}; choose from {', '.join(sorted(SUITES))}")
    _resolve_exponent(args, parser, required=False)
    level = 6 if args.level is None else args.level
    seed = 7 if args.seed is None else args.seed
    results = run_suite(suite, level=level, s=args.s, seed=seed)
    return 0 if all(r.passed for r in results) else 1


_COMMANDS = {
    "build": cmd_build,
    "eigs": cmd_eigs,
    "kernel": cmd_kernel,
    "sample": cmd_sample,
    "verify": cmd_verify,
}


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    _peel_threads(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    _merge_config(args, parser)
    from .spectral import SolverError

    try:
        return _COMMANDS[args.command](args, parser)
    except SolverError as exc:
        print(f"gasket-fgf: solver failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
