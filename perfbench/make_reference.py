"""Regenerate ``reference.json``, the fixed answers the benchmark gates compare to.

Run from the repository root:

    python3 perfbench/make_reference.py

The eigenvalues come from scipy directly on the (S, M) pencil that the
package assembles, not from ``gasket_fgf.spectral``: dense ``eigvalsh`` for
the levels whose truncation J is gated, and shift-invert ARPACK on the
unsymmetrized generalized problem, at machine-precision tolerance, for the
``eigs`` levels.  The truncation J is recomputed from those eigenvalues by
the tail-variance rule, written out here rather than called.
"""

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
os.environ.setdefault("OPENBLAS_NUM_THREADS", "2")

import numpy as np  # noqa: E402
import scipy.linalg as sla  # noqa: E402
import scipy.sparse as sp  # noqa: E402
import scipy.sparse.linalg as spla  # noqa: E402

from workloads import FULL, SMOKE  # noqa: E402


def pencil(level):
    from gasket_fgf.geometry import build_level
    from gasket_fgf.operators import assemble_energy, assemble_mass

    g = build_level(level)
    return assemble_energy(g).matrix, np.asarray(assemble_mass(g).diagonal)


def all_eigenvalues(level):
    s, m = pencil(level)
    d = 1.0 / np.sqrt(m)
    a = s.toarray() * d[:, None] * d[None, :]
    return np.sort(sla.eigvalsh(0.5 * (a + a.T)))[1:]


def lowest_eigenvalues(level, count):
    s, m = pencil(level)
    w = spla.eigsh(sp.csc_array(s), k=count + 1, M=sp.diags_array(m, format="csc"),
                   sigma=-1.0, which="LM", tol=0.0, return_eigenvectors=False)
    return np.sort(w)[1:]


def tail_truncation(lam, s, budget):
    """Smallest J with sum_{j > J} lam_j^{-2s} <= budget * sum_j lam_j^{-2s}."""
    terms = lam ** (-2.0 * s)
    tails = terms.sum() - np.concatenate([[0.0], np.cumsum(terms)])
    return int(np.nonzero(tails <= budget * terms.sum())[0][0])


def truncation_entry(level, s, budget):
    lam = all_eigenvalues(level)
    j = tail_truncation(lam, s, budget)
    terms = lam ** (-2.0 * s)
    return {
        "s": s,
        "budget": budget,
        "modes": len(lam),
        "J": j,
        # tail fractions just before and at J: the margin the gate relies on
        "tail_frac_at_J_minus_1": float(terms[j - 1:].sum() / terms.sum()),
        "tail_frac_at_J": float(terms[j:].sum() / terms.sum()),
    }


def main():
    from gasket_fgf.constants import s_from_hurst

    ref = {"sample": {}, "deep": {}, "stats": {}}
    for cfg in (FULL, SMOKE):
        smp, deep, stats = cfg["sample-l7"], cfg["deep-l8"], cfg["stats-l6"]
        ref["sample"][str(smp["level"])] = truncation_entry(
            smp["level"], s_from_hurst(smp["hurst"]), smp["budget"])
        ref["stats"][str(stats["level"])] = truncation_entry(
            stats["level"], stats["s"], stats["budget"])
        lam = lowest_eigenvalues(deep["level"], deep["count"])
        ref["deep"][str(deep["level"])] = {"count": deep["count"],
                                           "lambdas": [float(v) for v in lam]}
    out = HERE / "reference.json"
    out.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
