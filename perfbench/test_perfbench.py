"""Tests of the benchmark itself: smoke runs, the gates, the tracer.

    python3 -m pytest -q perfbench

The smoke runs use levels 3-4, so the whole file takes well under a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gates  # noqa: E402
import spans  # noqa: E402
from run import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    done = run_bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.2",
                     "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    # the printed report names each metric with its unit
    for m in spec:
        assert m["name"] in done.stdout


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "--workload", "sample-l7", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_same_seed_gives_same_inputs(tmp_path):
    import workloads

    a = workloads.make("stats-l6", 5, tmp_path, smoke=True)
    b = workloads.make("stats-l6", 5, tmp_path, smoke=True)
    a.setup()
    b.setup()
    assert np.array_equal(a.pairs, b.pairs)
    assert np.array_equal(a.cov_seeds, b.cov_seeds)
    assert len({tuple(p) for p in a.pairs.tolist()}) == len(a.pairs)
    assert (a.pairs[:, 0] < a.pairs[:, 1]).all()


# ---------------------------------------------------------------------------
# gates: each must pass on real output and fail on a perturbed copy
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def eigs_artifacts(tmp_path_factory):
    from gasket_fgf import cli

    d = tmp_path_factory.mktemp("eigs")
    files = {k: d / k for k in ("graph.json", "stiffness.coo", "eigs.json", "modes.csv")}
    assert cli.main(["build", "--level", "3", "--out", str(files["graph.json"]),
                     "--matrix-out", str(files["stiffness.coo"])]) == 0
    assert cli.main(["eigs", "--level", "3", "--count", "20", "--out", str(files["eigs.json"]),
                     "--vectors-out", str(files["modes.csv"])]) == 0
    return files


def _eigs_gate(files, csv=None):
    ref = json.loads((HERE / "reference.json").read_text())["deep"]["3"]["lambdas"]
    doc = json.loads(files["graph.json"].read_text())
    return gates.check_graph(doc, 3) + gates.check_eigs(
        files["eigs.json"], csv or files["modes.csv"], files["stiffness.coo"],
        gates.graph_points(doc), 3, ref)


def test_eigs_gates_pass_on_program_output(eigs_artifacts):
    assert _eigs_gate(eigs_artifacts) == []


def test_eigs_gate_catches_a_perturbed_mode(eigs_artifacts, tmp_path):
    rows = eigs_artifacts["modes.csv"].read_text().splitlines()
    cells = rows[5].split(",")
    cells[3] = repr(float(cells[3]) * 1.001)
    rows[5] = ",".join(cells)
    bad = tmp_path / "modes.csv"
    bad.write_text("\n".join(rows) + "\n")
    fails = _eigs_gate(eigs_artifacts, csv=bad)
    assert any("residual" in f for f in fails) and any("Gram" in f for f in fails)


def test_eigs_gate_catches_a_wrong_eigenvalue(eigs_artifacts):
    ref = json.loads((HERE / "reference.json").read_text())["deep"]["3"]["lambdas"]
    shifted = [v * (1 + 1e-6) for v in ref]
    doc = json.loads(eigs_artifacts["graph.json"].read_text())
    fails = gates.check_eigs(eigs_artifacts["eigs.json"], eigs_artifacts["modes.csv"],
                             eigs_artifacts["stiffness.coo"], gates.graph_points(doc), 3, shifted)
    assert any("reference" in f for f in fails)


def test_graph_gate_counts():
    assert gates.level_counts(8) == (9843, 19683, 6561)
    assert gates.level_counts(7)[0] == 3282


def test_field_gate(tmp_path):
    from gasket_fgf import cli

    out = tmp_path / "field.csv"
    assert cli.main(["sample", "--level", "4", "--H", "0.3", "--tail-budget", "0.01",
                     "--seed", "3", "--out", str(out)]) == 0
    want = json.loads((HERE / "reference.json").read_text())["sample"]["4"]["J"]
    assert gates.check_field_csv(out, 4, want) == []
    assert any("header J" in f for f in gates.check_field_csv(out, 4, want + 1))
    lines = out.read_text().splitlines()
    cells = lines[10].split(",")
    cells[3] = repr(float(cells[3]) + 1e-3)
    lines[10] = ",".join(cells)
    out.write_text("\n".join(lines) + "\n")
    assert any("mean" in f for f in gates.check_field_csv(out, 4, want))


def test_lumped_mass_matches_the_package():
    from gasket_fgf import assemble_mass, build_level

    for level in (2, 5):
        g = build_level(level)
        assert np.allclose(gates.lumped_mass(g.points, level), assemble_mass(g).diagonal,
                           rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


def test_tracer_wraps_names_bound_at_import_and_restores_them():
    import gasket_fgf
    from gasket_fgf import fields, kernels

    orig = kernels.kernel_matrix
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert fields.kernel_matrix is kernels.kernel_matrix is gasket_fgf.kernel_matrix
        assert kernels.kernel_matrix is not orig
        g = gasket_fgf.build_level(4)
        basis = gasket_fgf.solve_eigen(gasket_fgf.assemble_energy(g), gasket_fgf.assemble_mass(g),
                                       len(g) - 1, graph=g)
        gasket_fgf.variogram(basis, 0.5)
    finally:
        tracer.uninstall()
    assert fields.kernel_matrix is orig and gasket_fgf.kernel_matrix is orig
    names = [s.name for s in tracer.spans]
    assert "kernels.kernel_matrix" in names and "kernels.pair_sample" in names
    top = names.index("fields.variogram")
    assert all(s.parent == top for s in tracer.spans if s.name.startswith("kernels."))


def test_self_time_subtracts_direct_children():
    s = [spans.Span("a.f", 0.0, 10.0, -1, "j", 0, 0),
         spans.Span("b.g", 1.0, 4.0, 0, "j", 0, 0),
         spans.Span("c.h", 2.0, 3.0, 1, "j", 0, 0),
         spans.Span("b.g", 5.0, 6.0, 0, "j", 0, 0)]
    assert spans.self_times(s) == [6.0, 2.0, 1.0, 1.0]
