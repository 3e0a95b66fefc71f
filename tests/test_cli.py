"""Command-line interface: artifacts, config merging, exit codes."""

import hashlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from gasket_fgf import cli, spectral
from gasket_fgf.constants import s_from_hurst
from gasket_fgf.spectral import SolverError
from gasket_fgf.verify import get_basis


def run_cli(args):
    return cli.main(list(args))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# build / eigs artifacts
# ---------------------------------------------------------------------------


def test_build_graph_json(tmp_path):
    out = tmp_path / "graph.json"
    mat = tmp_path / "stiffness.txt"
    assert run_cli(["build", "--level", "3", "--out", str(out),
                    "--matrix-out", str(mat)]) == 0
    doc = read_json(out)
    assert doc["config"] == {"command": "build", "level": 3}
    assert doc["level"] == 3
    assert len(doc["vertices"]) == 42
    assert len(doc["edges"]) == 81
    # COO lines: i j value
    rows = mat.read_text().strip().splitlines()
    i, j, v = rows[1].split()
    assert float(v) != 0


#: SHA-256 of the graph JSON and stiffness COO that ``build --level L`` writes.
BUILD_SHA256 = {
    3: ("0ce5bfde4037ccda545ef4c2939ab0aa104d398b3543885d1e5ecb6df943fdd8",
        "e6c6702e528a9c6b9905831e32440178f3ea843a123478e7b25c0e2f9f277e36"),
    5: ("35f718dff11e577b7d53420eb4a6914ea52c1804b5dea4038748abdf1e090f1a",
        "06421d785e23fb8689e7a0457ce80861996902337327da316630ec4a3addd32f"),
    7: ("2d7ee5e8b451e572031a6b3e97a2f1c9663f07a3b2dc7344d18d07382dc7ac66",
        "41c14f9eb2abdd08daba7617e1674e8935bf3ee6d7bce97545132b06e607b99c"),
}


@pytest.mark.parametrize("level", sorted(BUILD_SHA256))
def test_build_artifacts_keep_their_bytes(tmp_path, level):
    out, mat = tmp_path / "g.json", tmp_path / "s.coo"
    assert run_cli(["build", "--level", str(level), "--out", str(out),
                    "--matrix-out", str(mat)]) == 0
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (out, mat))
    assert digests == BUILD_SHA256[level]


def test_kernel_report_keeps_its_bytes(tmp_path):
    rep = tmp_path / "report.json"
    assert run_cli(["kernel", "--level", "5", "--s", "0.5", "--out", str(tmp_path / "k.csv"),
                    "--report", str(rep)]) == 0
    assert hashlib.sha256(rep.read_bytes()).hexdigest() == (
        "7c2150b1f4afa4206efaef6a74d1b95ef6ebe49e24bf952bc37756f4c735a0f9")


def test_kernel_report_refusal_writes_no_file(tmp_path, capsys):
    # at level 2 the increment fit has no binned points: the command exits 2
    # before it writes the kernel table or the report
    out, rep = tmp_path / "k.csv", tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        run_cli(["kernel", "--level", "2", "--s", "0.5", "--out", str(out), "--report", str(rep)])
    assert exc.value.code == 2
    assert "fit window is empty after binning" in capsys.readouterr().err
    assert not out.exists() and not rep.exists()


def test_eigs_artifacts(tmp_path):
    out = tmp_path / "eigs.json"
    vec = tmp_path / "vectors.csv"
    assert run_cli(["eigs", "--level", "3", "--count", "12", "--out", str(out),
                    "--vectors-out", str(vec)]) == 0
    doc = read_json(out)
    assert doc["config"]["count"] == 12
    assert doc["count"] == 12
    assert len(doc["lambdas"]) == 12
    assert doc["lambdas"] == sorted(doc["lambdas"])
    assert doc["lambdas"][0] == pytest.approx(26.9188, abs=1e-3)
    assert doc["residual"] <= 1e-8
    header = vec.read_text().splitlines()[0]
    assert header.split(",")[:2] == ["vertex_id", "mode_0"]
    assert header.count("mode_") == 13


#: Values whose 17-digit text is easy to get wrong: signed zero, subnormal, extremes.
AWKWARD = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e-300, 1.7976931348623157e308,
           -1e22, 1e16, 0.1, -1.0 / 3.0]


def test_csv_writers_match_per_value_fmt(tmp_path, basis4):
    # the row templates of write_eigen_csv/write_kernel_csv against the
    # one-fmt-call-per-value writers they replaced
    from dataclasses import replace

    from gasket_fgf.io import fmt, write_eigen_csv, write_kernel_csv
    from gasket_fgf.kernels import kernel_matrix

    phi = basis4.phi.copy()
    phi.flat[: 7 * len(AWKWARD) : 7] = AWKWARD
    basis = replace(basis4, phi=phi)
    constant = fmt(1.0 / np.sqrt(basis.mass.sum()))
    with open(tmp_path / "ref_modes.csv", "w") as fh:
        fh.write("vertex_id," + ",".join(f"mode_{j}" for j in range(basis.count + 1)) + "\n")
        for i in range(basis.dim):
            fh.write(str(i) + "," + constant + "," + ",".join(fmt(v) for v in basis.phi[i]) + "\n")
    write_eigen_csv(basis, tmp_path / "modes.csv")
    assert (tmp_path / "modes.csv").read_bytes() == (tmp_path / "ref_modes.csv").read_bytes()

    kern = kernel_matrix(basis4, 1.0)
    kern[0, : len(AWKWARD)] = AWKWARD
    header = {"command": "kernel", "level": 4}
    with open(tmp_path / "ref_kernel.csv", "w") as fh:
        fh.write("# " + json.dumps(header, separators=(", ", ": ")) + "\n")
        fh.write("i,j,value\n")
        for i in range(len(kern)):
            for j in range(i, len(kern)):
                fh.write(f"{i},{j},{fmt(kern[i, j])}\n")
    write_kernel_csv(kern, tmp_path / "kernel.csv", header=header)
    assert (tmp_path / "kernel.csv").read_bytes() == (tmp_path / "ref_kernel.csv").read_bytes()


# ---------------------------------------------------------------------------
# kernel / sample artifacts
# ---------------------------------------------------------------------------


def test_kernel_report_interface(tmp_path):
    out = tmp_path / "kernel.csv"
    rep = tmp_path / "report.json"
    assert run_cli(["kernel", "--level", "4", "--s", "0.5", "--out", str(out),
                    "--report", str(rep)]) == 0
    doc = read_json(rep)
    for key in ("s", "slope", "window", "residual", "tail_variance", "seed"):
        assert key in doc, key
    assert doc["s"] == 0.5
    assert doc["regime"] == "power"
    assert doc["slope"] == -doc["fitted_exponent"]
    assert doc["config"]["command"] == "kernel"
    assert doc["config"]["H"] == pytest.approx(0.368481, abs=1e-5)
    first = out.read_text().splitlines()
    assert first[0].startswith("# ")
    assert first[1] == "i,j,value"


def test_kernel_accepts_hurst_flag(tmp_path):
    out = tmp_path / "kernel.csv"
    rep = tmp_path / "report.json"
    assert run_cli(["kernel", "--level", "3", "--H", "0.3", "--out", str(out),
                    "--report", str(rep)]) == 0
    doc = read_json(rep)
    assert doc["config"]["s"] == pytest.approx(s_from_hurst(0.3), rel=1e-12)
    assert doc["config"]["s"] == pytest.approx(0.47051, abs=1e-4)


def test_sample_field_csv_and_pgm(tmp_path):
    out = tmp_path / "field.csv"
    pgm = tmp_path / "field.pgm"
    assert run_cli(["sample", "--level", "4", "--s", "0.5", "--seed", "11",
                    "--out", str(out), "--pgm", str(pgm)]) == 0
    lines = out.read_text().splitlines()
    header = json.loads(lines[0][2:])
    assert header["seed"] == 11
    assert header["generator"] == "PCG64"
    assert 0 < header["J"] <= 122
    assert lines[1] == "vertex_id,x,y,value"
    assert len(lines) == 2 + 123
    blob = pgm.read_bytes()
    assert blob.startswith(b"P5\n512 512\n255\n")
    assert len(blob) == len(b"P5\n512 512\n255\n") + 512 * 512


def test_sample_pin_flag(tmp_path):
    out = tmp_path / "field.csv"
    assert run_cli(["sample", "--level", "3", "--s", "0.5", "--pin", "--out",
                    str(out)]) == 0
    lines = out.read_text().splitlines()
    header = json.loads(lines[0][2:])
    assert header["pinned"] == 0
    first_value = float(lines[2].split(",")[3])
    assert first_value == 0.0


@pytest.mark.parametrize("pin", ["99999", "-1"])
def test_sample_pin_outside_graph_exits_2(tmp_path, capsys, pin):
    out = tmp_path / "field.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli(["sample", "--level", "3", "--s", "0.5", "--pin", pin, "--out", str(out)])
    assert exc.value.code == 2
    assert "pinned vertex must lie in [0, 41]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_eigs_tolerance_outside_range_exits_2(tmp_path, capsys, tol):
    # a NaN tol would switch the residual certificate off, a negative one fail every solve
    out = tmp_path / "e.json"
    with pytest.raises(SystemExit) as exc:
        run_cli(["eigs", "--level", "3", "--count", "12", "--tol", tol, "--out", str(out)])
    assert exc.value.code == 2
    assert "tol must be finite and > 0" in capsys.readouterr().err
    assert not out.exists()


def test_sample_modes_flag_truncates(tmp_path):
    out = tmp_path / "field.csv"
    assert run_cli(["sample", "--level", "3", "--s", "0.5", "--modes", "7",
                    "--out", str(out)]) == 0
    header = json.loads(out.read_text().splitlines()[0][2:])
    assert header["J"] == 7


@pytest.mark.parametrize("modes", ["0", "42"])
def test_modes_out_of_range_exits_2(tmp_path, capsys, modes):
    with pytest.raises(SystemExit) as exc:
        run_cli(["sample", "--level", "3", "--s", "0.5", "--modes", modes,
                 "--out", str(tmp_path / "f.csv")])
    assert exc.value.code == 2
    assert "count must lie in [1, 41] for dimension 42" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["-0.5", "nan"])
def test_budget_outside_unit_interval_exits_2(tmp_path, capsys, budget):
    with pytest.raises(SystemExit) as exc:
        run_cli(["sample", "--level", "3", "--s", "0.5", "--tail-budget", budget,
                 "--out", str(tmp_path / "f.csv")])
    assert exc.value.code == 2
    assert "budget must lie in [0, 1]" in capsys.readouterr().err


def test_full_budget_keeps_every_mode(tmp_path):
    # a budget of 0 keeps all 41 nonzero modes of level 3
    out = tmp_path / "f.csv"
    assert run_cli(["sample", "--level", "3", "--s", "0.5", "--tail-budget", "0",
                    "--out", str(out)]) == 0
    assert json.loads(out.read_text().splitlines()[0][2:])["J"] == 41


def test_sample_budget_solves_only_its_modes(tmp_path, monkeypatch):
    # J comes from the exact spectrum before any vector exists, the stream
    # builds the eigenspaces up to mode J only, and the artifacts equal those of --modes J
    built = []
    columns = spectral._eigenspace_columns

    def spy(levels, anc, *args):
        built.append(anc[-1])
        return columns(levels, anc, *args)

    monkeypatch.setattr(spectral, "_eigenspace_columns", spy)

    def sample(name, *flag):
        out, pgm = tmp_path / f"{name}.csv", tmp_path / f"{name}.pgm"
        assert run_cli(["sample", "--level", "5", "--s", "0.5", "--seed", "11", *flag,
                        "--out", str(out), "--pgm", str(pgm)]) == 0
        return out.read_bytes(), pgm.read_bytes()

    budget = sample("budget", "--tail-budget", "0.01")
    j = json.loads(budget[0].decode().splitlines()[0][2:])["J"]
    assert len(built) == 1 and 0 < j < 365
    mu, mult, _ = spectral._decimation_levels(5)[-1]
    ends = np.cumsum(mult[built[0]])
    # the lowest eigenspaces, in order, up to the one that holds mode J
    np.testing.assert_array_equal(np.repeat(1.5 * 5.0**5 * mu[built[0]], mult[built[0]]),
                                  spectral.spectrum(5)[: ends[-1]])
    assert ends[-2] < j <= ends[-1]
    assert sample("modes", "--modes", str(j)) == budget


def test_zero_budget_modes_give_zero_artifacts(tmp_path):
    # a budget of 1 keeps no mode: the field is zero and solves nothing; the
    # kernel solves one mode and is zero
    f, k = tmp_path / "f.csv", tmp_path / "k.csv"
    assert run_cli(["sample", "--level", "3", "--s", "0.5", "--tail-budget", "1",
                    "--out", str(f)]) == 0
    assert run_cli(["kernel", "--level", "3", "--s", "0.5", "--tail-budget", "1",
                    "--out", str(k)]) == 0
    assert json.loads(f.read_text().splitlines()[0][2:])["J"] == 0
    assert not np.loadtxt(f, delimiter=",", skiprows=2)[:, 3].any()
    assert not np.loadtxt(k, delimiter=",", skiprows=2)[:, 2].any()


def test_truncated_kernel_report_counts_the_whole_tail(tmp_path):
    # the tail variance is relative to the level-3 spectrum, not to the 40 modes solved
    rep = tmp_path / "r.json"
    assert run_cli(["kernel", "--level", "3", "--s", "0.6", "--modes", "40",
                    "--out", str(tmp_path / "k.csv"), "--report", str(rep)]) == 0
    lam = get_basis(3).lam
    assert len(lam) == 41
    assert read_json(rep)["tail_variance"] == pytest.approx(np.sum(lam[40:] ** -1.2), rel=1e-12)


def test_determinism_across_directories(tmp_path):
    art = {}
    for name in ("a", "b"):
        d = tmp_path / name
        d.mkdir()
        run_cli(["sample", "--level", "3", "--s", "0.5", "--seed", "4",
                 "--out", str(d / "f.csv"), "--pgm", str(d / "f.pgm")])
        run_cli(["kernel", "--level", "3", "--s", "0.5",
                 "--out", str(d / "k.csv"), "--report", str(d / "r.json")])
        art[name] = {p.name: p.read_bytes() for p in d.iterdir()}
    assert art["a"] == art["b"]


def _run_child(args, threads):
    """Run the CLI in a fresh interpreter with every BLAS thread variable at ``threads``."""
    env = dict(os.environ)
    env.pop("GASKET_FGF_THREADS", None)
    env.update({var: str(threads) for var in cli._THREAD_VARS})
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "gasket_fgf.cli", *args],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_realization_independent_of_blas_threads(tmp_path):
    # eigenvectors and fields, also inside degenerate eigenspaces and past a
    # cut inside one, must not depend on the BLAS thread count
    out = {}
    for threads in (1, 2):
        d = tmp_path / f"t{threads}"
        d.mkdir()
        _run_child(["sample", "--level", "5", "--s", "0.5", "--seed", "5000",
                    "--out", str(d / "field.csv")], threads)
        # a truncated solve whose cut (mode 300) falls inside the 243..365 cluster
        _run_child(["sample", "--level", "6", "--s", "0.5", "--modes", "300", "--seed", "5000",
                    "--out", str(d / "field300.csv")], threads)
        _run_child(["eigs", "--level", "5", "--count", "365", "--out", str(d / "eigs.json"),
                    "--vectors-out", str(d / "modes.csv")], threads)
        out[threads] = {
            "header": json.loads((d / "field.csv").read_text().splitlines()[0][2:]),
            "field": np.loadtxt(d / "field.csv", delimiter=",", skiprows=2)[:, 3],
            "field300": np.loadtxt(d / "field300.csv", delimiter=",", skiprows=2)[:, 3],
            "lambdas": np.array(read_json(d / "eigs.json")["lambdas"]),
            "modes": np.loadtxt(d / "modes.csv", delimiter=",", skiprows=1)[:, 1:],
        }
    one, two = out[1], out[2]
    assert one["header"] == two["header"]
    assert one["modes"].shape == (366, 366)
    for key in ("field", "field300", "lambdas", "modes"):
        assert np.abs(one[key] - two[key]).max() <= 1e-10, key


def test_threads_flag_keeps_the_realization(tmp_path):
    # the README promise: (level, s, seed, J) fixes a realisation at any BLAS
    # thread count, here set by the flag alone (no inherited thread variable)
    env = {k: v for k, v in os.environ.items() if k not in (*cli._THREAD_VARS, "GASKET_FGF_THREADS")}
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    values = []
    for threads in (1, 2):
        out = tmp_path / f"t{threads}.csv"
        proc = subprocess.run([sys.executable, "-m", "gasket_fgf.cli", "sample", "--level", "6",
                               "--s", "0.5", "--seed", "7", "--threads", str(threads),
                               "--out", str(out)], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        values.append(np.loadtxt(out, delimiter=",", skiprows=2)[:, 3])
    assert len(values[0]) == 1095
    assert np.abs(values[0] - values[1]).max() <= 1e-12


def test_cli_import_leaves_numpy_unloaded():
    # BLAS reads its thread variables when numpy loads, so --threads acts only
    # if importing the package and its CLI loads no numpy
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, gasket_fgf, gasket_fgf.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# config file merging
# ---------------------------------------------------------------------------


def test_config_file_provides_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"level": 3, "count": 10}))
    out = tmp_path / "eigs.json"
    assert run_cli(["eigs", "--config", str(cfg), "--out", str(out)]) == 0
    assert read_json(out)["count"] == 10


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"level": 3, "count": 10}))
    out = tmp_path / "eigs.json"
    assert run_cli(["eigs", "--config", str(cfg), "--count", "14",
                    "--out", str(out)]) == 0
    assert read_json(out)["count"] == 14


def test_config_supports_h_alias(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"level": 3, "H": 0.3}))
    out = tmp_path / "k.csv"
    rep = tmp_path / "r.json"
    assert run_cli(["kernel", "--config", str(cfg), "--out", str(out),
                    "--report", str(rep)]) == 0
    assert read_json(rep)["config"]["H"] == pytest.approx(0.3)


@pytest.mark.parametrize("content,match", [(None, "cannot read config file"),
                                           ("{not json", "cannot read config file"),
                                           ("[3]", "must hold a JSON object")])
def test_unreadable_config_exits_2(tmp_path, capsys, content, match):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_text(content)
    with pytest.raises(SystemExit) as exc:
        run_cli(["build", "--config", str(cfg), "--out", str(tmp_path / "g.json")])
    assert exc.value.code == 2
    assert match in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"levle": 3}))
    with pytest.raises(SystemExit) as exc:
        run_cli(["build", "--config", str(cfg), "--out", str(tmp_path / "g.json")])
    assert exc.value.code == 2
    assert "levle" in capsys.readouterr().err


@pytest.mark.parametrize("cfg,name", [({"level": 3.0}, "--level"), ({"level": True}, "'level'"),
                                      ({"seed": 1.5}, "--seed"), ({"out": ["a"]}, "'out'")])
def test_mistyped_config_value_exits_2(tmp_path, capsys, cfg, name):
    # a config value is read as its flag reads it, and a bool, list or object is refused
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"level": 3, "out": str(tmp_path / "f.csv"), **cfg}))
    with pytest.raises(SystemExit) as exc:
        run_cli(["sample", "--config", str(path), "--s", "0.5"])
    assert exc.value.code == 2
    assert name in capsys.readouterr().err
    assert not (tmp_path / "f.csv").exists()


def test_config_values_read_as_flags(tmp_path):
    # a string count is the int the flag makes of it; either spelling of tail-budget works
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"level": 3, "count": "10"}))
    assert run_cli(["eigs", "--config", str(cfg), "--out", str(tmp_path / "a.json")]) == 0
    assert run_cli(["eigs", "--level", "3", "--count", "10", "--out", str(tmp_path / "b.json")]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    for key in ("tail_budget", "tail-budget"):
        cfg.write_text(json.dumps({"level": 4, "H": 0.3, key: 0.05}))
        assert run_cli(["sample", "--config", str(cfg), "--out", str(tmp_path / f"{key}.csv")]) == 0
    assert run_cli(["sample", "--level", "4", "--H", "0.3", "--tail-budget", "0.05",
                    "--out", str(tmp_path / "flags.csv")]) == 0
    assert ((tmp_path / "tail_budget.csv").read_bytes() == (tmp_path / "tail-budget.csv").read_bytes()
            == (tmp_path / "flags.csv").read_bytes())


def test_config_suite_and_positional(tmp_path, capsys):
    # a config's suite picks the verify suite; an explicit positional wins over it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suite": "spectral", "level": 4}))
    assert run_cli(["verify", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("[2] spectral hygiene: PASS")
    assert run_cli(["verify", "structure", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("[1] structural exactness: PASS")


@pytest.mark.parametrize("cfg,flags,pinned", [({"pin": 5}, ["--pin"], 0), ({"pin": "5"}, [], 5),
                                              ({"pin": None}, [], None)])
def test_config_pin(tmp_path, cfg, flags, pinned):
    # a bare --pin wins over the config's vertex; null leaves the flag unset
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"level": 3, "s": 0.5, **cfg}))
    out = tmp_path / "f.csv"
    assert run_cli(["sample", "--config", str(path), *flags, "--out", str(out)]) == 0
    assert json.loads(out.read_text().splitlines()[0][2:]).get("pinned") == pinned


def test_config_before_subcommand_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"level": 2}))
    with pytest.raises(SystemExit) as exc:
        run_cli(["--config", str(cfg), "build", "--out", str(tmp_path / "g.json")])
    assert exc.value.code == 2


def test_unknown_config_key_named_before_required_flags(tmp_path, capsys):
    # the key is checked before parsing, so the missing --level does not hide it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"levle": 3, "hurst": 0.3}))
    with pytest.raises(SystemExit) as exc:
        run_cli(["sample", "--config", str(cfg), "--out", str(tmp_path / "f.csv")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unknown config key 'levle'" in err and "required" not in err


# ---------------------------------------------------------------------------
# exponent validation and exit codes
# ---------------------------------------------------------------------------


def test_s_outside_interval_names_it(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["kernel", "--level", "3", "--s", "0.2",
                 "--out", str(tmp_path / "k.csv")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "0.34131" in err and "0.65869" in err


def test_hurst_outside_interval_names_it(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["sample", "--level", "3", "--H", "0.8",
                 "--out", str(tmp_path / "f.csv")])
    assert exc.value.code == 2
    assert "0.73696" in capsys.readouterr().err


def test_s_and_hurst_mutually_exclusive(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["sample", "--level", "3", "--s", "0.5", "--H", "0.3",
                 "--out", str(tmp_path / "f.csv")])
    assert exc.value.code == 2
    assert "exactly one" in capsys.readouterr().err


def test_exponent_required(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["kernel", "--level", "3", "--out", str(tmp_path / "k.csv")])
    assert exc.value.code == 2


def test_missing_required_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["build", "--level", "3"])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err


def test_deep_count_beyond_memory_exits_2(tmp_path, capsys, monkeypatch):
    # the solve's estimated peak is checked against the available memory
    # before anything is allocated; 3000 modes at level 8 need about 0.3 GiB
    monkeypatch.setattr(spectral, "_available_memory", lambda: 2**27)
    with pytest.raises(SystemExit) as exc:
        run_cli(["eigs", "--level", "8", "--count", "3000", "--out", str(tmp_path / "e.json")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "dimension 9843" in err and "GiB" in err
    assert not (tmp_path / "e.json").exists()


def test_sample_beyond_memory_exits_2(tmp_path, capsys, monkeypatch):
    # the streamed draw has an estimate of its own, with no n x J term, checked
    # before anything is allocated; the level-8 budget draw needs about 6 MB
    monkeypatch.setattr(spectral, "_available_memory", lambda: 2**22)
    with pytest.raises(SystemExit) as exc:
        run_cli(["sample", "--level", "8", "--H", "0.3", "--tail-budget", "0.01",
                 "--out", str(tmp_path / "f.csv")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "dimension 9843" in err and "GiB at peak" in err
    assert not (tmp_path / "f.csv").exists()


@pytest.mark.parametrize("args, flag", [
    (["sample", "--level", "2", "--s", "0.5"], "--out"),
    (["build", "--level", "2"], "--out"),
    (["build", "--level", "2", "--out", "g.json"], "--matrix-out"),
    (["eigs", "--level", "2", "--count", "3", "--out", "e.json"], "--vectors-out"),
    (["kernel", "--level", "2", "--s", "0.5", "--out", "k.csv"], "--report"),
])
def test_unwritable_output_exits_2_before_any_work(tmp_path, capsys, monkeypatch, args, flag):
    # a missing directory, a file taken for a directory, and a directory taken for a file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "plain").write_text("")
    for path, reason in (("nodir/x", "No such file or directory"),
                         ("plain/x", "Not a directory"), (str(tmp_path), "Is a directory")):
        assert run_cli(args + [flag, path]) == 2
        assert capsys.readouterr().err == f"gasket-fgf: cannot write {path}: {reason}\n"
        assert sorted(os.listdir(tmp_path)) == ["plain"]


def test_sample_unwritable_pgm_writes_no_csv(tmp_path, capsys, monkeypatch):
    # the raster path is refused before the draw, so the field CSV is never written
    monkeypatch.chdir(tmp_path)
    assert run_cli(["sample", "--level", "2", "--s", "0.5", "--out", "ok.csv", "--pgm", "nodir/x.pgm"]) == 2
    assert capsys.readouterr().err == "gasket-fgf: cannot write nodir/x.pgm: No such file or directory\n"
    assert os.listdir(tmp_path) == []


def test_solver_failure_exit_code(tmp_path, monkeypatch, capsys):
    def boom(*a, **k):
        raise SolverError("did not converge", residual=1.0)

    monkeypatch.setattr(cli, "_solve", boom)
    rc = run_cli(["eigs", "--level", "3", "--out", str(tmp_path / "e.json")])
    assert rc == 3
    assert "solver failure" in capsys.readouterr().err


def test_threads_flag_exports_blas_env(tmp_path, monkeypatch):
    for var in cli._THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    run_cli(["build", "--level", "2", "--threads", "2",
             "--out", str(tmp_path / "g.json")])
    assert os.environ["OMP_NUM_THREADS"] == "2"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"


def test_threads_from_config_exports_blas_env(tmp_path, monkeypatch):
    for var in cli._THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"level": 2, "threads": 2}))
    assert run_cli(["build", "--config", str(cfg), "--out", str(tmp_path / "g.json")]) == 0
    assert all(os.environ[var] == "2" for var in cli._THREAD_VARS)


def test_threads_env_fallback(tmp_path, monkeypatch):
    for var in cli._THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("GASKET_FGF_THREADS", "3")
    run_cli(["build", "--level", "2", "--out", str(tmp_path / "g.json")])
    assert os.environ["MKL_NUM_THREADS"] == "3"


def test_threads_flag_overrides_inherited_env(tmp_path, monkeypatch):
    for var in cli._THREAD_VARS:
        monkeypatch.setenv(var, "1")
    run_cli(["build", "--level", "2", "--threads", "2",
             "--out", str(tmp_path / "g.json")])
    assert all(os.environ[var] == "2" for var in cli._THREAD_VARS)


def test_threads_env_fallback_keeps_inherited(tmp_path, monkeypatch):
    for var in cli._THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("GASKET_FGF_THREADS", "3")
    run_cli(["build", "--level", "2", "--out", str(tmp_path / "g.json")])
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    assert os.environ["OMP_NUM_THREADS"] == "3"


# ---------------------------------------------------------------------------
# verify subcommand
# ---------------------------------------------------------------------------


def test_verify_suite_passes(capsys):
    rc = run_cli(["verify", "structure", "--level", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out


def test_verify_reports_failure_exit_code(capsys):
    # the mandated on-diagonal window straddles the spectral-gap knee at
    # every desk-scale level, so the heat suite honestly fails
    rc = run_cli(["verify", "heat", "--level", "4"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out


@pytest.mark.parametrize("suite,floor", [("weyl", 4), ("field", 4), ("all", 4), ("increments", 3),
                                         ("riesz", 2)])
def test_verify_refuses_a_level_below_the_suite_floor(capsys, suite, floor):
    # refused before any criterion line, with one message that names the floor
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", suite, "--level", str(floor - 1)])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"verify {suite} needs a level >= {floor}, not {floor - 1}" in captured.err


@pytest.mark.parametrize("suite,floor", [("weyl", 4), ("increments", 3), ("riesz", 2)])
def test_verify_runs_at_the_suite_floor(capsys, suite, floor):
    # the floor is a level the suite runs at (level 4 is too coarse for the
    # Weyl band, an honest FAIL), not one that it passes at
    assert run_cli(["verify", suite, "--level", str(floor)]) in (0, 1)
    assert capsys.readouterr().out.startswith("[")


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "nonsense"])
    assert exc.value.code == 2


def test_console_script_runs(tmp_path):
    out = tmp_path / "graph.json"
    _run_child(["build", "--level", "2", "--out", str(out)], 1)
    assert out.exists()


def test_installed_entry_point(tmp_path):
    exe = shutil.which("gasket-fgf")
    if exe is None:
        pytest.skip("console script not installed")
    proc = subprocess.run([exe, "build", "--level", "1",
                           "--out", str(tmp_path / "g.json")],
                          capture_output=True, text=True)
    assert proc.returncode == 0