import argparse
import importlib.util
import json
import os
import subprocess
import sys

import pytest

import cartanmaps
from cartanmaps.cli import (
    DEFAULT_MAX_ELL,
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_USAGE,
    main,
    run_verification,
)
from cartanmaps.exact_linalg import RankCertificate


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_smallest_prime(capsys):
    code, out, _ = run_cli(capsys, "verify", "--ell", "3")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["schema_version"] == 2
    run = doc["runs"][0]
    assert run["theorem1"]["rank"] == 3
    assert run["theorem2"]["rank"] == 6
    assert run["theorem1"]["certificate"]["conclusive"]
    assert run["chart_conjugacy"] is True
    assert run["coincidence"]["checked"] and run["coincidence"]["psi_plus"]
    assert run["degrees"]["NNp"]["degree"] == 1
    assert run["ok"] is True
    assert doc["summary"]["ok"] is True


def test_verify_composite_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--ell", "9")
    assert code == EXIT_USAGE
    assert "odd prime" in err
    assert run_cli(capsys, "verify", "--ell", "4")[0] == EXIT_USAGE
    assert run_cli(capsys, "verify", "--ell-range", "24..28")[0] == EXIT_USAGE
    assert run_cli(capsys, "verify", "--ell-range", "bogus")[0] == EXIT_USAGE
    assert run_cli(capsys, "verify")[0] == EXIT_USAGE


@pytest.mark.parametrize("argv", [["verify", "--ell", "abc"],
                                  ["verify", "--ell", "5", "--bogus"],
                                  ["export", "--ell", "5"],
                                  ["bogus"]])
def test_argparse_errors_exit_with_the_usage_code(argv, capsys):
    """argparse's own code 2 would read as a non-conclusive certificate."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_help_still_exits_zero(capsys):
    for argv in (["--help"], ["verify", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out


def test_ell_and_ell_range_exclude_each_other(capsys, monkeypatch):
    import cartanmaps.cli as cli_mod

    def refused(*args, **kwargs):
        raise AssertionError("verification started")

    monkeypatch.setattr(cli_mod, "run_verification", refused)
    code, out, err = run_cli(capsys, "verify", "--ell", "5", "--ell-range", "3..7")
    assert code == EXIT_USAGE and out == ""
    assert "--ell-range" in err


def test_verify_respects_ell_cap(capsys):
    code, _, err = run_cli(capsys, "verify", "--ell", "103")
    assert code == EXIT_USAGE
    assert "--max-ell-unsafe" in err


def test_verify_range_above_cap_is_refused_before_enumerating(capsys, monkeypatch):
    import cartanmaps.cli as cli_mod

    tested = []
    odd_prime = cli_mod.is_odd_prime

    def bounded(n):
        tested.append(n)
        if len(tested) > DEFAULT_MAX_ELL:
            raise AssertionError("the range is being enumerated past the cap")
        return odd_prime(n)

    monkeypatch.setattr(cli_mod, "is_odd_prime", bounded)
    code, out, err = run_cli(capsys, "verify", "--ell-range", "3..100000000")
    assert code == EXIT_USAGE
    assert out == "" and "--max-ell-unsafe" in err
    # a range that ends at the cap is still read
    args = argparse.Namespace(ell=None, ell_range=f"90..{DEFAULT_MAX_ELL}",
                              max_ell_unsafe=False)
    assert cli_mod._parse_ells(args) == [97, 101]


def test_verify_invalid_epsilon_or_root(capsys):
    assert run_cli(capsys, "verify", "--ell", "7", "--epsilon", "2")[0] == EXIT_USAGE
    assert run_cli(capsys, "verify", "--ell", "7", "--root", "2")[0] == EXIT_USAGE


def test_verify_range_validates_every_prime_first(capsys):
    # 2 is a non-square mod 3 and 5 but a square mod 7
    code, out, err = run_cli(capsys, "verify", "--ell-range", "3..7", "--epsilon", "2")
    assert code == EXIT_USAGE
    assert out == ""
    assert "square modulo 7" in err


def test_verify_internal_value_error_is_not_usage_error(capsys, monkeypatch):
    import cartanmaps.cli as cli_mod

    def broken_base_paths(ctx, slopes):
        raise ValueError("path slope must be nonzero")

    monkeypatch.setattr(cli_mod, "base_paths", broken_base_paths)
    with pytest.raises(ValueError, match="slope"):
        main(["verify", "--ell", "3"])


def test_verify_jobs_must_be_positive(capsys):
    code, out, err = run_cli(capsys, "verify", "--ell-range", "3..5", "--jobs", "0")
    assert code == EXIT_USAGE
    assert out == "" and "--jobs" in err
    assert run_cli(capsys, "verify", "--ell", "3", "--jobs", "-2")[0] == EXIT_USAGE


def test_verify_range_with_jobs(capsys):
    code, out, _ = run_cli(capsys, "verify", "--ell-range", "3..5", "--jobs", "2")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert [r["ell"] for r in doc["runs"]] == [3, 5]
    assert all(r["ok"] for r in doc["runs"])


def test_verify_environment_block(capsys, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    code, out, _ = run_cli(capsys, "verify", "--ell-range", "3..5", "--jobs", "2")
    assert code == EXIT_OK
    env = json.loads(out)["environment"]
    assert env["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert env["threads"]["MKL_NUM_THREADS"] is None
    assert env["jobs"] == 2 and env["usable_cpus"] >= 1
    assert env["worker_processes"] == (2 if env["usable_cpus"] >= 2 else 0)
    assert env["python"] == "%d.%d.%d" % sys.version_info[:3]


def test_verify_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--ell", "5", "--seed", "7")
    _, out2, _ = run_cli(capsys, "verify", "--ell", "5", "--seed", "7")
    d1, d2 = json.loads(out1), json.loads(out2)
    d1["runs"][0]["timings"] = d2["runs"][0]["timings"] = None
    assert d1 == d2


def test_verify_all_epsilon_and_strict_roots(capsys):
    code, out, _ = run_cli(capsys, "verify", "--ell", "5", "--all-epsilon",
                           "--strict-roots")
    assert code == EXIT_OK
    run = json.loads(out)["runs"][0]
    assert {e["epsilon"] for e in run["all_epsilon"]} == {2, 3}
    assert all(e["ok"] for e in run["all_epsilon"])
    assert all(r["ok"] for r in run["strict_roots"])


def test_verify_skip_cosets(capsys):
    code, out, _ = run_cli(capsys, "verify", "--ell", "3", "--skip-cosets")
    assert code == EXIT_OK
    assert json.loads(out)["runs"][0]["coincidence"] == {"checked": False}


def test_verify_nonconclusive_exit_code(capsys, monkeypatch):
    import cartanmaps.cli as cli_mod

    def fake_rank_certificate(shape, torus_rank, dense, ctx):
        rows, cols = shape
        return RankCertificate(rows, cols, min(rows, cols), ((999983, 1),),
                               "multi-prime stabilized", False)

    monkeypatch.setattr(cli_mod, "_rank_certificate", fake_rank_certificate)
    code, out, _ = run_cli(capsys, "verify", "--ell", "3")
    assert code == EXIT_INCONCLUSIVE
    assert json.loads(out)["runs"][0]["nonconclusive"]


def test_verify_failure_exit_code(capsys, monkeypatch):
    import cartanmaps.cli as cli_mod

    def fake_rank_certificate(shape, torus_rank, dense, ctx):
        rows, cols = shape
        return RankCertificate(rows, cols, 1, ((3, 1),), "single-prime full rank", True)

    monkeypatch.setattr(cli_mod, "_rank_certificate", fake_rank_certificate)
    code, out, _ = run_cli(capsys, "verify", "--ell", "3")
    assert code == EXIT_FAIL
    assert json.loads(out)["runs"][0]["failures"]


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "--ell", "3", "--out", str(target))
    assert code == EXIT_OK
    assert out == ""
    assert json.loads(target.read_text())["summary"]["ok"]


@pytest.mark.parametrize("target", ["missing directory", "directory"])
def test_unwritable_out_is_a_usage_error_before_any_work(target, tmp_path, capsys,
                                                         monkeypatch):
    import cartanmaps.cli as cli_mod

    def refused(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli_mod, "run_verification", refused)
    monkeypatch.setattr(cli_mod, "build_psi_plus", refused)
    out = tmp_path / "missing" / "x.json" if target == "missing directory" else tmp_path
    for argv in (["verify", "--ell", "3"], ["export", "--ell", "3", "--map", "psi-plus"]):
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == EXIT_USAGE and stdout == ""
        assert err.startswith("error: --out ") and err.count("\n") == 1, err
    assert sorted(p.name for p in tmp_path.iterdir()) == []


def test_out_check_leaves_an_existing_file_alone(tmp_path, capsys):
    target = tmp_path / "report.json"
    target.write_text("kept\n")
    code, stdout, err = run_cli(capsys, "verify", "--ell", "9", "--out", str(target))
    assert code == EXIT_USAGE and stdout == "" and "odd prime" in err
    assert target.read_text() == "kept\n"


def test_export_psi_plus(capsys):
    code, out, _ = run_cli(capsys, "export", "--ell", "3", "--map", "psi-plus")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "# basis_rows=H_ell basis_cols=unordered_pairs ell=3 epsilon=2"
    assert len(lines) == 7   # 6 incidences, one per column
    for line in lines[1:]:
        r, c, v = map(int, line.split(","))
        assert v == 1 and 0 <= r < 3 and 0 <= c < 6


def test_export_h_s_and_restricted(capsys):
    code, out, _ = run_cli(capsys, "export", "--ell", "5", "--map", "h-s", "--s", "2",
                           "--restricted")
    assert code == EXIT_OK
    header = out.splitlines()[0]
    assert "basis_rows=C_ell" in header and "basis_cols=ordered_pairs_affine" in header
    assert run_cli(capsys, "export", "--ell", "5", "--map", "h-s")[0] == EXIT_USAGE
    assert run_cli(capsys, "export", "--ell", "5", "--map", "h-s", "--s", "5")[0] == EXIT_USAGE


def test_eigenvalues_N_case(capsys):
    code, out, _ = run_cli(capsys, "eigenvalues", "--ell", "7", "--case", "N")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert len(doc["records"]) == 3
    assert all(rec["nonzero"] for rec in doc["records"])
    assert all("parts" not in rec for rec in doc["records"])
    assert doc["records"][0]["residue"] == 6   # -1 mod 7


def test_eigenvalues_C_case(capsys):
    code, out, _ = run_cli(capsys, "eigenvalues", "--ell", "5", "--case", "C")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert len(doc["records"]) == 4
    assert doc["records"][0]["residue"] == 1
    assert all(rec["parts"].keys() == {"alpha", "beta"} for rec in doc["records"])


def test_decompose_commands(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--ell", "7", "--case", "N")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["degree"] == 3
    assert doc["H"] == "N" and doc["K"] == "N'"
    assert len(doc["representatives"]) == 3
    assert all(len(m) == 4 for m in doc["representatives"])
    code, out, _ = run_cli(capsys, "decompose", "--ell", "5", "--case", "C", "--s", "2")
    doc = json.loads(out)
    assert doc["degree"] == 4 and doc["g"] == [1, 2, 0, 1]
    assert run_cli(capsys, "decompose", "--ell", "5", "--case", "C")[0] == EXIT_USAGE


def test_plot_geodesic_through_infinity(capsys):
    code, out, _ = run_cli(capsys, "plot", "--ell", "7", "--pair", "0,inf")
    assert code == EXIT_OK
    rows = [line for line in out.splitlines() if line and not line.startswith("#")]
    assert rows[0] == "x,y"
    pts = [tuple(map(int, r.split(","))) for r in rows[1:]]
    assert len(pts) == 3
    assert all(x == 0 for x, _ in pts)
    # no conic metadata for a pair through infinity
    assert "conic" not in out


def test_plot_path_csv_and_svg(capsys):
    code, out, _ = run_cli(capsys, "plot", "--ell", "3", "--pair", "0,inf",
                           "--slope", "1")
    assert code == EXIT_OK
    rows = [line for line in out.splitlines() if line and not line.startswith("#")]
    assert set(rows[1:]) == {"1,1", "2,2"}
    code, out, _ = run_cli(capsys, "plot", "--ell", "7", "--pair", "1,3",
                           "--slope", "2", "--format", "svg")
    assert code == EXIT_OK
    assert out.startswith("<svg") and "<metadata>conic" in out
    assert out.count("<circle") == 6


def test_plot_usage_errors(capsys):
    assert run_cli(capsys, "plot", "--ell", "7", "--pair", "2,2")[0] == EXIT_USAGE
    assert run_cli(capsys, "plot", "--ell", "7", "--pair", "2")[0] == EXIT_USAGE
    assert run_cli(capsys, "plot", "--ell", "7", "--pair", "1,2", "--slope", "0")[0] == EXIT_USAGE
    assert run_cli(capsys, "plot", "--ell", "7", "--pair", "1,x")[0] == EXIT_USAGE


def test_module_entry_point_subprocess():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cartanmaps.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cartanmaps.cli", "verify", "--ell", "3"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["summary"]["ok"]


def test_run_verification_report_shape():
    report = run_verification(5)
    for key in ("sets", "theorem1", "theorem2", "chart_conjugacy", "circulant",
                "equivariance", "degrees", "h_s_ranks", "coincidence",
                "timings", "failures", "nonconclusive"):
        assert key in report
    assert report["equivariance"]["generators"] == [[1, 1, 0, 1], [1, 0, 1, 1],
                                                    [2, 0, 0, 1]]
    assert report["equivariance"]["psi_plus"] and report["equivariance"]["psi"]
    assert set(report["h_s_ranks"]) == {1, 2, 3, 4}
    assert report["ok"]


def test_tracer_names_stay_cli_attributes():
    """perfbench/tracer.py times `cli.<name>` for every name in its TIMED
    table, so --trace 1 needs each of them, called by verify or not."""
    import cartanmaps.cli as cli_mod

    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                        "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [name for name in tracer.TIMED if not hasattr(cli_mod, name)]
    assert tracer.TIMED and missing == []


def test_verify_jobs_submits_the_largest_primes_first(capsys, monkeypatch):
    """The pool gets the primes largest first; the report lists them in
    ascending order all the same."""
    import cartanmaps.cli as cli_mod

    submitted = []

    class RecordingPool(cli_mod.ProcessPoolExecutor):
        def submit(self, fn, item, *args, **kwargs):
            submitted.append(item[0])
            return super().submit(fn, item, *args, **kwargs)

    monkeypatch.setattr(cli_mod, "ProcessPoolExecutor", RecordingPool)
    # two usable CPUs, so that a pool starts also on a one-CPU machine
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    code, out, _ = run_cli(capsys, "verify", "--ell-range", "3..13", "--jobs", "2")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert submitted == [13, 11, 7, 5, 3]
    assert [r["ell"] for r in doc["runs"]] == [3, 5, 7, 11, 13]
    assert doc["environment"]["worker_processes"] == 2
    serial = run_cli(capsys, "verify", "--ell-range", "3..13")[1]
    for a, b in zip(doc["runs"], json.loads(serial)["runs"]):
        a["timings"] = b["timings"] = None
        assert a == b


def run_module_logged(level, *argv):
    """python -m cartanmaps.cli with CARTAN_LOG=level, in a fresh process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cartanmaps.__file__)))
    env = dict(os.environ, CARTAN_LOG=level)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "cartanmaps.cli", *argv],
                          capture_output=True, text=True, timeout=120, env=env)


@pytest.mark.parametrize("level", ["basic_format", "nonsense", "", "Warning"])
def test_cartan_log_accepts_only_level_names(level):
    """A value that names no level (BASIC_FORMAT is a logging attribute, not
    a level) falls back to warning instead of failing the run."""
    proc = run_module_logged(level, "verify", "--ell", "3")
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(proc.stdout)["summary"]["ok"]
    assert proc.stderr == ""


def test_cartan_log_info_logs_each_phase_end_as_json():
    proc = run_module_logged("info", "verify", "--ell-range", "3..5", "--skip-cosets")
    assert proc.returncode == EXIT_OK, proc.stderr
    runs = json.loads(proc.stdout)["runs"]
    records = []
    for line in proc.stderr.splitlines():
        if line.startswith("{"):
            records.append(json.loads(line))
        else:
            assert line.startswith("INFO cartanmaps: verifying"), line
    for run in runs:
        mine = [r for r in records if r["ell"] == run["ell"]]
        assert [r["phase"] for r in mine] == list(run["timings"])
        assert [r["elapsed_s"] for r in mine] == list(run["timings"].values())
        assert all(set(r) == {"ell", "phase", "elapsed_s", "maxrss_mb"} for r in mine)
        assert all(r["maxrss_mb"] > 0 for r in mine)
    assert len(records) == sum(len(run["timings"]) for run in runs)
