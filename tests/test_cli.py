import argparse
import ast
import hashlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys

import pytest

import cartanmaps
from cartanmaps.cli import (
    DEFAULT_MAX_ELL,
    EXIT_FAIL,
    EXIT_OK,
    EXIT_USAGE,
    main,
    run_verification,
)
from cartanmaps.circulant import (
    CertificateError,
    build_block_matrix_N,
    build_reduced_C,
    circulant_det_mod,
    reduce_mod_frak_L,
)
from cartanmaps.exact_linalg import det_mod_p
from cartanmaps.modular_arith import PrimeContext


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_smallest_prime(capsys):
    code, out, _ = run_cli(capsys, "verify", "--ell", "3")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["schema_version"] == 4
    run = doc["runs"][0]
    assert run["theorem1"]["rank"] == 3
    assert run["theorem2"]["rank"] == 6
    assert run["theorem1"]["certificate"]["conclusive"]
    assert run["chart_conjugacy"] is True
    assert run["coincidence"]["checked"] and run["coincidence"]["psi_plus"]
    assert run["degrees"]["NNp"]["degree"] == 1
    assert run["ok"] is True
    assert doc["summary"]["ok"] is True


def test_verify_writes_its_report_on_one_line(capsys, monkeypatch, tmp_path):
    """The verify report is one line of JSON, on stdout and in an --out
    file, and parses to the document the indented form parses to; the
    decompose and eigenvalues documents stay indented."""
    import cartanmaps.cli as cli_mod

    docs, dumps = [], json.dumps
    monkeypatch.setattr(cli_mod.json, "dumps", lambda doc, **kwargs: (
        docs.append(doc) or dumps(doc, **kwargs)))
    code, out, _ = run_cli(capsys, "verify", "--ell-range", "3..7", "--all-epsilon")
    monkeypatch.undo()
    assert code == EXIT_OK
    assert out.endswith("}\n") and out.count("\n") == 1
    indented = json.dumps(docs[-1], indent=2, default=cli_mod._json_default)
    assert json.loads(out) == json.loads(indented)
    path = tmp_path / "report.json"
    assert run_cli(capsys, "verify", "--ell", "5", "--out", str(path))[0] == EXIT_OK
    assert path.read_text().count("\n") == 1
    for argv in (["decompose", "--ell", "5", "--case", "N"],
                 ["eigenvalues", "--ell", "5", "--case", "C"]):
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK and out.startswith("{\n  ")


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
    """argparse's own errors exit with the one usage code, not its 2."""
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
    assert set(env) == {"python", "numpy", "blas", "threads", "usable_cpus", "jobs",
                        "worker_processes"}
    assert env["blas"] is None or set(env["blas"]) == {"name", "version"}


def test_verify_environment_blas_is_null_where_numpy_cannot_say(capsys, monkeypatch):
    """numpy < 2 has no show_config(mode="dicts"): the blas field is null."""
    import cartanmaps.cli as cli_mod

    monkeypatch.setattr(cli_mod.np, "show_config", lambda: None)  # numpy 1's signature
    code, out, _ = run_cli(capsys, "verify", "--ell", "3")
    assert code == EXIT_OK
    assert json.loads(out)["environment"]["blas"] is None


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


def test_verify_failure_exit_code(capsys, monkeypatch):
    """Block ranks below full: each theorem reports its rank mod the
    auxiliary prime as a non-conclusive lower bound, and the run exits 1:
    a theorem certificate below full rank is a failure of its theorem."""
    import cartanmaps.cli as cli_mod

    real = cli_mod.unipotent_ranks
    monkeypatch.setattr(cli_mod, "unipotent_ranks", lambda *args: real(*args)._replace(
        psi_plus=(1, 1), psi=(1, 1)))
    code, out, _ = run_cli(capsys, "verify", "--ell", "3")
    assert code == EXIT_FAIL
    doc = json.loads(out)
    assert doc["summary"] == {"ok": False, "failures": 4}
    run = doc["runs"][0]
    p = cli_mod.aux_rank_prime(3)
    for theorem, (rows, cols) in (("theorem1", (3, 6)), ("theorem2", (6, 12))):
        assert run[theorem] == {
            "rank": 1, "expected": rows, "surjective": False,
            "restricted_nonsingular": False,
            "certificate": {"rows": rows, "cols": cols, "rank": 1, "witnesses": [[p, 1]],
                            "method": "unipotent characters", "conclusive": False}}
        assert f"{theorem}: rank 1 != expected {rows}" in run["failures"]
        assert f"{theorem}: affine restriction is singular mod {p}" in run["failures"]
    assert len(run["failures"]) == 4 and "nonconclusive" not in run


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "--ell", "3", "--out", str(target))
    assert code == EXIT_OK
    assert out == ""
    assert json.loads(target.read_text())["summary"]["ok"]


def test_the_cached_parser_keeps_calls_independent(tmp_path, capsys):
    """main builds its parser once per process; no option of one call
    carries over to the next."""
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "--ell", "3", "--all-epsilon",
                           "--strict-roots", "--out", str(target))
    assert code == EXIT_OK and out == ""
    run = json.loads(target.read_text())["runs"][0]
    assert "all_epsilon" in run and "strict_roots" in run
    code, out, _ = run_cli(capsys, "verify", "--ell", "3")
    assert code == EXIT_OK
    run = json.loads(out)["runs"][0]
    assert "all_epsilon" not in run and "strict_roots" not in run
    code, _, err = run_cli(capsys, "verify", "--ell", "3", "--jobs", "0")
    assert code == EXIT_USAGE and "--jobs" in err
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


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


@pytest.mark.parametrize("argv", [["export", "--map", "psi", "--s", "2"],
                                  ["export", "--map", "psi-plus", "--s", "2"],
                                  ["decompose", "--case", "N", "--s", "3"]])
def test_s_where_no_slope_applies_is_a_usage_error(argv, capsys):
    """psi, psi+ and the N decomposition have no slope: --s is refused, not
    ignored."""
    code, out, err = run_cli(capsys, *argv, "--ell", "5")
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: --s applies to ") and err.count("\n") == 1, err


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


@pytest.mark.parametrize("ell", [7, 11])
def test_plot_points_lie_on_the_named_conic(ell, capsys):
    """Every point plot prints for an affine pair, in either order, as the
    geodesic or the path of any slope, satisfies the conic of its metadata:
    (x - center_x)^2 - epsilon (y - center_y)^2 = rhs mod ell."""
    eps = PrimeContext(ell).epsilon
    for a in range(ell):
        for b in range(ell):
            if a == b:
                continue
            for slope in [None, *range(1, ell)]:
                argv = ["plot", "--ell", str(ell), "--pair", f"{a},{b}"]
                if slope is not None:
                    argv += ["--slope", str(slope)]
                code, out, _ = run_cli(capsys, *argv)
                assert code == EXIT_OK
                lines = out.splitlines()
                conic = next(line for line in lines if line.startswith("# conic "))
                meta = dict(item.split("=") for item in conic.split()[2:])
                cx, cy, rhs = (int(meta[k]) for k in ("center_x", "center_y", "rhs"))
                pts = [tuple(map(int, line.split(",")))
                       for line in lines[lines.index("x,y") + 1:]]
                assert pts, argv
                assert all(((x - cx) ** 2 - eps * (y - cy) ** 2 - rhs) % ell == 0
                           for x, y in pts), argv


# The first 16 hex digits of the sha256 of what each plot and export command
# writes: the documents are an output format, so no change of how the
# commands encode the four G-sets may change a byte of them.
PINNED_OUTPUTS = {
    "plot --ell 3 --pair 0,inf --format csv": "a7467d06c8b4d34a",
    "plot --ell 3 --pair 0,inf --format svg": "4f9776e69a4f81c7",
    "plot --ell 3 --pair 0,inf --slope 2 --format csv": "69d6a39e1a93ae0c",
    "plot --ell 3 --pair 0,inf --slope 2 --format svg": "e7c23f065d973620",
    "plot --ell 3 --pair inf,0 --format csv": "a7467d06c8b4d34a",
    "plot --ell 3 --pair inf,0 --format svg": "4f9776e69a4f81c7",
    "plot --ell 3 --pair inf,0 --slope 2 --format csv": "3a22578c1b529776",
    "plot --ell 3 --pair inf,0 --slope 2 --format svg": "4bcb94551743dbb2",
    "plot --ell 3 --pair 1,3 --format csv": "d7da067d338f1028",
    "plot --ell 3 --pair 1,3 --format svg": "cab18bc889d8de54",
    "plot --ell 3 --pair 1,3 --slope 2 --format csv": "8be77ed4564998f8",
    "plot --ell 3 --pair 1,3 --slope 2 --format svg": "c2aa0a00c86c515f",
    "plot --ell 3 --pair 3,1 --format csv": "d7da067d338f1028",
    "plot --ell 3 --pair 3,1 --format svg": "cab18bc889d8de54",
    "plot --ell 3 --pair 3,1 --slope 2 --format csv": "3b143fed35a44e33",
    "plot --ell 3 --pair 3,1 --slope 2 --format svg": "556fab93fecf214d",
    "plot --ell 5 --pair 0,inf --format csv": "d22af7caf6ebf720",
    "plot --ell 5 --pair 0,inf --format svg": "c2100fbdccce59a1",
    "plot --ell 5 --pair 0,inf --slope 2 --format csv": "9c572bd83b96f3d3",
    "plot --ell 5 --pair 0,inf --slope 2 --format svg": "1296c709d7ad1bba",
    "plot --ell 5 --pair inf,0 --format csv": "d22af7caf6ebf720",
    "plot --ell 5 --pair inf,0 --format svg": "c2100fbdccce59a1",
    "plot --ell 5 --pair inf,0 --slope 2 --format csv": "9574684cd6398862",
    "plot --ell 5 --pair inf,0 --slope 2 --format svg": "504f0d583e2242ff",
    "plot --ell 5 --pair 1,3 --format csv": "917e8eff4730c14a",
    "plot --ell 5 --pair 1,3 --format svg": "1e040e822aa6610a",
    "plot --ell 5 --pair 1,3 --slope 2 --format csv": "c573b8c78d78b035",
    "plot --ell 5 --pair 1,3 --slope 2 --format svg": "0ad2663131270565",
    "plot --ell 5 --pair 3,1 --format csv": "917e8eff4730c14a",
    "plot --ell 5 --pair 3,1 --format svg": "1e040e822aa6610a",
    "plot --ell 5 --pair 3,1 --slope 2 --format csv": "d8b5311da1ce2e71",
    "plot --ell 5 --pair 3,1 --slope 2 --format svg": "1d4a6ef214dcbab1",
    "plot --ell 7 --pair 0,inf --format csv": "d087be101f32cf53",
    "plot --ell 7 --pair 0,inf --format svg": "f07c0a7dffe9c6ea",
    "plot --ell 7 --pair 0,inf --slope 2 --format csv": "19307b5bf92d4578",
    "plot --ell 7 --pair 0,inf --slope 2 --format svg": "c92652a6d08dce6d",
    "plot --ell 7 --pair inf,0 --format csv": "d087be101f32cf53",
    "plot --ell 7 --pair inf,0 --format svg": "f07c0a7dffe9c6ea",
    "plot --ell 7 --pair inf,0 --slope 2 --format csv": "403a2250308d79b5",
    "plot --ell 7 --pair inf,0 --slope 2 --format svg": "b36bd3876f747369",
    "plot --ell 7 --pair 1,3 --format csv": "efb78624bf943505",
    "plot --ell 7 --pair 1,3 --format svg": "0d4b7a9e2aac9c85",
    "plot --ell 7 --pair 1,3 --slope 2 --format csv": "5b289ce521f31bf0",
    "plot --ell 7 --pair 1,3 --slope 2 --format svg": "e54878779458a58a",
    "plot --ell 7 --pair 3,1 --format csv": "efb78624bf943505",
    "plot --ell 7 --pair 3,1 --format svg": "0d4b7a9e2aac9c85",
    "plot --ell 7 --pair 3,1 --slope 2 --format csv": "3fe13a5afe5f4da5",
    "plot --ell 7 --pair 3,1 --slope 2 --format svg": "33875e9a262b6f92",
    "export --ell 3 --map psi-plus": "42a945e2c6c79297",
    "export --ell 3 --map psi-plus --restricted": "4e776ef7a874fb03",
    "export --ell 3 --map psi": "f24a4d50539ffee2",
    "export --ell 3 --map psi --restricted": "8b0b9c2f50c68872",
    "export --ell 3 --map h-s --s 2": "90f094aa93c4a899",
    "export --ell 3 --map h-s --s 2 --restricted": "66fd059b7fe79e22",
    "export --ell 5 --map psi-plus": "819679ed05b50916",
    "export --ell 5 --map psi-plus --restricted": "b976c9291f45f4b1",
    "export --ell 5 --map psi": "9cb748cd952bc79e",
    "export --ell 5 --map psi --restricted": "2bf25c19ad5bed7c",
    "export --ell 5 --map h-s --s 2": "807a114fe3d42dec",
    "export --ell 5 --map h-s --s 2 --restricted": "90b8740ba4d56b28",
}


@pytest.mark.parametrize("argv", list(PINNED_OUTPUTS))
def test_plot_and_export_outputs_are_pinned(argv, capsys):
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == PINNED_OUTPUTS[argv]


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
                "timings", "failures"):
        assert key in report
    # schema 4 dropped the run-level nonconclusive list and the constant scheme
    assert "nonconclusive" not in report and "scheme" not in report
    assert report["equivariance"]["generators"] == [[1, 1, 0, 1], [1, 0, 1, 1],
                                                    [2, 0, 0, 1]]
    assert report["equivariance"]["psi_plus"] and report["equivariance"]["psi"]
    assert set(report["h_s_ranks"]) == {1, 2, 3, 4}
    assert report["ok"]


PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                         "perfbench")


def load_perfbench(name):
    """perfbench/<name>.py as a module, read and not modified."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_names_stay_cli_attributes():
    """perfbench/tracer.py times `cli.<name>` for every name in its TIMED
    table, so --trace 1 needs each of them, called by verify or not; and
    Tracer.install rebinds run_verification, _phase and _verify_worker."""
    import cartanmaps.cli as cli_mod

    tracer = load_perfbench("tracer")
    missing = [name for name in tracer.TIMED if not hasattr(cli_mod, name)]
    assert tracer.TIMED and missing == []
    rebound = re.findall(r"\bcli\.(\w+) = ", inspect.getsource(tracer.Tracer.install))
    assert {"run_verification", "_phase", "_verify_worker"} <= set(rebound)
    assert all(callable(getattr(cli_mod, name, None)) for name in rebound)


def unused_imports(path: str) -> list[str]:
    """The names a module imports (__future__ features aside) and never reads."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    # an attribute chain such as np.int64 starts with the Name np
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_no_module_imports_a_name_it_never_uses():
    """Every module of the package but __init__, which re-exports, reads each
    name it imports; cli keeps, unread, only names of the tracer's TIMED
    table, which it wraps as cli attributes."""
    package = os.path.dirname(os.path.abspath(cartanmaps.__file__))
    timed = set(load_perfbench("tracer").TIMED)
    unused = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name != "__init__.py":
            names = unused_imports(os.path.join(package, name))
            if name == "cli.py":
                names = [n for n in names if n not in timed]
            if names:
                unused[name] = names
    assert unused == {}


def test_every_top_level_definition_has_a_caller_in_the_package():
    """Every top-level function and class of a package module is named
    somewhere in the package outside its own definition, or re-exported by
    __init__, so that code only tests reach does not grow back into src; the
    tracer's TIMED names, which it wraps as cli attributes, are exempt."""
    package = os.path.dirname(os.path.abspath(cartanmaps.__file__))
    defined, named = {}, {}
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read())
        for k, node in enumerate(tree.body):
            where = (name, k)
            if name != "__init__.py" and isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[f"{name[:-3]}.{node.name}"] = node.name, where
            for sub in ast.walk(node):
                ref = (sub.id if isinstance(sub, ast.Name)
                       else sub.attr if isinstance(sub, ast.Attribute) else None)
                if ref is not None:
                    named.setdefault(ref, set()).add(where)
    with open(os.path.join(package, "__init__.py")) as fh:
        exported = {alias.asname or alias.name for node in ast.parse(fh.read()).body
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
    exempt = exported | set(load_perfbench("tracer").TIMED)
    uncalled = sorted(full for full, (short, where) in defined.items()
                      if short not in exempt and not named.get(short, set()) - {where})
    assert uncalled == []


def test_only_geometry_imports_the_actions():
    """move_p1 and move_cartan are imported by no package module but
    geometry, so every other module moves an element by geometry.act, the
    one place an action meets an encoder."""
    package = os.path.dirname(os.path.abspath(cartanmaps.__file__))
    importers = set()
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py") or name == "geometry.py":
            continue
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and any(
                    alias.name in ("move_p1", "move_cartan") for alias in node.names):
                importers.add(name)
    assert importers == set()


def test_verify_names_no_dense_builder_or_rank():
    """run_verification and _theorem_section name no dense
    operator builder and no dense rank: the theorem ranks come only from the
    unipotent blocks.  export keeps the dense builders."""
    import cartanmaps.cli as cli_mod

    dense = {"build_psi", "build_psi_plus", "incidence_operator", "rank_exact",
             "rank_mod_p", "restrict_to_affine"}
    with open(cli_mod.__file__) as fh:
        tree = ast.parse(fh.read())
    named = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            named[node.name] = {sub.id if isinstance(sub, ast.Name) else sub.attr
                                for sub in ast.walk(node)
                                if isinstance(sub, (ast.Name, ast.Attribute))}
    verify = ("run_verification", "_theorem_section")
    assert {name: named[name] & dense for name in verify} == {name: set() for name in verify}
    assert {"build_psi", "build_psi_plus", "restrict_to_affine"} <= named["cmd_export"]


def test_benchmark_reference_verdicts_reproduce(capsys):
    """Every verdict of perfbench/reference.json, the benchmark's correctness
    gate, comes out of verify again: the sweep, and each single:ell:eps:g
    run with --all-epsilon --strict-roots."""
    verdicts = load_perfbench("verdicts")
    with open(os.path.join(PERFBENCH, "reference.json")) as fh:
        reference = json.load(fh)
    sweep = sorted(int(key.split(":")[1]) for key in reference if key.startswith("sweep:"))
    code, out, _ = run_cli(capsys, "verify", "--ell-range", f"{sweep[0]}..{sweep[-1]}")
    assert code == EXIT_OK
    got = {f"sweep:{run['ell']}": verdicts.verdict(run) for run in json.loads(out)["runs"]}
    for key in reference:
        if key.startswith("single:"):
            _, ell, eps, g = key.split(":")
            code, out, _ = run_cli(capsys, "verify", "--ell", ell, "--epsilon", eps,
                                   "--root", g, "--all-epsilon", "--strict-roots")
            assert code == EXIT_OK, key
            got[key] = verdicts.verdict(json.loads(out)["runs"][0])
    assert got.keys() == reference.keys()
    assert {key: verdicts.differences(want, got[key])
            for key, want in reference.items()} == {key: [] for key in reference}


# ---------------------------------------------------------------------------
# The failure paths of the certificates: each verdict and failure text
# ---------------------------------------------------------------------------

def forged_certificate(real, fails=lambda ctx: True):
    """The eigenvalue certificate real (eigenvalues_N or eigenvalues_C), made
    to raise after its first record wherever fails(ctx) holds."""
    def certify(*args):
        ctx = next(a for a in args if isinstance(a, PrimeContext))
        reports = real(*args)
        if fails(ctx):
            raise CertificateError(f"forged failure at g={ctx.g}", reports[:1])
        return reports
    return certify


@pytest.mark.parametrize("case", ["N", "C"])
def test_verify_eigenvalue_certificate_failure(case, capsys, monkeypatch):
    import cartanmaps.cli as cli_mod

    name = f"eigenvalues_{case}"
    monkeypatch.setattr(cli_mod, name, forged_certificate(getattr(cli_mod, name)))
    code, out, _ = run_cli(capsys, "verify", "--ell", "5")
    assert code == EXIT_FAIL
    run = json.loads(out)["runs"][0]
    assert run["failures"] == ["forged failure at g=2"]
    section = run["circulant"][case]
    # the records are those the exception carries
    assert section["all_match"] is False and len(section["records"]) == 1
    assert section["det_match"] is True
    assert run["circulant"]["C" if case == "N" else "N"]["all_match"] is True
    code, out, _ = run_cli(capsys, "eigenvalues", "--ell", "5", "--case", case)
    assert code == EXIT_FAIL
    assert len(json.loads(out)["records"]) == 1


@pytest.mark.parametrize("case, reduce", [("N", "reduce_mod_frak_L"),
                                           ("C", "build_reduced_C")])
def test_verify_count_matrix_reduction_failure(case, reduce, capsys, monkeypatch):
    """A count matrix that fails its reduction fails its case, with no
    determinant to compare, and the run still reports."""
    import cartanmaps.cli as cli_mod

    def refused(*args):
        raise CertificateError("forged reduction failure")

    monkeypatch.setattr(cli_mod, reduce, refused)
    code, out, _ = run_cli(capsys, "verify", "--ell", "5", "--strict-roots")
    assert code == EXIT_FAIL
    run = json.loads(out)["runs"][0]
    assert run["circulant"][case] == {"records": [], "all_match": False, "det_product": None,
                                      "det_direct": None, "det_match": False}
    assert run["circulant"]["C" if case == "N" else "N"]["det_match"] is True
    assert run["strict_roots"] == [{"g": g, "ok": False, "method": "root relabelling"}
                                   for g in (2, 3)]
    assert run["failures"] == ["forged reduction failure"] + [
        f"certificates failed for root g={g}: case {case} failed at g=2" for g in (2, 3)]


@pytest.mark.parametrize("case, plane", [("N", "half-plane"), ("C", "punctured-plane")])
def test_verify_circulant_determinant_mismatch(case, plane, capsys, monkeypatch):
    """A direct determinant off by one in one case fails that case only."""
    import cartanmaps.cli as cli_mod

    ctx = PrimeContext(7)
    if case == "N":
        rm = reduce_mod_frak_L(build_block_matrix_N(ctx), ctx)
        row, e = rm.first_row, 2
    else:
        rm = build_reduced_C(ctx)
        row, e = rm.combined_row, 1
    size = len(row)  # 3 and 6: the two count matrices differ in size at 7
    real = cli_mod.det_mod_p
    monkeypatch.setattr(cli_mod, "det_mod_p",
                        lambda m, p: (real(m, p) + (len(m) == size)) % p)
    code, out, _ = run_cli(capsys, "verify", "--ell", "7")
    assert code == EXIT_FAIL
    run = json.loads(out)["runs"][0]
    prod, direct = circulant_det_mod(row, e, ctx), (det_mod_p(rm.matrix(), 7) + 1) % 7
    assert prod != direct
    assert run["failures"] == [f"{plane} circulant determinant check failed: "
                               f"product {prod}, direct {direct}"]
    section = run["circulant"][case]
    assert (section["det_product"], section["det_direct"]) == (prod, direct)
    assert section["det_match"] is False and section["all_match"] is True
    assert run["circulant"]["C" if case == "N" else "N"]["det_match"] is True


@pytest.mark.parametrize("case", ["N", "C"])
def test_strict_roots_reports_the_failing_root(case, capsys, monkeypatch):
    """A certificate failing at the default g = 3 fails the circulant phase,
    and --strict-roots, which carries that phase's verdict to every root,
    fails every root, one line each, naming the case and the default root."""
    import cartanmaps.cli as cli_mod

    name = f"eigenvalues_{case}"
    monkeypatch.setattr(cli_mod, name, forged_certificate(getattr(cli_mod, name)))
    code, out, _ = run_cli(capsys, "verify", "--ell", "7", "--skip-cosets",
                           "--strict-roots")
    assert code == EXIT_FAIL
    run = json.loads(out)["runs"][0]
    assert run["g"] == 3 and run["circulant"][case]["all_match"] is False
    assert run["strict_roots"] == [{"g": g, "ok": False, "method": "root relabelling"}
                                   for g in (3, 5)]
    assert run["failures"] == ["forged failure at g=3"] + [
        f"certificates failed for root g={g}: case {case} failed at g=3" for g in (3, 5)]


@pytest.mark.parametrize("ell", [5, 7, 13, 31])
def test_circulant_records_are_the_same_at_every_root(ell):
    """The relabelling lemma --strict-roots reads, checked by running both
    certificates at every primitive root: with g' = g^k each count row is
    relabelled j -> kj, so every root's eigenvalue records equal the
    default root's."""
    import cartanmaps.cli as cli_mod

    ctx = PrimeContext(ell)
    for case in ("N", "C"):
        _, want, error = cli_mod._circulant_case(case, ctx)
        assert error is None and want, case
        for g in ctx.primitive_roots():
            _, got, error = cli_mod._circulant_case(case, PrimeContext(ell, ctx.epsilon, g))
            assert error is None, (case, g)
            assert [r.to_json() for r in got] == [r.to_json() for r in want], (case, g)


# (the defect, its ok flags of (theorem 1, the entries at 5 and 6), the
# failure lines)
ALL_EPSILON_DEFECTS = {
    "sigma does not commute": (True, [
        "all_epsilon: commutes_with_gl2 fails for epsilon=5",
        "all_epsilon: commutes_with_gl2 fails for epsilon=6"]),
    "base geodesic moved": (True, [
        "all_epsilon: maps_base_geodesic fails for epsilon=5",
        "all_epsilon: maps_base_geodesic fails for epsilon=6"]),
    "theorem1 short": (False, [
        "theorem1: rank 20 != expected 21", "theorem1 failed for epsilon=3",
        "theorem1 failed for epsilon=5", "theorem1 failed for epsilon=6"]),
}


@pytest.mark.parametrize("defect", list(ALL_EPSILON_DEFECTS))
def test_all_epsilon_reports_the_failing_nonsquare(defect, capsys, monkeypatch):
    """At ell = 7, default epsilon 3, each entry of --all-epsilon is theorem
    1 carried by a field isomorphism sigma, so a defect fails the entries it
    reaches, each with its own line:
    - the identity for sigma, which maps the base geodesic (the same indices
      at every non-square) but does not commute with GL2, fails 5 and 6
      only, with no rank; theorem 1 passes;
    - the base geodesic moved at 5 and 6: on H_ell no map but sigma commutes
      with GL2 (N' is its own normaliser), so the miss is seeded on the
      base side; sigma commutes but misses it, and 5 and 6 fail the same
      way;
    - psi+ one rank short at 3 fails theorem 1, and every entry with it."""
    import cartanmaps.cli as cli_mod

    if defect == "sigma does not commute":
        real = cli_mod.field_isomorphism
        monkeypatch.setattr(cli_mod, "field_isomorphism", lambda tag, c, ell: (
            real(tag, 1, ell) if tag == "H_ell" else real(tag, c, ell)))
    elif defect == "base geodesic moved":
        real = cli_mod.base_geodesic
        monkeypatch.setattr(cli_mod, "base_geodesic", lambda ctx: (
            real(ctx) if ctx.epsilon == 3 else real(ctx) + ctx.r))
    else:
        real = cli_mod.unipotent_ranks

        def short(*args):
            route = real(*args)
            rank, affine_rank = route.psi_plus
            return route._replace(psi_plus=(rank - 1, affine_rank))

        monkeypatch.setattr(cli_mod, "unipotent_ranks", short)
    code, out, _ = run_cli(capsys, "verify", "--ell", "7", "--skip-cosets", "--all-epsilon")
    assert code == EXIT_FAIL
    run = json.loads(out)["runs"][0]
    theorem1_ok, lines = ALL_EPSILON_DEFECTS[defect]
    assert run["epsilon"] == 3 and run["theorem1"]["surjective"] is theorem1_ok
    assert run["failures"] == lines
    for entry in run["all_epsilon"]:
        eps = entry["epsilon"]
        relabelled = eps == 3 or theorem1_ok is False
        assert entry == {
            "epsilon": eps, "rank": (21 if theorem1_ok else 20) if relabelled else None,
            "restricted_nonsingular": True if relabelled else None,
            "ok": relabelled and theorem1_ok, "method": "field isomorphism",
            "commutes_with_gl2": relabelled or defect != "sigma does not commute",
            "maps_base_geodesic": relabelled or defect != "base geodesic moved"}, eps
    assert [entry["epsilon"] for entry in run["all_epsilon"]] == [3, 5, 6]


def _count_calls(monkeypatch, module, name, seen):
    """Wrap module.name so that each call appends (ell, epsilon, g) of its
    PrimeContext argument to seen."""
    real = getattr(module, name)

    def counted(*args):
        ctx = next(a for a in args if isinstance(a, PrimeContext))
        seen.append((ctx.ell, ctx.epsilon, ctx.g))
        return real(*args)

    monkeypatch.setattr(module, name, counted)


def test_all_epsilon_builds_one_geodesic_array_per_prime(capsys, monkeypatch):
    """Per prime, psi+'s geodesic array is built once, by the theorem1 phase:
    every all_epsilon entry carries that phase's rank by a relabelling."""
    import cartanmaps.cli as cli_mod

    seen = []
    _count_calls(monkeypatch, cli_mod, "geodesic_incidence", seen)
    code, out, _ = run_cli(capsys, "verify", "--ell-range", "3..13", "--all-epsilon")
    assert code == EXIT_OK
    runs = json.loads(out)["runs"]
    assert seen == [(run["ell"], run["epsilon"], run["g"]) for run in runs]
    for run in runs:
        assert [e["epsilon"] for e in run["all_epsilon"]] == \
            PrimeContext(run["ell"]).nonsquares()
        for entry in run["all_epsilon"]:
            assert entry["rank"] == run["theorem1"]["rank"]
            assert entry["restricted_nonsingular"] == run["theorem1"]["restricted_nonsingular"]


def test_strict_roots_runs_each_certificate_once_per_prime(capsys, monkeypatch):
    """Per prime, each eigenvalue certificate runs once, at the default root,
    by the circulant phase; --strict-roots reads its verdict."""
    import cartanmaps.cli as cli_mod

    seen = {"N": [], "C": []}
    for case in seen:
        _count_calls(monkeypatch, cli_mod, f"eigenvalues_{case}", seen[case])
    code, out, _ = run_cli(capsys, "verify", "--ell-range", "3..13", "--strict-roots")
    assert code == EXIT_OK
    runs = json.loads(out)["runs"]
    assert seen["N"] == seen["C"] == [(run["ell"], run["epsilon"], run["g"]) for run in runs]
    for run in runs:
        assert run["strict_roots"] == [{"g": g, "ok": True, "method": "root relabelling"}
                                       for g in PrimeContext(run["ell"]).primitive_roots()]


def _record_claims(monkeypatch, path):
    """Wrap cli._verify_worker so that every process appends "pid ell" to
    path as it starts a prime: an append survives the fork."""
    import cartanmaps.cli as cli_mod

    inner = cli_mod._verify_worker

    def recorder(item):
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()} {item[0]}\n")
        return inner(item)

    monkeypatch.setattr(cli_mod, "_verify_worker", recorder)


@pytest.mark.parametrize("jobs, processes", [(2, 2), (3, 3), (8, 4)])
def test_verify_jobs_claims_the_largest_primes_first(capsys, monkeypatch, tmp_path,
                                                     jobs, processes):
    """Every process, the calling one included, claims the largest prime
    left; each prime is verified once, and the report lists the runs in
    ascending order, equal to the serial ones apart from timings."""
    claims = tmp_path / "claims"
    _record_claims(monkeypatch, claims)
    # four usable CPUs, so that --jobs 8 starts four processes on any machine
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    code, out, _ = run_cli(capsys, "verify", "--ell-range", "3..13", "--jobs", str(jobs))
    assert code == EXIT_OK
    doc = json.loads(out)
    by_pid = {}
    for line in claims.read_text().splitlines():
        pid, ell = map(int, line.split())
        by_pid.setdefault(pid, []).append(ell)
    assert sorted(sum(by_pid.values(), [])) == [3, 5, 7, 11, 13]
    # this process claims the largest prime before it forks
    assert by_pid[os.getpid()][0] == 13
    assert all(seq == sorted(seq, reverse=True) for seq in by_pid.values())
    assert len(by_pid) <= processes
    assert doc["environment"]["worker_processes"] == processes
    assert [r["ell"] for r in doc["runs"]] == [3, 5, 7, 11, 13]
    serial = run_cli(capsys, "verify", "--ell-range", "3..13")[1]
    for a, b in zip(doc["runs"], json.loads(serial)["runs"], strict=True):
        a["timings"] = b["timings"] = None
        assert a == b


class _Unpicklable(Exception):
    """Pickles by name, but its __init__ takes two arguments, so unpickling
    it (which calls the class with its one message) fails."""

    def __init__(self, ell, why):
        super().__init__(f"{why} at {ell}")


def _in_child(ell):
    raise ValueError(f"no certificate at {ell}")


def _exit_in_child(ell):
    os._exit(3)


def _unpicklable_in_child(ell):
    raise _Unpicklable(ell, "odd failure")


def _local_in_child(ell):
    class Local(Exception):
        pass

    raise Local(f"local failure at {ell}")


@pytest.mark.parametrize("child, error, match", [
    (_in_child, ValueError, "no certificate at 5"),
    (_exit_in_child, ChildProcessError, r"wait status 768, exit code 3"),
    (_unpicklable_in_child, RuntimeError, r"(?s)Traceback.*_Unpicklable: odd failure at 5"),
    (_local_in_child, RuntimeError, r"(?s)Traceback.*Local: local failure at 5"),
])
def test_verify_jobs_raises_a_worker_failure(capsys, monkeypatch, tmp_path, child,
                                            error, match):
    """A child's failure is raised in the calling process, no report is
    written, and no child is left behind."""
    import time

    import cartanmaps.cli as cli_mod

    parent = os.getpid()
    started = tmp_path / "child-started"

    def stub(ell, **kwargs):
        if os.getpid() != parent:
            started.touch()
            return child(ell)
        # this process claims 7 before it forks; it holds 7 until the child
        # has claimed 5, so that the child fails on a prime of its own
        deadline = time.monotonic() + 60
        while ell == 7 and not started.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        return {"ell": ell, "failures": []}

    monkeypatch.setattr(cli_mod, "run_verification", stub)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    with pytest.raises(error, match=match):
        main(["verify", "--ell-range", "3..7", "--jobs", "2"])
    assert capsys.readouterr().out == ""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_verify_jobs_raises_a_worker_failure_when_it_happens(capsys, monkeypatch,
                                                             tmp_path):
    """A child that fails on its first prime stops the call within one more
    prime of the caller's: the caller polls the children's result pipes
    between its claims instead of verifying the rest of the range first."""
    import time

    import cartanmaps.cli as cli_mod

    parent = os.getpid()
    failed = tmp_path / "child-failed"
    verified = []

    def stub(ell, **kwargs):
        if os.getpid() != parent:
            failed.touch()
            raise ValueError(f"no certificate at {ell}")
        # the caller holds its first prime until the child has failed
        deadline = time.monotonic() + 60
        while not failed.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        verified.append(ell)
        time.sleep(0.2)
        return {"ell": ell, "failures": []}

    monkeypatch.setattr(cli_mod, "run_verification", stub)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    with pytest.raises(ValueError, match="no certificate at 59"):
        main(["verify", "--ell-range", "3..61", "--jobs", "2"])
    # 17 primes: the caller took 61, and at most one more after the failure
    assert verified[0] == 61 and len(verified) <= 2
    assert capsys.readouterr().out == ""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_verify_jobs_kills_the_children_when_the_caller_fails(capsys, monkeypatch):
    """The children are killed, not waited for: the call ends long before
    their 60-second primes would."""
    import time

    import cartanmaps.cli as cli_mod

    parent = os.getpid()

    def stub(ell, **kwargs):
        if os.getpid() == parent:
            raise ValueError(f"caller failed at {ell}")
        time.sleep(60)
        return {"ell": ell, "failures": []}

    monkeypatch.setattr(cli_mod, "run_verification", stub)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    t0 = time.monotonic()
    with pytest.raises(ValueError, match="caller failed at 7"):
        main(["verify", "--ell-range", "3..7", "--jobs", "3"])
    assert time.monotonic() - t0 < 30
    assert capsys.readouterr().out == ""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("n", [1024, 1025, 5000])
def test_fan_out_returns_every_prime_once_in_order(monkeypatch, n):
    """Past PIPE_BUF // 4 primes a claim names a group of them, so that the
    claims go in one write an empty pipe takes whole: every prime is still
    verified once, and the runs come back in ascending order."""
    import select

    import cartanmaps.cli as cli_mod

    writes = []
    write = os.write

    def recording_write(fd, data):
        writes.append(len(data))
        return write(fd, data)

    monkeypatch.setattr(cli_mod, "run_verification", lambda ell, **kwargs: ell)
    monkeypatch.setattr(os, "write", recording_write)
    assert cli_mod._fan_out(list(range(n)), {}, 3) == list(range(n))
    # this process writes the claims only; each child writes its own runs
    assert len(writes) == 1 and writes[0] <= select.PIPE_BUF


def test_verify_without_fork_runs_serially(capsys, monkeypatch):
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    code, out, _ = run_cli(capsys, "verify", "--ell-range", "3..5", "--jobs", "2")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["environment"]["worker_processes"] == 0
    assert [r["ell"] for r in doc["runs"]] == [3, 5]


@pytest.mark.parametrize("argv, processes", [
    (["--ell", "5", "--jobs", "2"], 0),
    (["--ell-range", "3..7", "--jobs", "2"], 2),
])
def test_verify_never_imports_a_process_pool(argv, processes):
    """concurrent.futures.process imports multiprocessing, subprocess and
    socket; verify loads none of them, in one process or forked."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cartanmaps.__file__)))
    code = ("import contextlib, io, json, os, sys\n"
            "from cartanmaps.cli import main\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            f"    assert main(['verify', *{argv!r}]) == 0\n"
            "print(json.loads(out.getvalue())['environment']['worker_processes'],\n"
            "      sorted(m for m in ('concurrent.futures.process', 'multiprocessing')"
            " if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == f"{processes} []"


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
