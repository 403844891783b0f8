"""Command-line interface: JSON/CSV output, exit codes, seed handling."""

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import signal
import subprocess
import sys
import time
import warnings
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from regsing import asymptotics, cli, confmodel, exactcount, experiments, gfcore, walkdist
from regsing.errors import CostGuardError


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sample_single_vertex(capsys):
    code, out, _ = run_cli(capsys, "sample", "--n", "1", "--d", "3", "--seed", "0")
    assert code == 0
    data = json.loads(out)
    assert data["adjacency"] == [[3]]
    assert data["n"] == 1 and data["d"] == 3
    assert data["seed"] == 0


def test_sample_generates_and_reports_seed(capsys):
    code, out, err = run_cli(capsys, "sample", "--n", "4", "--d", "3")
    assert code == 0
    assert "generated seed:" in err
    reported = int(err.strip().rsplit(" ", 1)[-1])
    assert json.loads(out)["seed"] == reported


def test_rank_mod_p_from_file(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps([[1, 2], [2, 4]]))
    code, out, _ = run_cli(capsys, "rank", "--p", "5", "--matrix-file", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 1
    assert data["kernel_count"] == "4"
    assert data["singular"] is True


def test_rank_integer_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"matrix": [[1, 2], [2, 4]]})))
    code, out, _ = run_cli(capsys, "rank")
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 1
    assert data["det"] == "0"
    assert data["singular"] is True


def test_exact_count_anchor(capsys):
    code, out, _ = run_cli(capsys, "exact-count", "--sig", "0,1,1", "--d", "3", "--p", "3")
    assert code == 0
    assert json.loads(out)["count"] == "72"


def test_master_sum_anchor(capsys):
    code, out, _ = run_cli(capsys, "master-sum", "--n", "3", "--d", "3", "--p", "2")
    assert code == 0
    data = json.loads(out)
    assert data["num"] == "27"
    assert data["den"] == "28"
    assert data["singularity_bound"]["vacuous"] is False


def test_oracle_check_pass(capsys):
    code, out, _ = run_cli(capsys, "oracle-check", "--n", "2", "--d", "3", "--p", "3")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["master_exact"]["num"] == "13"


def test_rate_directed(capsys):
    code, out, _ = run_cli(
        capsys, "rate", "--frak-n", "0.5,0.3,0.2", "--d", "3", "--p", "3"
    )
    assert code == 0
    data = json.loads(out)
    assert data["explicit_bound"] <= 1e-9
    assert data["value"] <= data["explicit_bound"] + 1e-9
    assert data["converged"] is True


def test_rate_directed_infeasible_is_minus_infinity(capsys):
    code, out, _ = run_cli(capsys, "rate", "--frak-n", "0.1,0.9", "--d", "3", "--p", "2")
    assert code == 0
    assert '"value": -Infinity' in out
    data = json.loads(out)
    assert data["value"] == -math.inf
    assert data["converged"] is False


def test_rate_builds_support_once(monkeypatch, capsys):
    calls = []
    build = asymptotics.build_support
    monkeypatch.setattr(
        asymptotics, "build_support", lambda d, p: calls.append((d, p)) or build(d, p)
    )
    for argv in (
        ("rate", "--frak-n", "0.5,0.3,0.2", "--d", "3", "--p", "3"),
        ("rate", "--mode", "undirected", "--frak-m", "0.1,0.2;0.2,0.5", "--d", "4", "--p", "2"),
    ):
        calls.clear()
        assert run_cli(capsys, *argv)[0] == 0
        assert len(calls) == 1, argv


def test_rate_undirected_uniform(capsys):
    rows = "0.25,0.25;0.25,0.25"
    code, out, _ = run_cli(
        capsys, "rate", "--mode", "undirected", "--frak-m", rows, "--d", "3", "--p", "2"
    )
    assert code == 0
    assert abs(json.loads(out)["value"]) <= 1e-9


def test_cf_scan_step_parsing(capsys):
    code, out, _ = run_cli(
        capsys, "cf-scan", "--d", "3", "--p", "2", "--delta", "0.1", "--step", "2pi/64"
    )
    assert code == 0
    data = json.loads(out)
    assert data["grid_size"] == 64
    assert data["margin"] >= 1e-6
    assert data["near_one_outside"] == 0


def test_lclt_value_and_cross_check(capsys):
    code, out, _ = run_cli(capsys, "lclt", "--sig", "16,16", "--d", "3", "--p", "2")
    assert code == 0
    data = json.loads(out)
    assert data["applicable"] is True
    assert data["value"] == pytest.approx(0.2820947917738782, rel=1e-12)
    code, _, _ = run_cli(capsys, "lclt", "--sig", "16,16", "--n", "32", "--d", "3", "--p", "2")
    assert code == 0
    # mismatched class total is a usage error
    code, _, _ = run_cli(capsys, "lclt", "--sig", "16,16", "--n", "31", "--d", "3", "--p", "2")
    assert code == 2


def test_mc_json_deterministic_bytes(capsys):
    args = ("mc", "--n", "8", "--d", "3", "--p", "2", "--trials", "50", "--seed", "4",
            "--workers", "1")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["trials"] == 50
    assert "wall_time_s" not in data


def test_mc_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "mc", "--n", "8", "--d", "3", "--p", "2", "--trials", "30", "--seed", "4",
        "--workers", "1", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(cli.CSV_COLUMNS)
    assert len(lines) == 2
    row = lines[1].split(",")
    assert row[0] == "8" and row[3] == "directed"


def test_scaling_csv_rows(capsys):
    code, out, _ = run_cli(
        capsys, "scaling", "--d", "3", "--n-list", "12,16", "--trials", "40", "--seed", "3",
        "--workers", "1", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(cli.CSV_COLUMNS)
    assert len(lines) == 3


def test_scaling_json_report(capsys):
    code, out, _ = run_cli(
        capsys, "scaling", "--d", "3", "--n-list", "12,16", "--trials", "40", "--seed", "3",
        "--workers", "1",
    )
    assert code == 0
    data = json.loads(out)
    assert [row["n"] for row in data["rows"]] == [12, 16]
    assert "slope" in data and "window" in data


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "graph.json"
    code, out, _ = run_cli(
        capsys, "sample", "--n", "2", "--d", "3", "--seed", "1", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["n"] == 2


def test_unwritable_out_exits_2_before_any_work(monkeypatch, capsys, tmp_path):
    def spy(*args, **kwargs):
        raise AssertionError("master_sum ran before --out was checked")

    monkeypatch.setattr(exactcount, "master_sum", spy)
    # a file in a missing directory, and a directory
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        code, out, err = run_cli(capsys, "master-sum", "--n", "16", "--d", "4", "--p", "5",
                                 "--mode", "undirected", "--out", str(target))
        assert code == 2 and out == "" and err.startswith("error: ")
    assert sorted(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,code", [
    (("master-sum", "--n", "3", "--d", "3", "--p", "4"), 2),
    (("master-sum", "--n", "3", "--d", "3", "--p"), 2),
    (("master-sum", "--n", "200", "--d", "6", "--p", "7"), 3),
], ids=["domain", "argparse", "cost-guard"])
def test_refused_run_leaves_out_as_it_was(capsys, tmp_path, argv, code):
    kept, new = tmp_path / "kept.json", tmp_path / "new.json"
    kept.write_bytes(b"old bytes\n")
    assert run_cli(capsys, *argv, "--out", str(kept))[0] == code
    assert kept.read_bytes() == b"old bytes\n"
    assert run_cli(capsys, *argv, "--out", str(new))[0] == code
    assert not new.exists()
    # a run that succeeds replaces the old bytes
    assert run_cli(capsys, "master-sum", "--n", "3", "--d", "3", "--p", "2",
                   "--out", str(kept))[0] == 0
    assert json.loads(kept.read_text())["n"] == 3


def test_exit_code_2_on_domain_errors(capsys):
    code, _, err = run_cli(capsys, "master-sum", "--n", "3", "--d", "3", "--p", "4")
    assert code == 2
    assert "not prime" in err
    code, _, _ = run_cli(
        capsys, "sample", "--n", "3", "--d", "3", "--mode", "undirected", "--seed", "0"
    )
    assert code == 2
    for step in ("0.1", "5e-324"):
        code, _, err = run_cli(
            capsys, "cf-scan", "--d", "3", "--p", "2", "--delta", "0.1", "--step", step
        )
        assert code == 2
        assert err.startswith("error: ")


def test_exit_code_2_on_malformed_input(capsys, monkeypatch):
    for text in (
        "[[1.5, 2], [3, 4]]", '[["a"]]', "[[null]]", "not json",
        '"1234"', '["12", "34"]', '{"rows": "12"}', "[[true, 0], [0, 1]]",
    ):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, _, err = run_cli(capsys, "rank", "--p", "5")
        assert code == 2
        assert err.startswith("error: ")
    code, _, err = run_cli(
        capsys, "rate", "--mode", "undirected", "--frak-m", "0.25,0.25;0.5", "--d", "3", "--p", "2"
    )
    assert code == 2
    assert "differing lengths" in err
    assert run_cli(capsys, "sample", "--n", "3", "--d", "3", "--seed", "-1")[0] == 2
    code, _, _ = run_cli(
        capsys, "cf-scan", "--d", "3", "--p", "2", "--delta", "0.1", "--step", "nan"
    )
    assert code == 2


def test_exit_code_2_on_nan_frequencies(capsys):
    code, _, err = run_cli(capsys, "rate", "--frak-n", "nan,nan", "--d", "3", "--p", "2")
    assert code == 2
    assert "finite" in err
    code, _, err = run_cli(
        capsys, "rate", "--mode", "undirected", "--frak-m", "nan,0;0,nan", "--d", "3", "--p", "2"
    )
    assert code == 2
    assert "finite" in err


def test_import_leaves_scipy_out():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for module in ("regsing", "regsing.cli"):
        code = (
            f"import sys, {module}; "
            "sys.exit(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy') or 0)"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, f"import {module} loaded {proc.stderr}"


def test_import_leaves_the_pool_and_seed_modules_out():
    # worker_pool and _ensure_seed import these when they first need them
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    code = (
        "import sys, regsing.cli; "
        "sys.exit(' '.join(m for m in ('concurrent.futures', 'multiprocessing', 'secrets') "
        "if m in sys.modules) or 0)"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, f"import regsing.cli loaded {proc.stderr}"


def test_internal_value_error_is_not_exit_code_2(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli.asymptotics, "cf_scan", broken)
    with pytest.raises(ValueError, match="internal fault"):
        cli.main(["cf-scan", "--d", "3", "--p", "2", "--delta", "0.1", "--step", "2pi/8"])


def test_exit_code_2_on_argparse_errors(capsys):
    assert run_cli(capsys, "sample", "--d", "3")[0] == 2
    assert run_cli(capsys, "no-such-command")[0] == 2
    assert run_cli(capsys, "mc", "--n", "8", "--d", "3", "--step")[0] == 2


# Each guard refuses before the work it guards: the spied function
# fails the test if it is ever called.
GUARDED = {
    "dense-cap": (("sample", "--n", "5000", "--d", "3", "--seed", "0"),
                  "regsing.confmodel.dense_adjacency"),
    "walk-table-bits": (("master-sum", "--n", "200", "--d", "6", "--p", "7"),
                        "regsing.exactcount.walk_steps"),
    "cf-scan-points": (("cf-scan", "--d", "3", "--p", "7", "--delta", "0.1", "--step", "2pi/16"),
                       "regsing.asymptotics._tube_mask"),
    "oracle-directed": (("oracle-check", "--n", "4", "--d", "3", "--p", "2"),
                        "regsing.bruteoracle.permutation_blocks"),
    "oracle-vectors": (("oracle-check", "--n", "9", "--d", "1", "--p", "11"),
                       "regsing.bruteoracle._census"),
    "oracle-tables": (("oracle-check", "--n", "1", "--d", "9", "--p", "4093"),
                      "regsing.bruteoracle._census"),
    "oracle-undirected": (("oracle-check", "--n", "6", "--d", "3", "--p", "2",
                           "--mode", "undirected"), "regsing.bruteoracle.pairing_blocks"),
    "scaling-rows": (("scaling", "--d", "3", "--n-list", "200,5000", "--trials", "300",
                      "--seed", "1"), "regsing.experiments.run_mc"),
}


@pytest.mark.parametrize("argv,work", GUARDED.values(), ids=GUARDED.keys())
def test_exit_code_3_before_any_work(monkeypatch, capsys, argv, work):
    def spy(*args, **kwargs):
        raise AssertionError(f"{work} ran before the guard refused")

    monkeypatch.setattr(work, spy)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ("master-sum", "--n", "200", "--d", "6", "--p", "7"),
    ("master-sum", "--n", "200", "--d", "6", "--p", "7", "--mode", "undirected"),
    ("exact-count", "--sig", "100,100,0,0,0,0,0", "--d", "6", "--p", "7"),
])
def test_exit_code_3_on_table_cost_guard(monkeypatch, capsys, argv):
    def no_tables(*args):
        raise AssertionError("walk-table work started")

    monkeypatch.setattr(exactcount, "walk_steps", no_tables)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == "" and "predicted" in err


def test_exit_code_3_on_dense_size_guard(monkeypatch, capsys):
    def no_adjacency(*args):
        raise AssertionError("dense n x n matrix built")

    # integer trials build the n x n Gram matrix, never the adjacency
    monkeypatch.setattr(confmodel, "dense_adjacency", no_adjacency)
    monkeypatch.setattr(experiments, "dense_gram", no_adjacency)
    for argv in (
        ("sample", "--n", "5000", "--d", "3", "--seed", "0"),
        ("mc", "--n", "5000", "--d", "3", "--trials", "1", "--workers", "1"),
        ("scaling", "--d", "3", "--n-list", "5000", "--trials", "1", "--workers", "1"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3, argv
        assert out == "" and "must not exceed" in err


def test_rank_runs_one_elimination(monkeypatch, capsys):
    calls = {"mod_p": 0, "bareiss": 0}

    def counted(name, func):
        def wrapper(*args):
            calls[name] += 1
            return func(*args)

        return wrapper

    monkeypatch.setattr(gfcore, "_rank_mod_numpy_arr", counted("mod_p", gfcore._rank_mod_numpy_arr))
    monkeypatch.setattr(gfcore, "_bareiss", counted("bareiss", gfcore._bareiss))
    for argv, matrix, singular in (
        (("rank", "--p", "5"), "[[1, 2], [3, 4]]", False),
        (("rank",), "[[1, 2], [3, 4]]", False),
        (("rank",), "[[1, 2], [2, 4]]", True),
    ):
        monkeypatch.setattr("sys.stdin", io.StringIO(matrix))
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["singular"] is singular
    assert calls == {"mod_p": 1, "bareiss": 2}


def test_rank_parses_its_matrix_once(monkeypatch, capsys):
    stacked = []
    stack_rows = gfcore._stack_rows

    def counted(rows):
        stacked.append(len(rows))
        return stack_rows(rows)

    monkeypatch.setattr(gfcore, "_stack_rows", counted)
    for argv in (("rank", "--p", "5"), ("rank",)):
        for matrix in ("[[1, 2], [3, 4]]", "[[1, 2, 3], [4, 5, 6]]"):
            stacked.clear()
            monkeypatch.setattr("sys.stdin", io.StringIO(matrix))
            code, _, _ = run_cli(capsys, *argv)
            assert code == 0 and stacked == [2], (argv, matrix)


# sha256 of stdout, recorded before the sampler, seeding and JSON-encoder
# paths were merged (the rate and rank entries: before scipy and the
# pure-Python rank path were dropped; the last three undirected entries:
# before the one-pass class count; the two directed oracle-check entries:
# before the numpy census; the three tiny-n mc entries at the end: before
# the field-mode memo); any byte that moves fails here. New
# entries go at the end so the index in each test id stays put.
# Every invocation reads FROZEN_MATRIX on stdin; only `rank` uses it.
FROZEN_MATRIX = json.dumps([[2, 7, 1], [8, 2, 8], [1, 8, 28182818284590452353602874]])
FROZEN_STDOUT = [
    (("sample", "--n", "6", "--d", "3", "--seed", "11"),
     "cf56ab2390db91d397a355e7d03ed66d7a2e8eb2f0fa4240cecc72466b48af83"),
    (("sample", "--n", "7", "--d", "4", "--mode", "undirected", "--seed", "5"),
     "749a6369a45b6c5aa233e7ac74a1ad46cc65e2a54fe5a7ddf40062d5936b7d57"),
    (("mc", "--n", "20", "--d", "3", "--seed", "3", "--trials", "200", "--workers", "1"),
     "56d959d4fdaece016ec137be2baa25f2e3ccf00416f33102f8b2f4b4b68ece5a"),
    (("mc", "--n", "12", "--d", "4", "--p", "3", "--mode", "undirected", "--seed", "1",
      "--trials", "200", "--workers", "1"),
     "856ee5b2c80daf98909684fa681ddcd3e626c031e9cd702e9f912cabda12612d"),
    (("scaling", "--d", "3", "--n-list", "10,20", "--seed", "2", "--trials", "100",
      "--workers", "1"),
     "cd179385dfdd3c7d5d77617bae487f80bfbc3d18db593151e5c4be8041079d9f"),
    (("cf-scan", "--d", "3", "--p", "2", "--delta", "0.1", "--step", "2pi/64"),
     "8d0f3c2b7af20eebbe84d822a4581bd12a51394473a094bdeb797dd0fed5875f"),
    (("master-sum", "--n", "8", "--d", "3", "--p", "3"),
     "65c4501ae7de67ad3ca2bf89900daa9b7c038190a1b99e56cc6885890e01a12f"),
    (("oracle-check", "--n", "2", "--d", "3", "--p", "2", "--mode", "undirected"),
     "759cca78644658abcfbda28914c7bf58abcbff8a0249eabd4a4dad9103208f35"),
    (("rate", "--frak-n", "0.5,0.3,0.2", "--d", "3", "--p", "3"),
     "cf3ded89c1a04a9ec99977fed00d9e673b616b88c88b4be584dfd1a8ab2ca4d9"),
    (("rate", "--frak-n", "0.1,0.9", "--d", "3", "--p", "2"),
     "648fc9d3cfbf0cfffff3704d31f65f829ea0c142baa9982f0a34350f17aceb3b"),
    (("rate", "--mode", "undirected", "--frak-m", "0.1,0.2;0.2,0.5", "--d", "4", "--p", "2"),
     "c0c713917babf53a707f625dc55c7df114cdcc13d615abe8840ef6b20b3bb3b6"),
    (("rank", "--p", "2305843009213693951"),
     "9406870bc4d9bbfc1bc6bb65566a6b688280f6949aaf0718cb26beda8531fcc8"),
    (("rank",),
     "f739437d54b713610170e71d41206866a87f5fbd61803662a1903cb5210e1196"),
    (("master-sum", "--n", "6", "--d", "4", "--p", "5", "--mode", "undirected"),
     "efc0c645fcf3821d1bed5f86d1c2acc19b2c33f0fcc4ce90c98c0b49315b45b6"),
    (("master-sum", "--n", "4", "--d", "4", "--p", "7", "--mode", "undirected"),
     "771e3c842e407e34c7c6020a39dab987e19ef5d7d4138c8a50908e1d898eb934"),
    (("exact-count", "--sig", "2,1,1,1,1", "--d", "4", "--p", "5", "--mode", "undirected"),
     "6e75509bc163b0a328d2b87e740e3e11551df1aa857e5103532c3302f8cce4e0"),
    (("oracle-check", "--n", "3", "--d", "3", "--p", "2"),
     "7a874f18228949182b56cd1330df24f2965dbbc685c04801f62cda37b4c98cf2"),
    (("oracle-check", "--n", "4", "--d", "2", "--p", "2"),
     "99736040b339e75811c525f1726911846ed706d1a92613e0b4eef896edba46e7"),
    (("cf-scan", "--d", "3", "--p", "5", "--delta", "0.1", "--step", "2pi/8"),
     "f6f86378cf84f8bc7189c6f1ee95ed66799fcaaf1873f00f3c1bb57524430c0d"),
    (("cf-scan", "--d", "5", "--p", "3", "--delta", "0.1", "--step", "2pi/64"),
     "b993fdc52ba7a8048ca14bc232cbb0a84c7887a32fea42743551b7fd4c6923e8"),
    (("mc", "--n", "3", "--d", "3", "--p", "2", "--seed", "4", "--trials", "2000",
      "--workers", "1"),
     "c892697cfbb9be6e1f3464d8a810993a023ccde3602783ce2f378c589301e916"),
    (("mc", "--n", "4", "--d", "3", "--p", "2", "--mode", "undirected", "--seed", "4",
      "--trials", "2000", "--workers", "1"),
     "d3fcec17dbe727553f27ca7d6cc49171e8d5659868ffee6082c096f3ec842446"),
    (("mc", "--n", "2", "--d", "3", "--p", "3", "--seed", "4", "--trials", "500",
      "--workers", "1"),
     "a9cd46128d7ca17825b7804d201e28123a3b86b9b7cc6dc1d76a14502c87c09f"),
    # recorded before the numpy pairing census
    (("oracle-check", "--n", "4", "--d", "3", "--p", "2", "--mode", "undirected"),
     "2345dbb55d390db0435d3e8a808ec8f56fd2ab97fdcafb3c97a1517ec073b469"),
    (("oracle-check", "--n", "3", "--d", "4", "--p", "2", "--mode", "undirected"),
     "21d1869a7888650769a1bd1e1d433f8af41041172959cb00aed78f76a65dda17"),
    (("oracle-check", "--n", "6", "--d", "2", "--p", "3", "--mode", "undirected"),
     "834efaa0d6a45c36e9b22fab16fed36796b232308e00d315982acad456829dc9"),
    # recorded before field trials ran in stacks: integer trials reduced
    # first at n = REDUCE_FIRST_N, and field trials past the memo size
    (("mc", "--n", "880", "--d", "3", "--trials", "4", "--workers", "1", "--seed", "11"),
     "90d3dec82fbdcddf7844b28ccd09a7f2227c05f4f2974d5f8cc848154903537c"),
    (("mc", "--n", "100", "--d", "3", "--p", "5", "--trials", "50", "--workers", "1",
      "--seed", "11"),
     "f908ea75abe179ddb53b1fd82fb7b4c03970b33cd7ff776f37428740bb272907"),
    # recorded before master sums ran over orbits of classes and read step n
    # only where needed: orbits with translations (p | d), a p = 5 orbit sum,
    # single-symbol undirected counts and an oracle check with p | d
    (("master-sum", "--n", "6", "--d", "3", "--p", "3"),
     "25cbfb07a3db48dc96990177aa900e267abb31bf0e1f717aa2108bef97741a75"),
    (("master-sum", "--n", "6", "--d", "4", "--p", "2", "--mode", "undirected"),
     "5f6c653fe0786c1bad2db36ea66a161468bce8ef49294138c20e7f3caff317c6"),
    (("master-sum", "--n", "8", "--d", "3", "--p", "5"),
     "f695b0ed1c279a6741f9722d084f2d8c7c77139b85ea150e011c945a8262c511"),
    (("exact-count", "--sig", "0,0,6", "--d", "3", "--p", "3", "--mode", "undirected"),
     "cb6c6a984412a431e052eca56a49a1d0bc534af92ff479b8e2f93f611c003056"),
    (("exact-count", "--sig", "6,0,0,0,0", "--d", "4", "--p", "5", "--mode", "undirected"),
     "e50de63a390f22b57293b12dfb944342e7056b52dbea264a8a1d087af371811e"),
    (("oracle-check", "--n", "2", "--d", "3", "--p", "3"),
     "364147e3f652beecf2644eec987abfde08e0e18d3f27c148fb103fb9b9040ba0"),
]


@pytest.mark.parametrize(
    "argv,digest", FROZEN_STDOUT, ids=[f"{argv[0]}-{i}" for i, (argv, _) in enumerate(FROZEN_STDOUT)]
)
def test_frozen_stdout_bytes(capsys, monkeypatch, argv, digest):
    monkeypatch.setattr("sys.stdin", io.StringIO(FROZEN_MATRIX))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Subcommands, exit-2 and exit-3 errors and --help, for the parser-reuse test
REUSE_ARGV = [
    ("sample", "--n", "5", "--d", "3", "--seed", "4"),
    ("rank", "--p", "5"),
    ("rank",),
    ("master-sum", "--n", "4", "--d", "3", "--p", "2"),
    ("rate", "--frak-n", "0.5,0.3,0.2", "--d", "3", "--p", "3"),
    ("lclt", "--sig", "8,8", "--d", "3", "--p", "2"),
    ("mc", "--n", "6", "--d", "3", "--p", "2", "--seed", "1", "--trials", "20", "--format", "csv"),
    ("mc", "--n", "8", "--d", "3", "--seed", "2", "--trials", "20"),
    ("master-sum", "--n", "3", "--d", "3", "--p", "4"),
    ("sample", "--d", "3"),
    ("no-such-command",),
    ("mc", "--n", "8", "--d", "3", "--step"),
    ("cf-scan", "--d", "3", "--p", "2", "--delta", "0.1", "--step", "nan"),
    ("sample", "--n", "5000", "--d", "3", "--seed", "0"),
    ("master-sum", "--n", "200", "--d", "6", "--p", "7"),
    ("--help",),
    ("mc", "--help"),
]


def test_parser_reuse_matches_fresh_calls(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")

    def call(argv):
        monkeypatch.setattr("sys.stdin", io.StringIO(FROZEN_MATRIX))
        return run_cli(capsys, *argv)

    fresh = []
    for argv in REUSE_ARGV:
        cli._parser.cache_clear()
        fresh.append(call(argv))
    assert {code for code, _, _ in fresh} == {0, 2, 3}
    cli._parser.cache_clear()
    order = list(range(len(REUSE_ARGV))) * 3
    random.Random(5).shuffle(order)
    for k in order:
        assert call(REUSE_ARGV[k]) == fresh[k], REUSE_ARGV[k]
    # one parser served all of them
    assert cli._parser.cache_info().misses == 1


# sha256 of [exit code, stdout, stderr] under COLUMNS=80, recorded before
# the parser was built from a table: --help for the top level and each
# subcommand, each bare subcommand (`rank` reads FROZEN_MATRIX) and
# argparse's refusals of bad values.  argparse's layout is that of
# Python 3.11.  New entries go at the end so the index in each test id
# stays put.
FROZEN_USAGE = [
    (("--help",),
     "92820aa80d3486a8349d1a2e43fece397daa9b21976ec4c73cb87a6074c7a5d8"),
    (("sample", "--help"),
     "95453e44390381bcc2b574072d3e99c42b633182ff4c09e894c1124c5173abee"),
    (("rank", "--help"),
     "69189132a9650a2f53f1ead8c3590c63806ed87c81dc58c953719054bb8d3fb4"),
    (("exact-count", "--help"),
     "bec2dea605a6b51029a8fb93be824bdce6399ec6b365581e54263dcdfc3f6d12"),
    (("master-sum", "--help"),
     "ea85a5c3a111eeefdeb7667aff95926a322dfe6754bf022673ef3deb3d5f90b9"),
    (("oracle-check", "--help"),
     "5f903e943b2bf9e2d0266d39a3a4f3ceb2d0c070351cc8b5158a08ba63155476"),
    (("rate", "--help"),
     "652d4c11cd3c67fe81e6e2d609f20a55a84e7f72fe28dee1532c52fd047dfe26"),
    (("cf-scan", "--help"),
     "62e0aca2bda5307b9f556c95bdfb1087f54136e06ca8af4912c4a692722d0b07"),
    (("lclt", "--help"),
     "34d07764723bd9ea90e34e502e913c99a3d42db6f0a7a6dc3caefdaad6f6b450"),
    (("mc", "--help"),
     "c8e241d078b2fdbabbe90ce77ced555da622609866f86e82cf4536dcba8bc846"),
    (("scaling", "--help"),
     "3929d800e54b5ab7a448bd3b033c0e5d2677437ecbc03de03f19d97671d48c4e"),
    (("sample",),
     "663a06e9d3d1212789ec54485e18aa18b46c67f49b91d4132e7b4583d3b39956"),
    (("rank",),
     "927275dac5a5b4518ff324f9a205a57e1c48589758b288f8be10725a126573c1"),
    (("exact-count",),
     "ef6187b835e5a6eedf55c309191a390cee34d93ba0b44a029c1482fc6578ac9c"),
    (("master-sum",),
     "6863c5f4d569b5bfdd9047659c9c59530ea7bcd25ada7cc41acb81fe817b0d56"),
    (("oracle-check",),
     "e0c0f940498e070558b5a743d4bc36ebef9c4529b6a0f59c0002547e8ba2ee71"),
    (("rate",),
     "f893f2bd530858e465a6d1dd88d77523bcc5f1dfb142cc4197a1c00454fd4b42"),
    (("cf-scan",),
     "9eabc458db882498b612f8a062c3519e51b0dbf47f9ca5ddcd7e50f64c269d6d"),
    (("lclt",),
     "1b626fb59082cd870da3db42abb5b09afbaf51072218a9afba1a6e7722d91bee"),
    (("mc",),
     "afa0361baa07ed5becf140e1534fb4e0b3b845bc968b6afa88af1d36d382287d"),
    (("scaling",),
     "16e837b0a2c1d29213ee5dece89ba3a73d8be73a4f0d64522f9064652ce70e4c"),
    (("mc", "--n", "x", "--d", "3"),
     "79051224396d0a122721c4ba1688411a3e1c18d638ab70d144fa976286febaa3"),
    (("sample", "--n", "3", "--d", "3", "--mode", "both"),
     "c274e061da44af4c07878e1f0ebdf8303219bea8bde25f94c852faea194a006b"),
    (("cf-scan", "--d", "3", "--p", "2", "--delta", "0.1", "--step", "2pi/x"),
     "91de9ca347bb8b263540fc86bd6eb6cd67e2e8e55ccdda854fed7e460fd68f9b"),
    (("scaling", "--d", "3", "--n-list", "1,a", "--seed", "1"),
     "ba400aa0a43be7ab8b0cfca1fcfce92cefec9629f0e53b7dc585011f880f245e"),
    (("rate", "--frak-n", "0.5,b", "--d", "3", "--p", "2"),
     "84b10edc18e34940b259e3cecc64b52535baa3d31c1db155631953d2eec86f58"),
    (("mc", "--n", "8", "--d", "3", "--format", "xml"),
     "51b278464c4b24cd01fe9d4ba93a7a9ea36a5f7c1f6c90992516060919b13586"),
    (("lclt", "--class", "1,x", "--d", "3", "--p", "2"),
     "30f47ec4fb65f100f2db4a3ab3f8e269060080c1ca3a2f962c56687bd49c198a"),
]


@pytest.mark.parametrize(
    "argv,digest", FROZEN_USAGE, ids=[f"{argv[0]}-{i}" for i, (argv, _) in enumerate(FROZEN_USAGE)]
)
def test_frozen_help_and_usage_bytes(capsys, monkeypatch, argv, digest):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr("sys.stdin", io.StringIO(FROZEN_MATRIX))
    result = json.dumps(list(run_cli(capsys, *argv)))
    assert hashlib.sha256(result.encode()).hexdigest() == digest


# A 400-digit integer, past float range, and a 4,300-digit one, at the
# interpreter's int-string digit limit: a sum or product of two passes it
WIDE = "7" * 400
WIDEST = "9" * 4300


def ones(p, symbols):
    """--sig of p entries, 1 on the given symbols and 0 elsewhere."""
    return ",".join("1" if j in symbols else "0" for j in range(p))


# Undirected classes whose data-matrix fill stacks past its cap
RUNAWAY_FILLS = {
    "exact-count-runaway-fill-p23": (ones(23, {*range(11), 14}), "4", "23"),
    "exact-count-runaway-fill-p53": (ones(53, {*range(43), 51}), "2", "53"),
    "exact-count-runaway-fill-p101": (ones(101, {*range(1, 50), *range(52, 101)}), "2", "101"),
}

# Inputs that once escaped as a traceback, a numpy warning or a runaway
# computation; each must now be refused at once with one error line.
# (argv, stdin, a fragment of the error)
HOSTILE = {
    "oracle-n0": (("oracle-check", "--n", "0", "--d", "3", "--p", "2"), "", "n must be"),
    "oracle-d0": (("oracle-check", "--n", "2", "--d", "0", "--p", "2"), "", "d must be"),
    "rank-long-int": (("rank", "--p", "2"), "[[" + "9" * 5000 + "]]", "4300 digits"),
    "rank-bad-json": (("rank", "--p", "2"), "[[1,\n", "Expecting value: line 2 column 1 (char 5)"),
    "lclt-composite": (("lclt", "--sig", "2,2", "--d", "3", "--p", "4"), "", "not prime"),
    "exact-count-composite": (("exact-count", "--sig", "2,2", "--d", "3", "--p", "4"), "",
                              "not prime"),
    "rate-overflow": (("rate", "--frak-n", "1e308,1e308", "--d", "3", "--p", "2"), "",
                      "sum to 1"),
    "rate-undirected-overflow": (("rate", "--mode", "undirected", "--frak-m",
                                  "1e308,1e308;1e308,1e308", "--d", "3", "--p", "2"), "",
                                 "sum to 1"),
    "cf-scan-step-before-support": (("cf-scan", "--d", "300", "--p", "97", "--delta", "0.1",
                                     "--step", "0.5"), "", "grid step"),
    "cf-scan-huge-p": (("cf-scan", "--d", "3", "--p", "1000000007", "--delta", "0.1",
                        "--step", "2pi/3"), "", "cost guard"),
    "rate-huge-d": (("rate", "--frak-n", "0.5,0.5", "--d", "1000000", "--p", "2"), "",
                    "step support"),
    "cf-scan-huge-p-one-point": (("cf-scan", "--d", "1", "--p", "1000000007", "--delta", "0.1",
                                  "--step", "6.283185307179586"), "", "step support"),
    "sample-seed": (("sample", "--n", "3", "--d", "3", "--seed", "-1"), "", "seed must be"),
    "mc-seed": (("mc", "--n", "3", "--d", "3", "--seed", "-1"), "", "seed must be"),
    "scaling-seed": (("scaling", "--d", "3", "--n-list", "10", "--seed", "-1"), "",
                     "seed must be"),
    # refused without --seed: no seed is drawn or reported before the error
    "sample-no-seed": (("sample", "--n", "3", "--d", "3", "--mode", "undirected"), "",
                       "even point count"),
    "mc-no-seed": (("mc", "--n", "3", "--d", "3", "--p", "4"), "", "not prime"),
    "scaling-no-seed": (("scaling", "--d", "3", "--n-list", "10,5000"), "", "must not exceed"),
    "scaling-no-seed-empty": (("scaling", "--d", "3", "--n-list", ","), "", "must not be empty"),
    # passes the grid and step-support guards; numpy arrays have at most
    # 64 axes and the slice grid needs p - 1 of them
    "cf-scan-over-64-axes": (("cf-scan", "--d", "1", "--p", "101", "--delta", "0.1",
                              "--step", "6.283185307179586"), "", "p - 1 <= 64"),
    # p compositions of p entries each, once predicted at 15.7 M bits
    "master-sum-support-entries": (("master-sum", "--n", "1", "--d", "1", "--p", "786433"), "",
                                   "step support"),
    # once spent minutes in math.comb
    "master-sum-huge-binomial": (("master-sum", "--n", "1000000", "--d", "1000000",
                                  "--p", "1000003"), "", "predicted above the cap"),
    # 400-digit values once overflowed a float in a guard or an approximant
    "master-sum-wide-n": (("master-sum", "--n", WIDE, "--d", "3", "--p", "2"), "", "walk tables"),
    "exact-count-wide-sig": (("exact-count", "--sig", WIDE + ",1", "--d", "3", "--p", "2"), "",
                             "walk tables"),
    "rate-wide-d": (("rate", "--frak-n", "0.5,0.5", "--d", WIDE, "--p", "2"), "", "step support"),
    "lclt-wide-sig": (("lclt", "--sig", WIDE + ",1", "--d", "3", "--p", "2"), "", "float range"),
    "cf-scan-wide-step": (("cf-scan", "--d", "3", "--p", "2", "--delta", "0.1",
                           "--step", "2pi/" + WIDE), "", "grid step must be positive"),
    # error messages that once printed a product or sum past the digit limit
    "sample-widest-odd": (("sample", "--n", WIDEST, "--d", WIDEST, "--mode", "undirected",
                           "--seed", "1"), "", "even point count"),
    "exact-count-widest-total": (("exact-count", "--sig", WIDEST + "," + WIDEST, "--d", "3",
                                  "--p", "2"), "", "walk tables"),
    "exact-count-widest-odd": (("exact-count", "--sig", "1,0,1,0,1,0,0", "--d", WIDEST,
                                "--p", "7", "--mode", "undirected"), "", "2 | dn"),
    "lclt-widest-total": (("lclt", "--sig", WIDEST + "," + WIDEST, "--n", "1", "--d", "3",
                           "--p", "2"), "", "disagrees"),
    **{key: (("exact-count", "--sig", sig, "--d", d, "--p", p, "--mode", "undirected"), "",
             "data matrices") for key, (sig, d, p) in RUNAWAY_FILLS.items()},
    # files that cannot be opened, to read a matrix or to write the output
    "rank-missing-file": (("rank", "--p", "2", "--matrix-file", "/nonexistent/m.json"), "",
                          "No such file"),
    "master-sum-out-missing-dir": (("master-sum", "--n", "3", "--d", "3", "--p", "2",
                                    "--out", "/nonexistent/x.json"), "", "No such file"),
}


def test_support_guard_refuses_before_any_enumeration(monkeypatch, capsys):
    enumerated = []
    monkeypatch.setattr(walkdist, "_support", lambda d, p: enumerated.append((d, p)))
    for key in ("rate-huge-d", "cf-scan-huge-p-one-point", "master-sum-support-entries"):
        code, out, err = run_cli(capsys, *HOSTILE[key][0])
        assert code == 3 and out == "" and "predicted above the cap" in err
    assert enumerated == []


def test_scan_axis_limit_refuses_before_the_support_or_grid(monkeypatch, capsys):
    def spy(*args):
        raise AssertionError("scan work started before the axis check refused")

    monkeypatch.setattr(asymptotics, "_reduced_tubes", spy)
    monkeypatch.setattr(asymptotics, "_tube_mask", spy)
    monkeypatch.setattr(walkdist, "_support", spy)
    code, out, err = run_cli(capsys, *HOSTILE["cf-scan-over-64-axes"][0])
    assert code == 2 and out == "" and err.startswith("error: ")


def run_bounded(argv, stdin=""):
    """cli.main under a 5 s alarm, with stdin given and stdout, stderr
    and warnings captured: (code, out, err, warnings)."""
    def too_slow(signum, frame):
        raise TimeoutError(f"{argv} still running after 5 s")

    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(5)
    try:
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                mock.patch("sys.stdin", io.StringIO(stdin)):
            warnings.simplefilter("always")
            code = cli.main(list(argv))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue(), caught


@pytest.mark.parametrize(
    "argv,value",
    [
        (("master-sum", "--n", "1", "--d", "2", "--p", "47"), {"num": "0", "den": "1"}),
        (("master-sum", "--n", "2", "--d", "2", "--p", "47"), {"num": "0", "den": "1"}),
        (("oracle-check", "--n", "1", "--d", "2", "--p", "47"), {"classes": 47, "passed": True}),
        (("oracle-check", "--n", "2", "--d", "2", "--p", "47"), {"classes": 1128, "passed": True}),
        (("exact-count", "--sig", "2" + ",0" * 52, "--d", "2", "--p", "53"), {"count": "3"}),
    ],
)
def test_undirected_counts_past_p_43(argv, value):
    # a fill over all p symbols, one frame per entry, passed the
    # interpreter's depth limit from p = 47 on
    code, out, err, caught = run_bounded((*argv, "--mode", "undirected"))
    assert code == 0 and err == "" and caught == []
    assert value.items() <= json.loads(out).items()


@pytest.mark.parametrize("argv", [
    ("oracle-check", "--n", "9", "--d", "1", "--p", "2"),
    ("oracle-check", "--n", "12", "--d", "1", "--p", "2", "--mode", "undirected"),
])
def test_the_largest_d1_oracle_checks_end_in_time(argv):
    # the largest d = 1 models each point cap admits, at 512 and 4,096 vectors
    code, out, err, caught = run_bounded(argv)
    assert code == 0 and err == "" and caught == []
    assert json.loads(out)["passed"] is True


def test_lclt_refuses_d_below_1_with_exit_2(capsys):
    code, out, err = run_cli(capsys, "lclt", "--sig", "2,2", "--d", "0", "--p", "2")
    assert code == 2 and out == "" and "d must be" in err


@pytest.mark.parametrize("argv,stdin,fragment", HOSTILE.values(), ids=HOSTILE.keys())
def test_hostile_input_is_refused_at_once(argv, stdin, fragment):
    code, out, err, caught = run_bounded(argv, stdin)
    assert code in (2, 3)
    assert caught == []  # a warning would reach stderr beside the error
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert fragment in err


def test_integers_are_written_at_any_width():
    # the count has 5,733 digits, past the int-string digit limit
    start = time.process_time()
    code, out, err, _ = run_bounded(("exact-count", "--sig", "5,5", "--d", "200", "--p", "2"))
    assert time.process_time() - start < 1
    assert code == 0 and err == ""
    count = exactcount.count_graphs_directed((5, 5), 200, 2)
    with bigint_strings():
        assert len(str(count)) > 5000
        assert int(json.loads(out)["count"]) == count
    for value in (0, 7, -12, 10**4299, 3**20000, -(10**20000) + 1):
        with bigint_strings():
            want = str(value)
        assert cli._decimal(value) == want


@contextlib.contextmanager
def bigint_strings():
    """Lift the int-string digit limit for the reference conversions."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


# The hostile-input property test.  Each call starts from arguments in
# a small valid box, n, d <= 6, p in {2, 3, 5, 7}, --trials <= 20 and
# --workers 1, and a drawn subset of them (stdin too, for `rank`) is
# replaced by HOSTILE_VALUES.  Large valid inputs are real work that the
# caps admit, so they stay out: --trials and --workers take only the
# hostile values they refuse, and `real_work` skips the rest.
HOSTILE_VALUES = ("0", "-1", "1000000", "1" + "0" * 300, WIDE, WIDEST, "0.5", "nan", "inf", "",
                  "4", "2305843009213693951")
REFUSED_COUNTS = ("0", "-1", "0.5", "nan", "inf", "")
PRIMES = (2, 3, 5, 7)


def frequencies(draw, count):
    """`count` nonnegative floats summing to 1."""
    weights = draw(st.lists(st.integers(0, 4), min_size=count, max_size=count))
    weights[0] += sum(weights) == 0
    return [w / sum(weights) for w in weights]


def composition(draw, n, p):
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=p - 1, max_size=p - 1)))
    return ",".join(map(str, (b - a for a, b in zip([0, *cuts], [*cuts, n]))))


def symmetric_frequencies(draw, p):
    upper = iter(frequencies(draw, p * (p + 1) // 2))
    m = [[0.0] * p for _ in range(p)]
    for i in range(p):
        for j in range(i, p):
            m[i][j] = m[j][i] = next(upper) / (1 if i == j else 2)
    return ";".join(",".join(map(repr, row)) for row in m)


def valid_arguments(draw, command):
    """{flag: value, or None to leave the flag out} in the valid box;
    the key "stdin" is what `rank` reads."""
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    p = draw(st.sampled_from(PRIMES))
    mode = draw(st.sampled_from(("directed", "undirected")))
    seed = str(draw(st.integers(0, 1000)))
    model = {"--n": str(n), "--d": str(d), "--p": str(p), "--mode": mode}
    run = {"--mode": mode, "--trials": str(draw(st.integers(1, 20))), "--seed": seed,
           "--workers": "1", "--format": draw(st.sampled_from(("json", "csv")))}
    if command == "sample":
        return {"--n": str(n), "--d": str(d), "--mode": mode, "--seed": seed}
    if command == "rank":
        k = draw(st.integers(1, 4))
        rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=k, max_size=k),
                             min_size=k, max_size=k))
        return {"--p": draw(st.sampled_from((str(p), None))), "stdin": json.dumps(rows)}
    if command in ("exact-count", "lclt"):
        sig = {"--sig": composition(draw, n, p), "--d": str(d), "--p": str(p)}
        if command == "lclt":
            return {**sig, "--n": draw(st.sampled_from((str(n), None)))}
        return {**sig, "--mode": mode}
    if command in ("master-sum", "oracle-check"):
        return model
    if command == "rate":
        return {"--mode": mode, "--frak-n": ",".join(map(repr, frequencies(draw, p))),
                "--frak-m": symmetric_frequencies(draw, p), "--d": str(d), "--p": str(p)}
    if command == "cf-scan":
        step = draw(st.sampled_from(("2pi/1", "2pi/3", "2pi/4", "6.283185307179586")))
        return {"--d": str(d), "--p": str(p),
                "--delta": draw(st.sampled_from(("0.1", "1.0", "9.8"))), "--step": step}
    if command == "mc":
        return {**model, "--p": draw(st.sampled_from((str(p), None))), **run}
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    return {"--d": str(d), "--n-list": ",".join(map(str, sizes)), **run}


@st.composite
def cli_calls(draw, command):
    """(argv, stdin): valid arguments with a drawn subset made hostile."""
    args = valid_arguments(draw, command)
    for flag in draw(st.sets(st.sampled_from(sorted(args)))):
        pool = REFUSED_COUNTS if flag in ("--trials", "--workers") else HOSTILE_VALUES
        args[flag] = draw(st.sampled_from(pool))
    stdin = args.pop("stdin", "")
    args = {flag: value for flag, value in args.items() if value is not None}
    return [command, *itertools.chain.from_iterable(args.items())], args, stdin


def as_int(text):
    try:
        return int(text)
    except (TypeError, ValueError):
        return None


def real_work(command, args):
    """True for a valid input that the caps admit but that is large:
    more than 10**4 points per sample, or walk tables predicted above
    10**8 bits (master-sum --n 6 --d 6 --p 7 took 16 s of process time
    on a 2-vCPU VM)."""
    d = as_int(args.get("--d"))
    if command in ("sample", "mc", "scaling"):
        sizes = map(as_int, args.get("--n-list", args.get("--n", "")).split(","))
        return any(n and d and 0 < n and 0 < d and 10**4 < n * d
                   and max(n, d) * n <= confmodel.DENSE_ENTRIES_CAP for n in sizes)
    if command in ("master-sum", "exact-count"):
        sig = [as_int(x) for x in args.get("--sig", "").split(",") if x.strip()]
        if command == "master-sum":
            steps = as_int(args["--n"])
        else:
            steps = sum(sig) if sig and None not in sig else None
        try:
            predicted = exactcount.predicted_table_bits(steps, d, as_int(args["--p"]))
        except (TypeError, ValueError, CostGuardError):
            return False
        return 10**8 < predicted <= exactcount.TABLE_BITS_CAP
    return False


@pytest.mark.parametrize("command", [name for name, *_ in cli.COMMANDS])
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_input_ends_in_a_result_or_one_error_line(command, data):
    argv, args, stdin = data.draw(cli_calls(command))
    assume(not real_work(command, args))
    code, out, err, caught = run_bounded(argv, stdin)
    assert "Traceback" not in err and caught == [], argv
    if code == 1:
        assert command == "oracle-check" and json.loads(out)["passed"] is False, argv
    elif code:
        errors = [line for line in err.splitlines() if "error: " in line]
        assert code in (2, 3) and out == "" and errors == err.splitlines()[-1:], argv
