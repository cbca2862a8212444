import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wienerlift
from wienerlift.chaos import ChaosPolynomial, GradedChaos, chaos_to_document
from wienerlift.cli import _parse_ambient, main
from wienerlift.seminorms import AmbientSpec, ambient_for_levels


def test_sample_csv_contract(tmp_path):
    out = tmp_path / "p.csv"
    rc = main(
        [
            "sample", "--process", "bm", "--dim", "2", "--steps", "16",
            "--horizon", "1", "--seed", "7", "--out", str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x1,x2"
    assert len(lines) == 18
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0
    summary = json.loads((tmp_path / "p.csv.summary.json").read_text())
    assert summary["config"]["seed"] == 7
    assert summary["format_version"] == "run-summary/v1"


def test_overwrite_refused_without_force(tmp_path, capsys):
    out = tmp_path / "p.csv"
    args = [
        "sample", "--process", "bm", "--dim", "1", "--steps", "8",
        "--horizon", "1", "--seed", "1", "--out", str(out),
    ]
    assert main(args) == 0
    assert main(args) == 2
    assert "--force" in capsys.readouterr().err
    assert main(args + ["--force"]) == 0


def test_byte_determinism_across_runs_and_threads(tmp_path):
    out = tmp_path / "rate.json"

    def run(threads):
        rc = main(
            [
                "ldp", "--process", "bm", "--dim", "1", "--steps", "128",
                "--horizon", "1", "--event", "sup-ge:0.7",
                "--epsilons", "0.8,0.6", "--samples", "2000", "--seed", "3",
                "--oracle", "reflection", "--threads", str(threads),
                "--out", str(out), "--force",
            ]
        )
        assert rc == 0
        return out.read_bytes(), (tmp_path / "rate.json.summary.json").read_bytes()

    a = run(1)
    b = run(1)
    c = run(4)
    assert a == b == c


@pytest.mark.parametrize("ambient", [None, "holder2:0.4"])
def test_ldp_summary_records_the_ambient(tmp_path, ambient):
    out = tmp_path / "rate.csv"
    argv = ["ldp", "--dim", "2", "--steps", "16", "--event", "hom-ge:1" if ambient else "sup-ge:1",
            "--epsilons", "1.0", "--samples", "400", "--seed", "1", "--out", str(out)]
    assert main(argv + (["--ambient", ambient] if ambient else [])) == 0
    config = json.loads((tmp_path / "rate.csv.summary.json").read_text())["config"]
    assert config["ambient"] == ambient


def test_ldp_oracle_digest(tmp_path, capsys):
    out = tmp_path / "ldp.csv"
    rc = main(
        [
            "ldp", "--process", "bm", "--dim", "1", "--steps", "256",
            "--horizon", "1", "--event", "sup-ge:1", "--oracle", "reflection",
            "--epsilons", "0.5,0.4,0.01", "--samples", "4000", "--seed", "3",
            "--out", str(out),
        ]
    )
    assert rc == 0
    summary = json.loads((str(out) + ".summary.json",)[0] and (tmp_path / "ldp.csv.summary.json").read_text())
    oracle = summary["results"]["oracle_values"]
    assert abs(oracle[-1] + 0.5) <= 0.01  # eps = 0.01 is last (sorted decreasing)
    assert summary["results"]["censored"] == [0.01]
    rows = out.read_text().splitlines()
    assert rows[0].startswith("epsilon,hits,log_prob")


@pytest.mark.filterwarnings("ignore:epsilon=")
@pytest.mark.parametrize("oracle", [None, "reflection"])
def test_ldp_csv_rows_match_the_summary_columns(tmp_path, oracle):
    out = tmp_path / "ldp.csv"
    argv = ["ldp", "--steps", "64", "--event", "sup-ge:1", "--epsilons", "0.6,0.5,0.01",
            "--samples", "2000", "--seed", "3", "--out", str(out)]
    assert main(argv + (["--oracle", oracle] if oracle else [])) == 0
    results = json.loads((tmp_path / "ldp.csv.summary.json").read_text())["results"]
    with open(out, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["epsilon", "hits", "log_prob", "log_prob_se", "scaled", "scaled_se", "oracle_scaled", "censored"]
    assert results["censored"] == [0.01] and len(rows) == 3
    names = ["epsilons", "hits", "log_probs", "log_prob_ses", "scaled", "scaled_ses"]
    oracle_values = results["oracle_values"] or [None] * 3
    for i, row in enumerate(rows):
        # the CSV writer prints floats by their repr, and the summary writes a NaN as null
        assert row[:6] == [repr(math.nan if results[name][i] is None else results[name][i]) for name in names]
        assert row[6] == ("" if oracle is None else repr(oracle_values[i]))
        assert row[7] == str(int(results["epsilons"][i] in results["censored"]))
    assert rows[2][2:6] == ["nan"] * 4 and rows[2][1] == "0" and rows[2][7] == "1"


def test_lift_and_norm_flow(tmp_path):
    path_csv = tmp_path / "p.csv"
    main(
        [
            "sample", "--process", "bm", "--dim", "2", "--steps", "32",
            "--horizon", "1", "--seed", "11", "--out", str(path_csv),
        ]
    )
    lift_json = tmp_path / "lift.json"
    rc = main(
        ["lift", "--in", str(path_csv), "--scheme", "stratonovich",
         "--level", "3", "--out", str(lift_json)]
    )
    assert rc == 0
    doc = json.loads(lift_json.read_text())
    assert doc["format_version"] == "enhanced-path/v1"
    rc = main(["norm", "--in", str(lift_json), "--ambient", "level3:2.5"])
    assert rc == 0
    out_json = tmp_path / "norm.json"
    rc = main(["norm", "--in", str(lift_json), "--ambient", "holder2:0.4",
               "--out", str(out_json)])
    assert rc == 0
    results = json.loads(out_json.read_text())["results"]
    assert results["homogeneous_norm"] > 0


def test_lift_young_scheme(tmp_path):
    lift_json = tmp_path / "young.json"
    rc = main(
        ["lift", "--process", "bm", "--dim", "1", "--steps", "64",
         "--horizon", "1", "--seed", "5", "--scheme", "young",
         "--dyadic-level", "3", "--level", "3", "--out", str(lift_json)]
    )
    assert rc == 0
    doc = json.loads(lift_json.read_text())
    assert doc["scheme"] == "young"


def test_eta0_command(tmp_path):
    out = tmp_path / "eta0.json"
    rc = main(
        ["eta0", "--ambient", "classical:sup", "--dim", "1", "--segments", "8",
         "--restarts", "4", "--seed", "5", "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert 0.49 <= doc["results"]["eta0_hat"] <= 0.53


def test_fernique_command(tmp_path):
    out = tmp_path / "fern.csv"
    rc = main(
        ["fernique", "--process", "bm", "--dim", "1", "--steps", "16",
         "--horizon", "1", "--scheme", "ito", "--ambient", "terminal",
         "--samples", "20000", "--seed", "40", "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads((tmp_path / "fern.csv.summary.json").read_text())
    assert doc["results"]["eta_hat"] > 0


def test_cm_check_command(tmp_path):
    out = tmp_path / "cm.json"
    rc = main(
        ["cm-check", "--process", "bm", "--dim", "1", "--steps", "16",
         "--horizon", "1", "--shift", "ramp:0.5", "--functional",
         "terminal-level1", "--samples", "5000", "--seed", "2",
         "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert abs(doc["results"]["mean_density"] - 1.0) <= 5 * doc["results"]["mean_density_se"]


def test_cm_check_byte_determinism_across_threads(tmp_path):
    out = tmp_path / "cm.json"

    def run(threads):
        rc = main(
            ["cm-check", "--dim", "2", "--steps", "16", "--shift", "ramp:0.5",
             "--functional", "all", "--samples", "5000", "--seed", "3",
             "--threads", str(threads), "--out", str(out), "--force"]
        )
        assert rc == 0
        return out.read_bytes()

    assert run(1) == run(3)


def test_cm_check_draws_each_sample_once_from_its_seed(tmp_path, monkeypatch):
    from wienerlift import asymptotics

    drawn = []
    original = asymptotics.sample_values_batch

    def counting(spec, grid, seed, count, start=0):
        drawn.extend((seed, i) for i in range(start, start + count))
        return original(spec, grid, seed, count, start=start)

    monkeypatch.setattr(asymptotics, "sample_values_batch", counting)
    rc = main(["cm-check", "--dim", "2", "--steps", "8", "--shift", "ramp:0.5", "--functional", "all",
               "--samples", "3000", "--seed", "4", "--out", str(tmp_path / "cm.json")])
    assert rc == 0
    assert sorted(drawn) == [(4, i) for i in range(3000)]


BAD_COUNTS = {
    "cm-samples-0": (["cm-check", "--samples", "0"], "--samples"),
    "cm-samples-1": (["cm-check", "--samples", "1"], "--samples"),
    "cm-samples-negative": (["cm-check", "--samples", "-3"], "--samples"),
    "steps-0": (["cm-check", "--samples", "10", "--steps", "0"], "--steps"),
    "dim-0": (["cm-check", "--samples", "10", "--dim", "0"], "--dim"),
    "threads-0": (["cm-check", "--samples", "10", "--threads", "0"], "--threads"),
    "ldp-samples-0": (["ldp", "--event", "sup-ge:1", "--epsilons", "1", "--samples", "0"],
                      "--samples"),
    "eta0-segments-1": (["eta0", "--ambient", "classical", "--segments", "1"], "--segments"),
    "eta0-restarts-0": (["eta0", "--ambient", "classical", "--restarts", "0"], "--restarts"),
    "lift-dyadic-level-negative": (["lift", "--scheme", "young", "--dyadic-level", "-1"],
                                   "--dyadic-level"),
    "chaos-trials-0": (["chaos", "norm-equiv", "--trials", "0"], "--trials"),
    "chaos-degree-negative": (["chaos", "norm-equiv", "--degree", "-1"], "--degree"),
    "fernique-samples-400": (["fernique", "--ambient", "level2:2.5", "--samples", "400"], "--samples"),
}


@pytest.mark.parametrize("case", sorted(BAD_COUNTS))
def test_malformed_count_is_an_argument_error(tmp_path, capsys, case):
    args, option = BAD_COUNTS[case]
    out = tmp_path / "o.json"
    with pytest.raises(SystemExit) as exc:
        main(args + ["--seed", "1", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: expected an integer >=" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("command", [
    ["ldp", "--event", "sup-ge:1", "--epsilons", "0.5", "--samples", "10"],
    ["fernique", "--ambient", "classical", "--samples", "10000"],
    ["cm-check", "--samples", "10"],
])
def test_threads_above_the_maximum_are_refused_at_parse_time(tmp_path, capsys, monkeypatch, command):
    import concurrent.futures

    from wienerlift.asymptotics import MAX_THREADS

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", lambda **_: pytest.fail("started a pool"))
    out = tmp_path / "o.json"
    with pytest.raises(SystemExit) as exc:
        main(command + ["--threads", str(MAX_THREADS + 1), "--seed", "1", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --threads: expected an integer <= {MAX_THREADS}, got '{MAX_THREADS + 1}'" in err
    assert "Traceback" not in err and not out.exists()


def test_default_threads_stop_at_the_maximum(monkeypatch):
    from wienerlift.asymptotics import MAX_THREADS
    from wienerlift.cli import build_parser

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4 * MAX_THREADS)))
    argv = ["cm-check", "--samples", "10", "--seed", "1", "--out", "x"]
    assert build_parser().parse_args(argv).threads == MAX_THREADS


# runs whose ambient has an infinite norm on the process: each names --ambient and --hurst
INFINITE_AMBIENT_RUNS = {
    "fernique-holder2": ["fernique", "--process", "fbm", "--hurst", "0.2", "--dim", "2", "--steps", "16",
                         "--ambient", "holder2:0.4", "--samples", "10000", "--seed", "1"],
    "ldp-level2-at-quarter": ["ldp", "--process", "fbm", "--hurst", "0.25", "--dim", "2", "--steps", "16",
                              "--event", "hom-ge:1", "--ambient", "level2:8", "--epsilons", "0.5",
                              "--samples", "100", "--seed", "1"],
}


@pytest.mark.parametrize("case", sorted(INFINITE_AMBIENT_RUNS))
def test_ambient_infinite_on_the_process_is_an_argument_error(tmp_path, capsys, monkeypatch, case):
    from wienerlift import asymptotics

    monkeypatch.setattr(asymptotics, "sample_values_batch", lambda *args, **kwargs: pytest.fail("sampled"))
    out = tmp_path / "o.csv"
    assert main(INFINITE_AMBIENT_RUNS[case] + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--ambient" in err and "--hurst" in err and "fbm with hurst" in err
    assert "Traceback" not in err and list(tmp_path.iterdir()) == []


def test_fbm_ambient_with_finite_norms_runs(tmp_path):
    argv = ["fernique", "--process", "fbm", "--hurst", "0.45", "--dim", "2", "--steps", "8",
            "--ambient", "level2:2.5", "--samples", "10000", "--seed", "1", "--out", str(tmp_path / "f.csv")]
    assert main(argv) == 0


def test_chaos_commands(tmp_path):
    poly = ChaosPolynomial(2, {(1, 1): 1.0, (1, 0): 2.0})
    poly_file = tmp_path / "poly.json"
    poly_file.write_text(json.dumps(chaos_to_document(poly)))
    out = tmp_path / "proj.json"
    rc = main(["chaos", "project", "--poly", str(poly_file), "--degree", "2",
               "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["terms"]) == 1

    graded = GradedChaos(
        2,
        components={"a": ChaosPolynomial(2, {(1, 0): 1.0})},
        degrees={"a": 1},
    )
    graded_file = tmp_path / "graded.json"
    graded_file.write_text(json.dumps(chaos_to_document(graded)))
    out2 = tmp_path / "proxy.json"
    rc = main(["chaos", "proxy", "--poly", str(graded_file), "--shift-vector",
               "0.4,-0.3", "--samples", "2000", "--seed", "6", "--out", str(out2)])
    assert rc == 0
    doc = json.loads(out2.read_text())
    assert doc["results"]["exact"]["a"] == pytest.approx(0.4)

    out3 = tmp_path / "ne.json"
    rc = main(["chaos", "norm-equiv", "--degree", "2", "--p", "2", "--q", "4",
               "--trials", "20", "--dim", "2", "--seed", "1", "--out", str(out3)])
    assert rc == 0


def test_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    from wienerlift import grids

    argv = ["sample", "--process", "fbm", "--hurst", "0.3", "--dim", "1",
            "--steps", "8192", "--horizon", "1", "--seed", "1", "--force",
            "--out", str(tmp_path / "x.csv")]
    assert main(argv) == 0  # no grid cap on the fBm sampler
    rfft = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda row: -rfft(row))
    grids._fbm_cholesky.cache_clear()
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "circulant embedding" in err
    assert "Traceback" not in err


def test_fbm_byte_determinism_across_threads(tmp_path):
    def run(threads):
        out = tmp_path / f"fbm{threads}.csv"
        rc = main(
            ["ldp", "--process", "fbm", "--hurst", "0.3", "--dim", "1", "--steps", "64",
             "--horizon", "2", "--event", "terminal-ge:0.6", "--epsilons", "0.8,0.6",
             "--samples", "1500", "--seed", "3", "--oracle", "terminal-gauss",
             "--threads", str(threads), "--out", str(out)]
        )
        assert rc == 0
        return out.read_bytes(), (tmp_path / f"fbm{threads}.csv.summary.json").read_bytes()

    (a, a_sum), (b, b_sum), (c, c_sum) = run(1), run(2), run(4)
    assert a == b == c
    # the summary embeds its own --out; everything else agrees
    assert a_sum.replace(b"fbm1.csv", b"fbm4.csv") == c_sum
    assert b_sum.replace(b"fbm2.csv", b"fbm4.csv") == c_sum


def test_stale_summary_refused_without_force(tmp_path, capsys):
    out = tmp_path / "p.csv"
    stale = tmp_path / "p.csv.summary.json"
    stale.write_text("stale")
    args = ["sample", "--dim", "1", "--steps", "8", "--seed", "1", "--out", str(out)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert str(stale) in err and "--force" in err
    assert not out.exists()
    assert stale.read_text() == "stale"
    assert main(args + ["--force"]) == 0
    assert json.loads(stale.read_text())["command"] == "sample"


@pytest.mark.parametrize(
    "args, option",
    [
        (["project"], "--poly"),
        (["proxy", "--shift-vector", "0.4", "--seed", "1"], "--poly"),
        (["proxy", "--poly", "p.json", "--seed", "1"], "--shift-vector"),
    ],
)
def test_chaos_missing_option_is_an_argument_error(tmp_path, capsys, args, option):
    argv = ["chaos"] + args + ["--out", str(tmp_path / "c.json")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert option in err and "Traceback" not in err


@pytest.mark.parametrize(
    "content, message",
    [
        (json.dumps({"format_version": "chaos/v1"}), "lacks field 'dimension'"),
        (json.dumps({"format_version": "chaos/v1", "dimension": 2}), "lacks field 'terms'"),
        (json.dumps({"format_version": "chaos/v1", "dimension": 2,
                     "terms": [{"symbol": None, "multi_index": 5, "coefficient": 1.0}]}), "malformed"),
        (json.dumps({"format_version": "chaos/v1", "dimension": 2,
                     "terms": [{"symbol": None, "multi_index": [[1, 1]], "coefficient": None}]}), "malformed"),
        (json.dumps({"format_version": "chaos/v1", "dimension": 2, "degrees": [1], "terms": []}), "malformed"),
        (json.dumps({"format_version": "chaos/v1", "dimension": 2, "terms": 5}), "chaos document is malformed"),
        (json.dumps({"format_version": "chaos/v1", "dimension": 2,
                     "terms": [{"symbol": None, "multi_index": [[1, 1]], "coefficient": math.nan}]}),
         "multi-index (1, 0) has non-finite coefficient nan"),
        # every integer the document carries is one, not truncated by int()
        (json.dumps({"format_version": "chaos/v1", "dimension": 1,
                     "terms": [{"symbol": None, "multi_index": [[1, 2.5]], "coefficient": 1.0}]}),
         "power must be an integer, got 2.5"),
        (json.dumps({"format_version": "chaos/v1", "dimension": 1.7, "terms": []}),
         "dimension must be an integer, got 1.7"),
        (json.dumps({"format_version": "chaos/v1", "dimension": 1, "degrees": {"a": 2.9},
                     "terms": [{"symbol": "a", "multi_index": [[1, 2]], "coefficient": 1.0}]}),
         "degree of 'a' must be an integer, got 2.9"),
        # a coefficient is a number, not the text of one that float() reads
        (json.dumps({"format_version": "chaos/v1", "dimension": 1,
                     "terms": [{"symbol": None, "multi_index": [[1, 1]], "coefficient": "1.5"}]}),
         "coefficient must be a real number, got '1.5'"),
        ("not json", "Expecting value"),
    ],
)
@pytest.mark.parametrize("action", ["project", "proxy"])
def test_malformed_chaos_document_is_an_argument_error(tmp_path, capsys, action, content, message):
    poly = tmp_path / "f.json"
    poly.write_text(content)
    out = tmp_path / "c.json"
    proxy_args = ["--shift-vector", "0.4", "--seed", "1"] if action == "proxy" else []
    argv = ["chaos", action, "--poly", str(poly), *proxy_args, "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(poly) in err and message in err
    assert "Traceback" not in err and not out.exists()


def test_chaos_proxy_refuses_a_degree_above_the_hermite_guard(tmp_path, capsys, monkeypatch):
    import wienerlift.chaos as chaos_mod

    graded = GradedChaos(1, components={"a": ChaosPolynomial(1, {(61,): 1.0})}, degrees={"a": 61})
    poly = tmp_path / "f.json"
    poly.write_text(json.dumps(chaos_to_document(graded)))
    # the refusal comes before any sample is drawn
    monkeypatch.setattr(chaos_mod, "derived_rng", lambda *args: pytest.fail("proxy sampled"))
    out = tmp_path / "c.json"
    argv = ["chaos", "proxy", "--poly", str(poly), "--shift-vector", "0.4", "--seed", "1", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"--poly {str(poly)!r}: Hermite degree must be <= 60, got 61" in err
    assert "Traceback" not in err and not out.exists()


SYMBOL_1 = {"symbol": "1", "indices": [1], "degree": 1, "norm": {"kind": "sup"}, "arity": 1}
BAD_AMBIENT = {
    "symbols": ({"a": 1}, "lacks field 'symbols'"),
    "distinguished": ({"symbols": [SYMBOL_1]}, "lacks field 'distinguished'"),
    "indices": (
        {"symbols": [{k: v for k, v in SYMBOL_1.items() if k != "indices"}],
         "distinguished": ["1"]},
        "lacks field 'indices'",
    ),
    "mistyped": ({"symbols": 5, "distinguished": []}, "malformed"),
    "mistyped-norm": ({"symbols": [{**SYMBOL_1, "norm": 5}], "distinguished": ["1"]}, "ambient config is malformed"),
}


@pytest.mark.parametrize("case", sorted(BAD_AMBIENT))
def test_malformed_ambient_file_is_an_argument_error(tmp_path, capsys, case):
    doc, message = BAD_AMBIENT[case]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    argv = ["eta0", "--ambient", str(bad), "--seed", "1", "--out", str(tmp_path / "y.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"--ambient {str(bad)!r}" in err and message in err
    assert "Traceback" not in err


# faults in an ambient file's symbol, met by `norm` on a d=2, level-3 lift and by `eta0 --dim 2`,
# which checks a file against its own noise dimension, d=1 here, and not against --dim
BAD_SYMBOL = {
    "index-3": ({"indices": [3]}, "symbol 'w' reads component 3, but the path has d=2"),
    "index-0": ({"indices": [0]}, "index must be >= 1, got 0"),
    "index-negative": ({"indices": [-1]}, "index must be >= 1, got -1"),
    "indices-string": ({"indices": "12"}, "index must be an integer, got '1'"),
    "indices-number": ({"indices": 5}, "indices must be a word of integers, got 5"),
    "index-2.0": ({"indices": [2.0]}, "index must be an integer, got 2.0"),
    "degree-2-word-121": ({"symbol": "121", "indices": [1, 2, 1], "degree": 2, "arity": 2},
                          "a degree-2 symbol needs a word of length 2, got (1, 2, 1)"),
    "degree-1-word-12": ({"indices": [1, 2]}, "a degree-1 symbol needs a word of length 1, got (1, 2)"),
    "holder-1.5": ({"norm": {"kind": "holder", "exponent": 1.5}},
                   "symbol 'w': a degree-1 holder exponent must lie in (0, 1], got 1.5"),
    # a stated degree or arity is an integer, not a string or a bool that int() reads as 1
    "degree-string": ({"degree": "1"}, "degree must be an integer, got '1'"),
    "arity-bool": ({"arity": True}, "arity must be an integer, got True"),
}


@pytest.mark.parametrize("command", ["norm", "eta0"])
@pytest.mark.parametrize("case", sorted(BAD_SYMBOL))
def test_ambient_symbol_outside_the_path_is_an_argument_error(tmp_path, capsys, case, command):
    fields, message = BAD_SYMBOL[case]
    amb = tmp_path / "amb.json"
    amb.write_text(json.dumps({"symbols": [SYMBOL_1, {**SYMBOL_1, "symbol": "w", **fields}], "distinguished": ["1"]}))
    if command == "norm":
        lift_json = tmp_path / "lift.json"
        assert main(["lift", "--dim", "2", "--steps", "8", "--level", "3", "--seed", "1",
                     "--out", str(lift_json)]) == 0
        argv = ["norm", "--in", str(lift_json), "--ambient", str(amb)]
    else:
        argv = ["eta0", "--ambient", str(amb), "--dim", "2", "--seed", "1"]
        message = message.replace("d=2", "d=1")
    out = tmp_path / "y.json"
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"--ambient {str(amb)!r}: {message}" in err
    assert "Traceback" not in err and not out.exists()


def test_eta0_file_ambient_brings_its_own_noise_dimension(tmp_path, monkeypatch, capsys):
    # two distinguished sup symbols make the skeleton two-dimensional, whatever --dim says
    amb = tmp_path / "amb2.json"
    amb.write_text(json.dumps({"symbols": [SYMBOL_1, {**SYMBOL_1, "symbol": "2", "indices": [2]}],
                               "distinguished": ["1", "2"]}))
    outputs = []
    for run, dim in (("default", []), ("dim-3", ["--dim", "3"])):
        (tmp_path / run).mkdir()
        monkeypatch.chdir(tmp_path / run)
        argv = ["eta0", "--ambient", str(amb), *dim, "--segments", "4", "--restarts", "1",
                "--seed", "1", "--out", "e.json"]
        assert main(argv) == 0
        outputs.append(Path("e.json").read_bytes())
    assert outputs[0] == outputs[1]
    doc = json.loads(outputs[0])
    assert doc["config"]["dim"] == 2 and len(doc["results"]["argmin_derivative"][0]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_eta0_refuses_an_ambient_wider_than_its_noise(tmp_path, capsys):
    # one distinguished symbol makes the skeleton one-dimensional; symbol '2' reads past it
    amb = tmp_path / "amb.json"
    amb.write_text(json.dumps({"symbols": [SYMBOL_1, {**SYMBOL_1, "symbol": "2", "indices": [2]}],
                               "distinguished": ["1"]}))
    out = tmp_path / "e.json"
    argv = ["eta0", "--ambient", str(amb), "--dim", "2", "--segments", "4", "--restarts", "1",
            "--seed", "1", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"--ambient {str(amb)!r}: symbol '2' reads component 2, but the path has d=1" in err
    assert "Traceback" not in err and not out.exists()


def test_norm_refuses_an_ambient_above_the_lift_level(tmp_path, capsys):
    lift_json = tmp_path / "lift.json"
    assert main(["lift", "--dim", "2", "--steps", "8", "--seed", "1", "--out", str(lift_json)]) == 0
    capsys.readouterr()
    assert main(["norm", "--in", str(lift_json), "--ambient", "level3:2.5"]) == 2
    err = capsys.readouterr().err
    assert "--ambient 'level3:2.5': symbol '111' has degree 3, but the lift stops at level 2" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("ambient", [[], ["--ambient", "level2:2.5"]], ids=["alone", "with-ambient"])
def test_norm_refuses_a_lift_document_that_embeds_an_ambient(tmp_path, capsys, ambient):
    # an ambient is given with --ambient; one embedded in the document is refused, not read or ignored
    lift_json = tmp_path / "lift.json"
    assert main(["lift", "--dim", "2", "--steps", "8", "--seed", "1", "--out", str(lift_json)]) == 0
    doc = json.loads(lift_json.read_text())
    doc["ambient"] = ambient_for_levels(2, 2).to_config()
    lift_json.write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "n.json"
    assert main(["norm", "--in", str(lift_json), *ambient, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{lift_json}: enhanced-path document has an 'ambient' field" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_every_preset_config_reads_back_and_writes_degree_and_arity(dim):
    # a config still states each symbol's degree and arity, and they agree with its word
    for preset in ("classical", "classical:pvar", "classical:holder", "terminal",
                   "level1:2.5", "level2:2.5", "level3:2.5", "holder2:0.4"):
        ambient = _parse_ambient(preset, dim)
        cfg = ambient.to_config()
        assert AmbientSpec.from_config(cfg) == ambient
        for entry in cfg["symbols"]:
            assert set(entry) == {"symbol", "indices", "degree", "norm", "arity"}
            assert entry["degree"] == len(entry["indices"])
            assert entry["arity"] == (1 if entry["degree"] == 1 else 2)


def test_argument_error_exit_code(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--process", "bm", "--dim", "1", "--steps", "8",
              "--horizon", "1", "--out", str(tmp_path / "x.csv")])  # no --seed
    assert exc.value.code == 2


def test_selftest_passes():
    assert main(["selftest"]) == 0


BAD_CSV = {
    "header-only-csv": "t,x1\n",
    "ragged-csv": "t,x1\n0.0,0.0\n0.5\n1.0,0.3\n",
    "no-value-column-csv": "t\n0.0\n0.5\n1.0\n",
    "nan-value-csv": "t,x1\n0,0\n0.5,nan\n1,1\n",
    "zero-horizon-csv": "t,x1\n0,0\n0,1\n",
}
# faults put into an n=8, d=1 enhanced-path document, and the message each one gets
BAD_LIFT = {
    "json-without-grid": (lambda doc: doc.pop("grid"), "enhanced-path document lacks field 'grid'"),
    "json-short-level2": (lambda doc: doc.update(level2={"shape": [8, 1, 1], "data": [0.0] * 8}),
                          "base2 has shape (8, 1, 1), expected (9, 1, 1)"),
    "json-flat-level3": (lambda doc: doc.update(level3={"shape": [9, 1, 1], "data": [0.0] * 9}),
                         "base3 has shape (9, 1, 1), expected (9, 1, 1, 1)"),
    "json-list-grid": (lambda doc: doc.update(grid=[1, 2]), "enhanced-path document is malformed"),
    "json-inf-horizon": (lambda doc: doc["grid"].update(horizon=math.inf), "horizon must be positive and finite"),
    "json-float-steps": (lambda doc: doc["grid"].update(n_steps=8.0), "n_steps must be an integer, got 8.0"),
    "json-true-horizon": (lambda doc: doc["grid"].update(horizon=True), "horizon must be a real number, got True"),
    "json-nan-level2": (lambda doc: doc["level2"]["data"].__setitem__(5, math.nan),
                        "base2 contains non-finite entries"),
    "json-inf-level2": (lambda doc: doc["level2"]["data"].__setitem__(5, -math.inf),
                        "base2 contains non-finite entries"),
    "json-inf-level3": (lambda doc: doc.update(level3={"shape": [9, 1, 1, 1], "data": [0.0] * 8 + [math.inf]}),
                        "base3 contains non-finite entries"),
}


@pytest.mark.parametrize("case", sorted(BAD_CSV) + sorted(BAD_LIFT))
def test_malformed_input_is_an_argument_error(tmp_path, capsys, case):
    out = tmp_path / "o.json"
    message = ""
    if case in BAD_CSV:
        infile = tmp_path / f"{case}.csv"
        infile.write_text(BAD_CSV[case])
        argv = ["lift", "--in", str(infile), "--out", str(out)]
    else:
        lift_json = tmp_path / "lift.json"
        assert main(["lift", "--steps", "8", "--seed", "1", "--out", str(lift_json)]) == 0
        doc = json.loads(lift_json.read_text())
        fault, message = BAD_LIFT[case]
        fault(doc)
        infile = tmp_path / "bad.json"
        infile.write_text(json.dumps(doc))
        argv = ["norm", "--in", str(infile), "--out", str(out)]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert str(infile) in captured.err and message in captured.err
    assert "Traceback" not in captured.err and not captured.out and not out.exists()


def test_lift_that_overflows_is_a_numerical_failure(tmp_path, capsys):
    # every entry of the path is finite, but its level-2 tensor is not: the lift writes nothing
    infile, out = tmp_path / "big.csv", tmp_path / "l.json"
    infile.write_text("t,x1\n0,0\n0.5,1e200\n1,-1e200\n")
    assert main(["lift", "--in", str(infile), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "base2 contains non-finite entries" in captured.err
    assert "Traceback" not in captured.err and not captured.out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.csv"]


def test_young_lift_whose_slopes_overflow_is_a_numerical_failure(tmp_path, capsys):
    # the dyadic level is valid; a slope past the float range is not its fault
    infile, out = tmp_path / "big.csv", tmp_path / "l.json"
    infile.write_text("t,x1\n0,0\n0.5,1e308\n1,-1e308\n")
    assert main(["lift", "--in", str(infile), "--scheme", "young", "--dyadic-level", "1", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "error: overflow encountered" in captured.err and "--dyadic-level" not in captured.err
    assert "Traceback" not in captured.err and not captured.out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.csv"]


@pytest.mark.parametrize(
    "event, oracle, scheme",
    [("sup-ge:{}", "reflection", "ito"), ("terminal-ge:{}", "terminal-gauss", "stratonovich"),
     ("level2-ge:1,1,{}", "level2-diag-gauss", "stratonovich")],
)
@pytest.mark.parametrize("c", ["0", "-1"])
def test_oracle_at_a_threshold_that_holds_surely(tmp_path, event, oracle, scheme, c):
    # each oracle statistic is >= 0, so at c <= 0 both the oracle and the estimate are log 1 = 0
    out = tmp_path / "o.csv"
    argv = ["ldp", "--event", event.format(c), "--scheme", scheme, "--oracle", oracle,
            "--epsilons", "0.5,0.4,0.1,1e-160", "--samples", "200", "--steps", "8", "--seed", "1", "--out", str(out)]
    assert main(argv) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["scaled"], r["oracle_scaled"], r["censored"]) for r in rows] == [("0.0", "0.0", "0")] * 4


def test_failed_write_keeps_previous_file(tmp_path, monkeypatch):
    lift_json = tmp_path / "lift.json"
    assert main(["lift", "--dim", "2", "--steps", "8", "--seed", "4", "--out", str(lift_json)]) == 0
    out = tmp_path / "norm.json"
    argv = ["norm", "--in", str(lift_json), "--out", str(out), "--force"]
    assert main(argv) == 0
    before = out.read_bytes()
    def dump_then_fail(doc, fh, **kwargs):
        fh.write('{"format_version": ')
        raise TypeError("unserializable value")

    monkeypatch.setattr(json, "dump", dump_then_fail)
    with pytest.raises(TypeError):
        main(argv)
    assert out.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "lift.json", "lift.json.summary.json", "norm.json"
    ]


@pytest.mark.parametrize("ambient", ["level3:2.5", "holder2:0.4"])
def test_norm_memory_is_linear_in_steps(tmp_path, capsys, ambient):
    # one (n+1, n+1) float surface is 8.4 MB at n = 1024; the norms stream columns
    import tracemalloc

    lift_json = tmp_path / "lift.json"
    assert main(["lift", "--dim", "2", "--steps", "1024", "--seed", "3", "--scheme", "stratonovich",
                 "--level", "3", "--out", str(lift_json)]) == 0
    tracemalloc.start()
    try:
        assert main(["norm", "--in", str(lift_json), "--ambient", ambient]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**22


def test_level3_ambient_on_the_batch_route(tmp_path):
    out = tmp_path / "rate.csv"
    rc = main(
        ["ldp", "--dim", "2", "--steps", "8", "--event", "hom-ge:1",
         "--ambient", "level3:2.5", "--epsilons", "1.0,0.8", "--samples", "400",
         "--seed", "2", "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads((tmp_path / "rate.csv.summary.json").read_text())
    assert doc["results"]["hits"][0] > 0


def test_missing_input_file_is_an_argument_error(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    assert main(["lift", "--in", str(missing), "--out", str(tmp_path / "o.json")]) == 2
    err = capsys.readouterr().err
    assert str(missing) in err and "Traceback" not in err
    assert not (tmp_path / "o.json").exists()


def test_oracle_refused_for_its_event_is_an_argument_error(tmp_path, capsys, monkeypatch):
    from wienerlift import asymptotics

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the oracle was refused")

    monkeypatch.setattr(asymptotics, "sample_values_batch", no_sampling)
    out = tmp_path / "x.csv"
    argv = ["ldp", "--dim", "1", "--steps", "16", "--event", "hom-ge:1",
            "--ambient", "holder2:0.4", "--epsilons", "1.0,0.8", "--samples", "2000",
            "--oracle", "reflection", "--seed", "1", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "'reflection' is a closed form for 'sup-level1' events" in err
    assert not out.exists()


BAD_VALUES = {
    # each token is read as a number, a word as NaN, and _check_epsilons judges the list
    "ldp-epsilon-0": (["ldp", "--event", "sup-ge:1", "--epsilons", "0", "--samples", "10"],
                      "argument --epsilons: epsilons must be positive and finite, at least one, "
                      "with eps^2 not 0 or inf, got [0.0] from '0'"),
    "ldp-epsilon-negative": (["ldp", "--event", "sup-ge:1", "--epsilons", "-1", "--samples", "10"],
                             "with eps^2 not 0 or inf, got [-1.0] from '-1'"),
    "ldp-epsilon-word": (["ldp", "--event", "sup-ge:1", "--epsilons", "1,abc", "--samples", "10"],
                         "with eps^2 not 0 or inf, got [1.0, nan] from '1,abc'"),
    "ldp-epsilons-empty": (["ldp", "--event", "sup-ge:1", "--epsilons", ",", "--samples", "10"],
                           "with eps^2 not 0 or inf, got [] from ','"),
    # one epsilon rule: distinct values, each eps^2 neither 0 nor inf
    "ldp-epsilons-repeated": (["ldp", "--event", "sup-ge:1", "--epsilons", "0.5,0.5", "--samples", "10"],
                              "argument --epsilons: epsilons must be distinct, got [0.5, 0.5]"),
    "ldp-epsilon-underflow": (["ldp", "--event", "level2-ge:1,1,0.5", "--epsilons", "1e-200", "--samples", "10"],
                              "argument --epsilons: epsilons must be positive and finite, at least one, "
                              "with eps^2 not 0 or inf, got [1e-200]"),
    "ldp-epsilon-overflow": (["ldp", "--event", "level2-ge:1,1,0.5", "--epsilons", "1e200", "--samples", "10"],
                             "with eps^2 not 0 or inf, got [1e+200]"),
    "ldp-epsilon-overflow-sup": (["ldp", "--event", "sup-ge:1", "--epsilons", "1e300,0.5", "--samples", "10"],
                                 "with eps^2 not 0 or inf, got [1e+300, 0.5]"),
    "ldp-threshold-word": (["ldp", "--event", "sup-ge:abc", "--epsilons", "1", "--samples", "10"],
                           "--event 'sup-ge:abc': threshold must be finite, got nan"),
    "ldp-threshold-nan": (["ldp", "--event", "sup-ge:nan", "--epsilons", "1", "--samples", "10"],
                          "--event 'sup-ge:nan': threshold must be finite, got nan"),
    "ldp-threshold-inf": (["ldp", "--event", "sup-ge:inf", "--epsilons", "1", "--samples", "10"],
                          "--event 'sup-ge:inf': threshold must be finite, got inf"),
    # the kind is looked up before the threshold
    "ldp-event-kind-unknown": (["ldp", "--event", "foo", "--epsilons", "1", "--samples", "10"],
                               "--event kind 'foo' unknown"),
    "ldp-event-no-threshold": (["ldp", "--event", "sup-ge", "--epsilons", "1", "--samples", "10"],
                               "--event 'sup-ge' is missing its threshold"),
    "ldp-entry-word": (["ldp", "--event", "level2-ge:a,1,0.5", "--epsilons", "1",
                        "--samples", "10"],
                       "--event 'level2-ge:a,1,0.5': entry index must be an integer, got 'a'"),
    "ldp-entry-1.5": (["ldp", "--dim", "2", "--event", "level2-ge:1.5,1,1", "--epsilons", "1", "--samples", "10"],
                      "--event 'level2-ge:1.5,1,1': entry index must be an integer, got '1.5'"),
    "ldp-threshold-word-level2": (["ldp", "--event", "level2-ge:1,1,abc", "--epsilons", "1", "--samples", "10"],
                                  "--event 'level2-ge:1,1,abc': threshold must be finite, got nan"),
    "ldp-hom-without-ambient": (["ldp", "--event", "hom-ge:1", "--epsilons", "1", "--samples", "10"],
                                "--event 'hom-ge:1': hom-norm events need an ambient spec"),
    "ldp-entry-0": (["ldp", "--event", "level2-ge:0,1,1", "--epsilons", "1", "--samples", "10"],
                    "--event 'level2-ge:0,1,1': entry index must be >= 1, got 0"),
    "ldp-entry-negative": (["ldp", "--event", "level2-ge:-1,1,1", "--epsilons", "1", "--samples", "10"],
                           "--event 'level2-ge:-1,1,1': entry index must be >= 1, got -1"),
    "ldp-entry-above-dim": (["ldp", "--dim", "2", "--event", "level2-ge:3,1,1", "--epsilons", "1",
                             "--samples", "10"],
                            "--event 'level2-ge:3,1,1': entry (3, 1) reads component 3, but the path has d=2"),
    # TimeGrid owns the horizon rule
    "ldp-horizon-0": (["ldp", "--event", "sup-ge:1", "--epsilons", "1", "--samples", "10",
                       "--horizon", "0"],
                      "--horizon: horizon must be positive and finite, got 0.0"),
    "sample-horizon-negative": (["sample", "--horizon", "-1"],
                                "--horizon: horizon must be positive and finite, got -1.0"),
    "cm-horizon-nan": (["cm-check", "--samples", "10", "--horizon", "nan"],
                       "--horizon: horizon must be positive and finite, got nan"),
    # the shift density is Brownian-only
    "cm-process-fbm": (["cm-check", "--process", "fbm", "--hurst", "0.3", "--samples", "2000", "--steps", "16"],
                       "argument --process: invalid choice: 'fbm'"),
    # GaussianSpec owns the pairing of a Hurst index with the process
    "sample-fbm-without-hurst": (["sample", "--process", "fbm", "--steps", "4"],
                                 "--hurst: hurst must lie in (0,1) for fbm, got None"),
    "sample-bm-with-hurst": (["sample", "--process", "bm", "--hurst", "0.3", "--steps", "4"],
                             "--hurst: a Hurst index describes fbm, not 'bm', got hurst=0.3"),
    "cm-hurst": (["cm-check", "--hurst", "0.3", "--samples", "10", "--steps", "4"],
                 "--hurst: a Hurst index describes fbm, not 'bm', got hurst=0.3"),
    "ldp-fbm-without-hurst": (["ldp", "--process", "fbm", "--event", "sup-ge:1", "--epsilons", "1",
                               "--samples", "10"], "--hurst: hurst must lie in (0,1) for fbm, got None"),
}
# the derived streams stop at index 2**32 - 1, and the ldp pilot takes the 2000 streams after the main run
BAD_VALUES.update(
    (f"{args[0]}-samples-past-the-streams", (args + ["--samples", "4294967297"],
                                             f"argument --samples: expected an integer <= {cap}, got '4294967297'"))
    for args, cap in ((["ldp", "--event", "sup-ge:1", "--epsilons", "0.5"], 4294965296),
                      (["fernique", "--ambient", "level2:2.5"], 4294967296), (["cm-check"], 4294967296))
)
BAD_VALUES["ldp-samples-past-the-pilot"] = (
    ["ldp", "--event", "sup-ge:1", "--epsilons", "0.5", "--samples", "4294967296", "--steps", "4"],
    "argument --samples: expected an integer <= 4294965296, got '4294967296'",
)
BAD_VALUES.update(
    (f"eta0-horizon-{text}", (["eta0", "--ambient", "classical", "--horizon", text],
                              f"--horizon: horizon must be positive and finite, got {float(text)}"))
    for text in ("0", "-1", "nan", "inf")
)
BAD_VALUES.update(
    (f"sample-hurst-{text}", (["sample", "--process", "fbm", "--hurst", text],
                              f"--hurst: hurst must lie in (0,1) for fbm, got {float(text)}"))
    for text in ("1.5", "nan", "0", "1", "-0.3", "inf")
)
BAD_VALUES["sample-hurst-abc"] = (["sample", "--process", "fbm", "--hurst", "abc"],
                                  "argument --hurst: invalid float value: 'abc'")
BAD_VALUES.update(
    (f"cm-shift-{text}", (["cm-check", "--samples", "10", "--shift", text], f"--shift {text!r}: {message}"))
    for text, message in (
        ("ramp:abc", "derivative_values contains non-finite entries"),
        ("ramp:nan", "derivative_values contains non-finite entries"),
        ("ramp:-inf", "derivative_values contains non-finite entries"),
        ("onb:0", "k must be >= 1, got 0"),
        ("onb:x", "k must be an integer, got 'x'"),
        ("onb:1.5", "k must be an integer, got '1.5'"),
    )
)
# brownian_onb is one-dimensional, and the shift fits the run's --dim through check_fits
BAD_VALUES["cm-shift-onb-dim-2"] = (["cm-check", "--samples", "10", "--shift", "onb:1", "--dim", "2"],
                                    "--shift 'onb:1': dimension mismatch: the shift has d=1, its partner d=2")
# the norm-equivalence probe owns its p/q rule
BAD_VALUES.update(
    (f"chaos-p-q-{'-'.join(pq)}", (["chaos", "norm-equiv", "--p", pq[0], "--q", pq[1]],
                                   f"--p {pq[0]} --q {pq[1]}: need 1 < p <= q < inf, got p={pq[0]}, q={pq[1]}"))
    for pq in (("0.5", "4.0"), ("nan", "4.0"), ("1.0", "4.0"), ("3.0", "2.0"), ("2.0", "inf"))
)
BAD_VALUES.update({
    "chaos-degree-5": (["chaos", "norm-equiv", "--degree", "5"], "argument --degree: expected an integer <= 4, got '5'"),
    "chaos-dim-4": (["chaos", "norm-equiv", "--dim", "4"], "argument --dim: expected an integer <= 3, got '4'"),
    # about (k q)^dimension quadrature nodes: 242^3 at q = 60, degree 4 and dimension 3
    "chaos-q-60": (["chaos", "norm-equiv", "--degree", "4", "--dim", "3", "--q", "60"],
                   "--p 2.0 --q 60.0: q=60.0 at degree 4 and dimension 3 needs 14172488 quadrature nodes, "
                   "above the bound of 1000000"),
    "chaos-shift-vector-word": (["chaos", "proxy", "--poly", "GRADED", "--shift-vector", "1,abc"],
                                "--shift-vector '1,abc': h contains non-finite entries"),
    "chaos-shift-vector-nan": (["chaos", "proxy", "--poly", "GRADED", "--shift-vector", "nan,1"],
                               "--shift-vector 'nan,1': h contains non-finite entries"),
    "chaos-shift-vector-length": (["chaos", "proxy", "--poly", "GRADED", "--shift-vector", "1,2,3"],
                                  "--shift-vector '1,2,3': h has shape (3,), expected (2)"),
    "chaos-samples-10": (["chaos", "proxy", "--poly", "GRADED", "--shift-vector", "1,2", "--samples", "10"],
                         "argument --samples: expected an integer >= 1000, got '10'"),
    "lift-dyadic-level-9": (["lift", "--scheme", "young", "--dyadic-level", "9", "--steps", "256"],
                            "--dyadic-level 9: 2^9 must divide the path's 256 steps"),
    "lift-dyadic-level-3": (["lift", "--scheme", "young", "--dyadic-level", "3", "--steps", "12"],
                            "--dyadic-level 3: 2^3 must divide the path's 12 steps"),
    "lift-dyadic-level-1000000": (["lift", "--scheme", "young", "--dyadic-level", "1000000", "--steps", "8"],
                                  "--dyadic-level 1000000: 2^1000000 must divide the path's 8 steps"),
})
BAD_VALUES.update(
    (f"eta0-ambient-{text}", (["eta0", "--ambient", text], f"--ambient {text!r}: {message}"))
    for text, message in (
        ("level2:abc", "pvar exponent must be finite and >= 1, got nan"),
        ("level2:nan", "pvar exponent must be finite and >= 1, got nan"),
        ("level3:-1", "pvar exponent must be finite and >= 1, got -1.0"),
        # level 1 takes p itself: a p below 1 is refused, not raised to 1
        ("level2:0.5", "pvar exponent must be finite and >= 1, got 0.5"),
        ("holder2:0", "holder exponent must lie in (0, 2], got 0.0"),
        ("holder2:1.5", "holder exponent must lie in (0, 2], got 3.0"),
        ("classical:foo", "norm kind must be one of"),
    )
)


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_malformed_value_is_an_argument_error(tmp_path, capsys, case):
    args, message = BAD_VALUES[case]
    if "GRADED" in args:  # a graded family on R^2
        graded = GradedChaos(2, components={"a": ChaosPolynomial(2, {(1, 0): 1.0})}, degrees={"a": 1})
        (tmp_path / "graded.json").write_text(json.dumps(chaos_to_document(graded)))
        args = [str(tmp_path / "graded.json") if a == "GRADED" else a for a in args]
    out = tmp_path / "o.csv"
    try:
        code = main(args + ["--seed", "1", "--out", str(out)])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err and not out.exists()


def test_eta0_digest_counts_converged_restarts(tmp_path, capsys):
    out = tmp_path / "eta0.json"
    argv = ["eta0", "--ambient", "classical:sup", "--segments", "4", "--restarts", "3",
            "--seed", "2", "--out", str(out)]
    assert main(argv) == 0
    results = json.loads(out.read_text())["results"]
    assert len(results["evaluations"]) == len(results["converged"]) == 3
    converged = sum(results["converged"])
    assert f"({converged} of 3 restarts converged)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "args",
    [
        ["sample"],
        ["lift"],
        ["ldp", "--event", "sup-ge:1", "--epsilons", "1", "--samples", "10"],
        ["eta0", "--ambient", "classical"],
        ["fernique", "--ambient", "level2:2.5", "--samples", "10000"],
        ["cm-check", "--samples", "10"],
        ["chaos", "norm-equiv"],
    ],
)
def test_negative_seed_is_an_argument_error(tmp_path, capsys, args):
    out = tmp_path / "o.csv"
    with pytest.raises(SystemExit) as exc:
        main(args + ["--seed", "-1", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --seed: expected an integer >= 0, got '-1'" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize(
    "args, option",
    [
        (["chaos", "project", "--poly", "p.json", "--seed", "1"], "--seed"),
        (["chaos", "project", "--poly", "p.json", "--samples", "2000"], "--samples"),
        (["chaos", "norm-equiv", "--poly", "p.json", "--seed", "1"], "--poly"),
        (["chaos", "proxy", "--poly", "p.json", "--shift-vector", "1", "--seed", "1", "--trials", "5"], "--trials"),
    ],
)
def test_option_the_action_does_not_read_is_an_argument_error(tmp_path, capsys, args, option):
    out = tmp_path / "c.json"
    with pytest.raises(SystemExit) as exc:
        main(args + ["--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {option}" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("source", [[], ["--in", "p.csv", "--seed", "1"]])
def test_lift_takes_exactly_one_of_in_and_seed(tmp_path, capsys, source):
    out = tmp_path / "l.json"
    with pytest.raises(SystemExit) as exc:
        main(["lift", *source, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--in" in err and "--seed" in err
    assert "Traceback" not in err and not out.exists()


def test_out_in_a_missing_directory_is_an_argument_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert main(["sample", "--steps", "4", "--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"--out {str(out)!r}: directory {str(tmp_path / 'missing')!r} does not exist" in err
    assert "Traceback" not in err and not (tmp_path / "missing").exists()


def test_out_naming_a_directory_is_an_argument_error(tmp_path, capsys):
    target = tmp_path / "d"
    target.mkdir()
    assert main(["sample", "--steps", "4", "--seed", "1", "--out", str(target), "--force"]) == 2
    err = capsys.readouterr().err
    assert f"--out {str(target)!r} is a directory" in err
    assert "Traceback" not in err
    assert list(target.iterdir()) == [] and not (tmp_path / "d.summary.json").exists()


@pytest.mark.parametrize("out", ["", "missing/"])
def test_out_naming_no_file_is_refused_before_the_command_runs(tmp_path, capsys, monkeypatch, out):
    from wienerlift import cli

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_cmd_cm_check", lambda args: pytest.fail("cm-check ran"))
    assert main(["cm-check", "--samples", "2000", "--steps", "8", "--seed", "1", "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"error: --out {out!r} names no file" in err
    assert "Traceback" not in err and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "option", [["--process", "fbm"], ["--dim", "3"], ["--steps", "8"], ["--horizon", "2"], ["--hurst", "0.3"]]
)
def test_lift_in_refuses_the_process_options(tmp_path, capsys, option):
    path = tmp_path / "p.csv"
    path.write_text("t,x1\n0,0\n0.5,0.25\n1,-0.5\n")
    out = tmp_path / "l.json"
    assert main(["lift", "--in", str(path), *option, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{option[0]} describes a sampled path; --in reads its path from the file" in err
    assert "Traceback" not in err and not out.exists()


def test_lift_seed_summary_records_the_process_defaults(tmp_path):
    out = tmp_path / "l.json"
    assert main(["lift", "--seed", "2", "--steps", "8", "--out", str(out)]) == 0
    config = json.loads((tmp_path / "l.json.summary.json").read_text())["config"]
    assert config == {"process": "bm", "dim": 1, "steps": 8, "horizon": 1.0, "hurst": None, "seed": 2,
                      "scheme": "ito", "level": 2, "out": str(out)}


@pytest.mark.parametrize("source", ["seed", "in"])
def test_lift_of_a_one_step_path_has_no_chen_defect(tmp_path, capsys, source):
    # a one-step grid has no dyadic triple, so the Chen check holds vacuously
    path = tmp_path / "p.csv"
    path.write_text("t,x1\n0,0\n1,0.5\n")
    argv = ["--seed", "1", "--steps", "1"] if source == "seed" else ["--in", str(path)]
    out = tmp_path / "l.json"
    assert main(["lift", *argv, "--out", str(out)]) == 0
    summary = json.loads((tmp_path / "l.json.summary.json").read_text())
    assert summary["results"]["max_dyadic_chen_residual"] == 0.0
    assert "chen=0.00e+00" in capsys.readouterr().out


def test_default_threads_are_the_usable_cpus_and_change_no_byte(tmp_path):
    from wienerlift.cli import build_parser

    argv = ["ldp", "--event", "sup-ge:0.7", "--oracle", "reflection", "--epsilons", "0.8,0.6",
            "--samples", "2000", "--steps", "32", "--seed", "3"]
    assert build_parser().parse_args(argv + ["--out", "x"]).threads == len(os.sched_getaffinity(0))

    def run(*threads):
        out = tmp_path / "rate.csv"
        assert main(argv + [*threads, "--out", str(out), "--force"]) == 0
        return out.read_bytes(), (tmp_path / "rate.csv.summary.json").read_bytes()

    assert run() == run("--threads", "1")


def test_out_of_memory_is_a_numerical_failure(tmp_path, monkeypatch, capsys):
    from wienerlift import cli

    def fail(*args, **kwargs):
        raise MemoryError("Unable to allocate 32.0 GiB")

    monkeypatch.setattr(cli, "empirical_rate", fail)
    out = tmp_path / "rate.csv"
    argv = ["ldp", "--event", "sup-ge:1", "--epsilons", "1", "--samples", "1000", "--seed", "1", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error: out of memory: Unable to allocate 32.0 GiB" in err
    assert "Traceback" not in err and not out.exists()


def test_failed_summary_write_leaves_no_older_summary(tmp_path, monkeypatch, capsys):
    from wienerlift import cli

    out = tmp_path / "rate.csv"
    summary = tmp_path / "rate.csv.summary.json"
    argv = ["ldp", "--event", "sup-ge:1", "--epsilons", "1", "--samples", "1000", "--steps", "8",
            "--out", str(out), "--force"]
    assert main(argv + ["--seed", "1"]) == 0
    first = out.read_bytes()
    assert json.loads(summary.read_text())["config"]["seed"] == 1

    def fail(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "_write_summary", fail)
    assert main(argv + ["--seed", "2"]) == 1
    assert "disk full" in capsys.readouterr().err
    assert out.read_bytes() != first
    assert not summary.exists()


def test_arithmetic_overflow_is_a_numerical_failure(tmp_path, monkeypatch, capsys):
    from wienerlift import cli

    def fail(*args, **kwargs):
        raise OverflowError("(34, 'Numerical result out of range')")

    monkeypatch.setattr(cli, "empirical_rate", fail)
    out = tmp_path / "rate.csv"
    argv = ["ldp", "--event", "sup-ge:1", "--epsilons", "1", "--samples", "1000", "--seed", "1", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error: (34, 'Numerical result out of range')" in err
    assert "Traceback" not in err and list(tmp_path.iterdir()) == []


def test_fernique_threshold_whose_square_overflows_is_a_numerical_failure(tmp_path, capsys):
    # norms near 1e154 put t^2 above the largest float: once "error: (34, 'Numerical result out of range')"
    out = tmp_path / "tail.csv"
    argv = ["fernique", "--ambient", "classical:sup", "--dim", "1", "--horizon", "1e308", "--samples", "10000",
            "--steps", "8", "--seed", "1", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error: tail thresholds overflow: t^2 is not finite at t=" in err
    assert "Traceback" not in err and list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("ignore:epsilon=")
def test_ldp_digest_says_why_no_rate_was_fitted(tmp_path, capsys):
    # 100 samples: no epsilon has 30 hits, so the fit has no point
    argv = ["ldp", "--event", "sup-ge:1", "--epsilons", "0.5,0.4", "--samples", "100", "--steps", "4",
            "--seed", "1", "--out", str(tmp_path / "r.csv")]
    assert main(argv) == 0
    assert "extrapolated_rate=nan (fewer than two epsilons with 30 <= hits <= samples/10" in capsys.readouterr().out


@pytest.mark.parametrize("oracle", ["reflection", "terminal-gauss"])
def test_oracle_threshold_whose_limit_overflows_is_an_argument_error(tmp_path, capsys, oracle):
    # the limit -a^2/2 with a = c / sqrt(T) overflows: once an OverflowError traceback
    event = "sup-ge:1e200" if oracle == "reflection" else "terminal-ge:1e200"
    argv = ["ldp", "--event", event, "--oracle", oracle, "--scheme", "ito", "--epsilons", "0.5",
            "--samples", "100", "--steps", "4", "--seed", "1", "--out", str(tmp_path / "big.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: --event '{event}': threshold 1e+200 puts the '{oracle}' oracle's limit" in err
    assert "Traceback" not in err and list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("ignore:epsilon=")
def test_oracle_where_z_overflows_reports_its_finite_limit(tmp_path):
    # z = 1e150 / 1e-160 overflows; the value at eps = 1e-160 was -inf, its limit is -c^2/2 = -5e299
    out = tmp_path / "inf.csv"
    argv = ["ldp", "--event", "sup-ge:1e150", "--oracle", "reflection", "--scheme", "ito",
            "--epsilons", "1e-160,0.5", "--samples", "100", "--steps", "4", "--seed", "1", "--out", str(out)]
    assert main(argv) == 0
    oracle = {row["epsilon"]: float(row["oracle_scaled"]) for row in csv.DictReader(out.open())}
    assert oracle["1e-160"] == pytest.approx(-5e299, rel=1e-14)
    assert math.isfinite(oracle["0.5"])


def test_shift_of_infinite_energy_is_an_argument_error(tmp_path, capsys):
    # the slope is finite but |h|^2_H = 1e400 is not: this run once exited 0 with every z at 0.0
    argv = ["cm-check", "--shift", "ramp:1e200", "--samples", "1000", "--steps", "8", "--seed", "1",
            "--out", str(tmp_path / "cm.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error: --shift 'ramp:1e200': the shift's energy |h|^2_H is inf" in err
    assert "Traceback" not in err and list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cm_check_difference_without_spread_reads_inf(tmp_path, capsys):
    out = tmp_path / "cm.json"
    argv = ["cm-check", "--shift", "ramp:1e20", "--samples", "1000", "--steps", "8", "--seed", "1", "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().out.rstrip().endswith("max |z|=inf")
    results = json.loads(out.read_text())["results"]
    rep = results["reweight"]["level2-entry"]
    # the digest prints the infinite z; JSON has no number for it, so the summary writes null
    assert (rep["estimate_lhs"], rep["se_lhs"], rep["estimate_rhs"], rep["z_score"]) == (4.375e39, 0.0, 0.0, None)
    # exp(|h|^2/2) overflows here, so the mgf check is skipped rather than written as Infinity and NaN
    assert (results["mgf_target"], results["mgf_estimate"], results["mgf_se"]) == (None, None, None)


WRITES = {
    "sample": (["sample", "--steps", "4", "--seed", "1"], ["x", "x.summary.json"]),
    "lift": (["lift", "--seed", "1", "--steps", "4"], ["x", "x.summary.json"]),
    "ldp": (["ldp", "--steps", "4", "--event", "sup-ge:1", "--epsilons", "1", "--samples", "100", "--seed", "1"],
            ["x", "x.summary.json"]),
    "fernique": (["fernique", "--dim", "1", "--steps", "4", "--ambient", "classical", "--samples", "10000",
                  "--seed", "1"], ["x", "x.summary.json"]),
    "eta0": (["eta0", "--ambient", "classical", "--segments", "2", "--restarts", "1", "--seed", "1"], ["x"]),
    "cm-check": (["cm-check", "--samples", "100", "--steps", "4", "--seed", "1"], ["x"]),
    "norm-equiv": (["chaos", "norm-equiv", "--trials", "2", "--dim", "1", "--seed", "1"], ["x"]),
}


@pytest.mark.filterwarnings("ignore:epsilon=")
@pytest.mark.parametrize("command", sorted(WRITES))
def test_each_command_writes_the_files_its_parser_declares(tmp_path, capsys, command):
    argv, files = WRITES[command]
    assert main(argv + ["--out", str(tmp_path / "x")]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == files
    assert capsys.readouterr().out.count("\n") == 1


# runs whose results hold a non-finite float: a censored epsilon's NaN, an infinite z-score
NON_FINITE_RUNS = {
    "ldp-censored": (["ldp", "--steps", "16", "--event", "sup-ge:1", "--epsilons", "0.6,0.01", "--samples", "500",
                      "--seed", "3"], "x.summary.json"),
    "cm-check-infinite-z": (["cm-check", "--shift", "ramp:1e20", "--samples", "1000", "--steps", "8", "--seed", "1"],
                            "x"),
}


def _not_json(constant: str):
    raise ValueError(f"{constant} is not JSON")


@pytest.mark.filterwarnings("ignore:epsilon=")
@pytest.mark.parametrize("command", sorted(WRITES) + sorted(NON_FINITE_RUNS))
def test_every_summary_is_strict_json(tmp_path, command):
    # once a censored epsilon's NaN was written bare, and a strict JSON reader refused the summary
    if command in NON_FINITE_RUNS:
        argv, summary = NON_FINITE_RUNS[command]
    else:
        argv, summary = WRITES[command][0], WRITES[command][1][-1]
    assert main(argv + ["--out", str(tmp_path / "x")]) == 0
    results = json.loads((tmp_path / summary).read_text(), parse_constant=_not_json)["results"]
    if command == "ldp-censored":
        assert results["scaled"][-1] is None and results["extrapolated_rate"] is None
    if command == "cm-check-infinite-z":
        assert results["reweight"]["level2-entry"]["z_score"] is None


def test_chaos_project_leaves_a_summary_beside_its_out_alone(tmp_path):
    # project writes its data alone, so a file beside it is not its summary to remove
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps(chaos_to_document(ChaosPolynomial(1, {(2,): 1.0}))))
    out, beside = tmp_path / "proj.json", tmp_path / "proj.json.summary.json"
    beside.write_text("unrelated")
    assert main(["chaos", "project", "--poly", str(poly), "--out", str(out), "--force"]) == 0
    assert out.exists() and beside.read_text() == "unrelated"


def test_norm_checks_out_before_it_reads_its_input(tmp_path, capsys):
    # every command refuses its --out before any work, so norm no longer reads --in first
    out = tmp_path / "norm.json"
    out.write_text("{}")
    assert main(["norm", "--in", str(tmp_path / "missing.json"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--out target" in err and "missing.json" not in err
    assert out.read_text() == "{}"


SRC = str(Path(wienerlift.__file__).resolve().parents[1])
SCIPY_MODULES = 'sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))'


def _fresh_python(code: str, cwd) -> dict:
    """Run `code` in a new interpreter on this package; its last stdout line is JSON."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_and_selftest_load_no_scipy(tmp_path):
    code = (
        "import json, sys\n"
        "import wienerlift, wienerlift.cli\n"
        f"imported = {SCIPY_MODULES}\n"
        "rc = wienerlift.cli.main(['selftest'])\n"
        f"print(json.dumps({{'rc': rc, 'imported': imported, 'after': {SCIPY_MODULES}}}))\n"
    )
    report = _fresh_python(code, tmp_path)
    assert report == {"rc": 0, "imported": [], "after": []}


@pytest.mark.parametrize(
    "event, oracle",
    [("sup-ge:1", "reflection"), ("level2-ge:1,1,0.5", "level2-diag-gauss")],
)
def test_oracle_run_loads_scipy_special(tmp_path, event, oracle):
    argv = ["ldp", "--steps", "16", "--event", event, "--oracle", oracle, "--epsilons", "0.5",
            "--samples", "500", "--seed", "1", "--out", str(tmp_path / "o.csv")]
    code = (
        "import json, sys\n"
        "from wienerlift.cli import main\n"
        f"rc = main({argv!r})\n"
        "print(json.dumps({'rc': rc, 'special': 'scipy.special' in sys.modules}))\n"
    )
    assert _fresh_python(code, tmp_path) == {"rc": 0, "special": True}
    oracle_values = json.loads((tmp_path / "o.csv.summary.json").read_text())["results"]["oracle_values"]
    assert len(oracle_values) == 1 and math.isfinite(oracle_values[0])
