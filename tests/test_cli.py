import json

import numpy as np
import pytest

from wienerlift.chaos import ChaosPolynomial, GradedChaos, chaos_to_document
from wienerlift.cli import main


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
        (["proxy", "--shift-vector", "0.4"], "--poly"),
        (["proxy", "--poly", "p.json"], "--shift-vector"),
    ],
)
def test_chaos_missing_option_is_an_argument_error(tmp_path, capsys, args, option):
    argv = ["chaos"] + args + ["--seed", "1", "--out", str(tmp_path / "c.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert option in err and "Traceback" not in err


@pytest.mark.parametrize(
    "content, message",
    [
        (json.dumps({"format_version": "chaos/v1"}), "lacks field 'dimension'"),
        (json.dumps({"format_version": "chaos/v1", "dimension": 2}), "lacks field 'terms'"),
        ("not json", "Expecting value"),
    ],
)
@pytest.mark.parametrize("action", ["project", "proxy"])
def test_malformed_chaos_document_is_an_argument_error(tmp_path, capsys, action, content, message):
    poly = tmp_path / "f.json"
    poly.write_text(content)
    out = tmp_path / "c.json"
    argv = ["chaos", action, "--poly", str(poly), "--shift-vector", "0.4", "--seed", "1",
            "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(poly) in err and message in err
    assert "Traceback" not in err and not out.exists()


SYMBOL_1 = {"symbol": "1", "indices": [0], "degree": 1, "norm": {"kind": "sup"}, "arity": 1}
BAD_AMBIENT = {
    "symbols": ({"a": 1}, "lacks field 'symbols'"),
    "distinguished": ({"symbols": [SYMBOL_1]}, "lacks field 'distinguished'"),
    "indices": (
        {"symbols": [{k: v for k, v in SYMBOL_1.items() if k != "indices"}],
         "distinguished": ["1"]},
        "lacks field 'indices'",
    ),
    "mistyped": ({"symbols": 5, "distinguished": []}, "malformed"),
}


@pytest.mark.parametrize("case", sorted(BAD_AMBIENT))
def test_malformed_ambient_file_is_an_argument_error(tmp_path, capsys, case):
    doc, message = BAD_AMBIENT[case]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    argv = ["eta0", "--ambient", str(bad), "--seed", "1", "--out", str(tmp_path / "y.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and message in err
    assert "Traceback" not in err


def test_argument_error_exit_code(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--process", "bm", "--dim", "1", "--steps", "8",
              "--horizon", "1", "--out", str(tmp_path / "x.csv")])  # no --seed
    assert exc.value.code == 2


def test_selftest_passes():
    assert main(["selftest"]) == 0


BAD_CSV = {"header-only-csv": "t,x1\n", "ragged-csv": "t,x1\n0.0,0.0\n0.5\n1.0,0.3\n"}


@pytest.mark.parametrize("case", sorted(BAD_CSV) + ["json-without-grid"])
def test_malformed_input_is_an_argument_error(tmp_path, capsys, case):
    if case in BAD_CSV:
        infile = tmp_path / f"{case}.csv"
        infile.write_text(BAD_CSV[case])
        argv = ["lift", "--in", str(infile), "--out", str(tmp_path / "o.json")]
    else:
        lift_json = tmp_path / "lift.json"
        assert main(["lift", "--steps", "8", "--seed", "1", "--out", str(lift_json)]) == 0
        doc = json.loads(lift_json.read_text())
        del doc["grid"]
        infile = tmp_path / "nogrid.json"
        infile.write_text(json.dumps(doc))
        argv = ["norm", "--in", str(infile)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(infile) in err
    assert "Traceback" not in err


def test_failed_write_keeps_previous_file(tmp_path, monkeypatch):
    from wienerlift import cli

    lift_json = tmp_path / "lift.json"
    assert main(["lift", "--dim", "2", "--steps", "8", "--seed", "4", "--out", str(lift_json)]) == 0
    out = tmp_path / "norm.json"
    argv = ["norm", "--in", str(lift_json), "--out", str(out), "--force"]
    assert main(argv) == 0
    before = out.read_bytes()
    # json.dump has written part of the document when it meets this value
    monkeypatch.setattr(cli, "banach_norm", lambda gv: object())
    with pytest.raises(TypeError):
        main(argv)
    assert out.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "lift.json", "lift.json.summary.json", "norm.json"
    ]


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
