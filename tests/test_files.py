"""The file layer: atomic writes, data before summary, readers that name the file."""

import csv
import json

import pytest

from wienerlift.cli import main
from wienerlift.grids import GaussianSpec, TimeGrid, sample, write_path_csv
from wienerlift.lifts import save_enhanced, stratonovich_lift
from wienerlift.seminorms import ambient_for_levels


class DiskFull(Exception):
    """Raised part-way through a write; `main` does not catch it, so it reaches the test."""


def _json_dump_then_fail(doc, fh, **kwargs):
    fh.write('{"format_version": ')
    raise DiskFull


class _CsvWriterThenFail:
    def __init__(self, fh, *args, **kwargs):
        self.fh = fh

    def writerow(self, row):
        self.fh.write("t,x1\n0.0,")
        raise DiskFull


def _break_serializers(monkeypatch):
    monkeypatch.setattr(json, "dump", _json_dump_then_fail)
    monkeypatch.setattr(csv, "writer", _CsvWriterThenFail)


PATH = sample(GaussianSpec("bm", 2), TimeGrid(1.0, 8), seed=3)
WRITERS = {
    "write_path_csv": lambda target: write_path_csv(PATH, target),
    "save_enhanced": lambda target: save_enhanced(stratonovich_lift(PATH, level=3), target),
    "AmbientSpec.save": lambda target: ambient_for_levels(2, 3).save(target),
}  # a CLI summary: test_cli.py::test_failed_write_keeps_previous_file


@pytest.mark.parametrize("case", sorted(WRITERS))
def test_failed_write_leaves_the_previous_file(tmp_path, monkeypatch, case):
    target = tmp_path / "out"
    WRITERS[case](target)
    before = target.read_bytes()
    _break_serializers(monkeypatch)
    with pytest.raises(DiskFull):
        WRITERS[case](target)
    assert target.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


DATA_AND_SUMMARY = {
    "ldp": ["ldp", "--steps", "8", "--event", "sup-ge:1", "--epsilons", "1.0", "--samples", "400"],
    "fernique": ["fernique", "--dim", "1", "--steps", "8", "--ambient", "classical", "--samples", "10000"],
}


@pytest.mark.parametrize("command", sorted(DATA_AND_SUMMARY))
def test_failed_data_write_leaves_no_summary(tmp_path, monkeypatch, command):
    out = tmp_path / "data.csv"
    monkeypatch.setattr(csv, "writer", _CsvWriterThenFail)
    with pytest.raises(DiskFull):
        main(DATA_AND_SUMMARY[command] + ["--seed", "1", "--out", str(out)])
    assert list(tmp_path.iterdir()) == []


MALFORMED_JSON = {
    "--in": ["norm", "--in", "BAD"],
    "--ambient": ["eta0", "--ambient", "BAD", "--seed", "1", "--out", "OUT"],
    "--poly": ["chaos", "project", "--poly", "BAD", "--out", "OUT"],
}


@pytest.mark.parametrize("option", sorted(MALFORMED_JSON))
def test_malformed_json_input_is_an_argument_error(tmp_path, capsys, option):
    bad, out = tmp_path / "bad.json", tmp_path / "out.json"
    bad.write_text('{"format_version": ')
    argv = [{"BAD": str(bad), "OUT": str(out)}.get(arg, arg) for arg in MALFORMED_JSON[option]]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "Expecting value" in err
    assert "Traceback" not in err and not out.exists()
