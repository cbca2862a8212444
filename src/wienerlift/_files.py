"""The one file layer: how every document the package writes is written and read.

Writes are atomic.  The content goes to a temporary file beside the target,
which is moved onto it only once complete, so a failed write leaves any
previous file as it was and no temporary file behind.  Readers name the file
in every ValueError they raise, and word a missing or mistyped field one way
(`document_fields`).  Standard library only.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os


@contextlib.contextmanager
def replacing(path):
    """Yield a temporary name beside `path`, moved onto `path` if the block completes, else removed."""
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_json(path, doc: dict, indent: int | None = None) -> None:
    """`doc` as JSON with sorted keys: on one line by default, `indent` for documents read by people."""
    with replacing(path) as tmp, open(tmp, "w") as fh:
        json.dump(doc, fh, indent=indent, sort_keys=True)


def write_csv_rows(path, rows) -> None:
    """One CSV line per row; floats as their repr, so they read back to the same bits."""
    with replacing(path) as tmp, open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def read_file(path, parse):
    """parse(the open text file at `path`), for every reader: a ValueError names the file."""
    try:
        with open(path, newline="") as fh:
            return parse(fh)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def read_json(path, from_document):
    """from_document(the JSON content of `path`); a ValueError names the file."""
    return read_file(path, lambda fh: from_document(json.load(fh)))


@contextlib.contextmanager
def document_fields(kind: str):
    """Report a missing field read inside as "{kind} lacks field 'x'" and a mistyped one as "{kind} is malformed"."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{kind} lacks field {exc.args[0]!r}") from None
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"{kind} is malformed: {exc}") from None


def check_format(doc, expected: str) -> None:
    """Refuse a document whose `format_version` is not `expected`."""
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if version != expected:
        raise ValueError(f"unsupported format_version {version!r}, expected {expected!r}")
