"""Structure-file serialization and report emission.

Structure files are schema-versioned JSON.  Top level:

    {"schema_version": 1, "n": 2,
     "C": [{"j": 2, "i": 1, "k": 2, "re": 0.0, "im": 0.707...}],
     "D": [...],
     "metadata": {"name": "...", "provenance": "..."}}      (optional)

Indices are 1-based.  C stores only entries with i < k (the parser
completes the antisymmetric partner); D is stored in full.  Missing
entries default to zero, unknown fields are rejected, and floats are
emitted as the shortest decimal that reads back as the same double
(json.dumps), so parse(emit(U)) is exact and emit(parse(emit(U))) is
byte-identical.  The parser accepts a metadata provenance; the emitter
writes only a name.
"""

from __future__ import annotations

import io
import csv
import json

import numpy as np

from .core import FlatnessSummary, UnitaryStructure
from .exceptions import ParseError

SCHEMA_VERSION = 1

_ENTRY_FIELDS = {"j", "i", "k", "re", "im"}
_TOP_FIELDS = {"schema_version", "n", "C", "D", "metadata"}
_META_FIELDS = {"name", "provenance"}


def _is_int(value) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def parse_structure(data: bytes | str) -> UnitaryStructure:
    """Parse and validate a structure file; errors carry the location."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"file is not UTF-8: {exc}") from exc
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top level must be a JSON object")
    unknown = set(doc) - _TOP_FIELDS
    if unknown:
        raise ParseError(f"unknown top-level fields: {sorted(unknown)}")
    for req in ("schema_version", "n", "C", "D"):
        if req not in doc:
            raise ParseError(f"missing required field {req!r}")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ParseError(
            f"unsupported schema_version {doc['schema_version']!r} (want {SCHEMA_VERSION})"
        )
    n = doc["n"]
    if not _is_int(n) or n < 1:
        raise ParseError(f"n must be a positive integer, got {n!r}")
    meta = doc.get("metadata", {})
    if not isinstance(meta, dict) or set(meta) - _META_FIELDS:
        raise ParseError("metadata must be an object with keys name/provenance")
    for key, value in meta.items():
        if not isinstance(value, str):
            raise ParseError(f"metadata.{key} must be a string")

    try:
        C = np.zeros((n, n, n), dtype=complex)
        D = np.zeros((n, n, n), dtype=complex)
    except MemoryError as exc:
        raise ParseError(f"n={n} is too large: its n x n x n tensors do not fit in memory") from exc
    for label, target, lower_triangular in (("C", C, True), ("D", D, False)):
        entries = doc[label]
        if not isinstance(entries, list):
            raise ParseError(f"{label} must be a list of entries")
        seen = set()
        for pos, entry in enumerate(entries):
            where = f"{label}[{pos}]"
            if not isinstance(entry, dict):
                raise ParseError(f"{where}: entry must be an object")
            if set(entry) != _ENTRY_FIELDS:
                raise ParseError(
                    f"{where}: entry fields must be exactly j,i,k,re,im "
                    f"(got {sorted(entry)})"
                )
            j, i, k = entry["j"], entry["i"], entry["k"]
            for name, idx in (("j", j), ("i", i), ("k", k)):
                if not _is_int(idx):
                    raise ParseError(f"{where}: index {name}={idx!r} must be an integer")
                if not 1 <= idx <= n:
                    raise ParseError(f"{where}: index {name}={idx!r} out of range 1..{n}")
            if lower_triangular and i >= k:
                raise ParseError(
                    f"{where}: C stores only i < k entries, got (j={j}, i={i}, k={k})"
                )
            if (j, i, k) in seen:
                raise ParseError(f"{where}: duplicate entry (j={j}, i={i}, k={k})")
            seen.add((j, i, k))
            for name in ("re", "im"):
                if not isinstance(entry[name], (int, float)) or isinstance(entry[name], bool):
                    raise ParseError(f"{where}: {name} must be a number")
                if not np.isfinite(entry[name]):
                    raise ParseError(f"{where}: {name} must be finite")
            value = complex(entry["re"], entry["im"])
            target[j - 1, i - 1, k - 1] = value
            if lower_triangular:
                target[j - 1, k - 1, i - 1] = -value
    return UnitaryStructure(n=n, C=C, D=D)


def _entries(X: np.ndarray, i_below_k: bool = False) -> list:
    """The nonzero entries of X (only those with i < k, if asked), 1-based, in (j, i, k) order."""
    nonzero = X != 0
    if i_below_k:
        nonzero &= np.triu(np.ones(X.shape[1:], dtype=bool), 1)
    return [{"j": j + 1, "i": i + 1, "k": k + 1, "re": float(X[j, i, k].real),
             "im": float(X[j, i, k].imag)} for j, i, k in np.argwhere(nonzero).tolist()]


def emit_structure(U: UnitaryStructure, name: str | None = None) -> bytes:
    """Canonical bytes: sorted keys, sorted index tuples, shortest round-trip floats."""
    doc = {"schema_version": SCHEMA_VERSION, "n": U.n,
           "C": _entries(U.C, i_below_k=True), "D": _entries(U.D)}
    if name is not None:
        doc["metadata"] = {"name": name}
    text = json.dumps(doc, sort_keys=True, indent=2)
    return (text + "\n").encode("utf-8")


_ANALYZE_COLUMNS = ("s", "flatness_residual", "torsion_norm", "eta_norm", "kahler_flag")


def emit_report(report, fmt: str = "json") -> bytes:
    """Serialize a report deterministically as JSON or CSV.

    FlatnessSummary reports become the analyze table, one row per grid
    parameter in the columns _ANALYZE_COLUMNS (the header alone when the
    grid is empty); other reports must already be lists of flat dicts
    sharing one key set, whose first row orders the columns.
    """
    if isinstance(report, FlatnessSummary):
        columns = _ANALYZE_COLUMNS
        tail = (report.torsion_norm, report.eta_norm, report.kahler)
        tail = tuple(map(_csv_cell, tail)) if fmt == "csv" else tail  # formatted once per table
        table = [(s, res, *tail) for s, res in report.rows]
    else:
        rows = list(report)
        columns = tuple(rows[0]) if rows else ()
        table = [[row[c] for c in columns] for row in rows]
    if fmt == "json":
        rows = [dict(zip(columns, values)) for values in table]
        return (json.dumps(rows, sort_keys=True, indent=2) + "\n").encode("utf-8")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_csv_cell(value) for value in values] for values in table)
        return buf.getvalue().encode("utf-8")
    raise ValueError(f"unknown report format {fmt!r}")


def _csv_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return value
