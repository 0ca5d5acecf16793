"""Matrix file parsing/writing and the JSON decomposition report.

Supported inputs: Matrix Market "array real general" (column-major body)
and plain CSV (one row per line, no header).  A JSON report states each
fact of a decomposition once: the terms, the reconstruction residual,
which cannot be derived from them, and the basis rcond, which the loader
derives from them and checks.  Floats are shortest round-trip decimals,
which re-parse bit for bit.
"""

import csv
import hashlib
import io
import json
import math

import numpy as np

from .densecore import EPS, as_array, rcond_1norm
from .errors import ParseError, ShapeError
from .realdecomp import Diagnostics, SpectralDecomposition, real_canonical_form

SCHEMA_VERSION = "2"

# the keys of each object in a report, each the name of the attribute it
# states: the writer emits exactly these and the loader refuses any other
# key, or a missing one; input_digest alone may be left out
REPORT_KEYS = ("schema_version", "dim", "real_terms", "plane_terms", "diagnostics")
OPTIONAL_REPORT_KEYS = ("input_digest",)
REAL_TERM_KEYS = ("alpha", "a", "c")
PLANE_TERM_KEYS = ("sigma", "omega", "b", "p", "d", "q")
DIAGNOSTICS_KEYS = ("reconstruction_residual", "basis_rcond")

FORMAT_MATRIX_MARKET = "matrixmarket"
FORMAT_CSV = "csv"


def detect_format(path):
    p = str(path).lower()
    if p.endswith(".mtx") or p.endswith(".mm"):
        return FORMAT_MATRIX_MARKET
    if p.endswith(".csv"):
        return FORMAT_CSV
    return None


def parse_matrix(path, fmt=None):
    """A dense real square matrix from a UTF-8 file whose entries are decimal
    floats in ASCII, without Python's '_' digit separators, and
    "sha256:<hex>" of the bytes it was parsed from: the file is read once,
    so the digest is of the parsed bytes even if the file is rewritten."""
    fmt = fmt or detect_format(path)
    if fmt is None:
        raise ParseError(f"cannot infer format of '{path}'; pass it explicitly")
    parsers = {FORMAT_MATRIX_MARKET: _parse_matrix_market, FORMAT_CSV: _parse_csv}
    if fmt not in parsers:
        raise ParseError(f"unknown format '{fmt}'")
    with open(path, "rb") as fh:
        data = fh.read()
    m = parsers[fmt](_decode(data, path))
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"matrix in '{path}' is {m.shape[0]}x{m.shape[1]}, not square")
    return as_array(m, 2), "sha256:" + hashlib.sha256(data).hexdigest()


def _decode(data, path):
    """The file's bytes as text; a byte that is not UTF-8 raises ParseError
    naming the file and the line of the first such byte."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"'{path}' is not UTF-8 text", line=line) from None


def _plain(text):
    """Whether text has no '_' and no non-ASCII character, which int() and
    float() also read (digit separators, other scripts' digits)."""
    return text.isascii() and "_" not in text


def _parse_float(text, lineno):
    try:
        if not _plain(text):
            raise ValueError(text)
        x = float(text)
    except ValueError as exc:
        raise ParseError(f"bad number '{text}'", line=lineno) from exc
    if not math.isfinite(x):
        raise ParseError(f"non-finite entry '{text}'", line=lineno)
    return x


def _floats(tokens):
    """The tokens as a float array, from one _plain test of them all and one
    float() pass, or None if some token is not a plain finite decimal; the
    caller then parses token by token to name the line of the first."""
    if not _plain("".join(tokens)):
        return None
    try:
        values = np.array(list(map(float, tokens)), dtype=float)
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _parse_matrix_market(text):
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty file", line=1)
    header = lines[0].strip().lower().split()
    if header[:1] != ["%%matrixmarket"] or header[1:] != ["matrix", "array", "real", "general"]:
        raise ParseError(
            "expected header '%%MatrixMarket matrix array real general'", line=1
        )
    # the size line is the first after the header that is neither blank nor
    # a comment; every later line that is not a comment holds entries
    size = next((i for i in range(1, len(lines))
                 if lines[i].strip() and not lines[i].lstrip().startswith("%")), None)
    if size is None:
        raise ParseError("missing size line", line=len(lines))
    lineno, size_line = size + 1, lines[size].strip()
    parts = size_line.split()
    if len(parts) != 2:
        raise ParseError(f"bad size line '{size_line}'", line=lineno)
    try:
        if not _plain(size_line):
            raise ValueError(size_line)
        rows, cols = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ParseError(f"bad size line '{size_line}'", line=lineno) from exc
    if rows <= 0 or cols <= 0:
        raise ParseError(f"non-positive dimensions {rows}x{cols}", line=lineno)
    body = lines[size + 1:]
    entries = "\n".join(body)
    if "%" in entries:
        body = ["" if ln.lstrip().startswith("%") else ln for ln in body]
        entries = "\n".join(body)
    values = _floats(entries.split())
    if values is None:
        values = [_parse_float(tok, i) for i, ln in enumerate(body, lineno + 1) for tok in ln.split()]
    if len(values) != rows * cols:
        last = max((i for i, ln in enumerate(body, lineno + 1) if ln.strip()), default=lineno)
        raise ParseError(f"expected {rows * cols} entries, found {len(values)}", line=last)
    # array format stores the body column by column
    return np.asarray(values).reshape((cols, rows)).T


def _parse_csv(text):
    with io.StringIO(text, newline="") as fh:  # as csv wants a file
        records = [
            (lineno, record) for lineno, record in enumerate(csv.reader(fh), start=1)
            if record and not (len(record) == 1 and not record[0].strip())
        ]
    if not records:
        raise ParseError("no data rows", line=1)
    width = len(records[0][1])
    values = None
    if all(len(record) == width for _, record in records):
        values = _floats([tok for _, record in records for tok in record])
    if values is None:
        values = []
        for lineno, record in records:
            row = [_parse_float(tok.strip(), lineno) for tok in record]
            if len(row) != width:
                raise ParseError(f"ragged row: {len(row)} entries, expected {width}", line=lineno)
            values += row
    return np.asarray(values).reshape(len(records), width)


def write_matrix_market(path, m, comment=None):
    """Write m as a Matrix Market array, one shortest round-trip decimal per
    line, in one write."""
    m = np.asarray(m, dtype=float)
    lines = ["%%MatrixMarket matrix array real general"]
    if comment:
        lines.append(f"% {comment}")
    lines.append(f"{m.shape[0]} {m.shape[1]}")
    # array format stores the body column by column
    lines += map(repr, m.ravel(order="F").tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_csv(path, m):
    m = np.asarray(m, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        for row in m:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def matrix_to_doc(m):
    return np.asarray(m, dtype=float).tolist()


def _fields(obj, keys):
    """obj's attributes named by keys, each vector as one list of floats and
    each numpy scalar as a Python number."""
    values = (getattr(obj, key) for key in keys)
    return {k: v.tolist() if isinstance(v, (np.ndarray, np.generic)) else v
            for k, v in zip(keys, values)}


def decomposition_to_doc(dec, input_digest=None):
    """Serialize a SpectralDecomposition to a JSON-ready dict."""
    values = {
        "schema_version": SCHEMA_VERSION,
        "dim": dec.dim,
        "real_terms": [_fields(t, REAL_TERM_KEYS) for t in dec.real_terms],
        "plane_terms": [_fields(t, PLANE_TERM_KEYS) for t in dec.plane_terms],
        "diagnostics": _fields(dec.diagnostics, DIAGNOSTICS_KEYS),
    }
    doc = {key: values[key] for key in REPORT_KEYS}
    if input_digest is not None:
        doc["input_digest"] = input_digest
    return doc


def _check_keys(obj, keys, what, optional=()):
    """Refuse a report object that is not a JSON object, lacks one of keys
    or has a key that is neither in keys nor in optional."""
    if not isinstance(obj, dict):
        raise ParseError(f"{what} is not a JSON object")
    missing = [k for k in keys if k not in obj]
    unknown = sorted(set(obj) - set(keys) - set(optional))
    if missing or unknown:
        raise ParseError(f"{what}: missing keys {missing}, unknown keys {unknown}")


def _number(x):
    """x as a float if it is a JSON number (a bool is not one)."""
    if type(x) not in (int, float):
        raise ParseError(f"expected a JSON number, got {x!r}")
    return float(x)


def _vector(x):
    """x as a float array if it is a list of JSON numbers."""
    if type(x) is not list or not set(map(type, x)) <= {int, float}:
        raise ParseError(f"expected a list of JSON numbers, got {str(x)[:40]}")
    return np.array(x, dtype=float)


def doc_to_decomposition(doc):
    """Rebuild a SpectralDecomposition from its JSON document, the terms'
    vectors stacked into its rows.  Another schema_version, a missing or
    unknown key, a dim that is not a JSON integer, a scalar or vector entry
    that is not a JSON number, an input_digest that is not a string or a
    basis_rcond that is not the terms' own raises ParseError; a term vector
    length or a dim other than j + 2k raises ShapeError, and rows
    SpectralDecomposition refuses its ShapeError or DegeneratePairError."""
    try:
        if doc.get("schema_version") != SCHEMA_VERSION:
            raise ParseError(f"unsupported schema_version {doc.get('schema_version')!r}")
        _check_keys(doc, REPORT_KEYS, "report", OPTIONAL_REPORT_KEYS)
        reals, planes = doc["real_terms"], doc["plane_terms"]
        for t in reals:
            _check_keys(t, REAL_TERM_KEYS, "real term")
        for t in planes:
            _check_keys(t, PLANE_TERM_KEYS, "plane term")
        _check_keys(doc["diagnostics"], DIAGNOSTICS_KEYS, "diagnostics")
        dim = doc["dim"]
        if type(dim) is not int:
            raise ParseError(f"dim is not a JSON integer: {dim!r}")
        if type(doc.get("input_digest", "")) is not str:
            raise ParseError(f"input_digest is not a string: {doc['input_digest']!r}")
        eigs = [[_number(t[key]) for t in terms]
                for terms, key in ((reals, "alpha"), (planes, "sigma"), (planes, "omega"))]
        right = [_vector(t["a"]) for t in reals] + [_vector(t[f]) for t in planes for f in "bp"]
        left = [_vector(t["c"]) for t in reals] + [_vector(t[f]) for t in planes for f in "dq"]
        diagnostics = Diagnostics(*(_number(doc["diagnostics"][key]) for key in DIAGNOSTICS_KEYS))
        n = len(right)
        if any(len(v) != n for v in right + left):
            raise ShapeError(f"term vectors must be of length j + 2k = {n}")
        args = [np.array(x, dtype=float) for x in eigs]
        args += [np.array(v or np.empty((0, 0)), dtype=float) for v in (right, left)]  # owned rows
    # AttributeError: a report is not a JSON object; OverflowError: an
    # integer too large for a float
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed report: {type(exc).__name__}: {exc}") from exc
    dec = SpectralDecomposition(*args, diagnostics)
    if dec.dim != dim:
        raise ShapeError(
            f"term counts j={len(reals)}, k={len(planes)} "
            f"do not satisfy j + 2k = {dim}"
        )
    _check_rcond(dec)
    return dec


def _check_rcond(dec):
    """Refuse a stated basis_rcond that is not rcond_1norm of the first and
    third factors real_canonical_form gives, B_real and B_real^-1.  Each
    1-norm is a sum of at most n nonnegative terms, which two summation
    orders give to within 2 (n - 1) u of each other (u = EPS / 2), and the
    product and reciprocal round twice more: two rcond computations agree
    to about 2 n EPS, and twice that is allowed."""
    with np.errstate(over="ignore"):  # in rcond, and in B_real^-1's doubled rows
        b_real, _, b_inv = real_canonical_form(dec)
        rcond = rcond_1norm(b_real, b_inv)
    stated = dec.diagnostics.basis_rcond
    if not abs(stated - rcond) <= 4 * dec.dim * EPS * rcond:
        raise ParseError(f"basis_rcond {stated!r} is not the terms' {float(rcond)!r}")


def dump_json(doc, fh):
    """Write strict JSON on one line, through the C encoder: a NaN or
    infinity raises ValueError instead of producing a non-standard literal."""
    fh.write(json.dumps(doc, allow_nan=False) + "\n")
