import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geospectral import eigensolve, matio
from geospectral.cli import main
from geospectral.densecore import rcond_1norm
from geospectral.errors import DegeneratePairError, ParseError, ShapeError
from geospectral.realdecomp import ComplexPlaneTerm, apply, decompose, real_canonical_form
from geospectral.verify import PlantedSpectrum, gen_test_matrix
from test_properties import Case


@pytest.fixture
def rotation_csv(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n-2,1\n")
    return str(path)


def test_parse_csv(rotation_csv):
    np.testing.assert_array_equal(
        matio.parse_matrix(rotation_csv)[0], [[1.0, 2.0], [-2.0, 1.0]]
    )


def test_parse_matrix_market_identity(tmp_path):
    path = tmp_path / "i.mtx"
    path.write_text(
        "%%MatrixMarket matrix array real general\n% identity\n2 2\n1\n0\n0\n1\n"
    )
    np.testing.assert_array_equal(matio.parse_matrix(str(path))[0], np.eye(2))


def test_parse_matrix_market_column_major(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")
    np.testing.assert_array_equal(matio.parse_matrix(str(path))[0], [[1.0, 3.0], [2.0, 4.0]])


def test_parse_csv_ragged_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(ParseError) as err:
        matio.parse_matrix(str(path))
    assert err.value.line == 2


def test_parse_rejects_nan(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("1,nan\n3,4\n")
    with pytest.raises(ParseError):
        matio.parse_matrix(str(path))


def test_parse_rejects_non_square(tmp_path):
    path = tmp_path / "rect.csv"
    path.write_text("1,2,3\n4,5,6\n")
    with pytest.raises(ShapeError):
        matio.parse_matrix(str(path))


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-310, 1.7e308, -1.7e308, 0.1, -1.5]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)),
    min_size=n * n, max_size=n * n).map(lambda xs: np.reshape(xs, (n, n)))))
def test_matrix_market_round_trip_bitwise(tmp_path_factory, m):
    # one float() pass over the body gives back every bit: signed zeros,
    # subnormals and the ends of the float range included
    path = tmp_path_factory.mktemp("rt") / "m.mtx"
    matio.write_matrix_market(path, m)
    got, digest = matio.parse_matrix(str(path))
    assert got.dtype == m.dtype and got.shape == m.shape
    assert got.tobytes() == np.ascontiguousarray(m).tobytes()
    assert digest == "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


def test_decompose_reads_its_input_once(tmp_path, capsys, monkeypatch):
    # the file is rewritten as soon as it has been read: the report is of
    # the bytes that were read, digest and matrix alike, and nothing opens
    # the input a second time
    path, other = tmp_path / "m.mtx", tmp_path / "other.mtx"
    matio.write_matrix_market(path, _M3)
    matio.write_matrix_market(other, 2.0 * _M3)
    original = path.read_bytes()
    opened = []

    def open_then_rewrite(file, mode="r", *args, **kwargs):
        opened.append((str(file), mode))
        with open(file, mode, *args, **kwargs) as fh:
            data = fh.read()
        path.write_bytes(other.read_bytes())
        return io.BytesIO(data)

    monkeypatch.setattr(matio, "open", open_then_rewrite, raising=False)
    assert main(["decompose", str(path)]) == 0
    monkeypatch.undo()
    assert opened == [(str(path), "rb")]
    doc = json.loads(capsys.readouterr().out)
    assert doc["input_digest"] == "sha256:" + hashlib.sha256(original).hexdigest()
    assert doc == matio.decomposition_to_doc(decompose(_M3), input_digest=doc["input_digest"])


def test_matrix_market_write_parse_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((4, 4))
    path = tmp_path / "rt.mtx"
    matio.write_matrix_market(str(path), m)
    np.testing.assert_array_equal(matio.parse_matrix(str(path))[0], m)


def _write_matrix_market_per_entry(path, m, comment=None):
    # reference: one write per line, each entry through float() and repr
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%%MatrixMarket matrix array real general\n")
        if comment:
            fh.write(f"% {comment}\n")
        fh.write(f"{m.shape[0]} {m.shape[1]}\n")
        for j in range(m.shape[1]):
            for i in range(m.shape[0]):
                fh.write(f"{float(m[i, j])!r}\n")


@pytest.mark.parametrize("comment", [None, "", "planted spectrum, seed 3"])
def test_matrix_market_writer_matches_per_entry_writes(tmp_path, comment):
    # signed zeros, subnormals, the float range's ends and a rectangular,
    # Fortran-ordered block: the same bytes as one write per entry
    tiny = np.finfo(float).smallest_subnormal
    special = [0.0, -0.0, tiny, -tiny, 3 * tiny, 1e-310, 2.0**-1022, 1e308, -1e308,
               np.finfo(float).max, 0.1, -1.5, 1e16, 123456789.0]
    rng = np.random.default_rng(7)
    for m in (np.reshape(special, (2, 7)), np.asfortranarray(rng.standard_normal((5, 3))),
              np.reshape(special, (14, 1)), np.zeros((0, 0)), np.array([[-0.0]])):
        got, want = tmp_path / "got.mtx", tmp_path / "want.mtx"
        matio.write_matrix_market(got, m, comment=comment)
        _write_matrix_market_per_entry(want, m, comment=comment)
        assert got.read_bytes() == want.read_bytes()


def test_decompose_real_only(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("5,0\n0,6\n")
    assert main(["decompose", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["real_terms"]) == doc["dim"] == 2
    assert doc["plane_terms"] == []


def test_decompose_defective_exit_code(tmp_path, capsys):
    path = tmp_path / "j.csv"
    path.write_text("1,1\n0,1\n")
    assert main(["decompose", str(path)]) == 2
    assert "not diagonalizable" in capsys.readouterr().err


def test_decompose_non_convergence_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(eigensolve, "MAX_SWEEPS_PER_N", 0)
    # companion matrix of (x-1)(x-2)(x-3)
    path = tmp_path / "c.csv"
    path.write_text("0,0,6\n1,0,-11\n0,1,6\n")
    assert main(["decompose", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: QR iteration stuck at subdiagonal index 2 after 0 sweeps"
    ]


def test_decompose_without_input_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decompose"])
    assert exc.value.code == 64
    assert "usage:" in capsys.readouterr().err


def test_canonical_defective_exit_code(tmp_path, capsys):
    path = tmp_path / "j.csv"
    path.write_text("1,1\n0,1\n")
    assert main(["canonical", str(path)]) == 2
    err = capsys.readouterr().err
    assert "not diagonalizable" in err
    assert "Traceback" not in err


def test_decompose_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3\n")
    assert main(["decompose", str(path)]) == 1
    assert main(["decompose", str(tmp_path / "missing.csv")]) == 1
    capsys.readouterr()


_MM = "%%MatrixMarket matrix array real general\n"
_LATE_TOKENS = [
    ("separator", "1_0", "bad number '1_0'"),
    ("arabic", "\u0661", "bad number"),
    ("nan", "nan", "non-finite entry 'nan'"),
    ("inf", "inf", "non-finite entry 'inf'"),
    ("overflow", "1e999", "non-finite entry '1e999'"),
]


@pytest.mark.parametrize(
    ("name", "text", "message", "line"),
    [
        ("empty.mtx", "", "empty file", 1),
        ("header.mtx", "%%MatrixMarket matrix coordinate real general\n1 1\n1\n",
         "expected header", 1),
        ("nosize.mtx", _MM + "% only a comment\n", "missing size line", 2),
        ("size3.mtx", _MM + "1 1 1\n1\n", "bad size line", 2),
        ("sizeword.mtx", _MM + "1 x\n1\n", "bad size line", 2),
        ("zero.mtx", _MM + "0 2\n", "non-positive dimensions", 2),
        ("short.mtx", _MM + "2 2\n1\n2\n3\n", "expected 4 entries, found 3", 5),
        ("nobody.mtx", _MM + "% c\n2 2\n", "expected 4 entries, found 0", 3),
        ("word.mtx", _MM + "1 1\nabc\n", "bad number", 3),
        ("blank.csv", "\n\n", "no data rows", 1),
        ("m.txt", "1\n", "cannot infer format", None),
        # bytes that are not UTF-8: a UTF-16 byte-order mark, a Latin-1 degree sign
        ("utf16.mtx", b"\xff\xfe%\x00%\x00", "is not UTF-8 text", 1),
        ("utf16.csv", b"\xff\xfe1\x00,\x002\x00", "is not UTF-8 text", 1),
        ("latin1.csv", b"1,2\n3,\xb04\n", "is not UTF-8 text", 2),
        # tokens only Python's int() and float() read: digit separators and
        # other scripts' digits
        ("separator.csv", "1_0,2\n3,4\n", "bad number '1_0'", 1),
        ("arabic.csv", "1,2\n\u0661,4\n".encode(), "bad number", 2),
        ("fullwidth.mtx", (_MM + "1 1\n\uff14\n").encode(), "bad number", 3),
        ("sizesep.mtx", _MM + "1_0 1\n1\n", "bad size line", 2),
        # each such token, or one that is not finite, on a later line of a
        # body whose other entries parse, after a comment line in .mtx
        *((f"late-{name}.mtx", _MM + f"2 2\n1 2\n% c\n3\n{tok}\n", message, 6)
          for name, tok, message in _LATE_TOKENS),
        *((f"late-{name}.csv", f"1,2\n3,{tok}\n", message, 2) for name, tok, message in _LATE_TOKENS),
    ],
)
def test_parse_errors_name_their_line(tmp_path, capsys, name, text, message, line):
    path = tmp_path / name
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(ParseError, match=message) as err:
        matio.parse_matrix(str(path))
    assert err.value.line == line
    assert main(["decompose", str(path)]) == 1
    assert message in capsys.readouterr().err


def test_parse_reads_plain_numbers_and_non_ascii_comments(tmp_path):
    tokens = ["+2", ".5", "5.", "1e-3", "-0.0", "1E+300", repr(0.1), repr(-2.5e-310), repr(1e16)]
    want = np.array([float(t) for t in tokens]).reshape(3, 3)
    mtx = tmp_path / "m.mtx"
    column_major = [tokens[3 * r + c] for c in range(3) for r in range(3)]
    mtx.write_bytes((_MM + "% \u00e9t\u00e9, \u0661\n3 3\n" + "\n".join(column_major) + "\n").encode())
    csv = tmp_path / "m.csv"
    csv.write_text("\n".join(",".join(tokens[i:i + 3]) for i in (0, 3, 6)) + "\n")
    for path in (mtx, csv):
        got = matio.parse_matrix(str(path))[0]
        assert got.tobytes() == want.tobytes()


def test_unknown_format_and_schema_rejected(rotation_csv):
    with pytest.raises(ParseError, match="unknown format 'json'"):
        matio.parse_matrix(rotation_csv, "json")
    doc = matio.decomposition_to_doc(decompose(np.eye(2)))
    doc["schema_version"] = "1"
    with pytest.raises(ParseError, match="unsupported schema_version '1'"):
        matio.doc_to_decomposition(doc)
    with pytest.raises(ParseError):
        matio.doc_to_decomposition([doc])


def test_canonical_output_dir(tmp_path, capsys):
    m = np.array([[1.0, 2.0, 0.3], [-2.0, 1.0, 0.1], [0.0, 0.5, 3.0]])
    path = tmp_path / "m.mtx"
    matio.write_matrix_market(path, m)
    assert main(["canonical", str(path)]) == 0
    residual = json.loads(capsys.readouterr().out)["similarity_residual"]
    out = tmp_path / "out"
    assert main(["canonical", str(path), "--output-dir", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    b_real, l_real, _ = real_canonical_form(decompose(m))
    np.testing.assert_array_equal(matio.parse_matrix(str(out / "B_real.mtx"))[0], b_real)
    np.testing.assert_array_equal(matio.parse_matrix(str(out / "L_real.mtx"))[0], l_real)
    assert printed == [
        f"wrote {out / 'B_real.mtx'} and {out / 'L_real.mtx'}",
        f"similarity residual: {residual:.3e}",
    ]


def _gen_decompose_round_trip(tmp_path, capsys, gen_args):
    # decompose recovers the planted spectrum recorded in gen's sidecar
    out = tmp_path / "g.mtx"
    report = tmp_path / "g.json"
    assert main(["gen", *gen_args, "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["decompose", str(out), "-o", str(report)]) == 0
    doc = json.loads(report.read_text())
    planted = json.loads((tmp_path / "g.mtx.spectrum.json").read_text())
    got_pairs = sorted((t["sigma"], t["omega"]) for t in doc["plane_terms"])
    want_pairs = sorted((s, w) for s, w in planted["complex_pairs"])
    assert len(got_pairs) == len(want_pairs)
    m = matio.parse_matrix(str(out))[0]
    tol = 1e-8 * np.linalg.norm(m)
    for (gs, gw), (ws, ww) in zip(got_pairs, want_pairs):
        assert gs == pytest.approx(ws, abs=tol)
        assert gw == pytest.approx(ww, abs=tol)
    got_reals = sorted(t["alpha"] for t in doc["real_terms"])
    for g, w in zip(got_reals, sorted(planted["real_eigenvalues"])):
        assert g == pytest.approx(w, abs=tol)


def test_gen_decompose_round_trip(tmp_path, capsys):
    _gen_decompose_round_trip(tmp_path, capsys, ["--size", "6", "--pairs", "2", "--seed", "9"])


def test_gen_large_spectrum(tmp_path, capsys):
    # a jittered-grid draw cannot fail, whatever the size
    assert main(["gen", "--size", "100", "--pairs", "25", "-o", str(tmp_path / "l.mtx")]) == 0
    _gen_decompose_round_trip(tmp_path, capsys, ["--size", "64", "--pairs", "16"])


def test_gen_real_only_round_trip(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert main(["gen", "--size", "3", "--seed", "1", "-o", str(out)]) == 0
    report = tmp_path / "r.json"
    assert main(["decompose", str(out), "-o", str(report)]) == 0
    capsys.readouterr()
    doc = json.loads(report.read_text())
    assert len(doc["real_terms"]) == 3


def test_gen_inconsistent_counts_usage_error(tmp_path, capsys):
    out = tmp_path / "x.mtx"
    rc = main(["gen", "--size", "3", "--pairs", "2", "-o", str(out)])
    assert rc == 64
    assert "--pairs 2 needs --size >= 4" in capsys.readouterr().err


def test_gen_deterministic_per_seed(tmp_path, capsys):
    a = tmp_path / "a.mtx"
    b = tmp_path / "b.mtx"
    assert main(["gen", "--size", "4", "--pairs", "2", "--seed", "3", "-o", str(a)]) == 0
    assert main(["gen", "--size", "4", "--pairs", "2", "--seed", "3", "-o", str(b)]) == 0
    capsys.readouterr()
    np.testing.assert_array_equal(matio.parse_matrix(str(a))[0], matio.parse_matrix(str(b))[0])


def test_verify_exit_codes(tmp_path, capsys, rotation_csv):
    eye = tmp_path / "i.csv"
    eye.write_text("1,0,0,0\n0,1,0,0\n0,0,1,0\n0,0,0,1\n")
    assert main(["verify", str(eye)]) == 0
    assert main(["verify", rotation_csv]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out

    jordan = tmp_path / "j.csv"
    jordan.write_text("1,1\n0,1\n")
    assert main(["verify", str(jordan)]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("exponent", [-1000, 900, 1000])
def test_verify_extreme_scale(tmp_path, capsys, exponent):
    spec = PlantedSpectrum((0.5, -1.0), ((0.3, 1.1), (-0.7, 0.6)), basis_seed=3)
    path = tmp_path / "m.mtx"
    matio.write_matrix_market(path, gen_test_matrix(spec) * 2.0**exponent)
    assert main(["verify", str(path)]) == 0
    assert "overall: PASS" in capsys.readouterr().out


def test_output_independent_of_file_format(tmp_path, capsys):
    # Matrix Market stores the entries column by column and CSV row by row;
    # the same values give the same output either way
    spec = PlantedSpectrum((0.5, -1.0, 1.5), ((0.3, 1.1), (-0.7, 0.6)), basis_seed=5)
    m = gen_test_matrix(spec)
    paths = [tmp_path / "m.mtx", tmp_path / "m.csv"]
    matio.write_matrix_market(paths[0], m)
    matio.write_csv(paths[1], m)
    outputs = []
    for path in paths:
        assert main(["decompose", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        del report["input_digest"]
        assert main(["canonical", str(path)]) == 0
        canonical = capsys.readouterr().out
        assert main(["verify", str(path)]) == 0
        # the last line ends with the elapsed time
        verdicts = capsys.readouterr().out.rsplit("(", 1)[0]
        outputs.append((report, canonical, verdicts))
    assert outputs[0] == outputs[1]


def test_canonical_hand_case(rotation_csv, capsys):
    assert main(["canonical", rotation_csv]) == 0
    doc = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(doc["L_real"], [[1.0, 2.0], [-2.0, 1.0]], atol=1e-12)
    assert doc["similarity_residual"] <= 1e-12


def test_canonical_diagonal(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("5,0\n0,6\n")
    assert main(["canonical", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(doc["L_real"], np.diag([5.0, 6.0]), atol=1e-12)


def test_canonical_block_matrix(tmp_path, capsys):
    path = tmp_path / "b.csv"
    path.write_text("4,0,0\n0,0,1\n0,-1,0\n")
    assert main(["canonical", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(
        doc["L_real"], [[4.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]], atol=1e-12
    )


def test_json_report_round_trip_bitwise(tmp_path):
    m = np.array([[1.0, 2.0, 0.3], [-2.0, 1.0, 0.1], [0.0, 0.5, 3.0]])
    dec = decompose(m)
    doc = matio.decomposition_to_doc(dec)
    text = json.dumps(doc)
    dec2 = matio.doc_to_decomposition(json.loads(text))
    assert dec2.dim == dec.dim
    for t1, t2 in zip(dec.real_terms, dec2.real_terms):
        assert t1.alpha == t2.alpha
        np.testing.assert_array_equal(t1.a, t2.a)
        np.testing.assert_array_equal(t1.c, t2.c)
    for t1, t2 in zip(dec.plane_terms, dec2.plane_terms):
        assert (t1.sigma, t1.omega, t1.nu) == (t2.sigma, t2.omega, t2.nu)
        for f in ("b", "p", "d", "q"):
            np.testing.assert_array_equal(getattr(t1, f), getattr(t2, f))


def test_report_with_wrong_dim_rejected():
    # j + 2k = dim guards a report read from outside the program
    doc = matio.decomposition_to_doc(decompose(np.array([[1.0, 2.0], [-2.0, 1.0]])))
    doc["dim"] += 1
    with pytest.raises(ShapeError, match="do not satisfy j \\+ 2k = 3"):
        matio.doc_to_decomposition(doc)


_M3 = np.array([[1.0, 2.0, 0.0], [-2.0, 1.0, 0.0], [0.0, 0.0, 3.0]])


def _report_doc(m):
    # a report as read back from text; json.loads also accepts NaN and Infinity
    return json.loads(json.dumps(matio.decomposition_to_doc(decompose(m))))


def test_report_keys_state_each_fact_once():
    doc = matio.decomposition_to_doc(decompose(_M3), input_digest="sha256:0")
    assert set(doc) == {
        "schema_version", "dim", "real_terms", "plane_terms", "diagnostics", "input_digest"
    }
    assert doc["schema_version"] == "2"
    assert [set(t) for t in doc["real_terms"]] == [{"alpha", "a", "c"}]
    assert [set(t) for t in doc["plane_terms"]] == [{"sigma", "omega", "b", "p", "d", "q"}]
    assert set(doc["diagnostics"]) == {"reconstruction_residual", "basis_rcond"}
    assert "input_digest" not in matio.decomposition_to_doc(decompose(_M3))


def test_report_nu_and_biorthogonality_are_recomputed():
    # a report carries no nu: the loaded term computes it from its vectors
    dec = decompose(_M3)
    loaded = matio.doc_to_decomposition(_report_doc(_M3))
    (t,) = loaded.plane_terms
    assert t.nu == dec.plane_terms[0].nu == ComplexPlaneTerm(t.sigma, t.omega, t.b, t.p, t.d, t.q).nu
    x = np.ones(3)
    np.testing.assert_allclose(apply(loaded, x), _M3 @ x, rtol=1e-12)
    assert abs(t.d @ t.b - t.q @ t.p) <= 1e-15
    assert abs(t.q @ t.b + t.d @ t.p) <= 1e-15
    # every right vector times 2^e and every left one times 2^-e state the
    # same terms, nu and basis_rcond, and load as they do
    for e in (-600, -515, 515, 600):
        doc = _report_doc(_M3)
        for term in doc["real_terms"] + doc["plane_terms"]:
            for f in term.keys() & set("abpcdq"):
                term[f] = (np.array(term[f]) * 2.0 ** (e if f in "abp" else -e)).tolist()
        scaled = matio.doc_to_decomposition(doc)
        assert scaled.plane_terms[0].nu == t.nu
        np.testing.assert_array_equal(apply(scaled, x), apply(loaded, x))


def test_contradicting_schema_1_report_rejected():
    # schema "1" also wrote an eigenvalue list, nu and a biorthogonality
    # residual that the loader never read; an edited copy could contradict
    # its terms (alpha 3 against a stated 99) and still load
    doc = _report_doc(_M3)
    doc["schema_version"] = "1"
    doc["eigenvalues"] = [{"kind": "real", "alpha": 99.0, "alpha_hex": (99.0).hex()}]
    doc["plane_terms"][0].update(nu=-5.0, nu_hex=(-5.0).hex())
    doc["diagnostics"]["max_biorthogonality_residual"] = 7.0
    with pytest.raises(ParseError, match="unsupported schema_version '1'"):
        matio.doc_to_decomposition(doc)


def _cut(term, fields):
    for f in fields:
        term[f] = term[f][:2]


@pytest.mark.parametrize(
    ("edit", "error"),
    [
        (lambda doc: doc["plane_terms"][0].pop("q"), ParseError),
        (lambda doc: doc.pop("real_terms"), ParseError),
        (lambda doc: doc.pop("dim"), ParseError),
        (lambda doc: doc.update(diagnostics=[]), ParseError),
        (lambda doc: doc.pop("diagnostics"), ParseError),
        (lambda doc: doc["diagnostics"].pop("basis_rcond"), ParseError),
        (lambda doc: doc["plane_terms"][0].update(sigma="x"), ParseError),
        (lambda doc: doc["real_terms"][0].update(alpha=None), ParseError),
        (lambda doc: doc["plane_terms"][0].update(omega=0.0), ShapeError),
        (lambda doc: doc["real_terms"][0].update(alpha=float("inf")), ShapeError),
        (lambda doc: doc["plane_terms"][0].update(sigma=float("nan")), ShapeError),
        (lambda doc: doc["plane_terms"][0]["b"].append([1.0]), ParseError),
        (lambda doc: _cut(doc["plane_terms"][0], "b"), ShapeError),
        (lambda doc: _cut(doc["plane_terms"][0], "bpdq"), ShapeError),
        (lambda doc: doc["plane_terms"][0]["p"].__setitem__(0, float("nan")), ShapeError),
        (lambda doc: doc["plane_terms"][0]["b"].__setitem__(0, float("nan")), ShapeError),
        (lambda doc: doc["real_terms"][0]["a"].__setitem__(2, float("inf")), ShapeError),
        # every value must be of its JSON type: an integer dim, numbers (a
        # bool is not one) and a string digest
        (lambda doc: doc.update(dim=3.0), ParseError),
        (lambda doc: doc.update(dim="3"), ParseError),
        (lambda doc: doc.update(dim=True), ParseError),
        (lambda doc: doc["plane_terms"][0].update(sigma="1.0"), ParseError),
        (lambda doc: doc["plane_terms"][0].update(omega=True), ParseError),
        (lambda doc: doc["plane_terms"][0].update(b=["0.5", "0", "0"]), ParseError),
        (lambda doc: doc["plane_terms"][0]["q"].__setitem__(0, False), ParseError),
        (lambda doc: doc["plane_terms"][0].update(d=0.5), ParseError),
        (lambda doc: doc["diagnostics"].update(basis_rcond="0.5"), ParseError),
        (lambda doc: doc["diagnostics"].update(reconstruction_residual=None), ParseError),
        (lambda doc: doc.update(input_digest=5), ParseError),
    ],
    ids=[
        "missing-q", "missing-real-terms", "missing-dim", "list-diagnostics",
        "missing-diagnostics", "missing-rcond", "string-sigma",
        "null-alpha", "zero-omega", "infinite-alpha", "nan-sigma", "ragged-b", "short-b",
        "short-plane", "nan-p", "nan-b", "infinite-a", "float-dim", "string-dim", "bool-dim",
        "string-sigma-number", "bool-omega", "string-vector", "bool-entry", "scalar-vector",
        "string-rcond", "null-residual", "number-digest",
    ],
)
def test_malformed_report_rejected(edit, error):
    doc = _report_doc(_M3)
    edit(doc)
    with pytest.raises(error):
        matio.doc_to_decomposition(doc)


_M4 = np.array([[1.0, 2.0, 0.0, 0.0], [-2.0, 1.0, 0.0, 0.0], [0.0, 0.0, 3.0, 0.0],
                [0.0, 0.0, 0.0, -1.0]])


def _report_levels(doc):
    # each object of a report with its declared keys
    return [(doc, matio.REPORT_KEYS), (doc["real_terms"][0], matio.REAL_TERM_KEYS),
            (doc["real_terms"][1], matio.REAL_TERM_KEYS),
            (doc["plane_terms"][0], matio.PLANE_TERM_KEYS),
            (doc["diagnostics"], matio.DIAGNOSTICS_KEYS)]


@pytest.mark.parametrize(
    "m", [np.zeros((0, 0)), np.zeros((3, 3)), np.array([[1.0, 2.0], [-2.0, 1.0]]), _M3]
)
def test_report_basis_rcond_must_be_the_terms(m):
    doc = _report_doc(m)
    rcond = doc["diagnostics"]["basis_rcond"]
    assert matio.doc_to_decomposition(doc).diagnostics.basis_rcond == rcond
    for edited in (7.0, 0.0, rcond * (1.0 + 1e-12), -rcond, float("nan")):
        doc["diagnostics"]["basis_rcond"] = edited
        with pytest.raises(ParseError, match="basis_rcond"):
            matio.doc_to_decomposition(doc)


def test_report_without_a_finite_basis_rcond_rejected():
    # c.a = 9e-324 passes RealTerm's relative check, but 1 / (|a| |c|)
    # overflows: RealTerm refuses the subnormal c.a before the rcond check
    doc = _report_doc(np.array([[1.0]]))
    doc["real_terms"][0].update(a=[3e-162], c=[3e-162])
    with pytest.raises(DegeneratePairError, match="c.a"):
        matio.doc_to_decomposition(doc)


def _scaled_pair_doc(scales):
    """The [[1, 2], [-2, 1]] report with b, p, d, q times scales and the
    terms' own basis_rcond."""
    doc = _report_doc(np.array([[1.0, 2.0], [-2.0, 1.0]]))
    (t,) = doc["plane_terms"]
    t.update({f: (scale * np.array(t[f])).tolist() for f, scale in zip("bpdq", scales)})
    b, p, d, q = (np.array(t[f]) for f in "bpdq")
    doc["diagnostics"]["basis_rcond"] = float(rcond_1norm(np.array([b, p]).T, 2.0 * np.array([d, q])))
    return doc


def test_report_with_a_subnormal_nu_rejected():
    # b, p, d, q times 1e-80 give nu = 2.5e-321, and a basis_rcond near 1e160
    # that is the terms' own, so only the plane term's nu gate refuses it
    doc = _scaled_pair_doc([1e-80] * 4)
    assert doc["diagnostics"]["basis_rcond"] > 1e159
    with pytest.raises(DegeneratePairError, match="nu"):
        matio.doc_to_decomposition(doc)
    # (b, p) times 2^e alone states the same term with nu = 2^(2e - 2):
    # loaded up to e = 512, refused as not finite from 513 on
    for e in (511, 512):
        (t,) = matio.doc_to_decomposition(_scaled_pair_doc([2.0**e] * 2 + [1.0] * 2)).plane_terms
        assert t.nu == 2.0 ** (2 * e - 2)
    for e in (513, 600):
        with pytest.raises(DegeneratePairError, match="nu = inf"):
            matio.doc_to_decomposition(_scaled_pair_doc([2.0**e] * 2 + [1.0] * 2))


def test_report_writes_the_declared_keys():
    doc = matio.decomposition_to_doc(decompose(_M4), input_digest="sha256:0")
    levels = _report_levels(doc)
    assert list(doc) == [*matio.REPORT_KEYS, *matio.OPTIONAL_REPORT_KEYS]
    for obj, keys in levels[1:]:
        assert list(obj) == list(keys)


@pytest.mark.parametrize("level", range(5))
def test_report_with_unknown_key_rejected(level):
    # a stale key, such as schema "1"'s nu or eigenvalues list, would state a
    # fact the loader never reads, so a report carrying one is refused
    doc = _report_doc(_M4)
    obj, _ = _report_levels(doc)[level]
    obj["nu"] = 1.0
    with pytest.raises(ParseError, match="unknown keys \\['nu'\\]"):
        matio.doc_to_decomposition(doc)


@pytest.mark.parametrize("level", range(5))
def test_report_with_missing_key_rejected(level):
    doc = _report_doc(_M4)
    obj, keys = _report_levels(doc)[level]
    for key in keys:
        edited = json.loads(json.dumps(doc))
        del _report_levels(edited)[level][0][key]
        missing = f"missing keys \\['{key}'\\]"
        with pytest.raises(ParseError, match="unsupported" if key == "schema_version" else missing):
            matio.doc_to_decomposition(edited)


def test_schema_2_report_with_stale_fields_rejected():
    # the contradicting schema "1" report above, relabelled "2", does not load
    doc = _report_doc(_M3)
    doc["eigenvalues"] = [{"kind": "real", "alpha": 99.0}]
    with pytest.raises(ParseError, match="unknown keys \\['eigenvalues'\\]"):
        matio.doc_to_decomposition(doc)
    doc = _report_doc(_M3)
    doc["plane_terms"][0]["nu"] = -5.0
    with pytest.raises(ParseError, match="plane term: .*unknown keys \\['nu'\\]"):
        matio.doc_to_decomposition(doc)


def test_tol_env_override(tmp_path, capsys, monkeypatch, rotation_csv):
    monkeypatch.setenv("GEOSPECTRAL_TOL", "1e-6")
    assert main(["decompose", rotation_csv]) == 0
    capsys.readouterr()
    # flag wins over the environment
    monkeypatch.setenv("GEOSPECTRAL_TOL", "not-a-number")
    assert main(["decompose", rotation_csv, "--tol", "1e-9"]) == 0
    capsys.readouterr()


def test_verify_honours_tol_env(tmp_path, capsys, monkeypatch):
    # a Jordan-coupled pair decomposes to a residual of a few 1e-9: above the
    # default 1e-9, within GEOSPECTRAL_TOL=1e-6 for decompose and verify alike
    path = tmp_path / "j.mtx"
    matio.write_matrix_market(path, Case((1.0, 1.0), (0,), 0, 0).matrix())
    monkeypatch.setenv("GEOSPECTRAL_TOL", "1e-6")
    assert main(["decompose", str(path)]) == 0
    capsys.readouterr()
    main(["verify", str(path)])
    status = {line.split()[0]: line.split()[3] for line in capsys.readouterr().out.splitlines()[1:-1]}
    assert status["diagonalizable"] == "PASS"
    assert status["reconstruction"] == "PASS"


# Python-only numerals: a digit separator, Arabic-Indic and full-width digits,
# a non-ASCII space; float() and int() read every one of them
_PYTHON_ONLY_NUMBERS = ["1_0e-9", "1_2", "\u0661\u0662", "\uff11\uff12", "\u00a012"]


@pytest.mark.parametrize("value", _PYTHON_ONLY_NUMBERS)
@pytest.mark.parametrize("command", [["decompose", "--tol"], ["canonical", "--tol"], ["verify", "--tol-scale"]],
                         ids=["decompose", "canonical", "verify"])
def test_tol_flags_refuse_python_only_numerals(rotation_csv, capsys, command, value):
    with pytest.raises(SystemExit) as exc:
        main([command[0], rotation_csv, command[1], value])
    assert exc.value.code == 64
    assert f"invalid float value {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "-1", "0"])
@pytest.mark.parametrize("command", [["decompose"], ["canonical"]], ids=["decompose", "canonical"])
def test_tol_flags_reject_non_positive(rotation_csv, capsys, command, value):
    for argv in (command + [rotation_csv, "--tol", value],
                 ["verify", rotation_csv, "--tol-scale", value]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64
        assert "not a positive number" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "-1", "0", *_PYTHON_ONLY_NUMBERS])
def test_tol_env_non_positive_ignored(tmp_path, capsys, monkeypatch, value):
    # ignored, so the default 1e-9 gates the Jordan-coupled pair (residual
    # a few 1e-9) instead of no gate at all, or of 1e-8 for "1_0e-9"
    path = tmp_path / "j.mtx"
    matio.write_matrix_market(path, Case((1.0, 1.0), (0,), 0, 0).matrix())
    monkeypatch.setenv("GEOSPECTRAL_TOL", value)
    assert main(["decompose", str(path)]) == 2
    assert f"ignoring bad GEOSPECTRAL_TOL={value!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["--size", "0"],
        ["--size", "2", "--pairs", "-1"],
        ["--size", "2", "--seed", "-1"],
        ["--size", "2", "--cond-cap", "inf"],
        # Python-only numerals, which int() and float() read
        ["--size", "1_2"],
        ["--size", "\u0661\u0662"],
        ["--size", "4", "--pairs", "\u0661"],
        ["--size", "2", "--seed", "\uff11"],
        ["--size", "2", "--cond-cap", "1_0e3"],
    ],
)
def test_gen_rejects_out_of_range_arguments(tmp_path, capsys, args):
    out = tmp_path / "x.mtx"
    with pytest.raises(SystemExit) as exc:
        main(["gen", *args, "-o", str(out)])
    assert exc.value.code == 64
    assert "usage:" in capsys.readouterr().err
    assert not out.exists()


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def test_every_subcommand_writes_strict_json(tmp_path, capsys, rotation_csv):
    one = tmp_path / "one.mtx"
    assert main(["gen", "--size", "1", "-o", str(one)]) == 0
    sidecar = _strict_json((tmp_path / "one.mtx.spectrum.json").read_text())
    assert sidecar["min_separation"] is None
    capsys.readouterr()
    for command in ("decompose", "canonical"):
        for path in (str(one), rotation_csv):
            assert main([command, path]) == 0
            _strict_json(capsys.readouterr().out)
    with pytest.raises(ValueError):
        matio.dump_json({"residual": float("inf")}, io.StringIO())


@pytest.mark.parametrize("exponent", [-1000, 1000])
def test_canonical_extreme_scale(tmp_path, capsys, exponent):
    # exact power-of-two scaling: the same basis, L_real scaled exactly and
    # the same similarity residual as at scale 1, with no overflow warning
    m = np.array([[1.0, 2.0, 0.3], [-2.0, 1.0, 0.1], [0.0, 0.5, 3.0]])
    docs = []
    for k in (0, exponent):
        path = tmp_path / f"s{k}.mtx"
        matio.write_matrix_market(path, m * 2.0**k)
        assert main(["canonical", str(path)]) == 0
        docs.append(json.loads(capsys.readouterr().out))
    base, scaled = docs
    assert base["similarity_residual"] > 0.0
    assert scaled["similarity_residual"] == base["similarity_residual"]
    assert scaled["B_real"] == base["B_real"]
    np.testing.assert_array_equal(scaled["L_real"], np.array(base["L_real"]) * 2.0**exponent)
