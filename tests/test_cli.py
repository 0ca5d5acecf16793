import json

import numpy as np
import pytest

from geospectral import matio
from geospectral.cli import main
from geospectral.errors import ParseError, ShapeError
from geospectral.realdecomp import decompose


@pytest.fixture
def rotation_csv(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n-2,1\n")
    return str(path)


def test_parse_csv(rotation_csv):
    np.testing.assert_array_equal(
        matio.parse_matrix(rotation_csv), [[1.0, 2.0], [-2.0, 1.0]]
    )


def test_parse_matrix_market_identity(tmp_path):
    path = tmp_path / "i.mtx"
    path.write_text(
        "%%MatrixMarket matrix array real general\n% identity\n2 2\n1\n0\n0\n1\n"
    )
    np.testing.assert_array_equal(matio.parse_matrix(str(path)), np.eye(2))


def test_parse_matrix_market_column_major(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")
    np.testing.assert_array_equal(matio.parse_matrix(str(path)), [[1.0, 3.0], [2.0, 4.0]])


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


def test_matrix_market_write_parse_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((4, 4))
    path = tmp_path / "rt.mtx"
    matio.write_matrix_market(str(path), m)
    np.testing.assert_array_equal(matio.parse_matrix(str(path)), m)


def test_decompose_real_only(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("5,0\n0,6\n")
    assert main(["decompose", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(e["kind"] == "real" for e in doc["eigenvalues"])
    assert doc["plane_terms"] == []


def test_decompose_defective_exit_code(tmp_path, capsys):
    path = tmp_path / "j.csv"
    path.write_text("1,1\n0,1\n")
    assert main(["decompose", str(path)]) == 2
    assert "not diagonalizable" in capsys.readouterr().err


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


def test_gen_decompose_round_trip(tmp_path, capsys):
    out = tmp_path / "g.mtx"
    report = tmp_path / "g.json"
    assert main(["gen", "--size", "6", "--pairs", "2", "--seed", "9", "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["decompose", str(out), "-o", str(report)]) == 0
    doc = json.loads(report.read_text())
    planted = json.loads((tmp_path / "g.mtx.spectrum.json").read_text())
    got_pairs = sorted(
        (e["sigma"], e["omega"]) for e in doc["eigenvalues"] if e["kind"] == "complex_pair"
    )
    want_pairs = sorted((s, w) for s, w in planted["complex_pairs"])
    m = matio.parse_matrix(str(out))
    tol = 1e-8 * np.linalg.norm(m)
    for (gs, gw), (ws, ww) in zip(got_pairs, want_pairs):
        assert gs == pytest.approx(ws, abs=tol)
        assert gw == pytest.approx(ww, abs=tol)
    got_reals = sorted(e["alpha"] for e in doc["eigenvalues"] if e["kind"] == "real")
    for g, w in zip(got_reals, sorted(planted["real_eigenvalues"])):
        assert g == pytest.approx(w, abs=tol)


def test_gen_real_only_round_trip(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert main(["gen", "--size", "3", "--real", "3", "--seed", "1", "-o", str(out)]) == 0
    report = tmp_path / "r.json"
    assert main(["decompose", str(out), "-o", str(report)]) == 0
    capsys.readouterr()
    doc = json.loads(report.read_text())
    assert len(doc["real_terms"]) == 3


def test_gen_inconsistent_counts_usage_error(tmp_path, capsys):
    out = tmp_path / "x.mtx"
    rc = main(["gen", "--size", "3", "--real", "2", "--pairs", "1", "-o", str(out)])
    assert rc == 64
    capsys.readouterr()


def test_gen_deterministic_per_seed(tmp_path, capsys):
    a = tmp_path / "a.mtx"
    b = tmp_path / "b.mtx"
    assert main(["gen", "--size", "4", "--pairs", "2", "--seed", "3", "-o", str(a)]) == 0
    assert main(["gen", "--size", "4", "--pairs", "2", "--seed", "3", "-o", str(b)]) == 0
    capsys.readouterr()
    np.testing.assert_array_equal(matio.parse_matrix(str(a)), matio.parse_matrix(str(b)))


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


def test_tol_env_override(tmp_path, capsys, monkeypatch, rotation_csv):
    monkeypatch.setenv("GEOSPECTRAL_TOL", "1e-6")
    assert main(["decompose", rotation_csv]) == 0
    capsys.readouterr()
    # flag wins over the environment
    monkeypatch.setenv("GEOSPECTRAL_TOL", "not-a-number")
    assert main(["decompose", rotation_csv, "--tol", "1e-9"]) == 0
    capsys.readouterr()
