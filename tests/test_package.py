import json

import numpy as np

import geospectral
from geospectral import cli, geoalg, matio
from geospectral import realdecomp as rd
from geospectral import verify as vf


def test_every_export_resolves():
    # a deleted helper must not leave a stale name behind in __all__
    assert [name for name in geospectral.__all__ if not hasattr(geospectral, name)] == []
    namespace = {}
    exec("from geospectral import *", namespace)
    assert set(geospectral.__all__) <= set(namespace)


def test_production_path_needs_no_wedge_form(tmp_path, monkeypatch):
    # the explicit wedge forms and transpose_term are the tests' reference:
    # with every geoalg function raising, decompose, canonical, the report
    # loader, reconstruct, apply and the identity suite, which takes the
    # forms as rank-two factors and the transposed terms from the rows, run
    def refuse(*args):
        raise AssertionError("geoalg reached")

    for name in ("wedge", "plane_term_left_form", "plane_term_right_form", "transpose_term"):
        monkeypatch.setattr(geoalg, name, refuse)
    # realdecomp and verify import nothing from geoalg
    for module in (rd, vf):
        assert not [v for v in vars(module).values()
                    if v is geoalg or getattr(v, "__module__", "") == geoalg.__name__]
    m = np.array([[1.0, 2.0, 0.0], [-2.0, 1.0, 0.0], [0.0, 0.5, 3.0]])
    path, report = tmp_path / "m.csv", tmp_path / "report.json"
    matio.write_csv(path, m)
    assert cli.main(["decompose", str(path), "-o", str(report)]) == 0
    assert cli.main(["canonical", str(path)]) == 0
    dec = matio.doc_to_decomposition(json.loads(report.read_text(encoding="utf-8")))
    np.testing.assert_allclose(rd.reconstruct(dec), m, atol=1e-12)
    np.testing.assert_allclose(rd.apply(dec, np.ones(3)), m @ np.ones(3), atol=1e-12)
    assert geospectral.run_identity_suite(m).overall
