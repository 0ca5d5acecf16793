import geospectral


def test_every_export_resolves():
    # a deleted helper must not leave a stale name behind in __all__
    assert [name for name in geospectral.__all__ if not hasattr(geospectral, name)] == []
    namespace = {}
    exec("from geospectral import *", namespace)
    assert set(geospectral.__all__) <= set(namespace)
