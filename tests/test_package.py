"""The package namespace: every exported name resolves."""

import triplesieve


def test_every_exported_name_resolves():
    assert len(set(triplesieve.__all__)) == len(triplesieve.__all__)
    missing = [name for name in triplesieve.__all__ if not hasattr(triplesieve, name)]
    assert missing == []
    namespace = {}
    exec("from triplesieve import *", namespace)
    assert set(triplesieve.__all__) <= set(namespace)
