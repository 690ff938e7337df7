"""The package's public surface."""

import siegelflow


def test_every_exported_name_resolves_once():
    names = siegelflow.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(siegelflow, name)]
    assert missing == []
    namespace = {}
    exec("from siegelflow import *", namespace)
    assert set(names) <= set(namespace)
