"""The public surface: every exported name exists."""

import cueplace as cp


def test_every_export_resolves():
    missing = [name for name in cp.__all__ if not hasattr(cp, name)]
    assert missing == []
    assert len(set(cp.__all__)) == len(cp.__all__)


def test_star_import():
    namespace = {}
    exec("from cueplace import *", namespace)
    assert set(cp.__all__) <= set(namespace)
