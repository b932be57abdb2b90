"""The package's public surface: everything __all__ promises is there."""

import staghunt


def test_every_name_in_all_resolves():
    missing = [name for name in staghunt.__all__ if not hasattr(staghunt, name)]
    assert missing == []


def test_star_import_binds_every_name_in_all():
    namespace: dict = {}
    exec("from staghunt import *", namespace)
    assert set(staghunt.__all__) <= set(namespace)
