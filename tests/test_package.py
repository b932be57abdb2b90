"""The package's public surface: everything __all__ promises is there."""

import staghunt


def test_every_name_in_all_resolves():
    missing = [name for name in staghunt.__all__ if not hasattr(staghunt, name)]
    assert missing == []


def test_star_import_binds_every_name_in_all():
    namespace: dict = {}
    exec("from staghunt import *", namespace)
    assert set(staghunt.__all__) <= set(namespace)


def test_all_is_the_expected_public_surface():
    # adding or dropping an export is an API change: update this set with it
    assert set(staghunt.__all__) == {
        "__version__",
        "C", "U", "UNKNOWN", "PolicyLabel", "PayoffMatrix",
        "GuiltParams", "InequityParams", "guilt_reward", "shape_reward", "inequity_reward",
        "TransformedGame", "EquilibriumReport",
        "transform_game", "pure_nash", "guilt_threshold_f", "verify_observation1",
    }
    assert len(staghunt.__all__) == len(set(staghunt.__all__))
