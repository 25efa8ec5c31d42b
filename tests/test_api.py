import types

import pwckit


def test_all_is_sorted_without_duplicates():
    assert pwckit.__all__ == sorted(set(pwckit.__all__))


def test_all_entries_resolve():
    for name in pwckit.__all__:
        assert hasattr(pwckit, name), name


def test_all_is_every_public_name_bound_in_the_package():
    bound = {
        name for name, value in vars(pwckit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(pwckit.__all__) == bound
