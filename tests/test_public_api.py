"""The names the package exports."""

import thetagib


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from thetagib import *", namespace)  # AttributeError on a stale name
    assert len(set(thetagib.__all__)) == len(thetagib.__all__)
    for name in thetagib.__all__:
        assert namespace[name] is getattr(thetagib, name)
