import fedrec


def test_every_export_resolves_through_a_star_import():
    namespace: dict = {}
    exec("from fedrec import *", namespace)
    assert len(set(fedrec.__all__)) == len(fedrec.__all__)
    for name in fedrec.__all__:
        assert namespace[name] is getattr(fedrec, name)
