import trajstory


def test_every_exported_name_resolves():
    namespace = {}
    exec("from trajstory import *", namespace)
    assert set(trajstory.__all__) <= namespace.keys()
