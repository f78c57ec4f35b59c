"""The package's export list: every name in ``kinloc.__all__`` is there, once."""

import inspect

import kinloc


def test_every_exported_name_resolves_on_the_package():
    missing = [name for name in kinloc.__all__ if not hasattr(kinloc, name)]
    assert missing == []


def test_no_public_class_or_function_is_listed_twice():
    assert len(set(kinloc.__all__)) == len(kinloc.__all__)
    # a class or function that two modules import must not be exported under a second name
    exported = [getattr(kinloc, name) for name in kinloc.__all__]
    defined = [obj for obj in exported if inspect.isclass(obj) or inspect.isfunction(obj)]
    assert len({id(obj) for obj in defined}) == len(defined)
