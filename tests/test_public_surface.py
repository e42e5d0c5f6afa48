"""Guards on the public surface: the package exports and the error codes."""

import ragmark
from ragmark.errors import RagmarkError


def test_every_export_resolves_and_is_listed_once():
    assert len(ragmark.__all__) == len(set(ragmark.__all__))
    assert [name for name in ragmark.__all__ if not hasattr(ragmark, name)] == []


def _error_classes(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_classes(sub)


def test_every_error_class_sets_its_own_distinct_code():
    classes = list(_error_classes(RagmarkError))
    assert [cls.__name__ for cls in classes if "code" not in vars(cls)] == []
    codes = [cls.code for cls in classes]
    assert len(codes) == len(set(codes))
