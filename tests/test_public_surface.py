"""Guards on the public surface: the package exports, the error codes, and unread names."""

import ast
from pathlib import Path

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


PACKAGE = Path(ragmark.__file__).resolve().parent


def _public_names(stmt):
    """The public functions, classes or constants that a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [target.id for target in stmt.targets if isinstance(target, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def _reads(stmt):
    """The names a statement reads, bare or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(stmt)
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
            or isinstance(node, ast.Attribute)}


def test_every_public_name_has_a_reader_in_the_package():
    # __init__.py only re-exports, so a name it lists still needs a reader elsewhere
    statements = [(path.name, stmt, _reads(stmt))
                  for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
                  for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
    unread = [f"{module}:{name}" for module, stmt, _ in statements for name in _public_names(stmt)
              if not any(name in reads for _, other, reads in statements if other is not stmt)]
    assert unread == []
