"""The package states no invariant with `assert`: `python -O` strips
asserts, so every check in src/artifact raises an ArtifactError or a
ValueError instead."""

import ast
import pathlib

import artifact

PACKAGE = pathlib.Path(artifact.__file__).parent


def test_package_has_no_assert_statements():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
