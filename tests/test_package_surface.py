"""Each reference route of tests/slow_paths.py exists once: no top-level
name there is also defined in src/artifact. Every name in artifact.__all__
survives a star import."""

import ast
import pathlib

import artifact


def top_level_names(path):
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {n.id for t in node.targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)}
    return names


def test_slow_paths_define_nothing_the_package_defines():
    package = set()
    for path in pathlib.Path(artifact.__file__).parent.glob("*.py"):
        package |= top_level_names(path)
    references = top_level_names(
        pathlib.Path(__file__).with_name("slow_paths.py"))
    assert "GENERIC" in package and "curvette_param" in references
    assert sorted(references & package) == []


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from artifact import *", namespace)
    assert sorted(set(artifact.__all__) - set(namespace)) == []
