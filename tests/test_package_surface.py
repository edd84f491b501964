"""Each reference route of tests/slow_paths.py exists once: no top-level
name there is also defined in src/artifact. Every name in artifact.__all__
survives a star import. The runtime runs no polynomial Euclid."""

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


def test_runtime_calls_no_polynomial_gcd():
    """No code in src/artifact calls an attribute named gcd: RatFunc keeps
    no gcd-canonical form, and Poly.gcd is the tests' reference. math.gcd
    on integers stays allowed."""
    calls = []
    for path in sorted(pathlib.Path(artifact.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if (isinstance(node, ast.Call)
                    and isinstance(func, ast.Attribute)
                    and func.attr == "gcd"
                    and not (isinstance(func.value, ast.Name)
                             and func.value.id == "math")):
                calls.append("%s:%d" % (path.name, node.lineno))
    assert calls == []
