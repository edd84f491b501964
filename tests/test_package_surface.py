"""Each reference route of tests/slow_paths.py and each check of
tests/output_checks.py exists once: no top-level name there is also
defined in src/artifact, and the oracle's reference uses none of the
oracle's kernels. The four commands reach every function and class of
src/artifact, and every method and property a class body defines. Every
name in artifact.__all__ survives a star import. The
runtime runs no polynomial Euclid. Value classes take equality, hashing
and immutability from Record. No module of tests/ has the name of one
of bench/."""

import ast
import contextlib
import importlib
import io
import json
import pathlib
import sys

import artifact
from artifact import cli

from test_chart_states import WORKLOADS
from test_cli import CASE2
from test_workload_outputs import SEED, argv_for

PACKAGE = pathlib.Path(artifact.__file__).parent


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
    for path in PACKAGE.glob("*.py"):
        package |= top_level_names(path)
    references = top_level_names(
        pathlib.Path(__file__).with_name("slow_paths.py"))
    checks = top_level_names(
        pathlib.Path(__file__).with_name("output_checks.py"))
    assert "GENERIC" in package and "curvette_param" in references
    assert "symmetry_check" in checks
    assert sorted(references & package) == []
    assert sorted(checks & package) == []


# The functions of src/artifact that no command reaches, with the reason
# each one stays.
UNREACHED = {
    "linalg.invert": "looked up by `bench/spans.py`; ROADMAP item 1c",
    "resolution.minus_inverse":
        "looked up by `bench/spans.py`; ROADMAP item 1c",
}


# The methods, properties and static or class methods of src/artifact
# that no command reaches, with the reason each one stays.
UNREACHED_MEMBERS = {
    "AmbientField.from_fraction":
        "coefficient-ring protocol for int and Fraction operands",
    "PolyRing.from_fraction":
        "coefficient-ring protocol for int and Fraction operands",
    "FractionField.from_fraction":
        "coefficient-ring protocol for int and Fraction operands",
    "PolyRing.convolve":
        "coefficient-ring protocol for int and Fraction operands",
    "AmbientField.gen": "used by the README library example",
    "AlgNum.coords": "read by dunder methods",
    "Poly.coeffs": "read by dunder methods and by Poly.pdivmod",
    "Record._values": "read by dunder methods",
    "Poly.gcd": "looked up by `bench/spans.py`; ROADMAP item 1c",
    "Poly.pdivmod": "looked up by `bench/spans.py`; ROADMAP item 1c",
}


def member_code(value):
    """The code object of a function that a class body defines: a
    method, a static or class method, or a property getter; None for
    any other value."""
    if isinstance(value, (staticmethod, classmethod)):
        value = value.__func__
    elif isinstance(value, property):
        value = value.fget
    return getattr(value, "__code__", None)


def own_codes(cls):
    """The code objects of the functions that cls's body defines."""
    return [code for code in map(member_code, vars(cls).values()) if code]


def commands_reach(tmp_path):
    """The code objects that the commands run, traced by sys.setprofile:
    analyze, report --json, verify --max-order N (as the benchmark passes
    them) and graph --dot on every document of the four workloads at
    SEED, and, on one case2 document, analyze in its documented form and
    in one form that only argparse reads."""
    lines = []
    for workload in sorted(WORKLOADS.GENERATORS):
        items = WORKLOADS.generate(workload, SEED)
        paths = WORKLOADS.write_documents(items, str(tmp_path / workload))
        for item, path in zip(items, paths):
            lines += [argv_for(command, path, item)
                      for command in WORKLOADS.COMMANDS]
            lines.append(["graph", path, "--dot"])
    case2 = tmp_path / "case2.json"
    case2.write_text(json.dumps(CASE2))
    lines += [["analyze", str(case2)],
              ["analyze", "--truncate", "5", str(case2)]]
    reached = set()

    def profile(frame, event, _arg):
        if event == "call":
            reached.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for argv in lines:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                cli.main(argv)
    finally:
        sys.setprofile(None)
    return reached


def test_commands_reach_every_function_and_class(tmp_path):
    """src/artifact holds what the commands run: each module-level
    function runs, and so does a function defined in each class that is
    not an exception class. A class also counts when a module-level name
    holds one of its instances, which the import builds (GENERIC and
    AT_INFINITY, which the commands compare with). Within such a class,
    each method, property and static or class method that the class body
    defines runs too, dunder methods aside. Code that only the tests call
    lives in tests/ (output_checks.py, slow_paths.py); UNREACHED and
    UNREACHED_MEMBERS name the exceptions, and each entry must still be
    unreached."""
    reached = commands_reach(tmp_path)
    modules = {path: importlib.import_module(
        "artifact" if path.stem == "__init__" else "artifact." + path.stem)
        for path in sorted(PACKAGE.glob("*.py"))}
    constants = {type(value) for module in modules.values()
                 for value in vars(module).values()}
    unreached = []
    members = []
    for path, module in modules.items():
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            obj = getattr(module, node.name)
            if isinstance(obj, type):
                if issubclass(obj, BaseException) or obj in constants:
                    continue
                codes = own_codes(obj)
                members += ["%s.%s" % (node.name, item.name)
                            for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("__")
                            and member_code(vars(obj)[item.name])
                            not in reached]
            else:
                codes = [obj.__code__]
            if reached.isdisjoint(codes):
                unreached.append("%s.%s" % (path.stem, node.name))
    assert sorted(set(unreached) - set(UNREACHED)) == []
    assert sorted(set(UNREACHED) - set(unreached)) == []   # still needed
    assert sorted(set(members) - set(UNREACHED_MEMBERS)) == []
    assert sorted(set(UNREACHED_MEMBERS) - set(members)) == []


def test_slow_paths_keep_their_own_oracle_product():
    """The raw-column reference tabulates and multiplies its columns
    itself (reference_table, tuple_times): it takes neither the kernels it
    is compared with, oracle._keyed_table and oracle._times, nor the
    elimination, oracle._filtration, from the package, by import or by
    attribute."""
    tree = ast.parse(pathlib.Path(__file__).with_name("slow_paths.py")
                     .read_text(encoding="utf-8"))
    kernels = {"_times", "_filtration", "_keyed_table"}
    taken = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.module.endswith("oracle"):
            taken += [a.name for a in node.names if a.name in kernels]
        elif isinstance(node, ast.Attribute) and node.attr in kernels:
            taken.append(node.attr)
    assert taken == []


def test_tests_and_bench_share_no_module_name():
    """pytest imports tests/*.py and bench/*.py by their bare names, with
    both folders on one sys.path (neither is a package), so a module of
    one folder named like one of the other is shadowed by it in a full
    run: `from checks import PolyXY` in a test would get bench/checks.py."""
    root = pathlib.Path(__file__).resolve().parent.parent
    tests, bench = ({path.stem for path in (root / folder).glob("*.py")}
                    for folder in ("tests", "bench"))
    assert sorted(tests & bench) == []


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from artifact import *", namespace)
    assert sorted(set(artifact.__all__) - set(namespace)) == []


def test_runtime_calls_no_polynomial_gcd():
    """No code in src/artifact calls an attribute named gcd: RatFunc keeps
    no gcd-canonical form, and Poly.gcd is the tests' reference. math.gcd
    on integers stays allowed."""
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
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


# Record itself, and the arithmetic types, whose equality is value equality
# of numbers (AlgNum == 3, Poly == scalar) rather than of field tuples.
OWN_EQUALITY = {"Record", "AlgNum", "AmbientField", "Poly", "RatFunc",
                "PolyRing", "FractionField"}


def test_only_record_and_arithmetic_types_define_equality():
    """A class in src/artifact that defines __eq__, __hash__ or
    __setattr__ itself is Record or an arithmetic type; every other value
    class inherits them from Record."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef) or cls.name in OWN_EQUALITY:
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    names = {node.name}
                elif isinstance(node, ast.Assign):
                    names = {t.id for t in node.targets
                             if isinstance(t, ast.Name)}
                else:
                    continue
                for name in sorted(names & {"__eq__", "__hash__",
                                            "__setattr__"}):
                    found.append("%s:%s.%s" % (path.name, cls.name, name))
    assert found == []


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def test_no_module_reads_another_modules_private_names():
    """A module of src/artifact reaches another module only through its
    public names: no `from .x import _y` and no `module._y`."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        modules = set()
        reads = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules |= {a.asname or a.name.partition(".")[0]
                            for a in node.names}
            elif isinstance(node, ast.ImportFrom):
                if node.module is None:   # from . import resolution as _res
                    modules |= {a.asname or a.name for a in node.names}
                else:
                    reads += [(node.lineno, node.module, a.name)
                              for a in node.names]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                reads.append((node.lineno, node.value.id, node.attr))
        found += ["%s:%d %s.%s" % (path.name, lineno, owner, name)
                  for lineno, owner, name in reads
                  if _is_private(name)]
    assert found == []
