"""Every name a pointdyn module imports is used in that module, no
module imports a sibling's _private name, every public name is exported
or read by the library, every export is read by the library or the
benchmarks or kept for a paper notion, no module writes a float, only the
CLI's main assembles a report, and importing the CLI stays cheap.

A dead import hides which layer a module really depends on, and it
outlives the code that needed it. A public name that neither the package
exports nor any module reads is code only the tests reach: it belongs in
tests/oracles.py, and so does an export that no module, bench/ or
perfbench/ reads, unless PAPER_API names the notion it decides. The
package __init__ is exempt: its _EXPORTS table, module to names, is the
public API, and each name is read from its module on first access. Every
verdict is exact, so a float literal or a float() call in the library is
a bug wherever it is. A `pdl` process pays for its imports on every run,
compiled from source when no bytecode is cached, so the records are
NamedTuples or plain classes that generate no code when defined,
`dataclasses` (with the `inspect` it loads) stays out of the process, and
a verb imports only the deciders it calls.
"""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pointdyn
from pointdyn import (expansivity, measures, metric, shadowing, shiftspace, stability,
                      sysfile, systems)

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pointdyn"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list:
    """The names bound by the module-level imports of source that no
    other node of the module reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in bound if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_dead_and_live_imports():
    source = ("import os\nfrom math import lcm, gcd as g\nfrom . import sysfile\n"
              "print(g(4, 6), sysfile.load_file)\n")
    assert unused_imports(source) == ["lcm", "os"]


def private_imports(source: str) -> list:
    """The _private names source imports from a sibling pointdyn module,
    anywhere in the module (dunders such as __version__ are not private)."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "pointdyn"):
            out += [alias.name for alias in node.names if alias.name.startswith("_")
                    and not (alias.name.startswith("__") and alias.name.endswith("__"))]
    return sorted(out)


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.name for p in ALL_MODULES])
def test_no_private_name_crosses_a_module(path):
    # a _private name is a module's own business: a sibling that needs it
    # reads a public name, so each layer's interface stays visible
    assert private_imports(path.read_text()) == []


def test_the_check_sees_private_imports():
    source = ("from .a import _x, y\nfrom . import __version__\nfrom os import _exit\n"
              "from pointdyn.b import _w\ndef f():\n    from .c import _z as z\n")
    assert private_imports(source) == ["_w", "_x", "_z"]


# the layers, lowest first: a module imports only modules before it, so
# the deciders sit below the measure layer and the CLI on top
LAYERS = ("errors", "rationals", "metric", "shiftspace", "systems", "expansivity",
          "shadowing", "measures", "stability", "bundled", "sysfile", "report", "cli")


def sibling_imports(source: str) -> list:
    """The pointdyn modules source imports, anywhere in the module; a
    dunder imported from the package itself (__version__) names no module."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        parts = (node.module or "").split(".")
        if node.level == 0 and parts[0] == "pointdyn":
            parts = parts[1:]
        elif node.level == 0:
            continue
        if parts and parts[0]:
            out.append(parts[0])
        else:
            out += [alias.name for alias in node.names if not alias.name.startswith("__")]
    return out


def layer_breaches(sources: dict, layers) -> list:
    """(module, imported) for each import of a module that layers does not
    list before the importing one."""
    rank = {name: i for i, name in enumerate(layers)}
    return sorted((module, name) for module, source in sources.items()
                  for name in sibling_imports(source)
                  if rank.get(name, len(layers)) >= rank[module])


def test_modules_import_only_lower_layers():
    assert sorted(LAYERS) == [p.stem for p in MODULES]
    assert layer_breaches({p.stem: p.read_text() for p in MODULES}, LAYERS) == []


def test_the_check_sees_upward_imports():
    sources = {"a": "from . import __version__\nimport json\n",
               "b": "from .a import x\nfrom pointdyn.c import y\n",
               "c": "from . import a, b\ndef f():\n    from .d import z\n"
                    "from pointdyn import c\n"}
    assert layer_breaches(sources, ("a", "b", "c")) == [("b", "c"), ("c", "c"), ("c", "d")]


# documented module API that the package does not re-export: the stanza
# writer, the inverse of sysfile.loads, called as pointdyn.sysfile.dumps
MODULE_API = {("sysfile", "dumps")}


def public_names(tree) -> list:
    """The public names a module binds at its top level."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def bound_names(tree) -> dict:
    """The names a module binds by an import, anywhere in it, or by a
    definition at its top level, each mapped to the name it stands for
    (`from .a import y as z` binds z to y)."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = alias.name
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound[node.name] = node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update((t.id, t.id) for t in targets if isinstance(t, ast.Name))
    return bound


def traced_names(tree) -> set:
    """The function names of a top-level TARGETS table of (module, function,
    counter) rows: perfbench/tracing.py wraps each of them by name."""
    out = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)
                and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)):
            out |= {row.elts[1].value for row in node.value.elts
                    if isinstance(row, ast.Tuple) and isinstance(row.elts[1], ast.Constant)}
    return out


def read_names(trees: dict, modules=None) -> set:
    """Names the trees read: a bare name where its tree binds it (a local
    def trace does not read the export trace), module.name for a pointdyn
    module, by default one of trees (cli reads sysfile.load_file), and
    the functions a TARGETS table wraps."""
    modules = trees if modules is None else modules
    read = set()
    for tree in trees.values():
        bound = bound_names(tree)
        read |= traced_names(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    and node.id in bound):
                read.add(bound[node.id])
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                read.add(node.attr)
    return read


def unreached_names(trees: dict, exported) -> list:
    """(module, name) of each public name neither exported nor read."""
    read = read_names(trees) | set(exported)
    return [(module, name) for module, tree in sorted(trees.items())
            for name in public_names(tree)
            if name not in read and (module, name) not in MODULE_API]


def test_every_public_name_is_exported_or_read():
    trees = {p.stem: ast.parse(p.read_text()) for p in MODULES}
    assert unreached_names(trees, pointdyn.__all__) == []


def test_the_check_sees_test_only_names():
    trees = {"a": ast.parse("LIMIT = 3\ndef used(): pass\ndef spare(): pass\n"
                            "class Exported: pass\ndef _private(): pass\n"),
             "b": ast.parse("import json\nfrom . import a\nfrom .a import used\n"
                            "def load(): return used(), a.LIMIT, json.dumps(0)\n"
                            "def dumps(): pass\n")}
    assert unreached_names(trees, ["Exported", "load"]) == [("a", "spare"), ("b", "dumps")]


# exports that no module, bench/ or perfbench/ reads, each kept for the
# paper notion it decides
PAPER_API = {
    "mu_shadowable_at": "Theorem (ii)'s gate, checked as an implication in "
                        "test_theorems.py::test_theorem_ii_holds_on_the_census",
    "splice_trace_shift": "the shift's only shadowing route: shadowable_exact refuses "
                          "infinite carriers",
    "separation_horizon": "Theorem (i)'s horizon lemma, checked as the least horizon "
                          "in test_theorems.py::test_separation_horizon_is_the_least_horizon",
    "expansive_measure_check": "the Phi-set notion of a mu-expansive measure, "
                               "cross-checked against the pointwise one and pinned "
                               "in test_theorems.py::"
                               "test_the_phi_set_check_is_false_on_the_census",
    "transported_constant": "the constant a conjugacy transports; no other route "
                            "computes it, and test_theorems.py::"
                            "test_minimal_expansivity_moves_to_the_transported_constant "
                            "checks the implication",
}
ROOT = PACKAGE.parents[1]
CALLERS = [*MODULES, *sorted(ROOT.glob("bench/*.py")), *sorted(ROOT.glob("perfbench/*.py"))]


def unread_exports(trees: dict, exported, kept, modules) -> list:
    """The exported names that no tree reads (read_names over the pointdyn
    modules) and that kept does not name."""
    read = read_names(trees, modules)
    return sorted(name for name in exported if name not in read and name not in kept)


def test_every_export_is_read_or_kept_for_the_paper():
    trees = {str(p.relative_to(ROOT)): ast.parse(p.read_text()) for p in CALLERS}
    modules = {p.stem for p in MODULES}
    assert unread_exports(trees, pointdyn.__all__, PAPER_API, modules) == []
    assert set(PAPER_API) <= set(pointdyn.__all__)


def test_the_check_sees_exports_nothing_reads():
    # c calls a nested def trace that shadows the export trace, which once
    # counted as a read of it; a TARGETS row reads the function it wraps
    trees = {"a": ast.parse("def used(): pass\ndef spare(): pass\ndef kept(): pass\n"),
             "b": ast.parse("from . import a\nfrom .a import used as u\n"
                            "def f(): return u(), a.helper\n"),
             "c": ast.parse("def g(orb):\n    def trace(o): pass\n    return trace(orb)\n"),
             "bench/x": ast.parse("import json\nfrom pointdyn import a\n"
                                  "a.benched(json.other)\n"),
             "perfbench/t": ast.parse('TARGETS = (("a", "wrapped", None),)\n')}
    exported = ["used", "spare", "kept", "helper", "benched", "other", "trace", "wrapped"]
    assert unread_exports(trees, exported, {"kept": "why"}, {"a", "b"}) == \
        ["other", "spare", "trace"]


def float_uses(source: str) -> list:
    """(line, text) of each float literal and each call of float in source."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            out.append((node.lineno, repr(node.value)))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            out.append((node.lineno, "float()"))
    return sorted(out)


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.name for p in ALL_MODULES])
def test_no_float_in_the_library(path):
    assert float_uses(path.read_text()) == []


def test_the_check_sees_floats():
    source = ('"""0.5 in a docstring"""\nx = 1 / 2\ny = 0.25 + 1e-3 + 2j\n'
              'z = float("1/3")\nw = int(x)  # float(x)\n')
    assert float_uses(source) == [(3, "0.001"), (3, "0.25"), (3, "2j"), (4, "float()")]


def report_breaches(trees: dict) -> list:
    """(module, function, what) of each call of assemble anywhere but in
    cli.main, and of each cmd_* function that binds the name echo; a call
    at module level reads function None."""
    out = []

    def visit(module, node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            if callee == "assemble" and (module, func) != ("cli", "main"):
                out.append((module, func, "assemble"))
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and (func or "").startswith("cmd_"):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "echo" for t in targets):
                out.append((module, func, "echo"))
        for child in ast.iter_child_nodes(node):
            visit(module, child, func)

    for module, tree in sorted(trees.items()):
        visit(module, tree, None)
    return out


def test_only_main_assembles_a_report():
    # verbs return their results and main alone echoes the argv: an echo
    # list written per verb drifts from the parser
    trees = {p.stem: ast.parse(p.read_text()) for p in MODULES}
    assert report_breaches(trees) == []


def test_the_check_sees_reports_assembled_outside_main():
    trees = {"cli": ast.parse("def main(a):\n    return assemble(a, {})\n"
                              "def cmd_x(a):\n    echo = {'x': a.x}\n"
                              "    return report.assemble('x', echo, {})\n"),
             "report": ast.parse("def assemble(v, e): pass\nassemble('v', {})\n")}
    assert report_breaches(trees) == [("cli", "cmd_x", "echo"),
                                      ("cli", "cmd_x", "assemble"),
                                      ("report", None, "assemble")]


def test_importing_the_cli_loads_no_dataclasses():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = ("import sys, pointdyn.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


# the modules that hold deciders: a verb that calls none of them loads none
DECIDERS = {"stability", "measures", "shadowing", "expansivity", "bundled"}
LOADED = ("print(*sorted(m.partition('.')[2] for m in sys.modules"
          " if m.startswith('pointdyn.')))\n")
PDL = ("import contextlib, io, sys, pointdyn.cli\n"
       "with contextlib.redirect_stdout(io.StringIO()):\n"
       "    code = pointdyn.cli.main(sys.argv[1:])\n"
       "print(code)\n" + LOADED)


def fresh_run(code, *argv) -> list:
    """The words code prints in a fresh interpreter, given argv."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, check=True).stdout.split()


def pdl_modules(*argv):
    """(exit code, the pointdyn modules loaded) of one pdl call in a fresh
    interpreter."""
    code, *loaded = fresh_run(PDL, *argv)
    return int(code), set(loaded)


def test_importing_the_cli_loads_no_decider():
    loaded = fresh_run("import sys, pointdyn.cli\n" + LOADED)
    assert "cli" in loaded and DECIDERS.isdisjoint(loaded)


@pytest.fixture
def lattice_stanza(tmp_path):
    path = tmp_path / "z12k5.pdl"
    path.write_text("lattice {\n  n = 12\n  map = rot 5\n  name = z12k5\n}\n")
    return str(path)


@pytest.mark.parametrize("verb", [
    ("validate",),
    ("classify", "--variant", "uniform", "--c", "1/12"),
    ("shadow", "--x", "0", "--eps", "1/4", "--delta", "1/24", "--window", "2"),
], ids=lambda verb: verb[0])
def test_a_verb_on_a_stanza_loads_no_stability_layer(lattice_stanza, verb):
    code, loaded = pdl_modules(verb[0], lattice_stanza, *verb[1:])
    assert code in (0, 1) and "sysfile" in loaded
    assert not loaded & {"stability", "measures"}


def test_ghdist_loads_the_stability_layer(lattice_stanza):
    code, loaded = pdl_modules("ghdist", lattice_stanza, lattice_stanza)
    assert code == 0 and "stability" in loaded and "measures" not in loaded


def test_the_star_import_binds_each_export_to_its_module_object():
    namespace = {}
    exec("from pointdyn import *", namespace)
    assert len(pointdyn.__all__) == len(set(pointdyn.__all__))
    for module, names in pointdyn._EXPORTS.items():
        for name in names:
            assert namespace[name] is getattr(sys.modules[f"pointdyn.{module}"], name)
    assert dir(pointdyn) == sorted(dir(pointdyn)) and set(pointdyn.__all__) <= set(dir(pointdyn))


def test_an_export_is_read_through_and_not_bound(monkeypatch):
    # a function patched on its module reads the same through the package,
    # and the original again once it is restored
    original = systems.materialize
    assert pointdyn.materialize is original and "materialize" not in vars(pointdyn)
    monkeypatch.setattr(systems, "materialize", len)
    assert pointdyn.materialize is len
    monkeypatch.undo()
    assert pointdyn.materialize is original


def test_a_name_outside_the_table_is_an_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        pointdyn.nope
    assert not hasattr(pointdyn, "point_verdicts")
    assert pointdyn.__version__ == "0.1.0"


RECORDS = (
    expansivity.ExpansivityVerdict,
    measures.MeasureExpansivityReport, measures.MuShadowReport,
    measures.SetValuedAssignment,
    measures.ClauseCheck, measures.StabilityReport, metric.MetricViolation,
    shadowing.PseudoOrbitWindow, shadowing.TracerSet,
    shadowing.WindowedShadowReport, shiftspace.ShiftBall,
    stability.ConjugacyResult, stability.PerturbationFamily,
    stability.PerturbationVerdict, stability.StablePointReport, stability.IsometryPair,
    stability.GHBounds, stability.CandidateVerdict,
    stability.GHStableReport, sysfile.SystemFile, systems.Satellite,
    systems.OrbitResult, systems.ShiftOrbitClosure, systems.SatelliteBall,
)


@pytest.mark.parametrize("record", RECORDS, ids=[r.__name__ for r in RECORDS])
def test_records_are_read_only_and_build_as_before(record):
    params = inspect.signature(record).parameters
    values = [f"v{i}" for i in range(len(params))]
    built = record(*values)
    assert built == record(**dict(zip(params, values)))
    assert hash(built) == hash(record(*values))
    assert [getattr(built, name) for name in params] == values
    defaults = [p.default for p in params.values() if p.default is not p.empty]
    required = len(params) - len(defaults)
    short = record(*values[:required])
    assert [getattr(short, name) for name in params] == values[:required] + defaults
    for name in params:
        with pytest.raises(AttributeError):
            setattr(built, name, "changed")
        assert getattr(built, name) != "changed"
