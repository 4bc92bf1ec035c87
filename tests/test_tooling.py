"""Names and examples that live outside the package: the benchmark's tracer
names package functions by attribute, and every one must still exist, or a
traced benchmark run fails only when it starts; every README CLI example
must still run, and the declared numpy floor provide what the package
calls.  Two static checks catch what a deletion leaves behind: an import
the module no longer uses, and a private module-level name that nothing
references."""

import argparse
import ast
import importlib.util
import pathlib
import re
import shlex

import pytest

from singosc import oracle
from singosc.cli import build_parser
from singosc.cli import main as cli_main

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
PACKAGE = ROOT / "src" / "singosc"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BOUNDARIES = load_tracing().BOUNDARIES


@pytest.mark.parametrize("owner, attr", [(b[0], b[1]) for b in BOUNDARIES],
                         ids=[f"{b[0].__name__}.{b[1]}" for b in BOUNDARIES])
def test_traced_boundary_resolves(owner, attr):
    assert callable(getattr(owner, attr, None))


def readme_sh_lines():
    blocks = re.findall(r"^```sh\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    return [line for block in blocks for line in block.splitlines()]


README_CLI_LINES = [line for line in readme_sh_lines() if line.startswith("singosc ")]


def test_readme_has_cli_examples():
    assert README_CLI_LINES


@pytest.mark.parametrize("line", README_CLI_LINES)
def test_readme_cli_example_runs(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # `--out` examples write here
    assert cli_main(shlex.split(line, comments=True)[1:]) == 0, capsys.readouterr().err


def test_numpy_floor_has_what_the_package_calls():
    # np.vecdot is new in numpy 2.0: on an older numpy that satisfies the
    # declared floor, every shooting call would raise AttributeError
    (floor,) = re.findall(r'^\s*"numpy>=([\d.]+)",?$', (ROOT / "pyproject.toml").read_text(), re.M)
    uses_vecdot = any(
        isinstance(node, ast.Attribute) and node.attr == "vecdot"
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(parse(path))
    )
    assert not uses_vecdot or int(floor.split(".")[0]) >= 2, f"numpy>={floor}"


# every option of every subcommand, 39 in all: numerical settings are
# constants, not caller options, so a new knob edits this list in plain sight
UNITS = ["format", "out", "mass", "omega", "hbar"]
CLI_OPTIONS = {
    "spectrum": ["alpha", "n_max", "domain", "beta_branch", *UNITS],
    "wavefunction": ["alpha", "n", "domain", "parity", "beta_branch",
                     "xi_min", "xi_max", "xi_points", *UNITS],
    "figure": ["id", "alpha_points", "format", "out"],
    "verify": ["suite", "alpha", "format", "out"],
    "radial": ["alpha", "l", "n_max", "beta_branch", *UNITS],
}


def test_cli_option_budget():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        command: [a.dest for a in p._actions if not isinstance(a, argparse._HelpAction)]
        for command, p in sub.choices.items()
    }
    assert options == CLI_OPTIONS
    assert sum(map(len, options.values())) == 39


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def loaded_names(tree):
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and type(n.ctx) is ast.Load}


def imported_names(tree):
    """The names a module's import statements bind, anywhere in it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


def private_definitions(tree):
    """Module-level functions, classes and assignment targets named _x."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


def references(paths):
    """Every name loaded, read as an attribute or imported by name."""
    refs = set()
    for path in paths:
        tree = parse(path)
        refs |= loaded_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                refs.update(a.name for a in node.names)
    return refs


# __init__ imports only to re-export
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = parse(path)
    assert sorted(set(imported_names(tree)) - loaded_names(tree)) == []


def test_every_private_name_is_referenced():
    refs = references(p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*.py"))
    unreferenced = [
        f"{path.name}:{name}"
        for path in PACKAGE.glob("*.py")
        for name in private_definitions(parse(path))
        if name not in refs
    ]
    assert unreferenced == []


def modules_imported_from(tree):
    """The package modules a module imports from, `from .quad import X` and
    `from . import quad` alike."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module in (None, "singosc"):
                yield from (a.name for a in node.names)
            else:
                yield node.module.rpartition(".")[2]


def test_oracle_imports_nothing_from_quad():
    # both oracles take their box from their own window of levels, and
    # the Gram rule from its top state, through the one rule in model
    assert "quad" not in set(modules_imported_from(parse(PACKAGE / "oracle.py")))


def test_oracle_imports_nothing_from_spectrum():
    # an oracle is never seeded from the closed form: compare grades the
    # analytic levels its caller passes, so oracle needs no spectrum
    assert "spectrum" not in set(modules_imported_from(parse(PACKAGE / "oracle.py")))


def test_one_finite_difference_builder():
    # one builder for every inner condition and one solve: no scipy
    # eigvalsh_tridiagonal call is left, _sturm alone calls the dstebz
    # binding _stebz resolves, and every matrix it solves comes from
    # _log_grid, not one builder per variant of row 0 or per matrix
    module = parse(PACKAGE / "oracle.py")

    def calls(name):
        return [
            node
            for node in ast.walk(module)
            if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == name
        ]

    assert calls("eigvalsh_tridiagonal") == []
    bindings = calls("_stebz")  # a call of one is the solve
    solvers = [f.name for f in module.body if isinstance(f, ast.FunctionDef)
               for call in ast.walk(f) if isinstance(call, ast.Call) and call.func in bindings]
    assert solvers == ["_sturm"]
    assert [ast.unparse(call.args[0]).partition("(")[0] for call in calls("_sturm")] == ["*_log_grid"]


def test_traced_fd_counts_its_rows(monkeypatch):
    # the tracer's stebz counter reads the rows of its call's first positional
    # argument: _richardson must pass _sturm its diag by position
    tracing = load_tracing()
    tracer = tracing.Tracer()
    monkeypatch.setattr(oracle, "_sturm", tracer.wrap(oracle._sturm, "oracle.stebz", tracing._stebz_rows))
    res = oracle.fd_eigen(2.0, 5)
    assert tracer.summary()["calls"]["oracle.stebz"] == 2
    assert tracer.counts["oracle.stebz.rows"] == res.rows == 606


def test_box_rule_is_defined_once_in_model():
    defining = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        for node in parse(path).body
        if isinstance(node, ast.FunctionDef) and node.name == "_box"
    ]
    assert defining == ["model.py"]


def test_only_public_oracle_entries_resolve_beta():
    # each public entry resolves the branch exponent, the shooting start and
    # the window once and passes them down, so a private core can take any
    # branch, start and window the caller gives it
    def callers(name):
        return sorted(
            node.name
            for node in parse(PACKAGE / "oracle.py").body
            if isinstance(node, ast.FunctionDef)
            for call in ast.walk(node)
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == name
        )

    assert callers("admissible_beta") == ["fd_eigen", "frobenius_start", "shoot_spectrum"]
    assert callers("_window") == ["fd_eigen", "shoot_spectrum"]
    assert callers("_x0") == ["shoot_spectrum"]


def test_only_public_spectrum_entries_resolve_beta():
    # the public entries take their branches from the one resolver
    # _branches, which gates once per branch, and build every state through
    # the one constructor _state, which takes beta as data and gates nothing
    def callers(name):
        return sorted(
            node.name
            for node in parse(PACKAGE / "spectrum.py").body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            for call in ast.walk(node)
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == name
        )

    # _branches gates the half-line branch, the whole-line beta_plus pair,
    # or each alpha = 0 branch
    assert callers("admissible_beta") == ["_branches"] * 4
    assert callers("EigenState") == ["_state"]


def test_overlap_and_gram_sum_through_one_helper():
    # overlap integrates its own pair, not its pair's Gram matrix, and the
    # Gram sums of psi_i psi_j w are one expression, quad._sums
    tree = parse(PACKAGE / "quad.py")
    defined = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}

    def called(name):
        return {
            getattr(call.func, "id", getattr(call.func, "attr", None))
            for call in ast.walk(defined[name])
            if isinstance(call, ast.Call)
        }

    assert "gram" not in called("overlap")
    # gram and overlap sum only what they return; the Gram rule's cache
    # makes psi and sums nothing
    assert {name for name in defined if "_sums" in called(name)} == {"gram", "overlap"}
    for name in ("gram", "overlap", "psi"):
        assert "sum" not in called(name), name
    assert "sum" in called("_sums")
    # one Laguerre recurrence pass per request: _Entry.psi is the Gram
    # route's one caller of _laguerre_rows, and no per-state pass is left
    assert {name for name in defined if "_laguerre_rows" in called(name)} == {"psi", "_laguerre_table"}
    imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}
    assert "_laguerre_rows" in imported and "_laguerre" not in imported


def test_one_laguerre_entry():
    # specfun's one checked Laguerre entry takes its row from the one
    # recurrence, and psi calls that entry, which spectrum binds by name
    from singosc import specfun, spectrum

    assert {name for name in vars(specfun) if "laguerre" in name} == {"laguerre", "_laguerre_rows"}
    psi = next(node for node in ast.walk(parse(PACKAGE / "spectrum.py"))
               if isinstance(node, ast.FunctionDef) and node.name == "psi")
    assert "laguerre" in {getattr(call.func, "id", None) for call in ast.walk(psi) if isinstance(call, ast.Call)}
    assert spectrum.laguerre is specfun.laguerre


def test_cli_enters_no_errstate():
    # the library raises typed errors for values that overflow, so no
    # command silences numpy to check a value itself
    hits = [
        f"{function.name}:{node.lineno}"
        for function in ast.walk(parse(PACKAGE / "cli.py"))
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Attribute) and node.attr == "errstate"
    ]
    assert hits == []


def test_quad_caches_each_reused_object_once():
    # one lru cache per reused object: the Gram rule, the (beta, rule) entry
    # and the Gauss-Laguerre rule with its rows; and no quad function imports
    # a package module, as one that works round an import cycle would
    from singosc import quad

    caches = {name for name, value in vars(quad).items() if hasattr(value, "cache_info")}
    assert caches == {"_rule", "_entry", "_laguerre_table"}
    hits = [
        f"{function.name}:{node.lineno}"
        for function in ast.walk(parse(PACKAGE / "quad.py"))
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "singosc")
        or isinstance(node, ast.Import) and any(a.name.split(".")[0] == "singosc" for a in node.names)
    ]
    assert hits == []


def test_private_names_come_from_their_own_module():
    # a private name imported through another module's re-export ties the
    # importer to that module's imports, not to the definition
    defined = {path.stem: set(private_definitions(parse(path))) for path in PACKAGE.glob("*.py")}
    hits = [
        f"{path.name}:{alias.name} from {node.module}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(parse(path))
        if isinstance(node, ast.ImportFrom) and node.module and (node.level or node.module.startswith("singosc."))
        for alias in node.names
        if alias.name.startswith("_") and alias.name not in defined[node.module.rpartition(".")[2]]
    ]
    assert hits == []


def test_no_fixed_integration_box_is_left():
    # the box that ignored the states is gone, name and all
    hits = [
        f"{path.relative_to(ROOT)}:{number}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "X_MAX" in line
    ]
    assert hits == []


def test_no_module_imports_scipy_integrate():
    # every integral in the package runs on quad's one Gauss-Legendre rule
    hits = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module, *(f"{node.module}.{a.name}" for a in node.names)]
            else:
                continue
            if any((n + ".").startswith("scipy.integrate.") for n in names):
                hits.append(f"{path.name}:{node.lineno}")
    assert hits == []



def test_only_the_fd_oracle_imports_scipy():
    # numpy builds every rule the package integrates on, Gauss-Laguerre
    # included: scipy is only the FD oracle's Sturm bisection (LAPACK
    # dstebz) where numpy's own LAPACK lacks it, bound by _stebz, the one
    # place that resolves the binding
    def importers(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names = [a.name for a in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module or ""]
            else:
                names = []
            if any(name.split(".")[0] == "scipy" for name in names):
                yield owner
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            yield from importers(child, f"{owner.split('.')[0]}.{child.name}" if inner else owner)

    hits = [hit for path in sorted(PACKAGE.rglob("*.py")) for hit in importers(parse(path), path.stem)]
    assert hits == ["oracle._stebz"]


def test_only_the_oracle_cores_read_the_clock():
    # each core times its own run, once at its start and once at its
    # result, so a direct call on any branch reports its seconds and no
    # public entry wraps a core in a clock of its own
    def reads(tree):
        return [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "perf_counter"
        ]

    module = parse(PACKAGE / "oracle.py")
    owners = [f.name for f in module.body if isinstance(f, ast.FunctionDef) for _ in reads(f)]
    assert len(reads(module)) == len(owners)
    assert owners == ["_richardson", "_richardson", "_shoot", "_shoot"]


def test_only_oracle_imports_dataclasses():
    # the analytic records are named tuples, so a level table never loads
    # dataclasses (nor the inspect module it imports); the oracle's results
    # stay dataclasses, for dataclasses.replace
    def imports(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                yield from (a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                yield node.module

    importers = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if any(name.split(".")[0] == "dataclasses" for name in imports(parse(path)))
    ]
    assert importers == ["oracle.py"]


def test_only_oracle_and_quad_import_numpy_at_module_level():
    # a level table is the closed-form ladder and needs only math: every
    # other module imports numpy inside the functions that build arrays
    def top_level_imports(tree):
        for node in tree.body:
            if isinstance(node, ast.Import):
                yield from (a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                yield node.module

    importers = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if any(name.split(".")[0] == "numpy" for name in top_level_imports(parse(path)))
    ]
    assert importers == ["oracle.py", "quad.py"]
