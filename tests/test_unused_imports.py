"""Every module-level import in a ``lacuna`` module is used or re-exported,
every exported name exists, no module imports a private (``_``-prefixed)
name of another, no module imports a thread or process pool, no module
makes a BLAS call, no module but ``spectral`` uses numpy's FFT, every public
function, class, method and module constant is reached by the program, and
every reference a test module keeps is called and named in its ledger.

Each module except the package ``__init__`` is parsed with ``ast``; a name
bound by a top-level import must be read somewhere in the module (string
annotations included) or be listed in its ``__all__``.  Since listing a
name counts as using it, every name in an ``__all__``, the package's
included, must also be bound at the top of its module.  No module starts a
thread or a process, and none makes a matrix product or another call that
numpy hands to a BLAS library, which may run on threads of its own: the
czd certificate, ``czd.lattice_coefficients``, reads its coefficients from
one FFT of the piece.
``tests/test_czd.py::test_reports_do_not_depend_on_the_blas_thread_count``
stays as a guard that report bytes do not depend on a BLAS library's
threads, and the ``threads`` setting is accepted and ignored.

``spectral`` owns the transform layout and the choice between a real and a
complex transform: every band operator and the czd split and certificate
read coefficients through ``spectral.coefficients`` and go back through
``spectral.from_coefficients``.  Outside ``spectral`` only ``czd`` imports
that pair; every other module reaches coefficients through a ``BandBank``
or through ``czd.lattice_coefficients``.  The one use of numpy's FFT elsewhere is
the sharpness family's bump f_N, one ``irfft`` of a half spectrum that it
builds in closed form (``multipliers.build_sharpness_family``).

``harness.report_to_json`` writes every JSON report the program prints or
saves, strict and in one format: no other module calls ``json.dump`` or
``json.dumps`` or imports a name from ``json``.

A public definition is reached when its name is read (an ``ast.Name`` or
``ast.Attribute`` load) outside its own body, in the package, ``scripts/``,
``perfbench/`` or the acceptance gates.  Import lines and strings do not
count, so a name that only the unit tests or ``__all__`` mention is flagged
unless it is a listed test reference.

A test reference is a top-level function of a test module named
``reference_*``, ``exact_*``, ``*_luxemburg``, ``sorted_*``, ``brute_*``
or ``*_reference``.  It is called when its name is read outside its own body
in any test module, and its module's docstring, the reference ledger, must
name it as ````name````.  The acceptance gates are left out: their module is
fixed, and each gate's oracle is written inline.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import lacuna

SOURCES = sorted(Path(lacuna.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
CONCURRENCY = ("concurrent", "threading", "multiprocessing")
ROOT = Path(__file__).resolve().parents[1]
# the code whose reads count as reach: the package, the batch scripts, the
# benchmark and the acceptance gates
READERS = (SOURCES + sorted((ROOT / "scripts").glob("*.py"))
           + sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"])
# public definitions kept only as references that the unit tests compare with
TEST_REFERENCES = {"spectral.spectrum"}
TESTS = sorted((ROOT / "tests").glob("test_*.py"))
REFERENCE_NAME = re.compile(
    r"reference_\w+|exact_\w+|\w+_luxemburg|sorted_\w+|brute_\w+|\w+_reference")
# numpy calls that hand their work to a BLAS library, by the name called
BLAS_CALLS = ("dot", "vdot", "matmul", "einsum", "tensordot", "polyfit")
# the uses of numpy's FFT outside spectral.py, by module: f_N's synthesis
FFT_EXCEPTIONS = {"multipliers.py": ["irfft"]}


def imported_names(tree: ast.Module) -> dict:
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def read_names(tree: ast.Module) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    used |= read_names(ast.parse(sub.value, mode="eval"))
    return used


def exported_names(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = read_names(tree) | exported_names(tree)
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used}
    assert not unused, f"{path.name}: imported but never used: {unused}"


def bound_names(tree: ast.Module) -> set:
    bound = set(imported_names(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {t.id for t in targets if isinstance(t, ast.Name)}
    return bound


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_every_exported_name_is_bound(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    stale = sorted(exported_names(tree) - bound_names(tree))
    assert not stale, f"{path.name}: __all__ lists names it never binds: {stale}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_concurrency_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            found.append(node.module)
    banned = [name for name in found if name.split(".")[0] in CONCURRENCY]
    assert not banned, f"{path.name}: imports {banned}"


def blas_calls(tree: ast.Module) -> list:
    """``line: form`` of each matrix product (``@``), BLAS-backed numpy call
    and ``linalg`` use under ``tree``, sorted."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{node.lineno}: @")
        elif isinstance(node, ast.Call):
            names = loaded_names(node.func)
            called = names[0] if names else None
            if called in BLAS_CALLS or "linalg" in names:
                found.append(f"{node.lineno}: {called}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
            if any("linalg" in name.split(".") for name in modules):
                found.append(f"{node.lineno}: linalg")
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_blas_calls(path):
    found = blas_calls(ast.parse(path.read_text(encoding="utf-8")))
    assert not found, f"{path.name}: BLAS calls {found}"


def test_the_blas_guard_finds_each_form():
    module = """
from numpy.linalg import norm
a = x @ y
a @= y
b = np.dot(x, y) + x.dot(y) + np.matmul(x, y)
c = np.einsum("ij,jk", x, y) + np.linalg.solve(x, y)
d = np.sum(x * y) + dot_count
e = np.polyfit(x, y, 1)
"""
    assert blas_calls(ast.parse(module)) == ["2: linalg", "3: @", "4: @", "5: dot", "5: dot",
                                             "5: matmul", "6: einsum", "6: solve", "8: polyfit"]


def fft_uses(tree: ast.Module) -> list:
    """``line: form`` of each use of numpy's FFT module under ``tree``: the
    function read from an ``fft`` attribute (``np.fft.rfft``, ``numpy.fft.fft``
    or through an alias of numpy), a bare ``fft`` attribute, and an import of
    ``numpy.fft`` or of a name from it, sorted."""
    modules = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Attribute) and node.value.attr == "fft":
                found.append(f"{node.lineno}: {node.attr}")
            elif node.attr == "fft" and id(node) not in modules:
                found.append(f"{node.lineno}: fft")
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [a.name for a in node.names]
            if node.module.split(".")[:2] == ["numpy", "fft"]:
                found += [f"{node.lineno}: import {name}" for name in names]
            elif node.module == "numpy" and "fft" in names:
                found.append(f"{node.lineno}: import fft")
        elif isinstance(node, ast.Import):
            found += [f"{node.lineno}: import {a.name}" for a in node.names
                      if a.name.split(".")[:2] == ["numpy", "fft"]]
    return sorted(found)


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "spectral.py"],
                         ids=lambda p: p.stem)
def test_no_fft_outside_spectral(path):
    uses = fft_uses(ast.parse(path.read_text(encoding="utf-8")))
    forms = [use.split(": ", 1)[1] for use in uses]
    assert forms == FFT_EXCEPTIONS.get(path.name, []), f"{path.name}: numpy FFT uses {forms}"


def test_only_czd_imports_the_coefficient_pair_outside_spectral():
    pair = {"coefficients", "from_coefficients"}
    importers = [path.name for path in MODULES if path.name != "spectral.py"
                 and pair & set(imported_names(ast.parse(path.read_text(encoding="utf-8"))))]
    assert importers == ["czd.py"]


def test_the_fft_guard_finds_each_form():
    module = """
import numpy.fft as nf
from numpy import fft
from numpy.fft import rfft, irfft
import numpy as xp
a = np.fft.ifft(x) + numpy.fft.fft(x)
b = xp.fft.irfft(x) + nf.rfft(x)
c = np.fft
d = np.fftfreq(x) + fft_count + sp.coefficients(x, pos)
"""
    assert fft_uses(ast.parse(module)) == [
        "2: import numpy.fft", "3: import fft", "4: import irfft", "4: import rfft",
        "6: fft", "6: ifft", "7: irfft", "8: fft"]


def json_writes(tree: ast.Module) -> list:
    """``line: form`` of each ``json.dump`` or ``json.dumps`` read and each
    name imported from ``json`` under ``tree``, sorted."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps")
                and isinstance(node.value, ast.Name) and node.value.id == "json"):
            found.append(f"{node.lineno}: {node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            found += [f"{node.lineno}: import {a.name}" for a in node.names]
    return sorted(found)


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "harness.py"],
                         ids=lambda p: p.stem)
def test_no_json_outside_the_report_writer(path):
    found = json_writes(ast.parse(path.read_text(encoding="utf-8")))
    assert not found, f"{path.name}: JSON written outside harness.report_to_json: {found}"


def test_the_json_guard_finds_each_form():
    module = """
from json import dumps
from json import dump as d, loads
a = json.dumps(x, indent=2) + json.loads(t)
json.dump(x, fh)
b = json.dumps
c = dumps_count + obj.dump(x)
"""
    assert json_writes(ast.parse(module)) == [
        "2: import dumps", "3: import dump", "3: import loads", "4: dumps", "5: dump",
        "6: dumps"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_private_names_across_modules(path):
    # a name another module needs is public in the module that defines it
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("lacuna")):
            private += [f"{node.module}.{alias.name}" for alias in node.names
                        if alias.name.startswith("_")]
    assert not private, f"{path.name}: imports private names {private}"


def loaded_names(node: ast.AST) -> list:
    """Every name read under ``node``, as a variable or as an attribute."""
    names = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            names.append(sub.attr)
    return names


def public_definitions(tree: ast.Module):
    """``(qualified name, name, node)`` of each public top-level function,
    class and constant (a name bound by a top-level assignment) and each
    public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, t.id, node) for t in targets
                        if isinstance(t, ast.Name) and not t.id.startswith("_"))
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item


def test_every_public_definition_is_reached():
    reads = Counter(name for path in READERS
                    for name in loaded_names(ast.parse(path.read_text(encoding="utf-8"))))
    unreached = {f"{path.stem}.{qualified}" for path in MODULES
                 for qualified, name, node in public_definitions(ast.parse(path.read_text(encoding="utf-8")))
                 if reads[name] <= loaded_names(node).count(name)}
    # the test references stay defined and unreached, and nothing else is
    assert unreached == TEST_REFERENCES


def orphaned_references(sources: dict) -> list:
    """``module.name: why`` for each test reference in ``sources`` (module
    name to source text) that no test calls or that its module's reference
    ledger does not name, in source order."""
    trees = {stem: ast.parse(text) for stem, text in sources.items()}
    reads = Counter(name for tree in trees.values() for name in loaded_names(tree))
    found = []
    for stem, tree in trees.items():
        ledger = ast.get_docstring(tree) or ""
        for node in tree.body:
            if not (isinstance(node, ast.FunctionDef) and not node.name.startswith("test_")
                    and REFERENCE_NAME.fullmatch(node.name)):
                continue
            if reads[node.name] <= loaded_names(node).count(node.name):
                found.append(f"{stem}.{node.name}: no test calls it")
            if f"``{node.name}``" not in ledger:
                found.append(f"{stem}.{node.name}: not in the module's reference ledger")
    return found


def test_every_test_reference_is_called_and_in_its_ledger():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in TESTS
               if path.name != "test_acceptance.py"}
    assert orphaned_references(sources) == []


def test_the_reference_guard_reports_an_orphan_and_an_unlisted_reference():
    module = '''"""Reference ledger:
- ``reference_x``: listed, but no test calls it.
"""


def reference_x(values):
    return values


def brute_y(values):
    return brute_y(values[1:]) if len(values) > 1 else values


def test_y():
    assert brute_y([1, 2]) == [2]
'''
    assert orphaned_references({"test_synthetic": module}) == [
        "test_synthetic.reference_x: no test calls it",
        "test_synthetic.brute_y: not in the module's reference ledger",
    ]
