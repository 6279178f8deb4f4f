"""Every name a module exports through ``__all__`` exists, the package exports exactly the
README's library API, no module defines a name twice, every private top-level name of
the package is used in the package, only ``text.write_text`` writes files, only it
and the grid reader ``spectral._read_grid`` open one, only the error step reaches
the sup norm's sample basis, every BLAS or LAPACK call, and every float kernel
that numpy dispatches by CPU, has a stated reason, and only the range helper and the
power of 2 of the witness constants and the selection rule catch a range error."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import hcderiv

MODULES = ["hcderiv"] + [
    f"hcderiv.{info.name}" for info in pkgutil.iter_modules(hcderiv.__path__)
]
ROOT = Path(__file__).parents[1]
PACKAGE = sorted((ROOT / "src" / "hcderiv").rglob("*.py"))
SOURCES = sorted([*PACKAGE, *(ROOT / "tests").rglob("*.py")])


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(module, n)] == []


def _readme_api():
    """The README's "Library API" list: each module with the names listed for it."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library API\n")[1]
    items = section.split("\n## ")[0].split("\n- ")[1:]
    return [re.findall(r"`([^`]+)`", item) for item in items]


def test_the_package_exports_exactly_the_library_api_of_the_readme():
    listed = _readme_api()
    names = [name for _, *names in listed for name in names]
    assert len(names) == len(set(names))
    assert set(hcderiv.__all__) - {"__version__"} == set(names)
    for module, *names in listed:
        defined = importlib.import_module(module)
        assert [n for n in names if getattr(defined, n) is not getattr(hcderiv, n)] == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_top_level_function_or_class_is_defined_twice(path):
    defined = [
        node.name
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    assert sorted({name for name in defined if defined.count(name) > 1}) == []


def test_every_private_top_level_name_is_loaded_somewhere_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE}
    private, loaded = [], set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            private += [(module, n) for n in names if n.startswith("_") and not n.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    assert private
    assert [(module, name) for module, name in private if name not in loaded] == []


# the one function of the package that may open a file for writing
WRITER = ("text.py", "write_text")
_WRITE_MODE = re.compile(r"[rwxabt+]*[wax+][rwxabt+]*")
_OS_WRITES = {"open", "fdopen", "replace"}


def _write_sites(tree: ast.AST, exempt: str | None = None) -> list[tuple[int, str]]:
    """The lines of ``tree`` that open, replace or stage a file for writing, outside ``exempt``.

    Those are an ``open`` call with a mode that writes (or a mode that is
    not a literal), ``os.open``, ``os.fdopen`` and ``os.replace``, and any
    use of ``tempfile``.
    """
    skip = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == exempt
        for inner in ast.walk(node)
    }
    sites = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open":
            modes = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "mode"]
            if any(
                not (isinstance(m, ast.Constant) and isinstance(m.value, str))
                or _WRITE_MODE.fullmatch(m.value)
                for m in modes
            ):
                sites.append((node.lineno, "open for writing"))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "os" and node.attr in _OS_WRITES:
                sites.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module in ("os", "tempfile"):
            if node.module == "tempfile" or _OS_WRITES & {a.name for a in node.names}:
                sites.append((node.lineno, f"from {node.module} import"))
        elif isinstance(node, ast.Import) and any(a.name == "tempfile" for a in node.names):
            sites.append((node.lineno, "import tempfile"))
        elif isinstance(node, ast.Name) and node.id == "tempfile":
            sites.append((node.lineno, "tempfile"))
    return sites


def test_the_package_writes_files_only_in_text_write_text():
    found = []
    for path in PACKAGE:
        exempt = WRITER[1] if path.name == WRITER[0] else None
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [(path.name, line, what) for line, what in _write_sites(tree, exempt)]
    assert found == []
    writer = ast.parse((ROOT / "src" / "hcderiv" / WRITER[0]).read_text(encoding="utf-8"))
    assert {what for _, what in _write_sites(writer)} >= {"open for writing", "os.open", "os.replace"}


@pytest.mark.parametrize(
    "source, found",
    [
        ("open(p, 'w')", [(1, "open for writing")]),
        ("open(p, mode='ab')", [(1, "open for writing")]),
        ("open(p, 'r+')", [(1, "open for writing")]),
        ("open(p, m)", [(1, "open for writing")]),
        ("open(p)\nopen(p, 'rb')\nopen(p, 'r', encoding='ascii')", []),
        ("os.fdopen(fd, 'w')", [(1, "os.fdopen")]),
        ("f = os.replace", [(1, "os.replace")]),
        ("import tempfile", [(1, "import tempfile")]),
        ("from tempfile import mkstemp", [(1, "from tempfile import")]),
        ("from os import replace", [(1, "from os import")]),
        ("x = tempfile.mkstemp()", [(1, "tempfile")]),
        ("def write_text(p):\n    open(p, 'w')\ndef g(p):\n    open(p, 'x')", [(4, "open for writing")]),
    ],
)
def test_the_write_guard_finds_each_kind_of_write(source, found):
    assert _write_sites(ast.parse(source), exempt="write_text") == found


# the functions of the package that may open a file: the writer, and the grid reader
OPENERS = {("text.py", "write_text"), ("spectral.py", "_read_grid")}


def _open_sites(tree: ast.Module) -> list[tuple[str | None, int]]:
    """The enclosing top-level function (None outside one) and line of each ``open`` call in
    ``tree``: ``open(...)``, and any ``<x>.open(...)`` or ``<x>.fdopen(...)``."""
    sites = []
    for top in tree.body:
        name = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id == "open"
                or isinstance(node.func, ast.Attribute) and node.func.attr in ("open", "fdopen")
            ):
                sites.append((name, node.lineno))
    return sites


def test_the_package_opens_files_only_in_the_writer_and_the_grid_reader():
    found = {
        (path.name, name)
        for path in PACKAGE
        for name, _ in _open_sites(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == OPENERS
    spectral = ast.parse((ROOT / "src" / "hcderiv" / "spectral.py").read_text(encoding="utf-8"))
    reader = next(n for n in spectral.body if isinstance(n, ast.FunctionDef) and n.name == "_read_grid")
    # the reader's one open reads bytes
    assert [
        call.args[1].value for call in ast.walk(reader)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "open"
    ] == ["rb"]


@pytest.mark.parametrize(
    "source, found",
    [
        ("open(p)", [(None, 1)]),
        ("def f(p):\n    with open(p, 'rb') as fh:\n        return fh.read()", [("f", 2)]),
        ("def g(p):\n    return os.open(p, 0)", [("g", 2)]),
        ("def h(p):\n    return io.open(p)\ndef i(p):\n    return Path(p).open()", [("h", 2), ("i", 4)]),
        ("class C:\n    def m(self, fd):\n        return os.fdopen(fd)", [(None, 3)]),
        ("def j(p):\n    return p.read()", []),
    ],
)
def test_the_open_guard_finds_each_kind_of_open(source, found):
    assert _open_sites(ast.parse(source)) == found


# the top-level definitions of the package that may use each name which builds the kept
# (resolution x (kmax + 1)) sample basis: only the error step and the screen it calls
SAMPLERS = {
    "_sample_screen": {"_ErrorReference"},
    "_samples": {"_sample_screen", "_ErrorReference"},
}


def _stray_samplers(tree: ast.Module) -> list[tuple[str, str | None, int]]:
    """The name, enclosing top-level definition (None outside one) and line of each use of a
    name in ``SAMPLERS`` outside the definitions it allows: a call, or any other reference."""
    sites = []
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in SAMPLERS and owner not in SAMPLERS[name]:
                sites.append((name, owner, node.lineno))
    return sites


def test_the_sample_basis_is_built_only_by_the_error_step():
    found = [
        (path.name, *site)
        for path in PACKAGE
        for site in _stray_samplers(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


@pytest.mark.parametrize(
    "source, found",
    [
        ("def f(a):\n    return _sample_screen(a, 9)", [("_sample_screen", "f", 2)]),
        ("x = spectral._samples((3, 3), 9)", [("_samples", None, 1)]),
        ("def g(a):\n    screen = _sample_screen\n    return screen(a, 9)", [("_sample_screen", "g", 2)]),
        ("def _sample_screen(a, r):\n    return _sample_screen(a, r)",
         [("_sample_screen", "_sample_screen", 2)]),
        ("def _sample_screen(a, r):\n    return _samples(a.shape, r)", []),
        ("class _ErrorReference:\n    def m(self, a):\n        return _sample_screen(a, 9), _samples(a, 9)",
         []),
    ],
)
def test_the_sampler_guard_finds_each_stray_use(source, found):
    assert _stray_samplers(ast.parse(source)) == found


# every top-level definition of the package that calls BLAS or LAPACK, with the reason its
# result may depend on the BLAS build and thread count, or why no output does
BLAS_SITES = {
    ("spectral.py", "_sample_screen"): "screen only: the bound in the _ErrorReference docstring",
    ("quadrature.py", "compute_coeff_grid"): "known BLAS dependence of the grid, as the README says",
    ("harness.py", "fit_rate"): "LAPACK lstsq, as the README says",
}
_BLAS_FUNCTIONS = {"dot", "matmul", "einsum", "linalg"}


def _blas_sites(tree: ast.Module) -> list[tuple[str | None, int, str]]:
    """The enclosing top-level definition (None outside one), line and kind of each BLAS or
    LAPACK call in ``tree``: ``@`` and ``@=``, any attribute ``dot``, ``matmul``, ``einsum``
    or ``linalg`` (``np.dot``, ``a.dot``, ``np.linalg.lstsq``), and an import of one of them
    from numpy."""
    sites = []
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                sites.append((owner, node.lineno, "@"))
            elif isinstance(node, ast.Attribute) and node.attr in _BLAS_FUNCTIONS:
                sites.append((owner, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy") and (
                node.module.startswith("numpy.linalg")
                or _BLAS_FUNCTIONS & {alias.name for alias in node.names}
            ):
                sites.append((owner, node.lineno, f"from {node.module} import"))
    return sites


def test_every_blas_call_of_the_package_has_a_reason():
    found = {
        (path.name, owner)
        for path in PACKAGE
        for owner, _, _ in _blas_sites(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == set(BLAS_SITES)


@pytest.mark.parametrize(
    "source, found",
    [
        ("x = a @ b", [(None, 1, "@")]),
        ("def f(a, b):\n    a @= b", [("f", 2, "@")]),
        ("def g(a):\n    return np.dot(a, a)", [("g", 2, "dot")]),
        ("y = numpy.matmul(a, b)", [(None, 1, "matmul")]),
        ("def k(a):\n    return a.dot(a.T)", [("k", 2, "dot")]),
        ("class C:\n    def m(self, a):\n        return np.einsum('ij->', a)", [("C", 3, "einsum")]),
        ("def h(a, y):\n    return np.linalg.lstsq(a, y)[0]", [("h", 2, "linalg")]),
        ("solve = np.linalg.solve", [(None, 1, "linalg")]),
        ("from numpy.linalg import norm", [(None, 1, "from numpy.linalg import")]),
        ("from numpy import dot, sum", [(None, 1, "from numpy import")]),
        ("from numpy import sum\ndef q(a):\n    return a * a.T + np.sum(a ** 2)", []),
    ],
)
def test_the_blas_guard_finds_each_kind_of_call(source, found):
    assert _blas_sites(ast.parse(source)) == found


# every top-level definition of the package (None for module level) that calls a float kernel
# numpy dispatches by CPU, whose bits may differ between SIMD widths, with the reason no output
# depends on that, or the change that removes it
KERNEL_SITES = {
    ("cross.py", "cross_extents"): "Python float",
    ("cross.py", "build_cross"): "each row near an integer is recomputed with the Python float **",
    ("harness.py", None): "Python int",
    ("harness.py", "_monomial_eval"): "the machine-independence re-pin: t**a and u**b of the poly registry",
    ("harness.py", "_exp_sum"): "the machine-independence re-pin: np.exp",
    ("harness.py", "synthesize_class_function"): "the machine-independence re-pin: the decay and weight powers",
    ("harness.py", "single_term_class_function"): "Python float",
    ("harness.py", "ExperimentConfig"): "the machine-independence re-pin: np.geomspace of the sweep deltas",
    ("harness.py", "fit_rate"): "the machine-independence re-pin: np.log",
    ("harness.py", "run_convergence_study"): "Python int",
    ("lowerbound.py", "_c_tilde"): "Python float, direct or with 4^mu factored out",
    ("lowerbound.py", "build_witness_pair"): "Python float",
    ("lowerbound.py", "_exp2"): "Python float, the log form's power of 2",
    ("lowerbound.py", "_bound_constant"): "Python float, direct or in log form",
    ("lowerbound.py", "_report"): "Python float, direct or in log form",
    ("lowerbound.py", "min_N_for_delta"): "Python float, direct or in log form",
    ("noise.py", "NoiseSpec"): "Python int",
    ("spectral.py", None): "Python int",
    ("spectral.py", "class_norm"): "the machine-independence re-pin; no output reads it, only tests",
    ("spectral.py", "_power_norm"): "the machine-independence re-pin at p not 1, 2 or inf; overflow fallback",
    ("text.py", None): "Python int",
    ("text.py", "_tables"): "Python int",
    ("text.py", "_shortest"): "Python int",
    ("text.py", "_powers"): "Python int",
    ("text.py", "_eisel_lemire"): "Python int",
    ("text.py", "_fold"): "Python int",
    ("text.py", "_read_block"): "Python int",
    ("truncation.py", "select_parameters"): "Python float, direct or in log form",
}
_KERNEL_FUNCTIONS = {"exp", "log", "power", "geomspace"}


def _kernel_sites(tree: ast.Module) -> list[tuple[str | None, int, str]]:
    """The enclosing top-level definition (None outside one), line and kind of each float kernel
    numpy dispatches by CPU in ``tree``: ``**`` and ``**=`` unless the exponent is a literal 2
    or 0.5, which numpy computes as a square and a square root, any attribute ``exp``, ``log``,
    ``power`` or ``geomspace`` of ``np`` or ``numpy``, and an import of one of them from numpy.
    The AST cannot tell an array from a Python number, so a ``**`` of Python numbers is listed
    too."""
    sites = []
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow):
                exponent = node.right if isinstance(node, ast.BinOp) else node.value
                if not (
                    isinstance(exponent, ast.Constant)
                    and type(exponent.value) in (int, float)
                    and exponent.value in (2, 0.5)
                ):
                    sites.append((owner, node.lineno, "**"))
            elif (
                isinstance(node, ast.Attribute)
                and node.attr in _KERNEL_FUNCTIONS
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")
            ):
                sites.append((owner, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy") and (
                _KERNEL_FUNCTIONS & {alias.name for alias in node.names}
            ):
                sites.append((owner, node.lineno, f"from {node.module} import"))
    return sites


def test_every_cpu_dispatched_kernel_of_the_package_has_a_reason():
    found = {
        (path.name, owner)
        for path in PACKAGE
        for owner, _, _ in _kernel_sites(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == set(KERNEL_SITES)


@pytest.mark.parametrize(
    "source, found",
    [
        ("x = a ** 3", [(None, 1, "**")]),
        ("def f(a):\n    a **= p", [("f", 2, "**")]),
        ("def g(a):\n    return a ** -1.0", [("g", 2, "**")]),
        ("y = a ** 2.5 + b ** True", [(None, 1, "**"), (None, 1, "**")]),
        ("def h(a):\n    return np.exp(a)", [("h", 2, "exp")]),
        ("class C:\n    def m(self, a):\n        return numpy.log(a)", [("C", 3, "log")]),
        ("z = np.power(a, b)", [(None, 1, "power")]),
        ("def d():\n    return np.geomspace(1e-2, 1e-6, 9)", [("d", 2, "geomspace")]),
        ("from numpy import exp, sum", [(None, 1, "from numpy import")]),
        ("y = a ** 2 + b ** 2.0 + c ** 0.5\nz = math.exp(a) + math.log(b) + np.sqrt(c)", []),
    ],
)
def test_the_kernel_guard_finds_each_kind_of_kernel(source, found):
    assert _kernel_sites(ast.parse(source)) == found


# the functions of lowerbound.py and truncation.py that may catch a range error: the helper that
# takes a closed form's direct or range-safe value, and the log forms' power of 2
RANGE_CATCHERS = {("truncation.py", "_in_range"), ("lowerbound.py", "_exp2")}
_RANGE_ERRORS = {
    "OverflowError", "ZeroDivisionError", "ArithmeticError", "Exception", "BaseException"
}


def _range_catches(tree: ast.Module) -> list[tuple[str | None, int]]:
    """The enclosing top-level definition (None outside one) and line of each ``except`` in
    ``tree`` that catches a range error: one that names ``OverflowError``,
    ``ZeroDivisionError``, ``ArithmeticError`` or a base of it, alone or in a tuple, or a
    bare ``except``."""
    sites = []
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.ExceptHandler) and (node.type is None or _RANGE_ERRORS & {
                getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node.type)
            }):
                sites.append((owner, node.lineno))
    return sites


def test_only_the_range_helper_and_the_power_of_2_catch_a_range_error():
    found = {
        (name, owner)
        for name in ("lowerbound.py", "truncation.py")
        for owner, _ in _range_catches(
            ast.parse((ROOT / "src" / "hcderiv" / name).read_text(encoding="utf-8"))
        )
    }
    assert found == RANGE_CATCHERS


@pytest.mark.parametrize(
    "source, found",
    [
        ("try:\n    x = 1.0 / d\nexcept ZeroDivisionError:\n    x = 0.0", [(None, 3)]),
        ("def f(a):\n    try:\n        return 2.0**a\n    except OverflowError:\n        return 0",
         [("f", 4)]),
        ("def g():\n    try:\n        pass\n    except (ValueError, builtins.ArithmeticError):\n"
         "        pass", [("g", 4)]),
        ("class C:\n    def m(self):\n        try:\n            pass\n        except:\n"
         "            pass", [("C", 5)]),
        ("try:\n    pass\nexcept Exception as exc:\n    raise", [(None, 3)]),
        ("def h(a):\n    try:\n        return float(a)\n    except ValueError:\n        return 0.0",
         []),
    ],
)
def test_the_range_guard_finds_each_kind_of_catch(source, found):
    assert _range_catches(ast.parse(source)) == found
