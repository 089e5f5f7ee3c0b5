"""Unused-import, dead-private-name, private-import and layering guards for the package.

Every name a module imports (``from __future__`` excluded) must be loaded
somewhere in that module as a plain ``Name``; ``mpmath.iv`` loads
``mpmath``.  Likewise every module-level private name (``_name``: a function,
a class or an assignment target) in the package must be loaded in its own
module, so a helper that a change leaves without a caller is caught.  No
module imports a private name from a ``qsign`` module: a name another
module needs is public.  The test oracles (``tests/oracles.py``) are held to
the unused-import and private-import guards as well, so they stay
independent of the package's internals.  And every public top-level function
or class of the package is loaded (as a name or an attribute) in ``src/``
or ``bench/`` outside its own definition, or is named in
``TEST_ONLY``: code that only tests use is listed, and the list is kept
exact both ways.  The same holds one level down: every method and property
of a top-level package class (dunders excluded) is read as an attribute in
``src/`` or ``bench/`` outside its own body, or is listed, exactly, in
``MEMBER_TEST_ONLY``; a member read only by a name string (``getattr``)
counts as unread.  Imports sit at module top, never in a function body
(except the few in ``DEFERRED_IMPORTS``), and a package module imports
only the ``qsign`` modules below it in ``LAYERS``.  The certified layer
(``enclosure``, with its complex rectangles, and ``analytic``) sits below
the diagnostic ``circle``: the transitive ``qsign`` imports of ``certify``
never reach ``circle``, and no module among them reads mpmath's float
context (``mp`` beyond ``mp.make_mpf``, or an mpmath function whose result
rounds at ``mp.prec``).
No function of ``analytic`` takes a spec by name, no memoized function of
the package takes the written ``factors`` of a spec, and ``certify`` passes no
literal modulus to a sign scan, nor reads a coefficient as an int
(``.coeffs``, ``.coeff(n)``).  No package module loads or assigns
``iv.prec`` or enters ``precision(...)``, except ``enclosure.precision``
itself: precision is an argument, never process-wide state.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "qsign").glob("*.py"))
CALLERS = sorted([*PACKAGE, *(ROOT / "bench").glob("*.py")])
#: the modules whose imports are guarded: the package and the test oracles
IMPORTERS = [*PACKAGE, ROOT / "tests" / "oracles.py"]
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)

#: public package code that only the tests use.  Oracles and paper-lemma
#: checks live in ``tests/oracles.py``; ``circle.lemma_arc_integral`` stays in
#: the package, a diagnostic next to the Farey arcs it integrates over, and
#: reads the main-term formula of one arc from ``analytic.arc_bessel``.
#: ``dedekind_sum`` is the checked Fraction form of s(d, c), which the bench
#: traces by name; the package itself reads 6c s(d, c) as an integer.
TEST_ONLY = {"circle.lemma_arc_integral", "modular.dedekind_sum"}

#: methods and properties of package classes that only the tests read:
#: ``Enclosure.width`` is how the tests measure that precision tightens an
#: enclosure; ``Enclosure.intersects`` is how they compare two enclosures of
#: one value that neither contains; ``TransformData.upsilon`` is the Upsilon
#: exponent that ``prefactor_phase`` folds into one numerator, read apart so
#: the tests can check it against its Fraction sum
MEMBER_TEST_ONLY = {
    "enclosure.Enclosure.width", "enclosure.Enclosure.intersects",
    "modular.TransformData.upsilon"}

#: per package module, the modules a function body may import: each serves
#: one rarely taken path, and importing it at module top would cost every run
#: (``concurrent.futures`` only for ``qsign xcheck --workers`` above 1)
DEFERRED_IMPORTS = {"cli": {"concurrent.futures"}}

#: the package's modules, lowest first ("__init__" is the package itself)
LAYERS = ("__init__", "qseries", "modular", "enclosure", "analytic", "circle", "certify", "cli")


def loaded_names(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    loaded = loaded_names(tree)
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in loaded]


def dead_private_names(source: str) -> list[str]:
    tree = ast.parse(source)
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        defined[sub.id] = node.lineno
    loaded = loaded_names(tree)
    return [f"line {line}: {name}" for name, line in sorted(defined.items(), key=lambda kv: kv[1])
            if name.startswith("_") and not name.startswith("__") and name not in loaded]


def private_qsign_imports(source: str) -> list[str]:
    """``_name``s imported from a qsign module, relatively or as ``qsign.*``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "qsign"):
            out += [f"line {node.lineno}: {alias.name}" for alias in node.names
                    if alias.name.startswith("_") and not alias.name.startswith("__")]
    return out


def test_guard_sees_an_unused_import():
    assert unused_imports("import os\nfrom typing import Iterable, Iterator\nx: Iterator\n") == [
        "line 1: os", "line 2: Iterable"]
    assert unused_imports("from __future__ import annotations\nimport mpmath\nmpmath.iv\n") == []


@pytest.mark.parametrize("path", IMPORTERS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_guard_sees_a_dead_private_name():
    source = ("def _used():\n    pass\n\ndef _dead():\n    _used()\n\n"
              "class _Gone:\n    pass\n\n_TABLE, public = {}, 1\n_LIMIT: int = 3\n"
              "__all__ = []\n")
    assert dead_private_names(source) == ["line 4: _dead", "line 7: _Gone",
                                          "line 10: _TABLE", "line 11: _LIMIT"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_dead_private_names(path):
    assert dead_private_names(path.read_text()) == []


def test_guard_sees_a_private_qsign_import():
    source = ("from .modular import _class_deltas, omega_exact\nfrom . import __version__\n"
              "from qsign.circle import ComplexHP, _tail_padding\nfrom os import _exit\n"
              "from qsign import circle\n")
    assert private_qsign_imports(source) == ["line 1: _class_deltas", "line 3: _tail_padding"]


@pytest.mark.parametrize("path", IMPORTERS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_private_qsign_imports(path):
    assert private_qsign_imports(path.read_text()) == []


def loads_outside_own_definition(source: str) -> set[str]:
    """Names loaded as a ``Name`` or an attribute, except inside their own top-level def."""
    out: set[str] = set()
    for node in ast.parse(source).body:
        names = {sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
                 if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load)}
        out |= names - {node.name} if isinstance(node, DEFINITIONS) else names
    return out


def uncalled_public_names(package: dict[str, str], callers: list[str]) -> set[str]:
    """``module.name`` of each public top-level def in `package` that no caller source loads."""
    loaded = set().union(*map(loads_outside_own_definition, callers))
    return {f"{module}.{node.name}" for module, source in package.items()
            for node in ast.parse(source).body
            if isinstance(node, DEFINITIONS) and not node.name.startswith("_")
            and node.name not in loaded}


def test_guard_sees_public_code_nothing_uses():
    lib = ("def used():\n    pass\n\ndef recursive(n):\n    return recursive(n - 1)\n\n"
           "class Orphan:\n    pass\n\ndef _private():\n    helper()\n\ndef helper():\n"
           "    return helper\n\ndef via_attribute():\n    pass\n")
    caller = "import lib\nfrom lib import used\nused()\nlib.via_attribute()\n"
    assert uncalled_public_names({"lib": lib}, [lib, caller]) == {"lib.recursive", "lib.Orphan"}
    assert uncalled_public_names({"lib": lib}, [lib]) == {
        "lib.used", "lib.recursive", "lib.Orphan", "lib.via_attribute"}


def test_public_code_has_a_caller_or_is_listed_as_test_only():
    package = {path.stem: path.read_text() for path in PACKAGE}
    assert uncalled_public_names(package, [path.read_text() for path in CALLERS]) == TEST_ONLY


def attribute_loads(source: str) -> set[str]:
    """Attribute names loaded in `source`, except a top-level class member's name in its own body."""
    tree = ast.parse(source)
    own = {id(sub): item.name for node in tree.body if isinstance(node, ast.ClassDef)
           for item in node.body if isinstance(item, FUNCTIONS) for sub in ast.walk(item)}
    return {sub.attr for sub in ast.walk(tree) if isinstance(sub, ast.Attribute)
            and isinstance(sub.ctx, ast.Load) and own.get(id(sub)) != sub.attr}


def unread_public_members(package: dict[str, str], callers: list[str]) -> set[str]:
    """``module.Class.name`` of each non-dunder method or property no caller reads as an attribute."""
    loaded = set().union(*map(attribute_loads, callers))
    return {f"{module}.{node.name}.{item.name}" for module, source in package.items()
            for node in ast.parse(source).body if isinstance(node, ast.ClassDef)
            for item in node.body if isinstance(item, FUNCTIONS)
            and not (item.name.startswith("__") and item.name.endswith("__"))
            and item.name not in loaded}


def test_guard_sees_a_member_nothing_reads():
    lib = ("class Box:\n    def __len__(self):\n        return 0\n\n"
           "    def used(self):\n        return self.helper()\n\n"
           "    def helper(self):\n        return 1\n\n"
           "    @property\n    def unread(self):\n        return 2\n\n"
           "    def recursive(self, n):\n        return self.recursive(n - 1)\n\n"
           "    @staticmethod\n    def make():\n        return Box()\n\n"
           "    def _private(self):\n        pass\n\n"
           "def free():\n    pass\n")
    caller = "from lib import Box\nBox.make().used\nprint(getattr(Box(), 'unread'))\n"
    assert unread_public_members({"lib": lib}, [lib, caller]) == {
        "lib.Box.unread", "lib.Box.recursive", "lib.Box._private"}
    assert unread_public_members({"lib": lib}, [lib]) == {
        "lib.Box.used", "lib.Box.unread", "lib.Box.recursive", "lib.Box.make",
        "lib.Box._private"}


def test_members_have_a_reader_or_are_listed():
    package = {path.stem: path.read_text() for path in PACKAGE}
    unread = unread_public_members(package, [path.read_text() for path in CALLERS])
    assert unread == MEMBER_TEST_ONLY


def qsign_modules(node: ast.Import | ast.ImportFrom) -> list[str]:
    """The ``qsign`` modules an import statement loads, relatively or as ``qsign.*``."""
    if isinstance(node, ast.Import):
        paths = [alias.name.split(".") for alias in node.names]
        return [(path[1:] or ["__init__"])[0] for path in paths if path[0] == "qsign"]
    path = node.module.split(".") if node.module else []
    if node.level == 0:
        if not path or path[0] != "qsign":
            return []
        path = path[1:]
    if path:
        return [path[0]]
    return [alias.name if alias.name in LAYERS else "__init__" for alias in node.names]


def layering_violations(source: str, module: str) -> list[str]:
    """Imports inside a function body, and imports of a qsign module not below `module`.

    `module` is a package module's name in ``LAYERS``; a ``from X import``
    inside a function is allowed for the X in its ``DEFERRED_IMPORTS``.
    """
    tree = ast.parse(source)
    imports = (ast.Import, ast.ImportFrom)
    nested = {id(sub) for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              for sub in ast.walk(node) if isinstance(sub, imports)}
    below = LAYERS[:LAYERS.index(module)]
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, imports):
            continue
        deferred = (isinstance(node, ast.ImportFrom)
                    and node.module in DEFERRED_IMPORTS.get(module, ()))
        if id(node) in nested and not deferred:
            found.append((node.lineno, "import inside a function"))
        found += [(node.lineno, f"imports {target}") for target in qsign_modules(node)
                  if target not in below]
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_guard_sees_a_layering_violation():
    source = ("from . import __version__\nfrom .qseries import ProductSpec\n"
              "from .circle import farey_arcs\nfrom qsign.cli import main\n"
              "from . import certify\nimport qsign.analytic\nimport os\n\n"
              "def f():\n    def g():\n        from math import gcd\n    import os\n")
    assert layering_violations(source, "analytic") == [
        "line 3: imports circle", "line 4: imports cli", "line 5: imports certify",
        "line 6: imports analytic", "line 11: import inside a function",
        "line 12: import inside a function"]
    assert layering_violations("from . import __version__\n", "__init__") == [
        "line 1: imports __init__"]
    deferred = ("def pool():\n    from concurrent.futures import ProcessPoolExecutor\n"
                "    import concurrent.futures\n    from os import cpu_count\n")
    assert layering_violations(deferred, "cli") == [
        "line 3: import inside a function", "line 4: import inside a function"]
    assert layering_violations(deferred, "circle") == [
        "line 2: import inside a function", "line 3: import inside a function",
        "line 4: import inside a function"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_imports_follow_the_layers(path):
    assert layering_violations(path.read_text(), path.stem) == []


def import_closure(sources: dict[str, str], root: str) -> set[str]:
    """The qsign modules `root` loads, itself included, following every import transitively."""
    seen, todo = set(), [root]
    while todo:
        module = todo.pop()
        if module not in seen:
            seen.add(module)
            todo += [target for node in ast.walk(ast.parse(sources[module]))
                     if isinstance(node, (ast.Import, ast.ImportFrom))
                     for target in qsign_modules(node)]
    return seen


#: what a certified module may take from mpmath beyond the ``mpmath.libmp``
#: and ``mpmath.ctx_iv`` kernels, which take their precision as an argument:
#: ``mp.make_mpf`` wraps an exact endpoint, ``nstr`` and ``isfinite`` read one,
#: ``mpf`` is a type for annotations, and ``iv`` is the interval context,
#: whose precision only ``enclosure.precision`` sets (``ambient_precision_uses``)
MPMATH_IMPORTS = {"mp", "iv", "nstr", "isfinite"}
MPMATH_ATTRIBUTES = {"nstr", "isfinite", "libmp", "ctx_iv"}


def float_context_uses(source: str) -> list[str]:
    """Reads of mpmath's float context: a name from ``mp`` other than ``make_mpf``,
    a ``from mpmath import`` or ``mpmath.`` name outside the lists above, and
    ``mpmath.mpf`` outside an annotation (as a constructor it rounds at ``mp.prec``)."""
    tree = ast.parse(source)
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, FUNCTIONS) and node.returns]
    in_annotation = {id(sub) for node in annotations for sub in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "mpmath":
            found += [(node.lineno, f"mpmath.{alias.name}") for alias in node.names
                      if alias.name not in MPMATH_IMPORTS]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            owner, name = node.value.id, node.attr
            if (owner == "mp" and name != "make_mpf") or (
                    owner == "mpmath" and name not in MPMATH_ATTRIBUTES
                    and not (name == "mpf" and id(node) in in_annotation)):
                found.append((node.lineno, f"{owner}.{name}"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def certified_closure_violations(sources: dict[str, str], root: str) -> list[str]:
    """``circle`` in the import closure of `root`, and every float-context read in that closure."""
    closure = import_closure(sources, root)
    found = [f"{root} loads circle"] if "circle" in closure else []
    return found + [f"{module} {use}" for module in sorted(closure)
                    for use in float_context_uses(sources[module])]


def test_guard_sees_a_float_context_read():
    source = ("import mpmath\nfrom mpmath import iv, mp, quad\n"
              "def f(x: mpmath.mpf) -> mpmath.mpf:\n"
              "    with mp.workdps(30):\n        return mpmath.mpf(1) + mp.make_mpf(x)\n"
              "y = mpmath.nstr(mpmath.mp.prec, 5)\nz = mpmath.libmp.fone\n")
    assert float_context_uses(source) == [
        "line 2: mpmath.quad", "line 4: mp.workdps", "line 5: mpmath.mpf", "line 6: mpmath.mp"]


def test_guard_sees_a_diagnostic_in_the_certified_closure():
    sources = {"certify": "from . import __version__\nfrom .analytic import main_term\n",
               "__init__": "", "enclosure": "from mpmath import mp\nmp.make_mpf\n",
               "analytic": "from .enclosure import Enclosure\nfrom .circle import farey_arcs\n",
               "circle": "from .enclosure import Enclosure\n"}
    assert certified_closure_violations(sources, "certify") == ["certify loads circle"]
    sources["analytic"] = ("from mpmath import mp\nfrom .enclosure import Enclosure\n\n"
                           "def spot_check():\n    with mp.workdps(40):\n        pass\n")
    assert certified_closure_violations(sources, "certify") == [
        "analytic line 5: mp.workdps"]


def test_certify_loads_no_diagnostic_and_no_float_context():
    # the certificate path is exact and interval arithmetic only: the
    # diagnostic quadrature and its mpmath float context stay in circle
    sources = {path.stem: path.read_text() for path in PACKAGE}
    assert import_closure(sources, "certify") == {
        "__init__", "qseries", "modular", "enclosure", "analytic", "certify"}
    assert certified_closure_violations(sources, "certify") == []


def spec_name_parameters(source: str) -> list[str]:
    """Function parameters that take a spec by name: ``spec_name``, or a spec annotated ``str``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            params = [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]
            found += [f"line {node.lineno}: {node.name}({arg.arg})" for arg in params
                      if arg.arg == "spec_name" or ("spec" in arg.arg and arg.annotation is not None
                                                    and ast.unparse(arg.annotation) == "str")]
    return found


def test_guard_sees_a_spec_taken_by_name():
    source = ("def by_name(spec_name, n):\n    pass\n\ndef annotated(spec: str, n: int):\n"
              "    pass\n\ndef keyed(spec: ProductSpec, name: str):\n    pass\n\n"
              "class Holder:\n    def method(self, *, base_spec: str):\n        pass\n")
    assert spec_name_parameters(source) == [
        "line 1: by_name(spec_name)", "line 4: annotated(spec)", "line 11: method(base_spec)"]


def test_analytic_takes_a_product_spec_never_a_name():
    # names are resolved in certify and cli; the analytic layer is keyed by spec content
    assert spec_name_parameters((ROOT / "src" / "qsign" / "analytic.py").read_text()) == []


def memos_keyed_by_factors(source: str) -> list[str]:
    """``lru_cache``- or ``cache``-decorated functions with a parameter named ``factors``."""
    def name(decorator: ast.expr) -> str:
        func = decorator.func if isinstance(decorator, ast.Call) else decorator
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, FUNCTIONS) and any(name(d) in ("lru_cache", "cache")
                                               for d in node.decorator_list):
            params = [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]
            found += [f"line {node.lineno}: {node.name}" for arg in params if arg.arg == "factors"]
    return found


def test_guard_sees_a_memo_keyed_by_factors():
    source = ("@lru_cache(maxsize=8)\ndef a(factors, n):\n    pass\n\n"
              "@functools.cache\ndef b(*, factors):\n    pass\n\n"
              "@cache\ndef c(spec, bits):\n    pass\n\n"
              "def d(factors):\n    pass\n\n"
              "class Holder:\n    @functools.lru_cache\n    def e(self, factors):\n        pass\n")
    assert memos_keyed_by_factors(source) == ["line 2: a", "line 6: b", "line 18: e"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_memo_keyed_by_written_factors(path):
    # a memo keyed by the factors as written gives one product as many keys
    # as it has spellings; key it by the ProductSpec, which hashes by content
    assert memos_keyed_by_factors(path.read_text()) == []


def literal_moduli(source: str) -> list[str]:
    """Calls of ``sign_exceptions`` or ``slice_signs`` whose modulus is an integer literal."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", "")
        if name in ("sign_exceptions", "slice_signs"):
            moduli = [*node.args[2:3], *(kw.value for kw in node.keywords if kw.arg == "modulus")]
            found += [f"line {node.lineno}: {name}" for arg in moduli
                      if isinstance(arg, ast.Constant) and isinstance(arg.value, int)]
    return found


def test_guard_sees_a_literal_modulus():
    source = ("sign_exceptions(s, 1, 5, 0, 9, 1)\n"
              "qseries.slice_signs(s, r, modulus=5, lo=0, hi=9)\n"
              "sign_exceptions(s, t.residue, t.modulus, 0, 9, 1)\nslice_indices(1, 5, 0, 9)\n")
    assert literal_moduli(source) == ["line 1: sign_exceptions", "line 2: slice_signs"]


def test_certify_takes_every_modulus_from_a_target():
    # a class's modulus is the length of its pattern, never typed
    assert literal_moduli((ROOT / "src" / "qsign" / "certify.py").read_text()) == []


def int_coefficient_reads(source: str) -> list[str]:
    """Loads of a ``.coeffs`` attribute and calls of a ``.coeff(...)`` method."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "coeffs":
            found.append((node.lineno, ".coeffs"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "coeff"):
            found.append((node.lineno, ".coeff("))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_guard_sees_an_int_coefficient_read():
    source = ("a = s.coeffs[3]\nb = cache[key].coeff(7)\nc = s.signs[3]\n"
              "d = coeff(s, 1)\ne = s.coefficient\n")
    assert int_coefficient_reads(source) == ["line 1: .coeffs", "line 2: .coeff("]


def test_certify_reads_signs_never_int_coefficients():
    # the certificate path reads signs off the limbs; an int read would
    # convert every coefficient of D to 19501
    assert int_coefficient_reads((ROOT / "src" / "qsign" / "certify.py").read_text()) == []


def ambient_precision_uses(source: str, module: str) -> list[str]:
    """Loads and stores of ``iv.prec`` and ``with precision(...)``, outside ``enclosure.precision``."""
    tree = ast.parse(source)
    exempt = {id(sub) for node in tree.body
              if module == "enclosure" and isinstance(node, ast.FunctionDef)
              and node.name == "precision" for sub in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Attribute) and node.attr == "prec" and (
                getattr(node.value, "id", None) == "iv" or getattr(node.value, "attr", None) == "iv"):
            found.append((node.lineno, "iv.prec"))
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            calls = [item.context_expr.func for item in node.items
                     if isinstance(item.context_expr, ast.Call)]
            found += [(node.lineno, "precision(...)") for func in calls
                      if getattr(func, "id", None) == "precision"
                      or getattr(func, "attr", None) == "precision"]
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_guard_sees_ambient_precision():
    source = ("from mpmath import iv\n\n"
              "def f():\n    old = iv.prec\n    iv.prec = 64\n"
              "    with open('x'), precision(96):\n        pass\n"
              "    with enclosure.precision(8):\n        return mpmath.iv.prec\n\n"
              "def precision(bits):\n    iv.prec = bits\n")
    found = ["line 4: iv.prec", "line 5: iv.prec", "line 6: precision(...)",
             "line 8: precision(...)", "line 9: iv.prec"]
    assert ambient_precision_uses(source, "analytic") == [*found, "line 12: iv.prec"]
    assert ambient_precision_uses(source, "enclosure") == found


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_ambient_precision(path):
    assert ambient_precision_uses(path.read_text(), path.stem) == []
