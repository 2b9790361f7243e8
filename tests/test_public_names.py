"""Every public name of a module, every public method of a class, every
field of a dataclass and every parameter with a default is used by the
package itself.

A name listed in a module's ``__all__`` must be loaded somewhere in
``src/stochflow`` outside its own definition; an import or an ``__all__``
entry does not count.  A public method, property or classmethod of a class
(dunders and ``_``-names do not count) must be loaded as an attribute
somewhere in ``src/stochflow`` outside its own body.  A field of a
``@dataclass`` must be loaded as an attribute somewhere in ``src/stochflow``;
reads inside its own class count, since a constructor input may be read only
by the class's own methods.  A parameter with a default, of a public
function or method or a dataclass field, must be passed by some call in
``src/stochflow``, by keyword or by position: one that every caller leaves at
its default is an option no run takes.  A name reached only by its own unit
tests is dead code: delete it, or name it in ``ALLOWED``, ``ALLOWED_METHODS``,
``ALLOWED_FIELDS`` or ``ALLOWED_PARAMETERS`` with the reason it stays.

The method and field checks go by attribute name alone, since they cannot
tell the type of the object an attribute is read from.  So a method or field
whose name is shared with another attribute cannot be seen: a ``values()``
method would pass as soon as anything reads ``ScalarField.values``.  Reads
of ``PathEnsemble.n_paths`` hid the unread ``ActionEstimate.n_paths`` in this
way, until that class was deleted.  So were, until their deletion,
``VelocityEstimate.t`` and ``SchrodingerResult.times`` (behind
``DensityState.t`` and ``PathEnsemble.times``), ``HarmonicState.psi``
(behind ``FreePacket.psi``) and ``SchrodingerResult.norm_drift()`` (behind
``BornReport.norm_drift``).  The
parameter check matches calls by name too, so a call of a namesake that
passes as many arguments hides an unpassed parameter.
"""

import ast
import functools
from pathlib import Path

import stochflow

SRC = Path(stochflow.__file__).parent

#: public names kept although nothing in the package loads them
ALLOWED = {
    ("born", "evolve_density_continuity"): "traced by bench/spans.py; oracle of the Born reference test",
    ("clifford", "geometric_product"): "traced by bench/spans.py",
    ("clifford", "scalar_product"): "traced by bench/spans.py",
    ("clifford", "wedge"): "traced by bench/spans.py",
    ("clifford", "contraction"): "traced by bench/spans.py",
    ("fokker_planck", "solve_backward"): "traced by bench/spans.py",
}

#: public methods kept although nothing in the package loads them
ALLOWED_METHODS = {
    ("fields", "ScalarField", "real_values"): "part of the kept ScalarField API",
    ("clifford", "Multivector", "basis"): "builds the operands of the products bench/spans.py traces",
    ("clifford", "Multivector", "scalar"): "builds the operands of the products bench/spans.py traces",
}

#: dataclass fields kept although nothing in the package reads them
ALLOWED_FIELDS: dict = {}

#: (module, callable, parameter) of defaulted parameters no call passes; the
#: callable is a function, a dataclass or ``Class.method``
ALLOWED_PARAMETERS = {
    ("burgers", "BurgersProblem", "potential"): "the forced equation maps to the wave equation "
    "with U; only test_burgers checks it, awaiting an experiment check",
    ("clifford", "linearization_cancellation", "lam"): "the wrong-root negative control",
}


@functools.cache
def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _public(tree: ast.Module) -> list[str]:
    """The literal ``__all__`` list of a module; none for a computed one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


def _loads(tree: ast.Module, name: str, skip: ast.AST | None, attribute_only: bool = False) -> bool:
    """Whether ``tree`` loads ``name`` (as an attribute, or also as a bare name)
    outside ``skip``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(getattr(node, "ctx", None), ast.Load):
            if isinstance(node, ast.Attribute) and node.attr == name:
                return True
            if isinstance(node, ast.Name) and node.id == name and not attribute_only:
                return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def _definition(tree: ast.Module, name: str) -> ast.AST | None:
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return node
    return None


@functools.cache
def _unused() -> list[tuple[str, str]]:
    modules = _modules()
    unused = []
    for module, tree in modules.items():
        for name in _public(tree):
            own = _definition(tree, name)
            if not any(
                _loads(other, name, own if other is tree else None) for other in modules.values()
            ):
                unused.append((module, name))
    return unused


def _methods(tree: ast.Module) -> list[tuple[str, ast.FunctionDef]]:
    """``(class name, method)`` for the public methods of the module's classes."""
    return [
        (cls.name, fn)
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for fn in cls.body if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
    ]


@functools.cache
def _unused_methods() -> list[tuple[str, str, str]]:
    modules = _modules()
    return [
        (module, cls, fn.name)
        for module, tree in modules.items()
        for cls, fn in _methods(tree)
        if not any(_loads(other, fn.name, fn, attribute_only=True) for other in modules.values())
    ]


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id == "dataclass"
        or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
        for d in cls.decorator_list
    )


def _fields(tree: ast.Module) -> list[tuple[str, str]]:
    """``(class name, field name)`` for the fields of the module's dataclasses."""
    return [
        (cls.name, stmt.target.id)
        for cls in tree.body if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]


@functools.cache
def _unused_fields() -> list[tuple[str, str, str]]:
    modules = _modules()
    return [
        (module, cls, name)
        for module, tree in modules.items()
        for cls, name in _fields(tree)
        if not any(_loads(other, name, None, attribute_only=True) for other in modules.values())
    ]


def _has_default(stmt: ast.AnnAssign) -> bool:
    """Whether a dataclass field has a default: a value other than a bare ``field(...)``."""
    value = stmt.value
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name) and value.func.id == "field":
        return any(k.arg in ("default", "default_factory") for k in value.keywords)
    return value is not None


def _defaulted(fn: ast.FunctionDef, skip: int) -> list[tuple[str, int | None]]:
    """``(parameter, position)`` for the parameters of ``fn`` with a default; the
    position counts after ``skip`` leading parameters and is None for keyword-only ones."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    return [(arg.arg, i - skip) for i, arg in enumerate(positional) if i >= first] + [
        (arg.arg, None) for arg, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None
    ]


def _parameters(tree: ast.Module):
    """``(callable, parameter, position, definition, attribute_only)`` for every defaulted
    parameter of the module's public functions and methods and its dataclass fields."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            for name, position in _defaulted(node, 0):
                yield node.name, name, position, node, False
        if not isinstance(node, ast.ClassDef):
            continue
        if _is_dataclass(node):
            fields = [s for s in node.body if isinstance(s, ast.AnnAssign)]
            for position, stmt in enumerate(fields):
                if _has_default(stmt):
                    yield node.name, stmt.target.id, position, node, False
        for _, fn in _methods(ast.Module(body=[node], type_ignores=[])):
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
            for name, position in _defaulted(fn, 0 if static else 1):
                yield f"{node.name}.{fn.name}", name, position, fn, True


def _passes(tree: ast.Module, callee: str, parameter: str, position: int | None,
            skip: ast.AST, attribute_only: bool) -> bool:
    """Whether a call of ``callee`` in ``tree``, outside ``skip``, passes ``parameter``:
    by keyword, by position, or through ``*args`` or ``**kwargs``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        stack.extend(ast.iter_child_nodes(node))
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if not (isinstance(f, ast.Attribute) and f.attr == callee
                or isinstance(f, ast.Name) and f.id == callee and not attribute_only):
            continue
        if any(k.arg in (None, parameter) for k in node.keywords):
            return True
        if any(isinstance(a, ast.Starred) for a in node.args):
            return True
        if position is not None and len(node.args) > position:
            return True
    return False


@functools.cache
def _unpassed_parameters() -> list[tuple[str, str, str]]:
    modules = _modules()
    return [
        (module, callee, name)
        for module, tree in modules.items()
        for callee, name, position, definition, attribute_only in _parameters(tree)
        if not any(
            _passes(other, callee.split(".")[-1], name, position, definition, attribute_only)
            for other in modules.values()
        )
    ]


def _allowed_callable(module: str, callee: str) -> bool:
    return (module, callee) in ALLOWED or (module, *callee.split(".")) in ALLOWED_METHODS


def test_every_public_name_is_used_or_allowed():
    assert sorted(set(_unused()) - set(ALLOWED)) == []


def test_allowlist_has_no_stale_entries():
    # an allowed name that the package now uses, or that is gone, leaves the list
    assert sorted(set(ALLOWED) - set(_unused())) == []


def test_guard_sees_a_name_used_only_inside_its_own_definition():
    tree = ast.parse("def f(n):\n    return f(n - 1)\n\ndef g():\n    return 1\n\nh = g()\n")
    assert not _loads(tree, "f", _definition(tree, "f"))
    assert _loads(tree, "g", _definition(tree, "g"))
    assert not _loads(ast.parse("from m import f\n__all__ = ['f']\n"), "f", None)


def test_every_public_method_is_used_or_allowed():
    assert sorted(set(_unused_methods()) - set(ALLOWED_METHODS)) == []


def test_method_allowlist_has_no_stale_entries():
    assert sorted(set(ALLOWED_METHODS) - set(_unused_methods())) == []


def test_guard_sees_a_method_used_only_inside_its_own_body():
    tree = ast.parse(
        "class A:\n"
        "    def f(self):\n        return self.f()\n"
        "    @property\n    def g(self):\n        return 1\n"
        "    def __len__(self):\n        return 0\n"
        "    def _h(self):\n        return 0\n"
        "\ndef g():\n    return g\n"
        "\nx = A().g\n"
    )
    (_, f), (_, g) = _methods(tree)
    assert (f.name, g.name) == ("f", "g")  # dunders and _-names do not count
    assert not _loads(tree, "f", f, attribute_only=True)
    assert _loads(tree, "g", g, attribute_only=True)
    # a bare name is a function, not the method
    assert not _loads(ast.parse("def g():\n    return g()\n"), "g", None, attribute_only=True)


def test_every_dataclass_field_is_read_or_allowed():
    assert sorted(set(_unused_fields()) - set(ALLOWED_FIELDS)) == []


def test_field_allowlist_has_no_stale_entries():
    assert sorted(set(ALLOWED_FIELDS) - set(_unused_fields())) == []


def test_guard_sees_fields_read_inside_their_own_class():
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\nclass A:\n"
        "    x0: float\n    unread: int = 0\n"
        "    def shifted(self):\n        return self.x0 + 1\n"
        "@dataclass\nclass B:\n    y: int\n"
        "class C:\n    z: int\n"
    )
    assert _fields(tree) == [("A", "x0"), ("A", "unread"), ("B", "y")]  # C is no dataclass
    assert _loads(tree, "x0", None, attribute_only=True)  # a constructor input its class reads
    assert not _loads(tree, "unread", None, attribute_only=True)
    # a keyword argument sets a field; it does not read it
    assert not _loads(ast.parse("A(x0=1.0, unread=2)\n"), "unread", None, attribute_only=True)


def test_every_defaulted_parameter_is_passed_or_allowed():
    flagged = [key for key in _unpassed_parameters() if not _allowed_callable(*key[:2])]
    assert sorted(set(flagged) - set(ALLOWED_PARAMETERS)) == []


def test_parameter_allowlist_has_no_stale_entries():
    assert sorted(set(ALLOWED_PARAMETERS) - set(_unpassed_parameters())) == []


def test_guard_sees_a_parameter_no_call_passes():
    tree = ast.parse(
        "from dataclasses import dataclass, field\n"
        "def f(x, a=1, b=2, *, c=3, d=4):\n    return f(x, 0, a=5)\n"
        "@dataclass\nclass A:\n"
        "    x: int\n    y: int = 0\n    z: list = field(default_factory=list)\n"
        "    w: int = field(repr=False)\n"
        "    def m(self, k=1):\n        return self.m(2)\n"
        "f(1, 2, 3, c=4)\nf(1, **{})\nA(1, 2)\n"
    )
    f, a_class = tree.body[1], tree.body[2]
    found = [(callee, name, position) for callee, name, position, _, _ in _parameters(tree)]
    assert found == [
        ("f", "a", 1), ("f", "b", 2), ("f", "c", None), ("f", "d", None),
        ("A", "y", 1), ("A", "z", 2), ("A.m", "k", 0),
    ]
    assert _passes(tree, "f", "b", 2, f, False)  # by position
    assert _passes(tree, "f", "c", None, f, False)  # by keyword
    assert _passes(tree, "f", "d", None, f, False)  # through **kwargs
    assert _passes(tree, "A", "y", 1, a_class, False)
    assert not _passes(tree, "A", "z", 2, a_class, False)
    # the own body does not count, and a bare name is a function, not the method
    assert not _passes(tree, "m", "k", 0, a_class.body[4], True)
    assert not _passes(ast.parse("m(1)\n"), "m", "k", 0, f, True)


def test_no_module_imports_scipy():
    # the run-time dependencies are numpy and click; scipy is not one of them
    for module, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "scipy" for name in names), module
