"""Every public name of a module, every public method of a class and every
field of a dataclass is used by the package itself.

A name listed in a module's ``__all__`` must be loaded somewhere in
``src/stochflow`` outside its own definition; an import or an ``__all__``
entry does not count.  A public method, property or classmethod of a class
(dunders and ``_``-names do not count) must be loaded as an attribute
somewhere in ``src/stochflow`` outside its own body.  A field of a
``@dataclass`` must be loaded as an attribute somewhere in ``src/stochflow``;
reads inside its own class count, since a constructor input may be read only
by the class's own methods.  A name reached only by its own unit tests is
dead code: delete it, or name it in ``ALLOWED``, ``ALLOWED_METHODS`` or
``ALLOWED_FIELDS`` with the reason it stays.

The method and field checks go by attribute name alone, since they cannot
tell the type of the object an attribute is read from.  So a method or field
whose name is shared with another attribute cannot be seen: a ``values()``
method would pass as soon as anything reads ``ScalarField.values``.
"""

import ast
import functools
from pathlib import Path

import stochflow

SRC = Path(stochflow.__file__).parent

#: public names kept although nothing in the package loads them
ALLOWED = {
    ("born", "normalize_wavefunction"): "README claim (gauge invariance), awaiting an experiment check",
    ("born", "madelung_wavefunction"): "README claim (Madelung round trip), awaiting an experiment check",
    ("born", "evolve_density_continuity"): "oracle of the per-snapshot Born pipeline reference test",
    ("schrodinger", "energy"): "oracle of the split-step and eigenstate tests",
    ("analytic", "dispersion_omega"): "oracle of the plane-wave tests",
}

#: public methods kept although nothing in the package loads them
ALLOWED_METHODS = {
    ("analytic", "HarmonicState", "energy"): "oracle of the eigenstate energy tests",
    ("fields", "ScalarField", "real_values"): "part of the kept ScalarField API",
}

#: dataclass fields kept although nothing in the package reads them
ALLOWED_FIELDS = {
    ("born", "VelocityDecomposition", "mask"): "read by the node-mask test",
    ("born", "VelocityDecomposition", "coverage"): "min_coverage of the per-snapshot Born reference test",
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
