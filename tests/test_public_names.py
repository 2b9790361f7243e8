"""Every public name of a module is used by the package itself.

A name listed in a module's ``__all__`` must be loaded somewhere in
``src/stochflow`` outside its own definition; an import or an ``__all__``
entry does not count.  A name reached only by its own unit tests is dead
code: delete it, or name it in ``ALLOWED`` with the reason it stays.
"""

import ast
from pathlib import Path

import stochflow

SRC = Path(stochflow.__file__).parent

#: public names kept although nothing in the package loads them
ALLOWED = {
    ("born", "normalize_wavefunction"): "README claim (gauge invariance), awaiting an experiment check",
    ("born", "madelung_wavefunction"): "README claim (Madelung round trip), awaiting an experiment check",
    ("burgers", "solve_final_value"): "README claim (forward variant as a final-value problem)",
    ("schrodinger", "energy"): "oracle of the split-step and eigenstate tests",
    ("analytic", "dispersion_omega"): "oracle of the plane-wave tests",
}


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


def _loads(tree: ast.Module, name: str, skip: ast.AST | None) -> bool:
    """Whether ``tree`` loads ``name`` (as a bare name or an attribute) outside ``skip``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load):
            return True
        if isinstance(node, ast.Attribute) and node.attr == name and isinstance(node.ctx, ast.Load):
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def _definition(tree: ast.Module, name: str) -> ast.AST | None:
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return node
    return None


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
