"""The package's public names: `tropibary.__all__` lists each once, none
private, and every one of them imports.  Its source: one max-plus product
kernel, and no private helper that only tests call."""

import ast
import pathlib

import tropibary


def test_public_names_are_unique_public_and_resolve():
    names = tropibary.__all__
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    assert [n for n in names if n.startswith("_")] == []
    assert [n for n in names if not hasattr(tropibary, n)] == []


def test_max_plus_products_go_through_the_one_kernel():
    # oplus_i c_i odot v_i is core._dot: it builds one Fraction, the fold one per term
    src = pathlib.Path(tropibary.__file__).resolve().parent
    folds = [
        f"{path.name}:{n}"
        for path in sorted(src.glob("*.py"))
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "oplus_all(odot(" in line or "oplus_all(map(odot" in line
    ]
    assert folds == []


def test_every_private_helper_has_a_caller_in_src():
    # a module-level private def or class that no code in src/ names (as a
    # Name, an Attribute or an import alias) is kept for tests alone
    src = pathlib.Path(tropibary.__file__).resolve().parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    unused = [
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and node.name not in named
    ]
    assert unused == []
