"""The package's public names: `tropibary.__all__` lists each once, none
private, and every one of them imports.  Its source: one max-plus product
kernel, one place that fills a vector's row cache, no report rendered by
json's pure-Python encoder, no private helper that only tests call, no
CLI input checked and decoded in two walks, and no product path that
samples extremality."""

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


def test_only_core_fills_the_row_cache():
    # a vector's row is filled in one place, core._row_of; a module that
    # assigned `_row` itself could cache a row that disagrees with coords
    src = pathlib.Path(tropibary.__file__).resolve().parent
    writes = []
    for path in sorted(src.glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for sub in ast.walk(target):
                        if isinstance(sub, ast.Attribute) and sub.attr == "_row":
                            writes.append(f"{path.name}:{sub.lineno}")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, (ast.Name, ast.Attribute))
                and getattr(node.func, "id", getattr(node.func, "attr", None)) in ("setattr", "__setattr__")
                and any(isinstance(a, ast.Constant) and a.value == "_row" for a in node.args)
            ):
                writes.append(f"{path.name}:{node.lineno}")
    assert writes == []


def test_no_json_dump_in_src_passes_indent():
    # any indent sends json.dump(s) to its pure-Python encoder; reports
    # are rendered by io.dump_document instead
    src = pathlib.Path(tropibary.__file__).resolve().parent
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("dump", "dumps")
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "json"
        and any(k.arg in ("indent", None) for k in node.keywords)
    ]
    assert calls == []


def test_only_box_host_knows_the_barycenter_host_is_a_box():
    # the barycenter suite body and the lift beta command reach the box
    # through the host's methods; lifting.BoxHost is the one place that
    # samples it, proposes targets in it and runs its oracle
    src = pathlib.Path(tropibary.__file__).resolve().parent

    def names(node) -> set:
        found = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
            elif isinstance(sub, ast.alias):
                found.add(sub.name)
        return found

    verify_tree = ast.parse((src / "verify.py").read_text(encoding="utf-8"))
    body = next((n for n in verify_tree.body if getattr(n, "name", None) == "_barycenter_lift_rows"), None)
    assert body is not None, "verify._barycenter_lift_rows is gone"
    box_names = {"sampling", "standard_box", "random_point_measure", "lattice_targets_near", "barycenter_point", "Box"}
    assert names(body) & box_names == set()
    assert "brute_force_lift_beta" not in names(ast.parse((src / "cli.py").read_text(encoding="utf-8")))


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


def test_no_environment_variable_is_read_but_the_seed():
    # a setting read from the environment is a knob; TROPIBARY_SEED, the
    # CLI's seed, is the only one.  Each read is named by its key, or by
    # file and line when the key is not a literal.
    src = pathlib.Path(tropibary.__file__).resolve().parent
    reads = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name not in ("environ", "environb", "getenv", "getenvb"):
                continue
            up = parent.get(node)
            if isinstance(up, ast.Attribute):  # os.environ.get(...)
                up = parent.get(up)
            key = None
            if isinstance(up, ast.Call) and up.args:
                key = up.args[0]
            elif isinstance(up, ast.Subscript):
                key = up.slice
            elif isinstance(up, ast.Compare):
                key = up.left
            reads.add(key.value if isinstance(key, ast.Constant) else f"{path.name}:{node.lineno}")
    assert reads == {"TROPIBARY_SEED"}


def test_no_product_path_samples_extremality():
    # extremal_points decides extremality exactly; a call under src/ or
    # demos/ that passes samples or seed (by keyword or position) would
    # run the sampled check the max-plus Minkowski theorem rules out
    src = pathlib.Path(tropibary.__file__).resolve().parent
    demos = pathlib.Path(__file__).resolve().parent.parent / "demos"
    calls, sampled = 0, []
    for path in [*sorted(src.glob("*.py")), *sorted(demos.glob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            if getattr(node.func, "attr", getattr(node.func, "id", "")) == "extremal_points":
                calls += 1
                if len(node.args) > 1 or any(k.arg in ("samples", "seed", None) for k in node.keywords):
                    sampled.append(f"{path.name}:{node.lineno}")
    assert sampled == []
    assert calls >= 4  # cli, verify, the hook certificate and the demo


def test_every_cli_document_is_loaded_in_one_walk():
    # cli reads each input with io.load; no decoder is handed the result
    # of read_document, which would check and decode in two walks
    src = pathlib.Path(tropibary.__file__).resolve().parent
    tree = ast.parse((src / "cli.py").read_text(encoding="utf-8"))

    def name(call) -> str:
        return getattr(call.func, "attr", getattr(call.func, "id", ""))

    pairs = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and name(node).endswith("_from_json")
        and any(isinstance(a, ast.Call) and name(a) == "read_document" for a in ast.walk(node) if a is not node)
    ]
    assert pairs == []
    assert any(isinstance(n, ast.Call) and name(n) == "load" for n in ast.walk(tree))
