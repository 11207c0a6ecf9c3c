"""Package layout rules that hold across modules."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lapcert"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _from_package(node) -> bool:
    return isinstance(node, ast.ImportFrom) and (
        node.level > 0 or (node.module or "").startswith("lapcert"))


def test_no_module_imports_a_private_name_from_another():
    # a helper another module needs is public in its home module: neither
    # imported by name (from .eig import _openblas) nor read as an attribute
    # of what was imported from there (eig._openblas); a class's own _owning
    # constructor is the one private name read across modules
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if _from_package(node):
                for alias in node.names:
                    if _is_private(alias.name):
                        found.append(f"{path.name}:{node.lineno} imports {alias.name}")
                    imported.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in imported and _is_private(node.attr) \
                    and node.attr != "_owning":
                found.append(f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}")
    assert found == []


def _calls(tree, name: str):
    """Line numbers of the calls of ``name``, bare or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id == name) or \
                    (isinstance(func, ast.Attribute) and func.attr == name):
                yield node.lineno


def test_arrays_are_validated_only_where_they_enter():
    # SymmetricMatrix(...) copies and checks an array from outside the
    # package, and GraphSample(...) and SyncInstance(...) check a hand-built
    # sample; a matrix or a sample the package builds itself goes through
    # the owning path
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, allowed in (("SymmetricMatrix", {"cli.py"}), ("GraphSample", set()),
                              ("SyncInstance", set())):
            if path.name not in allowed:
                found += [f"{path.name}:{line} calls {name}" for line in _calls(tree, name)]
    assert found == []


def _definitions(tree):
    """(name, node) of each module-level def, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def _references(tree):
    """(name, line) of each name read, attribute read, or identifier
    string (as monkeypatch.setattr and getattr take them). Imports are
    not references."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value, node.lineno


def test_every_public_name_is_referenced():
    # a public name that nothing in src/, tests/ or bench/ reads is dead;
    # re-exporting it from __init__ does not count as a use
    root = SRC.parents[1]
    files = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((root / "tests").rglob("*.py")) + sorted((root / "bench").rglob("*.py"))
    refs = {path: list(_references(ast.parse(path.read_text(encoding="utf-8"))))
            for path in files}
    dead = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for name, node in _definitions(ast.parse(path.read_text(encoding="utf-8"))):
            if name.startswith("_"):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(ref == name and not (other == path and line in own)
                       for other, pairs in refs.items() for ref, line in pairs):
                dead.append(f"{path.stem}.{name}")
    assert dead == []


def _fields(tree):
    """(Class.field, field) of each annotated field in a class body."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{node.name}.{item.target.id}", item.target.id


def _field_reads(tree):
    """Each attribute read and identifier string; a constructor keyword,
    which only writes a field, is neither."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value


def test_every_class_field_is_read():
    # a field that is computed and stored but read by nothing in src/,
    # tests/ or bench/ is dead
    root = SRC.parents[1]
    files = sorted(SRC.glob("*.py")) + sorted((root / "tests").rglob("*.py")) \
        + sorted((root / "bench").rglob("*.py"))
    reads = set()
    for path in files:
        reads.update(_field_reads(ast.parse(path.read_text(encoding="utf-8"))))
    unread = [qualified for path in sorted(SRC.glob("*.py"))
              for qualified, name in _fields(ast.parse(path.read_text(encoding="utf-8")))
              if name not in reads]
    assert unread == []


def _callers(name: str):
    """(module, function) of each call of ``name`` in src/, by the
    module-level function that encloses it."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield from ((path.stem, node.name) for _ in _calls(node, name))
        top = [n for n in tree.body if not isinstance(n, (ast.FunctionDef, ast.ClassDef))]
        yield from ((path.stem, "<module>") for n in top for _ in _calls(n, name))


def test_one_proof_kernel_factorizes():
    # every Cholesky verdict is proved by eig.proves_max_below under one
    # rounding model; largest_eigenvalue reads the slack only to choose
    # the bound it asks the kernel to prove
    assert list(_callers("_factorizes")) == [("eig", "proves_max_below")]
    assert sorted(set(_callers("_cholesky_slack"))) == [
        ("eig", "largest_eigenvalue"), ("eig", "proves_max_below")]


def test_one_laplacian_core():
    # every Laplacian the package builds is built in place by one core,
    # which each builder hands -X in a fresh array
    assert sorted(_callers("_laplacian_in")) == [
        ("laplacians", "centered_laplacian"), ("laplacians", "graph_laplacian"),
        ("laplacians", "laplacian_of"), ("laplacians", "negated_laplacian")]


def test_one_report_builder():
    # every CertificateReport is built by _report, the one home of the
    # dead band, from the lambdas its caller computed
    assert list(_callers("CertificateReport")) == [("certificates", "_report")]


def test_the_solver_imports_no_certificate():
    # sdp cross-checks the certificates independently: a caller that wants
    # the dual certifies the rounded point, and sdp reads only eig and
    # ensembles of the package
    tree = ast.parse((SRC / "sdp.py").read_text(encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if _from_package(node):
            if node.module in (None, "lapcert"):
                modules.update(alias.name for alias in node.names)
            else:
                modules.add(node.module.rpartition(".")[2])
        elif isinstance(node, ast.Import):
            modules.update(alias.name.rpartition(".")[2] for alias in node.names
                           if alias.name.startswith("lapcert"))
    assert modules == {"eig", "ensembles"}


def test_one_margin_call_per_cell():
    # every predicted_margin column is filled by _resolve_cell from the
    # resolved cell, not by an experiment's own resolve step
    assert [c for c in _callers("threshold_margin") if c[0] == "sweeps"] == [
        ("sweeps", "_resolve_cell")]


def test_one_mmap_threshold_prime():
    # the heap is primed by a sweep, before its first trial; a call at a
    # module's top level would run on import and show here as <module>
    assert list(_callers("_raise_mmap_threshold")) == [("sweeps", "run_sweep")]


def test_every_imported_name_is_used():
    # a name a module imports and never reads is a leftover of deleted code
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []
