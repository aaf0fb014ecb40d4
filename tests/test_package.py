"""Package surface: every exported name resolves, and none is listed twice."""

import ast
import importlib.util
import pathlib
import symtable
from collections import Counter

import numpy as np

import rumorsim
import rumorsim.core
import rumorsim.verify
from rumorsim.protocols import PROTOCOL_NAMES, protocol_from_name


def test_all_names_resolve_and_are_unique():
    missing = [name for name in rumorsim.__all__ if not hasattr(rumorsim, name)]
    assert missing == []
    assert len(set(rumorsim.__all__)) == len(rumorsim.__all__)


def test_verifier_imports_only_record_types_from_the_kernel():
    # The verifier is an independent oracle: it may read the kernel's
    # record and summary types, but not reuse its rules or helpers.
    tree = ast.parse(pathlib.Path(rumorsim.verify.__file__).read_text())
    from_core = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("core", "rumorsim.core"):
            from_core.update(alias.name for alias in node.names)
        if isinstance(node, ast.Import):
            assert all(alias.name != "rumorsim.core" for alias in node.names)
    assert from_core == {"CallKind", "CallOutcome", "CallRecord", "TraceSummary"}


def test_protocol_tables_agree():
    # A protocol lives in the spec table, the kernel's rules table and the
    # verifier's rules table; one added to a single layer fails here.
    assert set(rumorsim.core._RULES) == set(PROTOCOL_NAMES)
    assert set(rumorsim.verify._CALLER_RULES) == set(PROTOCOL_NAMES)
    for name in PROTOCOL_NAMES:
        assert protocol_from_name(name, 2 if name == "hybrid" else None).name == name


SPEC_TYPES = {"Hybrid", "Quasirandom", "FullyRandomPush", "ProtocolSpec"}


def test_only_protocols_dispatches_on_spec_types():
    # Every other layer picks a protocol's rules by the spec's name.
    offenders = []
    for path in sorted(pathlib.Path(rumorsim.__file__).parent.glob("*.py")):
        if path.name == "protocols.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2):
                continue
            names = {sub.id if isinstance(sub, ast.Name) else sub.attr
                     for sub in ast.walk(node.args[1])
                     if isinstance(sub, (ast.Name, ast.Attribute))}
            if names & SPEC_TYPES:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def _root_name(node):
    while isinstance(node, (ast.Attribute, ast.Call, ast.Subscript)):
        node = node.func if isinstance(node, ast.Call) else node.value
    return node.id if isinstance(node, ast.Name) else None


def test_every_per_node_array_is_read():
    # An array that the kernel only writes costs bytes per node and a
    # scatter per round for nothing.  Every array that a class of ``core``
    # (the stack, each protocol's rules) allocates with numpy in its
    # ``__init__`` must be read in ``core`` outside an ``__init__``; a store
    # into it by subscript is not a read.
    tree = ast.parse(pathlib.Path(rumorsim.core.__file__).read_text())
    allocated, bases = {}, {}
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        bases[cls.name] = [base.id for base in cls.bases if isinstance(base, ast.Name)]
        for init in cls.body:
            if isinstance(init, ast.FunctionDef) and init.name == "__init__":
                allocated[cls.name] = {
                    target.attr
                    for node in ast.walk(init) if isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Call) and _root_name(node.value.func) == "np"
                    for target in node.targets if isinstance(target, ast.Attribute)
                }
    # The stack holds the status array, the kernel's scratch and the
    # zero-stride view shuffled for a serial order nothing reads (8 bytes
    # whatever n); the rules hold every protocol's own state.
    def held(name):  # a class's arrays, its base classes' included
        return allocated.get(name, set()).union(*map(held, bases.get(name, ())))

    assert allocated["_Stack"] == {"_status", "_first_serial", "_unread_order"}
    assert held("_HybridRules") == {"next_target", "encounters"}
    assert held("_SharedListRules") == {"next_target"}
    assert "_PushRules" not in allocated
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "__init__":
            skipped.update(map(id, ast.walk(node)))
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            skipped.add(id(node.value))
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and id(node) not in skipped}
    unread = {name: sorted(arrays - read) for name, arrays in allocated.items()}
    assert {name: arrays for name, arrays in unread.items() if arrays} == {}


def test_per_node_arrays_are_at_most_four_bytes_wide():
    # Node ids, stack entries and serial positions fit int32: an array of
    # the stack or of a protocol's rules widened to int64 would double its
    # bytes per node.  Checked after a run too, as rules may grow arrays.
    n, count = 64, 3
    for name in PROTOCOL_NAMES:
        spec = protocol_from_name(name, 2 if name == "hybrid" else None)
        worlds = rumorsim.core.init_stack(spec, n, 0, list(range(count)), [None] * count)
        stack = worlds[0]._stack
        for ran in (False, True):
            if ran:
                rumorsim.core.run_stack(worlds)
            arrays = {
                f"{type(owner).__name__}.{attr}": value
                for owner in (stack, stack._rules)
                for attr, value in vars(owner).items()
                if isinstance(value, np.ndarray) and value.shape[:1] == (count * n,)
            }
            assert {"_Stack._status", "_Stack._first_serial"} <= set(arrays)
            wide = {key: str(value.dtype) for key, value in arrays.items() if value.itemsize > 4}
            assert wide == {}, (name, ran)


def _used_names(tree) -> Counter:
    """How often each name is read as a name or an attribute under ``tree``."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def _public_definitions(tree):
    """Each public function and class of a module, and each public method
    of its public classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (item for item in node.body if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_"))


def test_every_public_definition_has_a_caller_outside_the_tests():
    # The package keeps no entry point that only the tests call: each
    # public name is exported, read somewhere in the package other than in
    # its own definition, or read by a demo or the benchmark.
    package = pathlib.Path(rumorsim.__file__).parent
    repo = pathlib.Path(__file__).parents[1]
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    in_package = sum(map(_used_names, trees.values()), Counter())
    outside = sum((_used_names(ast.parse(path.read_text()))
                   for folder in ("demos", "perfbench") for path in (repo / folder).glob("*.py")),
                  Counter())
    unused = [
        f"{module}:{node.lineno} {node.name}"
        for module, tree in trees.items() for node in _public_definitions(tree)
        if node.name not in rumorsim.__all__ and not outside[node.name]
        and in_package[node.name] == _used_names(node)[node.name]
    ]
    assert unused == []


def test_sources_parse_as_python_3_10():
    # pyproject.toml declares requires-python >=3.10.
    sources = sorted(pathlib.Path(rumorsim.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def _benchmark_tracing():
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_patch_points_resolve():
    # The benchmark's traced run replaces these module globals by name; a
    # rename here would break it, though its own tests are not run here.
    tracing = _benchmark_tracing()
    assert tracing.PATCH_POINTS
    missing = [f"{module.__name__}.{name}" for module, names in tracing.PATCH_POINTS.items()
               for name in names if not callable(getattr(module, name, None))]
    assert missing == []


def _module_level_reads(source: str, tree) -> set[str]:
    """Names a module reads from its own globals: in its body, as globals
    of its functions and classes (a local of the same name shadows them),
    in annotations (which ``from __future__ import annotations`` keeps out
    of the symbol table) and in ``__all__``."""
    read = set()
    tables = [(symtable.symtable(source, "module", "exec"), True)]
    while tables:
        table, top = tables.pop()
        read.update(symbol.get_name() for symbol in table.get_symbols()
                    if symbol.is_referenced() and (top or symbol.is_global()))
        tables.extend((child, False) for child in table.get_children())
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            read.update(ast.literal_eval(node.value))
        read.update(name.id for annotation in annotations if annotation is not None
                    for name in ast.walk(annotation) if isinstance(name, ast.Name))
    return read


def test_no_module_level_import_is_unused():
    # An import nothing reads costs start-up time and misleads the reader.
    # The benchmark's traced run patches some names by module, so those
    # stay importable there even where the module never calls them.
    patched = {(module.__name__.rsplit(".", 1)[-1], name)
               for module, names in _benchmark_tracing().PATCH_POINTS.items() for name in names}
    unused = []
    for path in sorted(pathlib.Path(rumorsim.__file__).parent.glob("*.py")):
        source = path.read_text()
        tree = ast.parse(source)
        read = _module_level_reads(source, tree)
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and (path.stem, name) not in patched:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []
