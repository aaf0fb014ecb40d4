"""Package surface: every exported name resolves, and none is listed twice."""

import ast
import importlib.util
import pathlib

import rumorsim
import rumorsim.verify


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


def test_sources_parse_as_python_3_10():
    # pyproject.toml declares requires-python >=3.10.
    sources = sorted(pathlib.Path(rumorsim.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_benchmark_patch_points_resolve():
    # The benchmark's traced run replaces these module globals by name; a
    # rename here would break it, though its own tests are not run here.
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.PATCH_POINTS
    missing = [f"{module.__name__}.{name}" for module, names in tracing.PATCH_POINTS.items()
               for name in names if not callable(getattr(module, name, None))]
    assert missing == []
