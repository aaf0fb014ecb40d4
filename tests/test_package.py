"""Package surface: every exported name resolves, and none is listed twice."""

import ast
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
