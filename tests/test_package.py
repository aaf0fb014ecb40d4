"""Package surface: every exported name resolves, and none is listed twice."""

import rumorsim


def test_all_names_resolve_and_are_unique():
    missing = [name for name in rumorsim.__all__ if not hasattr(rumorsim, name)]
    assert missing == []
    assert len(set(rumorsim.__all__)) == len(rumorsim.__all__)
