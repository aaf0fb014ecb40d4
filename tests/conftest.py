"""Test-suite settings shared by every module under ``tests/``.

Hypothesis draws its examples from a fixed seed (``derandomize=True``), so
every property test checks the same examples on every run and a failure
reproduces as is.  A test's own ``@settings`` still chooses its
``max_examples`` and ``deadline``.
"""

from hypothesis import settings

settings.register_profile("rumorsim", derandomize=True)
settings.load_profile("rumorsim")
