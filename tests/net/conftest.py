"""Net-suite policy: an exception that escapes into ``sys.unraisablehook``
(an un-awaited coroutine, a task destroyed while pending, a transport
finalized after its event loop closed) fails the test instead of being
reported as a warning — clean shutdown is part of the contract."""

from pathlib import Path

import pytest

_HERE = Path(__file__).parent


def pytest_collection_modifyitems(items):
    strict = pytest.mark.filterwarnings(
        "error::pytest.PytestUnraisableExceptionWarning"
    )
    for item in items:
        if _HERE in Path(item.path).parents:
            item.add_marker(strict)
