"""Net-suite policy: an exception that escapes into ``sys.unraisablehook``
(an un-awaited coroutine, a task destroyed while pending, a transport
finalized after its event loop closed) fails the test instead of being
reported as a warning, and so does a ``ResourceWarning`` (a socket or
file left for the garbage collector to close) — clean shutdown is part
of the contract."""

from pathlib import Path

import pytest

_HERE = Path(__file__).parent


def pytest_collection_modifyitems(items):
    strict = [
        pytest.mark.filterwarnings(
            "error::pytest.PytestUnraisableExceptionWarning"
        ),
        pytest.mark.filterwarnings("error::ResourceWarning"),
    ]
    for item in items:
        if _HERE in Path(item.path).parents:
            for marker in strict:
                item.add_marker(marker)
