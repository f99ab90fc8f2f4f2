"""Session set-up shared by the test modules."""
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(autouse=True, scope="session")
def child_interpreters_import_this_checkout():
    # the CLI tests start fresh interpreters; they must import nbstates from
    # this checkout's src, as pyproject's pythonpath makes the tests do
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
        yield
