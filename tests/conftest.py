"""Set-up shared by the test modules."""

import os
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def pytest_configure(config):
    """Put this checkout's ``src`` on ``PYTHONPATH``, as ``pythonpath`` in
    pyproject.toml puts it on ``sys.path``, so that a test that starts
    ``python -m hybridsets.cli`` in a child process runs the same package
    as the test itself, also from a fresh checkout with no install."""
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )
