"""Shared fixtures for the test suite."""

import os
from pathlib import Path

import pytest

import griesmer


@pytest.fixture
def cli_env():
    """Environment for a `python -m griesmer.cli` child that imports this same package."""
    paths = [str(Path(griesmer.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
