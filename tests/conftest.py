"""Test-session set-up."""

from __future__ import annotations

import shutil
import tempfile

import pytest
from hypothesis import configuration

_HYPOTHESIS_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    # Hypothesis caches what it reads from local source files while the tests
    # are collected, under .hypothesis/ in the working directory unless its
    # home directory is moved; a temporary one for the session keeps the tree
    # clean.
    home = tempfile.mkdtemp(prefix="starfact-hypothesis-")
    config.stash[_HYPOTHESIS_HOME] = home
    configuration.set_hypothesis_home_dir(home)


def pytest_unconfigure(config):
    shutil.rmtree(config.stash[_HYPOTHESIS_HOME], ignore_errors=True)
