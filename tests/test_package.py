"""The package namespace: each public name loads its module on first use."""

import subprocess
import sys

import pytest


def _fresh(cli_env, script):
    # a fresh interpreter, so no module is loaded yet; -S skips site, whose
    # .pth files may import anything first
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=cli_env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("module", ["griesmer.core", "griesmer.bounds"])
def test_importing_a_module_loads_no_other(cli_env, module):
    script = f"import sys, {module}; print(*sorted(m for m in sys.modules if m.startswith('griesmer')))"
    assert _fresh(cli_env, script).split() == ["griesmer", module]


def test_public_names_resolve(cli_env):
    script = """
import griesmer
names = {}
exec("from griesmer import *", names)
del names["__builtins__"]
assert sorted(names) == sorted(griesmer.__all__), sorted(names)
for name in griesmer.__all__:
    assert getattr(griesmer, name) is names[name], name
assert set(griesmer.__all__) <= set(dir(griesmer))
try:
    griesmer.naive_oracle
except AttributeError as exc:
    print(exc)
"""
    assert _fresh(cli_env, script) == "module 'griesmer' has no attribute 'naive_oracle'\n"
