import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from cellcomplexes import fixtures
from cellcomplexes.flags import orient_all_cells


@pytest.fixture(scope="session")
def torus9():
    return fixtures.torus9()


@pytest.fixture(scope="session")
def torus9_signs(torus9):
    return orient_all_cells(torus9)


@pytest.fixture(scope="session")
def tetra_boundary():
    return fixtures.tetrahedron_boundary()


@pytest.fixture(scope="session")
def tetra_boundary_signs(tetra_boundary):
    return orient_all_cells(tetra_boundary)


@pytest.fixture(scope="session")
def tetra_solid():
    return fixtures.tetrahedron_solid()


@pytest.fixture(scope="session")
def mobius3():
    return fixtures.mobius3()


@pytest.fixture(scope="session")
def two_triangles():
    return fixtures.two_triangles()


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls((module, name), ...)`` wraps each named function for
    the test and returns the list that every call through those names
    appends to."""
    calls = []

    def wrap(original, name):
        def counting(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return counting

    def install(*targets):
        for module, name in targets:
            monkeypatch.setattr(module, name, wrap(getattr(module, name), name))
        return calls

    return install


@pytest.fixture
def run_capped():
    """``run_capped(code)`` runs ``code`` in a fresh interpreter that caps
    its own address space at 1 GiB first, so that a complex built by
    mistake fails there with MemoryError instead of filling the machine."""
    src = str(Path(__file__).parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    prelude = "import resource\nresource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"

    def run(code):
        return subprocess.run([sys.executable, "-c", prelude + code], capture_output=True,
                              text=True, timeout=120, env=env)

    return run
