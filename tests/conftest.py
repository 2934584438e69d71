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
    """``run_capped(code, cap=1 << 30)`` runs ``code`` in a fresh interpreter
    that caps its own address space at ``cap`` bytes (1 GiB by default)
    first, so that a complex built by mistake fails there with MemoryError
    instead of filling the machine.  BLAS runs one thread, whose stacks
    would otherwise count against the cap."""
    src = str(Path(__file__).parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}

    def run(code, cap=1 << 30):
        prelude = f"import resource\nresource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
        return subprocess.run([sys.executable, "-c", prelude + code], capture_output=True,
                              text=True, timeout=120, env=env)

    return run
