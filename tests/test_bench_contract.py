"""The names and attributes the benchmark's tracer relies on.

``bench/tracing.py`` patches names in library modules and classes and
raises at install when one is missing; it also counts flags through
``.orientations`` of the sign tables it sees and through ``len`` of the
colors that ``orient`` returns, and ``bench/checks.py`` reads every
``(flag, color)`` pair of those colors.  These checks keep the library's
side of that contract inside the main test suite.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from cellcomplexes import fixtures
from cellcomplexes.complexes import product
from cellcomplexes.flags import (
    Orientation,
    all_flags,
    orient,
    orient_all_cells,
    simplicial_signs,
)

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_namespace_patch_targets_exist(tracing):
    for module, names in tracing.NAMESPACE_PATCHES.items():
        mod = importlib.import_module(f"cellcomplexes.{module}")
        missing = [n for n in names if n not in vars(mod)]
        assert not missing, f"cellcomplexes.{module} lacks {missing}"


def test_class_patch_targets_exist(tracing):
    for (module, cls_name), names in tracing.CLASS_PATCHES.items():
        cls = vars(importlib.import_module(f"cellcomplexes.{module}"))[cls_name]
        missing = [n for n in names if n not in vars(cls)]
        assert not missing, f"{module}.{cls_name} lacks {missing}"


@pytest.mark.parametrize("make", [orient_all_cells, simplicial_signs])
def test_sign_tables_expose_orientation_colors(make):
    s = fixtures.tetrahedron_boundary()
    table = make(s)
    orientations = list(table.orientations.values())
    assert len(orientations) == len(s)
    for o in orientations:
        assert isinstance(o, Orientation) and o.colors


@pytest.mark.parametrize("make", [fixtures.tetrahedron_boundary, fixtures.torus9,
                                  lambda: product(fixtures.simplex(2), fixtures.simplex(1))],
                         ids=["tetrahedron_boundary", "torus9", "simplex2xsimplex1"])
def test_orient_colors_every_flag(make):
    s = make()
    omega = orient(s)
    assert isinstance(omega, Orientation)
    listed = all_flags(s)
    assert len(omega.colors) == len(listed)
    items = list(omega.colors.items())
    assert sorted(f for f, _ in items) == listed
    assert all(c in (1, -1) for _, c in items)
