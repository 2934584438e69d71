import io
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cellcomplexes
from cellcomplexes import fileformat, fixtures
from cellcomplexes.cli import main


def run_cli(args, stdin: str = ""):
    """Invoke the entry point in-process, capturing stdout."""
    old_in, old_out = sys.stdin, sys.stdout
    sys.stdin = io.StringIO(stdin)
    sys.stdout = io.StringIO()
    try:
        code = main(args)
        return code, sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = old_in, old_out


@pytest.fixture()
def torus_file(tmp_path):
    p = tmp_path / "t9.ccc"
    code, text = run_cli(["example", "torus9"])
    assert code == 0
    p.write_text(text)
    return str(p)


@pytest.fixture()
def mobius_file(tmp_path):
    p = tmp_path / "m3.ccc"
    p.write_text(fileformat.dumps(fixtures.mobius3()))
    return str(p)


# -- example ------------------------------------------------------------------


def test_example_torus(torus_file):
    s = fileformat.loads(open(torus_file).read())
    assert [len(s.cells_of_rank(r)) for r in range(3)] == [9, 18, 9]


def test_example_mobius():
    code, text = run_cli(["example", "mobius3"])
    s = fileformat.loads(text)
    assert code == 0
    assert [len(s.cells_of_rank(r)) for r in range(3)] == [6, 9, 3]
    assert len(s) == 18


def test_example_simplex():
    code, text = run_cli(["example", "simplex", "2"])
    assert code == 0
    assert len(fileformat.loads(text)) == 7


def test_example_writes_file(tmp_path):
    out = tmp_path / "e.ccc"
    code, _ = run_cli(["example", "edge", "-o", str(out)])
    assert code == 0
    assert fileformat.loads(out.read_text()).dim == 1


def test_example_unknown_name():
    code, _ = run_cli(["example", "klein_bottle"])
    assert code == 2


def test_every_fixture_round_trips():
    for name in fixtures.FIXTURES:
        code, text = run_cli(["example", name])
        assert code == 0
        s = fileformat.loads(text)
        assert fileformat.dumps(s) == text


# -- validate / info -----------------------------------------------------------


def test_validate_good(torus_file):
    code, out = run_cli(["validate", torus_file])
    assert code == 0 and "all axioms hold" in out


def test_validate_bad_fixture(tmp_path):
    p = tmp_path / "bad.ccc"
    p.write_text(fileformat.dumps(fixtures.bad_axiom4()))
    code, out = run_cli(["validate", str(p)])
    assert code == 1
    assert "axiom 4" in out and "expected exactly two" in out


def test_validate_missing_file():
    code, _ = run_cli(["validate", "/no/such/file.ccc"])
    assert code == 2


def test_validate_parse_error(tmp_path):
    p = tmp_path / "junk.ccc"
    p.write_text("junk\n")
    code, _ = run_cli(["validate", str(p)])
    assert code == 2


def test_rank_beyond_cell_count_rejected_at_load(tmp_path):
    p = tmp_path / "tall.ccc"
    p.write_text("ccc v1\ncell b 30000000\n")
    code, _ = run_cli(["validate", str(p)])
    assert code == 2


def test_info_empty_complex(tmp_path):
    p = tmp_path / "empty.ccc"
    p.write_text("ccc v1\n")
    code, out = run_cli(["info", str(p)])
    assert code == 0
    assert "cells: 0" in out and "undefined" in out


def test_info(torus_file):
    code, out = run_cli(["info", torus_file])
    assert code == 0
    assert "face vector: (9, 18, 9)" in out
    assert "euler characteristic: 0" in out
    assert "manifold-like: True" in out


# -- orient ----------------------------------------------------------------------


def test_orient_torus(torus_file):
    code, out = run_cli(["orient", torus_file])
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("flag ")]
    assert len(lines) == 72
    assert all(l.endswith("+1") or l.endswith("-1") for l in lines)
    assert ">" in lines[0]


def test_orient_mobius_prints_certificate(mobius_file):
    code, out = run_cli(["orient", mobius_file])
    assert code == 1
    assert "odd flag cycle" in out
    cycle_lines = [l for l in out.splitlines() if l.startswith("  ")]
    assert len(cycle_lines) % 2 == 1


# -- homology / cohomology ---------------------------------------------------------


def test_homology_output(torus_file):
    code, out = run_cli(["homology", torus_file])
    assert code == 0
    assert out.splitlines() == ["H_0 = Z^1", "H_1 = Z^2", "H_2 = Z^1"]


def test_homology_kv(torus_file):
    code, out = run_cli(["homology", torus_file, "--kv"])
    assert code == 0
    assert "betti_1=2" in out.splitlines()
    assert "torsion_1=" in out


def test_cohomology_output(torus_file):
    code, out = run_cli(["cohomology", torus_file])
    assert code == 0
    assert out.splitlines() == ["H^0 = Z^1", "H^1 = Z^2", "H^2 = Z^1"]


# -- subdivide ----------------------------------------------------------------------


def test_subdivide_at_cell(torus_file):
    code, out = run_cli(["subdivide", torus_file, "--at", "h00"])
    assert code == 0
    s = fileformat.loads(out)
    assert len(s) == 46
    assert "C(h00;0)" in out


def test_subdivide_at_unknown_cell(torus_file):
    code, _ = run_cli(["subdivide", torus_file, "--at", "zz"])
    assert code == 1


def test_subdivide_barycentric_pipe(torus_file):
    code, text = run_cli(["subdivide", torus_file, "--barycentric"])
    assert code == 0
    code, out = run_cli(["homology", "-"], stdin=text)
    assert code == 0
    assert out.splitlines() == ["H_0 = Z^1", "H_1 = Z^2", "H_2 = Z^1"]


def test_subdivide_tower_with_manifest(torus_file, tmp_path):
    d = tmp_path / "tower"
    code, out = run_cli(["subdivide", torus_file, "--bary-via-stellar",
                         "--tower-dir", str(d)])
    assert code == 0
    assert (d / "manifest.txt").exists()
    stages = (d / "manifest.txt").read_text().strip().splitlines()[1:]
    assert len(stages) == 2
    assert stages[0].split()[4].count(",") == 8  # the nine squares
    for line in stages:
        assert (d / line.split()[3]).exists()
    final = fileformat.loads(out)
    assert len(final) == 216


def test_tower_and_barycentric_agree(torus_file):
    _, a = run_cli(["subdivide", torus_file, "--barycentric"])
    _, b = run_cli(["subdivide", torus_file, "--bary-via-stellar"])
    assert fileformat.loads(a) == fileformat.loads(b)


# -- dual / duality / stokes -----------------------------------------------------------


def test_dual_round_trip(torus_file):
    code, out = run_cli(["dual", torus_file])
    assert code == 0
    code, out2 = run_cli(["dual", "-"], stdin=out)
    assert code == 0
    assert fileformat.loads(out2) == fileformat.loads(open(torus_file).read())


def test_dual_rejects_solid(tmp_path):
    p = tmp_path / "solid.ccc"
    p.write_text(fileformat.dumps(fixtures.tetrahedron_solid()))
    code, _ = run_cli(["dual", str(p)])
    assert code == 1


def test_duality_torus(torus_file):
    code, out = run_cli(["duality", torus_file])
    assert code == 0
    assert "0 | Z | Z | yes" in out
    assert "1 | Z^2 | Z^2 | yes" in out


def test_duality_mobius(mobius_file):
    code, out = run_cli(["duality", mobius_file])
    assert code == 1
    assert "orientable: FAIL" in out
    assert "certificate" in out


def test_stokes(torus_file):
    code, out = run_cli(["stokes", torus_file])
    assert code == 0
    assert "residuals: 0" in out


# -- exit code contract across commands -------------------------------------------------


def test_exit_code_matrix(tmp_path):
    files = {}
    for name in ("torus9", "tetrahedron_solid", "mobius3", "bad_axiom4"):
        p = tmp_path / f"{name}.ccc"
        p.write_text(fileformat.dumps(fixtures.fixture(name)))
        files[name] = str(p)
    expected = {
        ("validate", "torus9"): 0, ("validate", "bad_axiom4"): 1,
        ("validate", "mobius3"): 0, ("validate", "tetrahedron_solid"): 0,
        ("orient", "torus9"): 0, ("orient", "mobius3"): 1,
        ("homology", "torus9"): 0, ("homology", "mobius3"): 0,
        ("duality", "torus9"): 0, ("duality", "mobius3"): 1,
        ("duality", "tetrahedron_solid"): 1,
        ("dual", "torus9"): 0, ("dual", "tetrahedron_solid"): 1,
        ("stokes", "torus9"): 0,
    }
    for (cmd, name), want in expected.items():
        code, _ = run_cli([cmd, files[name]])
        assert code == want, (cmd, name, code, want)


def run_declared_script(name: str, *args: str):
    """Run console script ``name`` as declared in pyproject.toml, through the
    wrapper an installer generates, so no install is needed."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"][name]
    module, _, attr = target.partition(":")
    wrapper = (f"import sys\n"
               f"from {module} import {attr}\n"
               f"sys.argv[0] = {name!r}\n"
               f"sys.exit({attr}())\n")
    package_root = str(Path(cellcomplexes.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", wrapper, *args],
                          capture_output=True, text=True, env=env)


def test_console_script_installed():
    proc = run_declared_script("ccc", "example", "point")
    assert proc.returncode == 0
    assert proc.stdout.startswith("ccc v1")
    # A non-zero code from main() must reach the exit status too.
    assert run_declared_script("ccc", "example", "klein_bottle").returncode == 2


@pytest.mark.skipif(shutil.which("ccc") is None,
                    reason="ccc console script not installed")
def test_console_script_on_path():
    proc = subprocess.run(["ccc", "example", "point"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("ccc v1")
