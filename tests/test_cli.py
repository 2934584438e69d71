import io
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import flag_orient

import cellcomplexes
from cellcomplexes import cli, fileformat, fixtures
from cellcomplexes.cli import main
from cellcomplexes.complexes import from_simplicial
from cellcomplexes.errors import NotOrientableError
from cellcomplexes.flags import all_flags
from cellcomplexes.subdivision import barycentric


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
    s = fileformat.loads(Path(torus_file).read_text())
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


def test_example_torus_homology_from_stdin():
    code, text = run_cli(["example", "torus", "20"])
    assert code == 0
    assert len(fileformat.loads(text)) == 1600
    code, out = run_cli(["homology", "-"], stdin=text)
    assert code == 0
    assert out == "H_0 = Z^1\nH_1 = Z^2\nH_2 = Z^1\n"


def test_example_torus_too_small():
    code, _ = run_cli(["example", "torus", "4", "2"])
    assert code == 2


@pytest.mark.parametrize("params, count", [(["simplex", "40"], "2^41 - 1"),
                                           (["simplex", "16"], "2^17 - 1"),
                                           (["torus", "1000"], "4000000"),
                                           (["torus", "50", "501"], "100200"),
                                           (["simplex_boundary", "16"], "2^17 - 2"),
                                           (["simplex_boundary", "40"], "2^41 - 2")])
def test_example_refuses_fixtures_too_large_to_build(monkeypatch, capsys, params, count):
    def refuse(*args):
        raise AssertionError("a fixture past the cap was built")

    monkeypatch.setattr(fixtures, "from_simplicial", refuse)
    monkeypatch.setattr(fixtures, "product", refuse)
    code, text = run_cli(["example", *params])
    assert code == 2 and text == ""
    assert f"has {count} cells, more than 100000" in capsys.readouterr().err


def test_fixtures_up_to_the_cap_still_build():
    assert len(fixtures.fixture("simplex", "4")) == 31
    assert len(fixtures.fixture("torus", "100")) == 40000
    assert fixtures.MAX_CELLS == 100_000


@pytest.mark.parametrize("params,argv,count", [
    (["simplex", "7"], ["subdivide", "--barycentric"], 1_091_669),
    (["simplex_boundary", "7"], ["duality"], 545_834)])
def test_oversize_subdivisions_exit_2_before_they_are_built(tmp_path, run_capped,
                                                            params, argv, count):
    p = tmp_path / "big.ccc"
    p.write_text(run_cli(["example", *params])[1])
    proc = run_capped("import sys\n"
                      "from cellcomplexes.cli import main\n"
                      f"sys.exit(main({[argv[0], str(p), *argv[1:]]!r}))\n")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (f"error: the barycentric subdivision has {count} cells, "
                           "more than 100000\n")


def test_oversize_file_exits_2_before_it_is_built(tmp_path, run_capped):
    p = tmp_path / "big.ccc"
    p.write_text("ccc v1\n" + "".join(f"cell v{k} 0\n" for k in range(120_000)))
    proc = run_capped("import sys\n"
                      "from cellcomplexes.cli import main\n"
                      f"sys.exit(main(['validate', {str(p)!r}]))\n")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: the file has 120000 cells, more than 100000\n"


def run_module(*args, flags=(), **env):
    """``python <flags> -m cellcomplexes.cli <args>`` in a fresh
    interpreter, with ``env`` added to its environment."""
    package_root = str(Path(cellcomplexes.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *flags, "-m", "cellcomplexes.cli", *args],
                          capture_output=True, text=True,
                          env={**os.environ, **env, "PYTHONPATH": path})


def test_named_files_are_utf8_whatever_the_locale(tmp_path):
    p, out = tmp_path / "u.ccc", tmp_path / "d.ccc"
    p.write_bytes("ccc v1\ncell é 0\n".encode("utf-8"))
    c_locale = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    proc = run_module("info", str(p), **c_locale)
    assert proc.returncode == 0, proc.stderr
    assert "cells: 1" in proc.stdout
    assert run_module("dual", str(p), "-o", str(out), **c_locale).returncode == 0
    assert out.read_bytes() == p.read_bytes()


def test_named_files_are_opened_with_an_explicit_encoding(tmp_path):
    strict = ("-X", "warn_default_encoding", "-W", "error::EncodingWarning")
    f, g, tower = tmp_path / "f.ccc", tmp_path / "g.ccc", tmp_path / "tower"
    for args in (["example", "torus", "3", "-o", str(f)],
                 ["subdivide", str(f), "--bary-via-stellar", "--tower-dir", str(tower),
                  "-o", str(g)],
                 ["info", str(g)]):
        proc = run_module(*args, flags=strict)
        assert proc.returncode == 0, proc.stderr
    assert fileformat.loads(g.read_text(encoding="utf-8")) == barycentric(fixtures.torus(3))[0]
    assert (tower / "manifest.txt").is_file()


def test_example_simplex_boundary_round_trips():
    code, text = run_cli(["example", "simplex_boundary", "4"])
    assert code == 0
    s = fileformat.loads(text)
    assert s == fixtures.simplex_boundary(4) and len(s) == 30
    assert fileformat.dumps(s) == text


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


def test_validate_missing_file(capsys):
    code, _ = run_cli(["validate", "/no/such/file.ccc"])
    assert code == 2
    assert capsys.readouterr().err == \
        "error: [Errno 2] No such file or directory: '/no/such/file.ccc'\n"


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


def _flag_orientable(s):
    try:
        flag_orient(s)
    except NotOrientableError:
        return False
    return True


ORIENT_CASES = {
    **{n: (lambda n=n: fixtures.fixture(n)) for n in sorted(fixtures.FIXTURES)
       if _flag_orientable(fixtures.fixture(n))},
    **{f"simplex{n}": (lambda n=n: fixtures.simplex(n)) for n in range(1, 5)},
    "sphere3": lambda: from_simplicial([[v for v in "abcde" if v != w] for w in "abcde"]),
    "torus4": lambda: fixtures.torus(4),
}


def _write(tmp_path, s):
    p = tmp_path / "s.ccc"
    p.write_text(fileformat.dumps(s))
    return str(p)


@pytest.mark.parametrize("name", sorted(ORIENT_CASES))
def test_orient_prints_the_flag_coloring(name, tmp_path):
    s = ORIENT_CASES[name]()
    omega = flag_orient(s)
    code, out = run_cli(["orient", _write(tmp_path, s)])
    assert code == 0
    assert out.splitlines() == [f"flag {'>'.join(str(c) for c in f)} {omega.colors[f]:+d}"
                                for f in all_flags(s)]


@pytest.mark.parametrize("name", ["mobius3", "projective_plane"])
def test_orient_prints_the_flag_coloring_certificate(name, tmp_path):
    s = fixtures.fixture(name)
    with pytest.raises(NotOrientableError) as info:
        flag_orient(s)
    code, out = run_cli(["orient", _write(tmp_path, s)])
    assert code == 1
    assert info.value.odd_cycle
    assert out.splitlines() == ([f"not orientable: {info.value}", "odd flag cycle:"]
                                + ["  " + ">".join(str(c) for c in f)
                                   for f in info.value.odd_cycle])


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


def test_subdivide_at_writes_nothing_it_could_not_read_back(torus_file, tmp_path,
                                                            monkeypatch, capsys):
    monkeypatch.setattr(fileformat, "MAX_CELLS", 40)  # torus9 has 36, the result 46
    out = tmp_path / "out.ccc"
    assert main(["subdivide", torus_file, "--at", "h00", "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: the file has 46 cells, more than 40\n"
    assert not out.exists()


def test_subdivide_at_unknown_cell(torus_file):
    code, _ = run_cli(["subdivide", torus_file, "--at", "zz"])
    assert code == 1


def test_subdivide_barycentric_pipe(torus_file):
    code, text = run_cli(["subdivide", torus_file, "--barycentric"])
    assert code == 0
    code, out = run_cli(["homology", "-"], stdin=text)
    assert code == 0
    assert out.splitlines() == ["H_0 = Z^1", "H_1 = Z^2", "H_2 = Z^1"]


def test_subdivide_barycentric_needs_no_orientation(tmp_path):
    # bad_axiom4 has a cell whose flag graph is not bipartite
    s = fixtures.bad_axiom4()
    p = tmp_path / "bad.ccc"
    p.write_text(fileformat.dumps(s))
    code, out = run_cli(["subdivide", str(p), "--barycentric"])
    assert code == 0
    assert out == fileformat.dumps(barycentric(s)[0])


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


@pytest.mark.parametrize("mode", [["--at", "h00"], ["--barycentric"]])
def test_tower_dir_needs_bary_via_stellar(torus_file, tmp_path, capsys, mode):
    d, dest = tmp_path / "tower", tmp_path / "out.ccc"
    code, out = run_cli(["subdivide", torus_file, *mode, "--tower-dir", str(d),
                         "-o", str(dest)])
    assert code == 2 and out == ""
    assert "error: --tower-dir needs --bary-via-stellar" in capsys.readouterr().err
    assert not d.exists() and not dest.exists()


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
    assert fileformat.loads(out2) == fileformat.loads(Path(torus_file).read_text())


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


def test_stokes_point():
    code, text = run_cli(["example", "point"])
    assert code == 0
    code, out = run_cli(["stokes", "-"], stdin=text)
    assert code == 0
    assert "random trials: 0" in out


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


_DIGON = ("ccc v1\ncell a 0\ncell b 0\ncell e 1\ncell f 1\n"
          "cover a e\ncover b e\ncover a f\ncover b f\n")


def _dump(name):
    return lambda: fileformat.dumps(fixtures.fixture(*name.split()))


# (argv with FILE for the input file, the file's contents or None, exit code)
EXIT_CODES = {
    "missing file": (["validate", "FILE"], None, 2),
    "non-UTF-8 bytes": (["validate", "FILE"], b"ccc v1\ncell \xff 0\n", 2),
    "bad header": (["validate", "FILE"], "ccc v2\ncell a 0\n", 2),
    "bad cell token": (["validate", "FILE"], "ccc v1\ncell C(a;b 0\n", 2),
    "duplicate cell": (["validate", "FILE"], "ccc v1\ncell a 0\ncell a 0\n", 2),
    "unknown cover cell": (["validate", "FILE"], "ccc v1\ncell a 0\ncover a b\n", 2),
    "rank-inverted cover": (["validate", "FILE"],
                            "ccc v1\ncell a 0\ncell e 1\ncover e a\n", 2),
    "unknown subcommand": (["frobnicate", "FILE"], _DIGON, 2),
    "unknown fixture": (["example", "klein_bottle"], None, 2),
    "validate bad_axiom4": (["validate", "FILE"], _dump("bad_axiom4"), 1),
    "validate digon": (["validate", "FILE"], _DIGON, 1),
    "orient rp2": (["orient", "FILE"], _dump("projective_plane"), 1),
    "duality rp2": (["duality", "FILE"], _dump("projective_plane"), 1),
    "duality solid": (["duality", "FILE"], _dump("tetrahedron_solid"), 1),
    "subdivide at unknown cell": (["subdivide", "FILE", "--at", "zz"], _dump("torus 4"), 1),
    "validate torus4": (["validate", "FILE"], _dump("torus 4"), 0),
    "homology torus4": (["homology", "FILE", "--kv"], _dump("torus 4"), 0),
    "cohomology torus4": (["cohomology", "FILE", "--kv"], _dump("torus 4"), 0),
}


def _exit_code(args, stdin=""):
    try:
        return run_cli(args, stdin)[0]
    except SystemExit as e:  # argparse exits on a bad command line
        return e.code


@pytest.mark.parametrize("case", sorted(EXIT_CODES))
def test_exit_codes(case, tmp_path):
    argv, content, code = EXIT_CODES[case]
    p = tmp_path / "in.ccc"
    if callable(content):
        content = content()
    if isinstance(content, bytes):
        p.write_bytes(content)
    elif content is not None:
        p.write_text(content)
    assert _exit_code([str(p) if a == "FILE" else a for a in argv]) == code


def test_nothing_carries_over_between_calls(tmp_path):
    p = tmp_path / "t4.ccc"
    p.write_text(fileformat.dumps(fixtures.torus(4)))
    assert _exit_code(["validate", str(tmp_path / "missing.ccc")]) == 2
    assert run_cli(["validate", str(p)]) == (0, "ok: 64 cells, all axioms hold\n")


def test_parser_is_built_once(monkeypatch, tmp_path):
    cli._parser()
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
    p = tmp_path / "t4.ccc"
    p.write_text(fileformat.dumps(fixtures.torus(4)))
    assert run_cli(["validate", str(p)])[0] == 0
    assert _exit_code(["validate", "--no-such-flag"]) == 2


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
