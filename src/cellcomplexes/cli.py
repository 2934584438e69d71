"""Command line front end.

One subcommand per pipeline stage, operating on the ``ccc v1`` text
format; ``-`` is standard input or output.  Exit status 0 means success
or confirmation, 1 a mathematical failure (axiom violation, odd flag
cycle, duality mismatch) with the certificate printed, 2 an I/O or parse
problem.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import fileformat, fixtures
from .chains import cohomology, h0_components, homology
from .complexes import Ccc, euler_characteristic
from .duality import stokes_check, verify_duality
from .errors import CccError, FormatError, NotOrientableError
from .cells import parse_cell_id
from .flags import all_flags, orient, orient_all_cells
from .subdivision import barycentric, barycentric_via_stellar, stellar

MATH_FAILURE = 1
IO_FAILURE = 2


def _read(path: str) -> Ccc:
    if path == "-":
        return fileformat.loads(sys.stdin.read())
    return fileformat.loads(Path(path).read_text(encoding="utf-8"))


def _write(text: str, path: str | None):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _cmd_example(args) -> int:
    s = fixtures.fixture(args.name, *args.params)
    _write(fileformat.dumps(s), args.output)
    return 0


def _cmd_validate(args) -> int:
    s = _read(args.file)
    report = s.validate_axioms()
    if report.passed:
        print(f"ok: {len(s)} cells, all axioms hold")
        return 0
    print(report)
    return MATH_FAILURE


def _cmd_info(args) -> int:
    s = _read(args.file)
    counts = [len(s.cells_of_rank(r)) for r in range(s.dim + 1)]
    print(f"cells: {len(s)}")
    print(f"dimension: {s.dim}")
    print(f"face vector: {tuple(counts)}")
    print(f"euler characteristic: {euler_characteristic(s)}")
    print(f"components: {h0_components(s)}")
    if len(s) == 0:
        print("classification: undefined for the empty complex")
        return 0
    cls = s.classify()
    print(f"equidimensional: {cls.equidimensional}")
    print(f"nonsingular: {cls.nonsingular}")
    print(f"boundary cells: {len(cls.boundary)}")
    print(f"manifold-like: {cls.manifold_like}")
    return 0


def _cmd_orient(args) -> int:
    s = _read(args.file)
    try:
        omega = orient(s)
    except NotOrientableError as e:
        print(f"not orientable: {e}")
        if e.odd_cycle:
            print("odd flag cycle:")
            for f in e.odd_cycle:
                print("  " + ">".join(str(c) for c in f))
        return MATH_FAILURE
    for f in all_flags(s):
        print(f"flag {'>'.join(str(c) for c in f)} {omega.sign(f):+d}")
    return 0


def _report_groups(result, prefix: str, machine: bool):
    for i in range(len(result.betti)):
        if machine:
            tor = ",".join(str(t) for t in result.torsion[i])
            print(f"betti_{i}={result.betti[i]}")
            print(f"torsion_{i}={tor}")
        else:
            tail = "".join(f" + Z/{t}" for t in result.torsion[i])
            print(f"{prefix}{i} = Z^{result.betti[i]}{tail}")


def _cmd_homology(args) -> int:
    s = _read(args.file)
    _report_groups(homology(s, orient_all_cells(s)), "H_", args.kv)
    return 0


def _cmd_cohomology(args) -> int:
    s = _read(args.file)
    _report_groups(cohomology(s, orient_all_cells(s)), "H^", args.kv)
    return 0


def _cmd_subdivide(args) -> int:
    if args.tower_dir and not args.bary_via_stellar:
        raise ValueError("--tower-dir needs --bary-via-stellar")
    s = _read(args.file)
    if args.at:
        signs = orient_all_cells(s)
        result, _ = stellar(s, parse_cell_id(args.at), signs)
        out = result.complex
    elif args.barycentric:  # takes no signs, so needs no orientation
        out, _ = barycentric(s)
    else:
        tower = barycentric_via_stellar(s, orient_all_cells(s))
        out = tower.final
        if args.tower_dir:
            d = Path(args.tower_dir)
            d.mkdir(parents=True, exist_ok=True)
            manifest = ["stage rank cells file points"]
            for k, stage in enumerate(tower.stages):
                name = f"stage{k:02d}.ccc"
                (d / name).write_text(fileformat.dumps(stage.complex), encoding="utf-8")
                pts = ",".join(str(p) for p in stage.points)
                manifest.append(f"{k} {stage.rank} {len(stage.complex)} {name} {pts}")
            (d / "manifest.txt").write_text("\n".join(manifest) + "\n", encoding="utf-8")
    _write(fileformat.dumps(out), args.output)
    return 0


def _cmd_dual(args) -> int:
    s = _read(args.file)
    _write(fileformat.dumps(s.dual()), args.output)
    return 0


def _cmd_duality(args) -> int:
    s = _read(args.file)
    report = verify_duality(s)
    print(report)
    if report.certificate:
        print("certificate:")
        if isinstance(report.certificate, list):
            for f in report.certificate:
                print("  " + ">".join(str(c) for c in f))
        else:
            print(f"  {report.certificate} flag-graph components")
    return 0 if report.passed else MATH_FAILURE


def _cmd_stokes(args) -> int:
    s = _read(args.file)
    report = stokes_check(s)
    print(f"basis pairing matrices are identities: {report.basis_identity}")
    print(f"boundary-adjunction residuals: {report.adjoint_residuals}")
    print(f"integral residuals: {report.stokes_residuals}")
    print(f"random trials: {report.random_trials}")
    return 0 if report.passed else MATH_FAILURE


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ccc",
        description="combinatorial cell complexes: validation, orientation, "
                    "homology, subdivision, duality")
    sub = p.add_subparsers(dest="command", required=True)

    ex = sub.add_parser("example", help="write a named example complex")
    ex.add_argument("name")
    ex.add_argument("params", nargs="*")
    ex.add_argument("-o", "--output", default=None)
    ex.set_defaults(func=_cmd_example)

    for name, func in (("validate", _cmd_validate), ("info", _cmd_info),
                       ("orient", _cmd_orient)):
        q = sub.add_parser(name)
        q.add_argument("file")
        q.set_defaults(func=func)

    for name, func in (("homology", _cmd_homology), ("cohomology", _cmd_cohomology)):
        q = sub.add_parser(name)
        q.add_argument("file")
        q.add_argument("--kv", action="store_true",
                       help="flat key=value output")
        q.set_defaults(func=func)

    sd = sub.add_parser("subdivide")
    sd.add_argument("file")
    mode = sd.add_mutually_exclusive_group(required=True)
    mode.add_argument("--at", metavar="CELL", help="stellar subdivision at a cell")
    mode.add_argument("--barycentric", action="store_true")
    mode.add_argument("--bary-via-stellar", action="store_true")
    sd.add_argument("--tower-dir", default=None,
                    help="with --bary-via-stellar, dump the stages here")
    sd.add_argument("-o", "--output", default=None)
    sd.set_defaults(func=_cmd_subdivide)

    du = sub.add_parser("dual")
    du.add_argument("file")
    du.add_argument("-o", "--output", default=None)
    du.set_defaults(func=_cmd_dual)

    for name, func in (("duality", _cmd_duality), ("stokes", _cmd_stokes)):
        q = sub.add_parser(name)
        q.add_argument("file")
        q.set_defaults(func=func)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return IO_FAILURE
    except CccError as e:
        print(f"error: {e}", file=sys.stderr)
        return MATH_FAILURE


if __name__ == "__main__":
    sys.exit(main())
