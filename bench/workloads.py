"""The workloads: input plans drawn from the seed, one op each, and the
op's check.

An op is one input complex taken through the workload's pipeline.  A
batch is every input of the plan once, in an order the seed shuffles.
The plans fix the sizes.  Homology and flag costs grow as high powers of
the size (one grid step near N = 8 costs 1.5 to 2 times more), so sizes
drawn per seed would move the median and tail latencies between seeds by
more than the bounds.  The seed draws what does not change the amount of
work: the kind of each surface, the factor order of each product, the op
order, and the cell and vertex names, which set the canonical cell order
and with it the elimination pivot order.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import cellcomplexes as cc
from cellcomplexes import cli
from cellcomplexes.errors import NotOrientableError

import inputs
from checks import (
    check_certificate,
    check_groups,
    check_orientation,
    groups_of,
    integer_det,
    parse_ccc_counts,
    parse_kv,
)


class Lib:
    """The library entry points the workloads call.  The tracer swaps
    these attributes for timing wrappers and restores them afterwards."""

    def __init__(self):
        self.main = cli.main
        self.build_complex = cc.build_complex
        self.from_simplicial = cc.from_simplicial
        self.product = cc.product
        self.orient_all_cells = cc.orient_all_cells
        self.orient = cc.orient
        self.simplicial_signs = cc.simplicial_signs
        self.homology = cc.homology
        self.compare_phi_bigphi = cc.compare_phi_bigphi
        self.barycentric = cc.barycentric
        self.dumps = cc.dumps
        self.verify_duality = cc.verify_duality
        self.stokes_check = cc.stokes_check
        self.homology_pairing_matrix = cc.homology_pairing_matrix


@dataclass
class Case:
    label: str               # names the op in failure reports
    poset: inputs.Poset      # the input, described without the library
    expected: object         # closed-form answer
    data: dict = field(default_factory=dict)  # what the op hands the library

    @property
    def cells(self) -> int:
        return len(self.poset.ranks)


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable    # (lib, rng, workdir) -> list of Case, validated
    run: Callable        # (lib, case) -> outputs; the timed part of an op
    check: Callable      # (case, outputs) -> None or the reason it is wrong


class SetupError(RuntimeError):
    """A generated input failed validation: the generator is wrong."""


def build(lib, poset: inputs.Poset):
    cid = cc.CellId.of
    return lib.build_complex([(cid(c), r) for c, r in poset.ranks.items()],
                             [(cid(lo), cid(hi)) for lo, hi in poset.covers()])


def validated(s, case: Case):
    if len(s) != case.cells or not s.validate_axioms().passed:
        raise SetupError(f"generated input {case.label} is not a valid complex")
    return s


def grid_case(lib, rng, label, rows, cols, kind) -> Case:
    wraps = {"torus": (1, 1), "klein": (-1, 1), "mobius": (0, -1)}[kind]
    poset = inputs.grid(rows, cols, *wraps, rng)
    case = Case(label, poset, None)
    case.data["complex"] = validated(build(lib, poset), case)
    return case


def simplicial_case(lib, label, facets, expected) -> Case:
    case = Case(label, inputs.simplicial(facets), expected, {"facets": facets})
    case.data["complex"] = validated(lib.from_simplicial(facets), case)
    return case


def product_case(lib, rng, label, left, right, expected) -> Case:
    """``left`` and ``right`` are facet lists; the seed picks the factor order."""
    factors = [left, right]
    rng.shuffle(factors)
    posets = [inputs.simplicial(f) for f in factors]
    complexes = [lib.from_simplicial(f) for f in factors]
    case = Case(label, inputs.product(*posets), expected, {"factors": complexes})
    case.data["complex"] = validated(lib.product(*complexes), case)
    return case


def capture(main, argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(out):
        code = main(argv)
    return code, out.getvalue()


# -- surface_homology -------------------------------------------------------

# Grid side N of each N x N surface, skewed small up to N = 14 (784 cells).
# The tail op has ten ops beyond it (see run.end_to_end); with B batches
# it falls on the input ranked ceil(11 / B) from the top, which is the
# second to fourth for 3 <= B <= 10.  The three 12 x 12 inputs hold those
# ranks, and the seven 8 x 8 inputs hold the median, so that neither
# metric moves to an input of another size when the number of batches
# does.
SURFACE_SIZES = (3, 3, 4, 5, 6, 7, 8, 8, 8, 8, 8, 8, 8, 10, 10, 12, 12, 12, 14)


def surface_prepare(lib, rng, workdir: Path):
    cases = []
    for k, n in enumerate(SURFACE_SIZES):
        kind = rng.choice(("torus", "klein"))
        case = grid_case(lib, rng, f"{kind}{n}x{n}#{k}", n, n, kind)
        case.expected = ((inputs.TORUS, inputs.TORUS) if kind == "torus" else
                         (inputs.KLEIN_HOMOLOGY, inputs.KLEIN_COHOMOLOGY))
        path = workdir / f"surface{k:02d}.ccc"
        path.write_text(lib.dumps(case.data.pop("complex")))
        case.data["path"] = str(path)
        cases.append(case)
    rng.shuffle(cases)
    return cases


def surface_run(lib, case):
    p = case.data["path"]
    return [capture(lib.main, argv) for argv in
            (["validate", p], ["homology", p, "--kv"], ["cohomology", p, "--kv"])]


def surface_check(case, out):
    (vcode, vtext), *groups = out
    if vcode != 0 or vtext.strip() != f"ok: {case.cells} cells, all axioms hold":
        return f"validate: exit {vcode}, output {vtext.strip()!r}"
    for what, (code, text), want in zip(("homology", "cohomology"), groups, case.expected):
        if code != 0:
            return f"{what}: exit {code}, output {text.strip()!r}"
        got = parse_kv(text)
        if got is None:
            return f"{what}: unparsable output {text.strip()!r}"
        err = check_groups(got, want, what)
        if err:
            return err
    return None


# -- polytope_orient --------------------------------------------------------

# (shape, sizes) of each input: solid simplices, sphere boundaries,
# products of simplices (not simplicial, so only flags orient them) and
# RP^2 x simplex (not orientable).  By op cost, the seven sphere5 hold
# the median (ranks 9 to 15 of 26), and the three simplex3 x simplex3 and
# the rp2 x simplex3, which cost about the same, hold the top four ranks,
# where the tail op falls for 3 <= B (see SURFACE_SIZES).
POLYTOPE_PLAN = (
    ("simplex", 4), ("simplex", 5), ("simplex", 6),
    ("sphere", 4), ("sphere", 5), ("sphere", 5), ("sphere", 5), ("sphere", 5),
    ("sphere", 5), ("sphere", 5), ("sphere", 5), ("sphere", 6),
    ("product", 1, 1), ("product", 2, 1), ("product", 2, 2), ("product", 3, 1),
    ("product", 3, 2), ("product", 3, 3), ("product", 3, 3), ("product", 3, 3),
    ("rp2", 0), ("rp2", 1), ("rp2", 2), ("rp2", 2), ("rp2", 2), ("rp2", 3),
)


def polytope_prepare(lib, rng, workdir):
    cases = []
    for k, (shape, *sizes) in enumerate(POLYTOPE_PLAN):
        label = f"{shape}{''.join(map(str, sizes))}#{k}"
        if shape == "simplex":
            n = sizes[0]
            facets = inputs.simplex_facets(n, inputs.vertex_tokens(n + 1, "p", rng))
            case = simplicial_case(lib, label, facets, inputs.point_like(n))
        elif shape == "sphere":
            n = sizes[0]
            facets = inputs.sphere_facets(n, inputs.vertex_tokens(n + 1, "p", rng))
            case = simplicial_case(lib, label, facets, inputs.sphere(n - 1))
        elif shape == "product":
            a, b = sizes
            left = inputs.simplex_facets(a, inputs.vertex_tokens(a + 1, "a", rng))
            right = inputs.simplex_facets(b, inputs.vertex_tokens(b + 1, "b", rng))
            case = product_case(lib, rng, label, left, right, inputs.point_like(a + b))
        else:
            n = sizes[0]
            left = inputs.rp2_facets(inputs.vertex_tokens(6, "r", rng))
            right = inputs.simplex_facets(n, inputs.vertex_tokens(n + 1, "b", rng))
            case = product_case(lib, rng, label, left, right,
                                inputs.rp2_times_contractible(2 + n))
        case.data["orientable"] = shape != "rp2"
        del case.data["complex"]
        cases.append(case)
    rng.shuffle(cases)
    return cases


def polytope_run(lib, case):
    if "facets" in case.data:
        s = lib.from_simplicial(case.data["facets"])
    else:
        s = lib.product(*case.data["factors"])
    out = {"cells": len(s), "valid": s.validate_axioms().passed}
    out["signs"] = lib.orient_all_cells(s)
    if "facets" in case.data:
        out["simplicial"] = lib.simplicial_signs(s)
    try:
        out["orientation"] = lib.orient(s)
    except NotOrientableError as e:
        out["certificate"] = e.odd_cycle
    out["homology"] = lib.homology(s, out["signs"])
    return out


def incidence_pairs(poset):
    return {(hi, lo) for hi, fs in poset.faces.items() for lo in fs}


def check_sign_table(table, poset) -> str | None:
    signs = {(str(x), str(y)): v for (x, y), v in table.signs.items()}
    if set(signs) != incidence_pairs(poset):
        return "sign table does not cover exactly the incidence pairs"
    if any(v not in (1, -1) for v in signs.values()):
        return "an incidence sign is not +-1"
    return None


def check_same_up_to_flips(a, b, poset) -> str | None:
    """Two sign tables describe the same chain complex up to reversing
    cells: some e(x) = +-1 has b(x, y) = e(x) e(y) a(x, y) on every pair."""
    sa = {(str(x), str(y)): v for (x, y), v in a.signs.items()}
    sb = {(str(x), str(y)): v for (x, y), v in b.signs.items()}
    flip = {}
    for x in sorted(poset.ranks, key=poset.ranks.get):
        faces = sorted(poset.faces[x])
        if not faces:
            flip[x] = 1
            continue
        flip[x] = sa[x, faces[0]] * sb[x, faces[0]] * flip[faces[0]]
        if any(sb[x, y] != flip[x] * flip[y] * sa[x, y] for y in faces):
            return f"simplicial and flag signs disagree at cell {x}"
    return None


def polytope_check(case, out):
    if out["cells"] != case.cells or not out["valid"]:
        return f"built {out['cells']} cells (want {case.cells}), valid={out['valid']}"
    err = check_sign_table(out["signs"], case.poset)
    if not err and "simplicial" in out:
        err = (check_sign_table(out["simplicial"], case.poset)
               or check_same_up_to_flips(out["signs"], out["simplicial"], case.poset))
    if err:
        return err
    if case.data["orientable"]:
        if "orientation" not in out:
            return "orient raised on an orientable complex"
        err = check_orientation(out["orientation"].colors, case.poset)
    elif "orientation" in out:
        return "orient succeeded on a non-orientable complex"
    else:
        err = check_certificate(out["certificate"], case.poset)
    return err or check_groups(groups_of(out["homology"]), case.expected, "homology")


# -- subdivision_duality ----------------------------------------------------
#
# Two pipelines share one workload, so that each run of the three
# workloads fits a longer measurement window.  The tower pipeline builds
# and rebuilds posets and composes chain maps; the duality pipeline is the
# only user of elimination with transforms.  By op cost the 22 inputs
# sort as: 7 ops below 0.2 s; the torus3 tower and the seven prism
# towers, all near 0.2 s, which hold the median; three ops between 0.3
# and 0.9 s; and the four sphere4 dualities near 1.4 s.  A batch takes
# about 10 s, so a run has three or four batches, and the tail op (see
# SURFACE_SIZES) falls among the 12 to 16 sphere4 ops either way.

TOWER_PLAN = (("torus", 3), ("torus", 4), ("mobius", 3), ("rp2", 2), ("simplex", 3),
              ("prism", 3), ("prism", 3), ("prism", 3), ("prism", 3), ("prism", 3),
              ("prism", 3), ("prism", 3))
DUALITY_PLAN = (("klein", 3), ("klein", 4), ("rp2", 2), ("sphere", 3), ("sphere", 4),
                ("sphere", 4), ("sphere", 4), ("sphere", 4), ("torus", 3), ("torus", 4))


def tower_cases(lib, rng):
    cases = []
    for k, (shape, n) in enumerate(TOWER_PLAN):
        label = f"tower:{shape}{n}#{k}"
        if shape == "torus":
            case = grid_case(lib, rng, label, n, n, "torus")
        elif shape == "mobius":
            case = grid_case(lib, rng, label, 1, n, "mobius")
        elif shape == "rp2":
            tokens = inputs.vertex_tokens(6, "p", rng)
            case = simplicial_case(lib, label, inputs.rp2_facets(tokens), None)
        elif shape in ("simplex", "sphere"):
            tokens = inputs.vertex_tokens(n + 1, "p", rng)
            facets = (inputs.simplex_facets if shape == "simplex" else inputs.sphere_facets)
            case = simplicial_case(lib, label, facets(n, tokens), None)
        else:
            triangle = inputs.simplex_facets(2, inputs.vertex_tokens(3, "a", rng))
            edge = inputs.simplex_facets(1, inputs.vertex_tokens(2, "b", rng))
            case = product_case(lib, rng, label, triangle, edge, None)
        counts = inputs.chain_counts(case.poset)
        # a chain of k + 1 cells covers the k + 1 chains one cell shorter
        case.expected = counts, sum((r + 1) * c for r, c in enumerate(counts) if r)
        case.data["pipeline"] = "tower"
        cases.append(case)
    return cases


def tower_run(lib, case):
    s = case.data["complex"]
    signs = lib.orient_all_cells(s)
    eps = lib.compare_phi_bigphi(s, signs)
    subdivided, _ = lib.barycentric(s)
    return eps, lib.dumps(subdivided)


def tower_check(case, out):
    eps, text = out
    if len(eps) != case.poset.dim + 1 or any(e not in (1, -1) for e in eps):
        return f"per-degree signs {eps} are not one +-1 per degree"
    got = parse_ccc_counts(text)
    if got != case.expected:
        return f"subdivision has (cells per rank, covers) {got}, want {case.expected}"
    return None


def duality_cases(lib, rng):
    """Orientable closed manifolds, and Klein bottles and RP^2, which must
    fail at the orientability hypothesis with a certificate."""
    cases = []
    for k, (shape, n) in enumerate(DUALITY_PLAN):
        label = f"duality:{shape}{n}#{k}"
        if shape in ("torus", "klein"):
            case = grid_case(lib, rng, label, n, n, shape)
            case.expected = inputs.TORUS if shape == "torus" else None
        elif shape == "rp2":
            tokens = inputs.vertex_tokens(6, "p", rng)
            case = simplicial_case(lib, label, inputs.rp2_facets(tokens), None)
        else:
            tokens = inputs.vertex_tokens(n + 1, "p", rng)
            case = simplicial_case(lib, label, inputs.sphere_facets(n, tokens),
                                   inputs.sphere(n - 1))
        case.data["pipeline"] = "duality"
        cases.append(case)
    return cases


def duality_run(lib, case):
    s = case.data["complex"]
    report = lib.verify_duality(s)
    if case.expected is None:
        return report, None, None
    return (report, lib.stokes_check(s),
            [lib.homology_pairing_matrix(s, i) for i in range(s.dim + 1)])


def duality_check(case, out):
    report, stokes, pairings = out
    if case.expected is None:
        if report.passed or report.hypotheses[0][:2] != ("orientable", False):
            return "verify_duality did not fail at the orientability hypothesis"
        return check_certificate(report.certificate, case.poset)
    if not report.passed:
        return f"verify_duality failed on an orientable manifold:\n{report}"
    err = check_groups(groups_of(report.groups["H(S)"]), case.expected, "H(S)")
    if err:
        return err
    if not (stokes.passed and stokes.basis_identity and stokes.adjoint_residuals == 0
            and stokes.stokes_residuals == 0):
        return f"stokes_check residuals {stokes}"
    betti, n = case.expected[0], case.poset.dim
    for i, mat in enumerate(pairings):
        if mat.shape != (betti[i], betti[n - i]):
            return f"pairing matrix in degree {i} has shape {mat.shape}"
        if abs(integer_det(mat.tolist())) != 1:
            return f"pairing matrix in degree {i} is not unimodular: {mat.tolist()}"
    return None


def subdivision_duality_prepare(lib, rng, workdir):
    cases = tower_cases(lib, rng) + duality_cases(lib, rng)
    rng.shuffle(cases)
    return cases


def subdivision_duality_run(lib, case):
    run = tower_run if case.data["pipeline"] == "tower" else duality_run
    return run(lib, case)


def subdivision_duality_check(case, out):
    check = tower_check if case.data["pipeline"] == "tower" else duality_check
    return check(case, out)


WORKLOADS = {
    "surface_homology": Workload("surface_homology", surface_prepare, surface_run,
                                 surface_check),
    "polytope_orient": Workload("polytope_orient", polytope_prepare, polytope_run,
                                polytope_check),
    "subdivision_duality": Workload("subdivision_duality", subdivision_duality_prepare,
                                    subdivision_duality_run, subdivision_duality_check),
}
