"""Dual orientations, the degree-flipping star map, the duality pipeline,
and the intersection/integration pairings.

For a manifold-like, orientable complex the dual complex has the same
cells with order reversed and rank complemented.  A global orientation
induces one orientation on each dual closure: color a flag above ``x`` by
splicing it with a fixed flag below ``x`` into a full flag and dividing
colors.  Under these choices the incidence sign of a dual pair equals the
incidence sign of the original pair, so relabelling a chain group as its
dual intertwines the boundary with the dual coboundary, and homology in
degree ``i`` matches dual cohomology in degree ``n - i``.  Reversing
every flag orients the dual, with colors read from the dual table.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .chains import (
    Chain,
    _homology_of_cells,
    boundary,
    chain_complex,
    coboundary,
    cohomology_of,
    free_cycle_generators,
    homology_of,
)
from .complexes import Ccc
from .errors import CccError, MissingSignError, NotManifoldLikeError, NotOrientableError
from .flags import (
    Orientation,
    SignTable,
    _FlagColors,
    _canonical_signs,
    _closure_flag_graph,
    _component_count,
    _derive_signs,
    _diamond_signs,
    _down,
    _require_signs,
    orient,
)
# Unused here; kept because bench/tracing.py patches these names.
from .flags import _two_color, flags_of, orient_all_cells  # noqa: F401
from .subdivision import chain_of_cell  # noqa: F401
from .subdivision import _chains, barycentric


@dataclass
class DualOrientationSet:
    """Coherent orientation data on a complex and its dual."""

    complex: Ccc
    dual_complex: Ccc
    global_orientation: Orientation
    signs: SignTable        # on the complex; maximal cells restrict the global one
    dual_signs: SignTable   # on the dual complex

    @cached_property
    def to_dual(self) -> list:  # each cell's index in the dual, by its index here
        return list(map(self.dual_complex._index.__getitem__, self.complex.cells))

    def check_sign_law(self) -> int:
        """Verify that the dual table orients the dual complex, and that
        s_dual(y, x) == s(x, y) on every incidence pair; returns the number
        of pairs checked.

        The other cells are signed canonically, so the dual table is an
        orientation exactly when the signs of each maximal cell obey the
        diamond rule and the two maximal cells on a codimension-1 cell
        give it opposite signs, the rule for a dual edge and its two dual
        vertices.
        """
        s, sd = self.complex, self.dual_complex
        cells, faces = s.cells, s._face_ix
        rows = self.signs._rows_on(s)
        _require_signs(s, rows)
        for x in map(s._index.__getitem__, s.maximal_cells()):
            meet = {}  # z -> s(x, y) s(y, z) for the faces y of x above z
            for y, v in zip(faces[x], rows[x]):
                for z, w in _down(s, rows, y):
                    meet.setdefault(z, []).append(v * w)
            if any(sum(vs) for vs in meet.values()):
                raise CccError(f"the signs of {cells[x]} break the diamond rule")
        for y in s._rank_range(s.dim - 1):
            over = s._coface_ix[y]
            if len(over) == 2 and len({rows[x][faces[x].index(y)] for x in over}) == 1:
                a, b = over
                raise CccError(f"{cells[a]} and {cells[b]} give {cells[y]} the same sign")
        # s*(y, x) = s(x, y), reading the dual's cells at their own indices
        dual_rows, dual_faces = self.dual_signs._rows_on(sd), sd._face_ix
        checked = 0
        for x, (fs, row) in enumerate(zip(faces, rows)):
            xd = self.to_dual[x]
            for y, v in zip(fs, row):
                yd = self.to_dual[y]
                dfs = dual_faces[yd]
                w = dual_rows[yd][dfs.index(xd)] if xd in dfs else 0
                if not w:
                    raise MissingSignError(f"no sign for the pair ({cells[y]}, {cells[x]})")
                if w != v:
                    raise CccError(f"dual sign law fails on the pair ({cells[x]}, {cells[y]})")
                checked += 1
        return checked


def dual_orientations(s: Ccc, omega: Orientation | None = None) -> DualOrientationSet:
    """Build matching sign tables on a complex and its dual.

    Maximal cells take the restriction of the global orientation, other
    cells their canonical one: for a maximal ``x``, ``s(x, y)`` is the
    color of the flag that continues from ``x`` with the least flag of
    ``y``, which the canonical orientation of ``y`` colors +1.  The dual
    table is written by the sign law ``s*(y, x) = s(x, y)``.  Every dual
    vertex is +1: it is a maximal cell ``x``, and splicing its one dual
    flag with the least flag ``g`` below ``x`` colors it
    ``omega(g) * omega(g)``.  :meth:`DualOrientationSet.check_sign_law`
    runs before returning, so an ``omega`` whose signs do not orient the
    dual raises CccError.
    """
    if not s.classify().manifold_like:
        raise NotManifoldLikeError("dual orientations need a manifold-like complex")
    if omega is None:
        omega = orient(s)
    sd = s.dual()

    maximal = s.maximal_cells()
    top = dict.fromkeys(map(s._index.__getitem__, maximal), omega)
    rows = _canonical_signs(s, [i for i in range(len(s)) if i not in top])
    for x, row in _derive_signs(s, top).items():
        rows[x] = row
    vertex_signs = {x: omega.sign((x,)) for x in maximal if s.rank(x) == 0}
    # the sign law: the faces of a dual cell are its cofaces in s
    faces, to_primal = s._face_ix, [s._index[c] for c in sd.cells]
    dual_rows = [tuple(rows[x][faces[x].index(y)] for x in map(to_primal.__getitem__, fs))
                 for y, fs in zip(to_primal, sd._face_ix)]

    out = DualOrientationSet(s, sd, omega, SignTable._of(s, rows, vertex_signs),
                             SignTable._of(sd, dual_rows))
    out.check_sign_law()
    return out


class StarMap:
    """Relabel chains as dual chains: degree ``i`` goes to ``n - i``.

    The forward map sends a cell to its dual cell with the same
    coefficient; it is an involution, so it is also its own inverse.  It
    intertwines the boundary on the source with the coboundary on the
    dual, which :meth:`intertwines` verifies entrywise.
    """

    def __init__(self, orientations: DualOrientationSet):
        self.orientations = orientations
        self.n = orientations.complex.dim
        self.source = chain_complex(orientations.complex, orientations.signs)
        self.target = chain_complex(orientations.dual_complex, orientations.dual_signs)

    def forward(self, chain: Chain) -> Chain:
        return Chain(self.n - chain.degree, dict(chain.coeffs))

    def intertwines(self) -> bool:
        return all(self._mismatches(i) == 0 for i in range(self.n))

    def _mismatches(self, i: int) -> int:
        """Pairs (x, y) where the boundary of ``x`` counts ``y`` differently
        from how the dual boundary of ``y`` counts ``x``."""
        s, to_dual = self.source.complex, self.orientations.to_dual
        src, dual = self.source.columns, self.target.columns
        a = {(to_dual[x], y): v for x in s._rank_range(i + 1) for y, v in src[x].items()}
        b = {(x, y): v for y in s._rank_range(i) for x, v in dual[to_dual[y]].items()}
        return sum(a.get(k) != b.get(k) for k in a.keys() | b.keys())


@dataclass
class DualityReport:
    hypotheses: list = field(default_factory=list)  # (name, ok, detail)
    groups: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)        # (i, H_i, H^{n-i}, match)
    checks: list = field(default_factory=list)      # (name, ok)
    certificate: object = None

    @property
    def hypotheses_ok(self) -> bool:
        return all(ok for _, ok, _ in self.hypotheses)

    @property
    def passed(self) -> bool:
        return (self.hypotheses_ok and all(ok for _, ok in self.checks)
                and all(m for *_, m in self.rows))

    def __str__(self):
        lines = []
        for name, ok, detail in self.hypotheses:
            mark = "ok" if ok else "FAIL"
            lines.append(f"hypothesis {name}: {mark}" + (f" ({detail})" if detail else ""))
        for name, ok in self.checks:
            lines.append(f"check {name}: {'ok' if ok else 'FAIL'}")
        if self.rows:
            lines.append("i | H_i(S) | H^(n-i)(S) | match")
            for i, a, b, m in self.rows:
                lines.append(f"{i} | {a} | {b} | {'yes' if m else 'NO'}")
        return "\n".join(lines)


def verify_duality(s: Ccc) -> DualityReport:
    """Run the duality pipeline and report every stage.

    Hypotheses: orientable, manifold-like, every cell of the complex and
    of its dual flag-connected and acyclic.  Stages: homology is invariant
    under barycentric subdivision, the barycentric subdivisions of the
    complex and its dual coincide, and the star map carries dual homology
    onto cohomology in complementary degree.
    """
    report = DualityReport()
    omega = None
    try:
        omega = orient(s)
        report.hypotheses.append(("orientable", True, ""))
    except NotOrientableError as e:
        report.hypotheses.append(("orientable", False, str(e)))
        report.certificate = e.odd_cycle if e.odd_cycle else e.components
    except CccError as e:
        report.hypotheses.append(("orientable", False, str(e)))

    try:
        cls = s.classify()
        report.hypotheses.append(("manifold-like", cls.manifold_like, ""))
    except CccError as e:
        report.hypotheses.append(("manifold-like", False, str(e)))
        return report
    if omega is None or not cls.manifold_like:
        return report

    try:
        dos = dual_orientations(s, omega)
    except NotOrientableError as e:
        report.hypotheses.append(("cells orientable", False, f"cell {e.cell}"))
        report.certificate = e.odd_cycle if e.odd_cycle else e.components
        return report
    sd = dos.dual_complex
    star = StarMap(dos)
    cc, cd = star.source, star.target

    # orient_all_cells has already raised for any other closure of S that
    # is not flag-connected; the maximal cells took the global colouring
    for name, cx, cells in (("complex", s, s.maximal_cells()), ("dual", sd, sd.cells)):
        if _diamond_signs(cx, range(len(cx)))[1] is None:
            cells = ()  # the rule signs every cell: every closure is flag-connected
        bad = next((x for x in cells
                    if _component_count(_closure_flag_graph(cx, x)) != 1), None)
        report.hypotheses.append((f"cells of the {name} flag-connected",
                                  bad is None,
                                  "" if bad is None else f"cell {bad}"))

    for name, cx, chains in (("complex", s, cc), ("dual", sd, cd)):
        bad = next((x for x in cx.cells
                    if not _homology_of_cells(chains, cx.closure([x])).is_acyclic), None)
        report.hypotheses.append((f"cells of the {name} acyclic", bad is None,
                                  "" if bad is None else f"cell {bad}"))
    if not report.hypotheses_ok:
        return report

    h_s = homology_of(cc)
    h_sd = homology_of(cd)
    coh_s = cohomology_of(cc)

    bs, bs_signs = barycentric(s)
    bsd, bsd_signs = barycentric(sd)
    h_bs = homology_of(chain_complex(bs, bs_signs))
    h_bsd = homology_of(chain_complex(bsd, bsd_signs))

    report.groups.update({
        "H(S)": h_s, "H(S dual)": h_sd, "H(S subdivided)": h_bs,
        "H(dual subdivided)": h_bsd, "cohomology(S)": coh_s,
    })

    # the dual numbers the same cells differently: compare chains as cell
    # sets, numbering the dual's cells as S does (-1: not a cell of S)
    in_s = [s._index.get(c, -1) for c in sd.cells]
    chains_s = {frozenset(ch) for ch in _chains(s)}
    chains_sd = {frozenset(map(in_s.__getitem__, ch)) for ch in _chains(sd)}
    report.checks.append(("subdivision invariance", h_s == h_bs))
    report.checks.append(("dual subdivision invariance", h_sd == h_bsd))
    report.checks.append(("subdivisions of complex and dual coincide",
                          chains_s == chains_sd))
    report.checks.append(("subdivided homologies equal", h_bs == h_bsd))
    report.checks.append(("star map intertwines boundaries", star.intertwines()))

    # omega with every flag reversed: the dual table, each dual top cell +1
    dual_omega = Orientation(_FlagColors(dos.dual_signs,
                                         dict.fromkeys(sd.maximal_cells(), 1)))
    report.checks.append(("dual star map intertwines boundaries",
                          StarMap(dual_orientations(sd, dual_omega)).intertwines()))

    n = s.dim
    report.checks.append(("dual homology equals complementary cohomology",
                          all(h_sd.group(i) == coh_s.group(n - i)
                              for i in range(n + 1))))
    for i in range(n + 1):
        a = h_s.group(i)
        b = coh_s.group(n - i)
        report.rows.append((i, a, b, a == b))
    return report


# -- pairings ---------------------------------------------------------------


@dataclass
class PairingReport:
    dimension: int
    basis_identity: bool          # basis pairing matrices are identities
    adjoint_residuals: int        # nonzero <boundary s, t> - <s, boundary t>
    stokes_residuals: int         # nonzero integral mismatches
    random_trials: int

    @property
    def passed(self) -> bool:
        return (self.basis_identity and self.adjoint_residuals == 0
                and self.stokes_residuals == 0)


def pairing(s: Ccc, sigma: Chain, tau: Chain) -> int:
    """Indicator pairing of a chain with a dual chain of complementary degree."""
    if sigma.degree + tau.degree != s.dim:
        raise ValueError("pairing needs complementary degrees")
    return sum(v * tau.coeffs.get(c, 0) for c, v in sigma.coeffs.items())


def stokes_check(s: Ccc, trials: int = 100, seed: int = 0) -> PairingReport:
    """Exercise the boundary-adjunction identity on every complementary
    basis pair and on random integer chains, plus the integral form
    against cochains."""
    if trials < 0:
        raise ValueError(f"trials must be non-negative, not {trials}")
    star = StarMap(dual_orientations(s))
    cc, cd = star.source, star.target
    n = s.dim
    # a cell pairs to 1 with itself and 0 with any other cell, so the basis
    # pairing matrix is the identity when both bases list the same cells
    identity_ok = all(cc.bases[i] == cd.bases[n - i] for i in range(n + 1))

    # one entry per basis pair: <boundary x, z> against <x, dual boundary z>
    adjoint_bad = sum(star._mismatches(i) for i in range(n))

    if n == 0:
        trials = 0  # a random trial draws a degree i < n, and there is none
    rng = random.Random(seed)
    stokes_bad = 0
    done = 0
    while done < trials:
        i = rng.randrange(0, n)
        sigma = Chain(i + 1, {x: rng.randint(-3, 3) for x in cc.bases[i + 1]})
        tau = Chain(n - i, {z: rng.randint(-3, 3) for z in cd.bases[n - i]})
        d_sigma = boundary(sigma, cc)
        if pairing(s, d_sigma, tau) != pairing(s, sigma, boundary(tau, cd)):
            adjoint_bad += 1
        # integration against a cochain of degree i: same coefficients read
        # as a cochain; the integral of the boundary equals that of the
        # coboundary image.
        omega_c = Chain(i, {x: rng.randint(-3, 3) for x in cc.bases[i]})
        lhs = sum(d_sigma.coeffs.get(c, 0) * v
                  for c, v in omega_c.coeffs.items())
        d_omega = coboundary(omega_c, cc).coeffs
        rhs = sum(d_omega.get(c, 0) * v for c, v in sigma.coeffs.items())
        if lhs != rhs:
            stokes_bad += 1
        done += 1

    return PairingReport(dimension=n, basis_identity=identity_ok,
                         adjoint_residuals=adjoint_bad,
                         stokes_residuals=stokes_bad, random_trials=trials)


def homology_pairing_matrix(s: Ccc, i: int):
    """Pairing of degree-``i`` homology generators with complementary dual
    generators, as an integer matrix on the chosen bases; 0x0 for a degree
    outside ``0..dim``."""
    star = StarMap(dual_orientations(s))
    cc, cd = star.source, star.target
    gens = free_cycle_generators(cc, i)
    dual_gens = free_cycle_generators(cd, s.dim - i)
    mat = np.zeros((len(gens), len(dual_gens)), dtype=np.int64)
    for a, g in enumerate(gens):
        sigma = cc.from_vector(g, i)
        for b, h in enumerate(dual_gens):
            tau = cd.from_vector(h, s.dim - i)
            mat[a, b] = pairing(s, sigma, tau)
    return mat
