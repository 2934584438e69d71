"""Dual orientations, the degree-flipping star map, the duality pipeline,
and the intersection/integration pairings.

For a manifold-like, orientable complex the dual complex has the same
cells with order reversed and rank complemented.  A global orientation
induces one orientation on each dual closure: color a flag above ``x`` by
splicing it with a fixed flag below ``x`` into a full flag and dividing
colors.  Under these choices the incidence sign of a dual pair equals the
incidence sign of the original pair, so relabelling a chain group as its
dual intertwines the boundary with the dual coboundary, and homology in
degree ``i`` matches dual cohomology in degree ``n - i``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .chains import (
    Chain,
    boundary,
    chain_complex,
    coboundary,
    cohomology_of,
    free_cycle_generators,
    homology_of,
)
from .complexes import Ccc
from .errors import CccError, NotManifoldLikeError, NotOrientableError
from .flags import (
    Orientation,
    SignTable,
    _closure_flag_graph,
    _derive_signs,
    _two_color,
    flags_of,
    orient,
    orient_all_cells,
)
from .subdivision import barycentric, chain_of_cell


@dataclass
class DualOrientationSet:
    """Coherent orientation data on a complex and its dual."""

    complex: Ccc
    dual_complex: Ccc
    global_orientation: Orientation
    signs: SignTable        # on the complex; maximal cells restrict the global one
    dual_signs: SignTable   # on the dual complex

    def check_sign_law(self) -> int:
        """Verify s_dual(y, x) == s(x, y) on every incidence pair; returns
        the number of pairs checked."""
        checked = 0
        for (x, y), v in self.signs.signs.items():
            if self.dual_signs.s(y, x) != v:
                raise CccError(f"dual sign law fails on the pair ({x}, {y})")
            checked += 1
        return checked


def reversed_orientation(s: Ccc, omega: Orientation) -> Orientation:
    """The orientation the dual complex inherits: reverse every flag."""
    return Orientation({tuple(reversed(f)): c for f, c in omega.colors.items()})


def dual_orientations(s: Ccc, omega: Orientation | None = None) -> DualOrientationSet:
    """Build matching sign tables on a complex and its dual.

    Maximal cells take the restriction of the global orientation, other
    cells their canonical one.  Each dual closure is oriented through one
    fixed flag below the cell (the least; the tests spot-check that the
    choice does not matter).  The sign law is verified before returning.
    """
    if not s.classify().manifold_like:
        raise NotManifoldLikeError("dual orientations need a manifold-like complex")
    if omega is None:
        omega = orient(s)
    sd = s.dual()

    overrides = {x: Orientation({f: omega.sign(f) for f in flags_of(s, x)})
                 for x in s.maximal_cells()}
    signs = orient_all_cells(s, overrides=overrides)

    dual_orients = {}
    for x in s.cells:
        gamma1 = flags_of(s, x)[0]
        base = signs.color(gamma1)
        dual_orients[x] = Orientation({
            gamma2: omega.sign(tuple(reversed(gamma2))[:-1] + gamma1) * base
            for gamma2 in flags_of(sd, x)})
    vertex_signs = {v: dual_orients[v].sign((v,)) for v in sd.cells_of_rank(0)}
    dual_signs = SignTable(sd, _derive_signs(sd, dual_orients), vertex_signs)

    out = DualOrientationSet(s, sd, omega, signs, dual_signs)
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
        for i in range(1, self.n + 1):
            d = self.source.boundary_matrix(i)
            dd = self.target.boundary_matrix(self.n - i + 1)
            # bases in matching degrees list the same cells in the same order
            if self.source.bases[i] != self.target.bases[self.n - i]:
                return False
            if d.shape != dd.T.shape or not np.array_equal(d, dd.T):
                return False
        return True


def star_map(s: Ccc, orientations: DualOrientationSet) -> StarMap:
    if orientations.complex is not s and orientations.complex != s:
        raise ValueError("orientation set belongs to a different complex")
    return StarMap(orientations)


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

    for name, cx in (("complex", s), ("dual", sd)):
        bad = None
        for x in cx.cells:
            _, _, components = _two_color(_closure_flag_graph(cx, x))
            if components != 1:
                bad = x
                break
        report.hypotheses.append((f"cells of the {name} flag-connected",
                                  bad is None,
                                  "" if bad is None else f"cell {bad}"))

    for name, cx, table in (("complex", s, dos.signs), ("dual", sd, dos.dual_signs)):
        bad = None
        for x in cx.cells:
            sub = cx.closure_complex(x)
            if not homology_of(chain_complex(sub, table.restrict(sub))).is_acyclic:
                bad = x
                break
        report.hypotheses.append((f"cells of the {name} acyclic", bad is None,
                                  "" if bad is None else f"cell {bad}"))
    if not report.hypotheses_ok:
        return report

    h_s = homology_of(chain_complex(s, dos.signs))
    h_sd = homology_of(chain_complex(sd, dos.dual_signs))
    coh_s = cohomology_of(chain_complex(s, dos.signs))

    bs, bs_signs = barycentric(s)
    bsd, bsd_signs = barycentric(sd)
    h_bs = homology_of(chain_complex(bs, bs_signs))
    h_bsd = homology_of(chain_complex(bsd, bsd_signs))

    report.groups.update({
        "H(S)": h_s, "H(S dual)": h_sd, "H(S subdivided)": h_bs,
        "H(dual subdivided)": h_bsd, "cohomology(S)": coh_s,
    })

    chains_s = {frozenset(chain_of_cell(s, c)) for c in bs.cells}
    chains_sd = {frozenset(chain_of_cell(sd, c)) for c in bsd.cells}
    report.checks.append(("subdivision invariance", h_s == h_bs))
    report.checks.append(("dual subdivision invariance", h_sd == h_bsd))
    report.checks.append(("subdivisions of complex and dual coincide",
                          chains_s == chains_sd))
    report.checks.append(("subdivided homologies equal", h_bs == h_bsd))
    report.checks.append(("star map intertwines boundaries",
                          StarMap(dos).intertwines()))

    dos_rev = dual_orientations(sd, reversed_orientation(s, omega))
    report.checks.append(("dual star map intertwines boundaries",
                          StarMap(dos_rev).intertwines()))

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
    dos = dual_orientations(s)
    cc = chain_complex(s, dos.signs)
    cd = chain_complex(dos.dual_complex, dos.dual_signs)
    n = s.dim
    adjoint_bad = 0
    identity_ok = True

    for i in range(n + 1):
        for x in cc.bases[i]:
            for z in cd.bases[n - i]:
                if (1 if x == z else 0) != pairing(s, Chain(i, {x: 1}),
                                                   Chain(n - i, {z: 1})):
                    identity_ok = False

    for i in range(n):
        # sigma of degree i+1 over the complex, tau of degree n-i over the dual
        for x in cc.bases[i + 1]:
            sigma = Chain(i + 1, {x: 1})
            for z in cd.bases[n - i]:
                tau = Chain(n - i, {z: 1})
                lhs = pairing(s, boundary(sigma, cc), tau)
                rhs = pairing(s, sigma, boundary(tau, cd))
                if lhs != rhs:
                    adjoint_bad += 1

    rng = random.Random(seed)
    stokes_bad = 0
    done = 0
    while done < trials:
        i = rng.randrange(0, n)
        sigma = Chain(i + 1, {x: rng.randint(-3, 3) for x in cc.bases[i + 1]})
        tau = Chain(n - i, {z: rng.randint(-3, 3) for z in cd.bases[n - i]})
        if pairing(s, boundary(sigma, cc), tau) != pairing(s, sigma, boundary(tau, cd)):
            adjoint_bad += 1
        # integration against a cochain of degree i: same coefficients read
        # as a cochain; the integral of the boundary equals that of the
        # coboundary image.
        omega_c = Chain(i, {x: rng.randint(-3, 3) for x in cc.bases[i]})
        lhs = sum(boundary(sigma, cc).coeffs.get(c, 0) * v
                  for c, v in omega_c.coeffs.items())
        rhs = sum(coboundary(omega_c, cc).coeffs.get(c, 0) * v
                  for c, v in sigma.coeffs.items())
        if lhs != rhs:
            stokes_bad += 1
        done += 1

    return PairingReport(dimension=n, basis_identity=identity_ok,
                         adjoint_residuals=adjoint_bad,
                         stokes_residuals=stokes_bad, random_trials=trials)


def homology_pairing_matrix(s: Ccc, i: int):
    """Pairing of degree-``i`` homology generators with complementary dual
    generators, as an integer matrix on the chosen bases."""
    dos = dual_orientations(s)
    cc = chain_complex(s, dos.signs)
    cd = chain_complex(dos.dual_complex, dos.dual_signs)
    gens = free_cycle_generators(cc, i)
    dual_gens = free_cycle_generators(cd, s.dim - i)
    mat = np.zeros((len(gens), len(dual_gens)), dtype=np.int64)
    for a, g in enumerate(gens):
        sigma = cc.from_vector(g, i)
        for b, h in enumerate(dual_gens):
            tau = cd.from_vector(h, s.dim - i)
            mat[a, b] = pairing(s, sigma, tau)
    return mat
