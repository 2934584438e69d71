"""The duality pipeline and the intersection/integration pairings.

For an orientable manifold-like complex whose cells (and dual cells) are
flag-connected and acyclic, homology in degree i matches cohomology in
degree n - i.  The pipeline verifies each hypothesis, each stage, and
the final table; the pairing of chains with dual chains is adjoint to
the boundary and descends to a unimodular pairing on torus homology.
"""

import numpy as np

from cellcomplexes import (
    Chain,
    StarMap,
    dual_orientations,
    homology_pairing_matrix,
    pairing,
    stokes_check,
    verify_duality,
)
from cellcomplexes import fixtures
from cellcomplexes.cells import CellId

C = CellId.of

t = fixtures.torus9()

# The dual complex: same cells, order reversed, rank complemented.
d = t.dual()
print("dual of the torus:", tuple(len(d.cells_of_rank(r)) for r in range(3)),
      "| double dual returns the original:", d.dual() == t)

# Coherent orientations on both sides make dual incidence signs equal the
# original ones, so relabelling chains as dual chains swaps boundary and
# coboundary.
dos = dual_orientations(t)
print("sign law checked on", dos.check_sign_law(), "incidence pairs")
print("star map intertwines boundary with dual coboundary:",
      StarMap(dos).intertwines())

print("\nfull duality report for the torus:")
print(verify_duality(t))

print("\nand for the Mobius band (fails with a certificate):")
rep = verify_duality(fixtures.mobius3())
for name, ok, detail in rep.hypotheses:
    print(f"  {name}: {'ok' if ok else 'FAIL'}")
print(f"  certificate: odd cycle of {len(rep.certificate)} flags")

# The pairing of a chain with a dual chain counts coincidences; it is
# adjoint to the boundary on both sides and the induced pairing on torus
# degree-one homology is unimodular.
sigma = Chain(1, {C("h00"): 2, C("e11"): -1})
tau = Chain(1, {C("h00"): 5})
print("\n<2*h00 - e11, 5*h00 dual> =", pairing(t, sigma, tau))
report = stokes_check(t)
print("adjunction residuals over all basis pairs and 100 random chains:",
      report.adjoint_residuals + report.stokes_residuals)
mat = homology_pairing_matrix(t, 1)
print("degree-one homology pairing matrix:")
print(np.array(mat))
print("determinant:", mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0])
