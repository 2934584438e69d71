"""Integer homology and cohomology through a Morse complex.

Boundary matrices are filled with the incidence signs.  A coreduction
pairs almost every cell with a face along an incidence of sign +1 or -1,
checking as it goes that the boundary squares to zero and that the
matching is acyclic; the few critical cells left span a Morse complex
with the same homology, whose torsion comes from an exact integer Smith
normal form.  The result per degree is a free rank plus a divisibility
chain of torsion coefficients.
"""

from cellcomplexes import (
    Chain,
    boundary,
    chain_complex,
    cohomology,
    h0_components,
    homology,
    is_acyclic,
    orient_all_cells,
    relative_homology,
    smith_normal_form,
)
from cellcomplexes import fixtures
from cellcomplexes.cells import CellId

C = CellId.of

t = fixtures.torus9()
signs = orient_all_cells(t)
cc = chain_complex(t, signs)
d1, d2 = cc.boundary_matrix(1), cc.boundary_matrix(2)
print(f"torus boundary matrices: {d1.shape} and {d2.shape}; "
      f"product vanishes: {not (d1 @ d2).any()}")

print("homology of the torus:   ", homology(t, signs))
print("cohomology of the torus: ", cohomology(t, signs))

# Chains are sparse integer combinations; the boundary expands by signs.
sigma = Chain(2, {C("f00"): 1, C("f01"): -2})
print("\nboundary of f00 - 2*f01:", dict(
    (str(c), v) for c, v in boundary(sigma, cc).coeffs.items()))

# The solid tetrahedron is acyclic; relative to its boundary sphere a
# single class survives at the top.
solid = fixtures.tetrahedron_solid()
ssigns = orient_all_cells(solid)
print("\nsolid tetrahedron acyclic:", is_acyclic(solid, ssigns))
sphere_cells = {c for c in solid.cells if solid.rank(c) < 3}
print("relative to its boundary:", relative_homology(solid, sphere_cells, ssigns))

# Degree zero counts components of the vertex-edge graph.
print("\ncomponents: torus =", h0_components(t),
      " two disjoint edges =", h0_components(fixtures.disjoint_edges()))

# The engine underneath: exact Smith normal form with transforms.
snf = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
print("\nsmith normal form diagonal:", snf.diagonal, " rank:", snf.rank)
