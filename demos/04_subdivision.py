"""Stellar and barycentric subdivision, with the chain maps between them.

Subdividing at a cell replaces everything above it by cones off a new
vertex.  Doing this at every cell in decreasing rank order reproduces
the barycentric subdivision cell for cell, and the two natural chain
maps into it agree up to one sign per degree.
"""

from cellcomplexes import (
    barycentric,
    barycentric_via_stellar,
    big_phi,
    chain_of_cell,
    compare_phi_bigphi,
    euler_characteristic,
    homology,
    homology_of,
    chain_complex,
    orient_all_cells,
    phi,
    stellar,
    verify_subdivision_invariance,
)
from cellcomplexes import fixtures
from cellcomplexes.cells import CellId

C = CellId.of

t = fixtures.torus9()
signs = orient_all_cells(t)

# One stellar subdivision: the edge dies, its star is coned off C(h00;0).
res, new_signs = stellar(t, C("h00"), signs)
sx = res.complex
print(f"subdividing the torus at an edge: {len(t)} -> {len(sx)} cells, "
      f"euler characteristic {euler_characteristic(sx)}")
print(f"new cells: {len(res.new_cells)} cones; still manifold-like:",
      sx.classify().manifold_like)

# The subdivision chain map is the identity off the dead cells and a cone
# expansion on them; it commutes with the boundary.
f = phi(t, C("h00"), signs)
print("chain map law for the stellar map:", f.is_chain_map())
print("homology preserved:", verify_subdivision_invariance(t, C("h00"), signs).passed)

# Barycentric subdivision: cells are the non-empty chains of the poset.
b, bsigns = barycentric(t)
print(f"\nbarycentric subdivision: face vector",
      tuple(len(b.cells_of_rank(r)) for r in range(3)))
sample = b.cells_of_rank(2)[0]
print(f"a top cell of it, {sample}, stands for the chain",
      " < ".join(str(c) for c in chain_of_cell(t, sample)))
print("homology preserved:", homology_of(chain_complex(b, bsigns)) == homology(t, signs))

# The tower of stellar subdivisions in decreasing rank order lands on the
# same labelled complex.
tower = barycentric_via_stellar(t, signs)
print(f"\ntower stages: {[(s.rank, len(s.complex)) for s in tower.stages]}")
print("tower reproduces the barycentric complex:", tower.final == b)

# The flag-sum chain map and the tower composite agree up to a sign per
# degree (their target orientations differ, so the sign is forced).
print("flag-sum map is a chain map:", big_phi(t, signs).is_chain_map())
print("per-degree signs relating the two maps:", compare_phi_bigphi(t, signs))
