"""Walled half-diagrams, their index bookkeeping, and the planar case.

A wall after position m splits a half-diagram's blocks into through
(crossing) and one-sided ones; the index (U; T, L, R) counts
through-unlabeled, through-labeled, left-labeled and right-labeled
blocks.  Generators of the two-sided algebra can only push the index
down lexicographically.  In the planar (Temperley-Lieb) world labels are
single dots, blocks of size two are caps, no label crosses the wall, and
the module classes multiply by the degenerate-triangle rule.
"""

from diagalg import (
    GrothElement,
    WalledHalfDiagram,
    WalledIndex,
    census,
    groth_multiply,
    index_of,
    tl_basis,
    tl_basis_count,
)
from diagalg.walled import index_count_formula, tensor_generators, transition

# The worked (8 | 7) example with four labels.
w = WalledHalfDiagram.from_json({
    "m": 8, "n": 7,
    "blocks": [[1, 3], [2, 4, -6], [5, -5], [6], [7, -7], [8, -4], [-3, -1], [-2]],
    "labeled": [1, 2, 3, 6],
})
print("walled diagram:", w.render())
print("index:", index_of(w).render())
print()

# Census by index, with the enumeration-validated closed form alongside.
print("census of (2|2) walled half-diagrams with one label:")
for idx, count in census(2, 2, 1).items():
    print(f"  {idx.render()}: {count} (closed form {index_count_formula(2, 2, idx)})")
print()

# Every generator move lowers the index or leaves it alone.
small = WalledHalfDiagram.from_blocks(2, 2, [[1, 4], [2], [3]], labeled=[0])
print("moves on", small.render(), "with index", index_of(small).render())
for name, g in tensor_generators(2, 2):
    move = transition(g, small)
    print(f"  {name}: {move.old.render()} -> {move.new.render()} ({move.case.value})")
print()

# Planar half-diagrams: ballot counts and the fusion rule.
print("planar basis sizes at degree 6:",
      {r: tl_basis_count(6, r) for r in range(0, 7, 2)})
print("degree 6, two labels:", [d.render() for d in tl_basis(6, 2)][:4], "...")
product = groth_multiply(GrothElement.module_class(2, 2), GrothElement.module_class(3, 1))
print("[V_2(2)] · [V_3(1)] =", product.render())

# The planar (3|3) diagrams of index 1;0,2,0 against the product of the
# one-sided planar counts with 1 + 2 and 1 + 0 labels.
slice_count = sum(
    index_of(WalledHalfDiagram(3, 3, d)) == WalledIndex(1, 0, 2, 0)
    for d in tl_basis(6, 2)
)
print("walled planar census slice vs product:",
      (slice_count, tl_basis_count(3, 3) * tl_basis_count(3, 1)))
