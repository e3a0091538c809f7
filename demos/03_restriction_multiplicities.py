"""The restriction multiplicity computed four independent ways.

For label counts p, q, r the multiplicity is the number of walled
indices (U; T, L, R) of non-negative integers that solve

    T + L + R = r,    L + T + U = p,    R + U + T = q;

e_lattice returns them as WalledIndex values, in increasing T.

The four routes: a piecewise closed form, brute-force enumeration of the
system, a lattice-point count on the line x + 2y = p + q - r, and the
general standard-module coefficient sum (Littlewood-Richardson and
Kronecker coefficients), which also covers multi-row indices.
"""

from diagalg import bvo_multiplicity, e2_lattice, e_closed, e_lattice
from diagalg.multiplicity import admissible_degree_pairs, one_part
from diagalg.verify import run_suite

for p, q, r in [(2, 2, 2), (5, 3, 4), (1, 1, 3), (6, 6, 4)]:
    count, solutions = e_lattice(p, q, r)
    (m, n), _ = admissible_degree_pairs(p, q, r)
    coeff_sum = bvo_multiplicity(one_part(r), one_part(p), one_part(q), m, n)
    print(f"(p, q, r) = ({p}, {q}, {r})")
    print(f"  closed form {e_closed(p, q, r)}, system {count}, "
          f"lattice {e2_lattice(p, q, r)}, coefficient sum {coeff_sum}")
    for s in solutions:
        print(f"  solution: T={s.through_labeled} U={s.through_unlabeled} "
              f"L={s.left_labeled} R={s.right_labeled}")

# Multi-row indices go through the same coefficient sum.
print()
print("two-row index (1,1) against single labels:",
      bvo_multiplicity((1, 1), (1,), (1,), 1, 1))

# The four standing boundary and reflection identities, checked by the
# symmetry-lemma suite on every triple up to 5.
report = run_suite("symmetry-lemma", 5)
print()
print(f"symmetry-lemma suite up to 5: ok = {report.ok}, {report.cases} cases")
