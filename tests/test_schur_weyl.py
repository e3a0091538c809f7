"""Schur–Weyl duality at delta = N: a semantic oracle for ``compose``.

A degree-n diagram d acts on (C^N)^{⊗n} by the 0/1 matrix Φ(d), whose entry
Φ(d)[i, k] is 1 exactly when the top word i and the bottom word k, read
together on d's 2n dots, are constant on every block.  Stacking is matrix
product: the sum over middle words j of Φ(d1)[i, j]·Φ(d2)[j, k] is N^t when
(i, k) is constant on every block of d = d1∘d2 and 0 otherwise, each of the
t interior components taking any of N letters.  So (t, d) = compose(d1, d2)
must satisfy Φ(d1)·Φ(d2) = N^t·Φ(d).

Φ is faithful, distinct diagrams giving distinct matrices, only for
N >= 2n: a word on 2n dots needs up to 2n letters to tell every block apart.
With fewer, a wrong result diagram can pass, so both checks below use
N = 2n.  Φ(d)[i, k] depends only on which dots the word (i, k) gives equal
letters, so one word per set partition of the 2n outer dots reads every
entry up to relabeling.

Words and set partitions come from ``itertools`` here; nothing is shared
with ``compose`` or with the graph-search oracle in ``test_diagrams.py``.
"""

import random
from collections import Counter
from itertools import product

from diagalg.diagrams import SetPartitionDiagram, compose


def growth_strings(length):
    """Restricted-growth strings of ``length``: one word per set partition of its positions."""
    return [
        w for w in product(range(length), repeat=length)
        if all(w[k] <= max(w[:k], default=-1) + 1 for k in range(length))
    ]


def all_diagrams(n):
    """Every degree-n diagram, with the dots 1..n, -1..-n grouped by a growth string."""
    dots = [*range(1, n + 1), *range(-1, -n - 1, -1)]
    out = []
    for w in growth_strings(2 * n):
        blocks = {}
        for dot, letter in zip(dots, w):
            blocks.setdefault(letter, []).append(dot)
        out.append(SetPartitionDiagram(n, list(blocks.values())))
    return out


def phi(d, top, bottom):
    """Φ(d)[top, bottom]: 1 when every block of ``d`` reads one letter, else 0."""
    def letter(dot):
        return top[dot - 1] if dot > 0 else bottom[-dot - 1]
    return int(all(len({letter(dot) for dot in block}) == 1 for block in d.blocks))


def phi_rows(d, words):
    """Φ(d) as a map from each top word to the bottom words of its 1 entries."""
    return {i: [k for k in words if phi(d, i, k)] for i in words}


def test_all_pairs_at_two():
    n, N = 2, 4
    words = list(product(range(N), repeat=n))
    diagrams = all_diagrams(n)
    rows = {d: phi_rows(d, words) for d in diagrams}
    assert len(diagrams) == 15
    assert len({tuple(map(tuple, r.values())) for r in rows.values()}) == 15  # faithful at N = 2n
    for d1 in diagrams:
        for d2 in diagrams:
            t, d = compose(d1, d2)
            for i in words:
                product_row = Counter(k for j in rows[d1][i] for k in rows[d2][j])
                assert dict(product_row) == {k: N**t for k in rows[d][i]}, (d1, d2, i)


def test_sampled_pairs_at_three():
    n, N = 3, 6
    middles = list(product(range(N), repeat=n))
    outers = growth_strings(2 * n)
    diagrams = all_diagrams(n)
    assert len(outers) == len(diagrams) == 203
    rng = random.Random(4)
    for _ in range(100):
        d1, d2 = rng.choice(diagrams), rng.choice(diagrams)
        t, d = compose(d1, d2)
        compatible = {}  # top word -> middle words j with Φ(d1)[i, j] = 1
        for w in outers:
            i, k = w[:n], w[n:]
            if i not in compatible:
                compatible[i] = [j for j in middles if phi(d1, i, j)]
            entry = sum(phi(d2, j, k) for j in compatible[i])
            assert entry == N**t * phi(d, i, k), (d1, d2, w)
