"""Littlewood-Richardson coefficients by two test-only routes, the oracles for ``lr_coeff``.

Symbol addition shares only the partition check and the containment
test with :func:`diagalg.symfunc.lr_coeff`, so the two routes agreeing is
evidence for both.  The recursive fill is the former ``lr_coeff``: the
same cells in the same order, one call per cell, so it checks the
explicit-stack fill step for step (and stops near Python's frame limit).
"""

from diagalg.symfunc import Partition, _contains, check_partition


def lr_coeff_by_symbol_addition(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Littlewood-Richardson coefficient by row-by-row symbol addition.

    A second, mechanically independent route used to cross-check
    :func:`diagalg.symfunc.lr_coeff`.  The cells of ``mu`` are appended to the diagram of
    ``lam`` one ``mu``-row at a time so that every intermediate shape is a
    partition, the symbols of one row occupy pairwise distinct columns
    (first symbol rightmost), and the k-th symbol of each row lands in a
    strictly later row of the diagram than the k-th symbol of every
    earlier ``mu``-row.  The count of complete placements whose final
    shape equals ``nu`` is the coefficient.
    """
    lam = check_partition(lam)
    mu = check_partition(mu)
    nu = check_partition(nu)
    if sum(lam) + sum(mu) != sum(nu) or not _contains(nu, lam):
        return 0
    if not mu:
        return 1 if lam == nu else 0

    def strips(shape: Partition, size: int) -> list[Partition]:
        """Shapes reachable by adding ``size`` cells, no two in one column."""
        old = list(shape) + [0]
        found: list[Partition] = []

        def go(x: int, left: int, acc: list[int]) -> None:
            if x == len(old):
                if left == 0:
                    found.append(tuple(v for v in acc if v))
                return
            hi = old[x - 1] if x > 0 else old[0] + left
            hi = min(hi, old[x] + left)
            for new_len in range(old[x], hi + 1):
                acc.append(new_len)
                go(x + 1, left - (new_len - old[x]), acc)
                acc.pop()

        go(0, size, [])
        return found

    total = 0

    def add_rows(row: int, shape: Partition, history: list[list[int]]) -> None:
        nonlocal total
        if row == len(mu):
            if shape == nu:
                total += 1
            return
        for new_shape in strips(shape, mu[row]):
            if not _contains(nu, new_shape):
                continue
            added = []  # (column, diagram row) of each new cell
            old_padded = shape + (0,) * (len(new_shape) - len(shape))
            for x in range(len(new_shape)):
                for col in range(old_padded[x] + 1, new_shape[x] + 1):
                    added.append((col, x + 1))
            added.sort(reverse=True)  # first symbol takes the rightmost column
            rows_used = [drow for _, drow in added]
            ok = True
            for earlier in history:
                for k, drow in enumerate(rows_used):
                    if earlier[k] >= drow:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                history.append(rows_used)
                add_rows(row + 1, new_shape, history)
                history.pop()

    add_rows(0, lam, [])
    return total


def lr_coeff_by_recursive_fill(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Littlewood-Richardson coefficient by a fill that recurses once per cell.

    Counts semistandard fillings of nu/lam with content mu whose reverse
    reading word is a lattice word, visiting the cells in reverse reading
    order (rows top to bottom, right to left within each row).
    """
    lam = check_partition(lam)
    mu = check_partition(mu)
    nu = check_partition(nu)
    if sum(lam) + sum(mu) != sum(nu) or not _contains(nu, lam):
        return 0
    if not mu:
        return 1 if lam == nu else 0
    rows = len(nu)
    lam_pad = lam + (0,) * (rows - len(lam))
    grid = [[0] * nu[i] for i in range(rows)]
    cells = [(i, j) for i in range(rows) for j in range(nu[i] - 1, lam_pad[i] - 1, -1)]
    remaining = list(mu)
    placed = [0] * len(mu)
    total = 0

    def fill(k: int) -> None:
        nonlocal total
        if k == len(cells):
            total += 1
            return
        i, j = cells[k]
        hi = len(mu)
        if j + 1 < nu[i]:
            hi = min(hi, grid[i][j + 1])  # rows weakly increase left to right
        for v in range(1, hi + 1):
            if remaining[v - 1] == 0:
                continue
            if v > 1 and placed[v - 1] >= placed[v - 2]:
                continue  # lattice word prefix condition
            if i > 0 and j >= lam_pad[i - 1] and v <= grid[i - 1][j]:
                continue  # columns strictly increase
            grid[i][j] = v
            remaining[v - 1] -= 1
            placed[v - 1] += 1
            fill(k + 1)
            grid[i][j] = 0
            remaining[v - 1] += 1
            placed[v - 1] -= 1

    fill(0)
    return total
