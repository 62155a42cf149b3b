"""Exact normal forms and lattice arithmetic for small integer matrices.

Rows of a matrix are read as generators of a sublattice of Z^n.  Everything
runs on Python big integers; the matrices involved are module presentations
and submodule bases, so dimensions stay in the single digits.
"""

from __future__ import annotations

from typing import Iterable, Sequence

Row = tuple[int, ...]
Basis = tuple[Row, ...]


def _as_rows(rows: Iterable[Sequence[int]], ncols: int) -> list[list[int]]:
    out = []
    for row in rows:
        row = [int(x) for x in row]
        if len(row) != ncols:
            raise ValueError(f"row length {len(row)} does not match ncols={ncols}")
        out.append(row)
    return out


def hnf(rows: Iterable[Sequence[int]], ncols: int) -> Basis:
    """Row-style Hermite normal form of the lattice spanned by ``rows``.

    The result is echelon with positive pivots, entries above each pivot
    reduced into [0, pivot), and zero rows dropped.  It is a canonical form:
    two generating sets span the same lattice iff their HNFs are equal.
    """
    A = _as_rows(rows, ncols)
    r = 0
    for c in range(ncols):
        if r == len(A):
            break
        # gcd-eliminate column c below row r
        while True:
            candidates = [i for i in range(r, len(A)) if A[i][c] != 0]
            if not candidates:
                break
            i0 = min(candidates, key=lambda i: abs(A[i][c]))
            A[r], A[i0] = A[i0], A[r]
            clean = True
            for i in range(r + 1, len(A)):
                if A[i][c] != 0:
                    q = A[i][c] // A[r][c]
                    A[i] = [a - q * b for a, b in zip(A[i], A[r])]
                    if A[i][c] != 0:
                        clean = False
            if clean:
                break
        if A[r][c] != 0:
            if A[r][c] < 0:
                A[r] = [-x for x in A[r]]
            for i in range(r):
                q = A[i][c] // A[r][c]
                if q:
                    A[i] = [a - q * b for a, b in zip(A[i], A[r])]
            r += 1
    return tuple(tuple(row) for row in A[:r])


def pivot_columns(basis: Basis) -> tuple[int, ...]:
    """Column index of the leading nonzero entry of each HNF row."""
    cols = []
    for row in basis:
        for j, x in enumerate(row):
            if x:
                cols.append(j)
                break
    return tuple(cols)


def lattice_contains(basis: Basis, vector: Sequence[int]) -> bool:
    """Membership of an integer vector in the lattice given by HNF rows."""
    v = [int(x) for x in vector]
    for row, c in zip(basis, pivot_columns(basis)):
        if v[c] % row[c] == 0:
            q = v[c] // row[c]
            if q:
                v = [a - q * b for a, b in zip(v, row)]
        else:
            return False
    return not any(v)


def lattice_leq(inner: Basis, outer: Basis) -> bool:
    """True iff the lattice of ``inner`` is contained in that of ``outer``."""
    return all(lattice_contains(outer, row) for row in inner)


def lattice_sum(b1: Basis, b2: Basis, ncols: int) -> Basis:
    return hnf(list(b1) + list(b2), ncols)


def lattice_intersection(b1: Basis, b2: Basis, ncols: int) -> Basis:
    """Intersection of two lattices given by generating rows (Zassenhaus).

    In the HNF of the block matrix [[B1, B1], [B2, 0]] the rows with a zero
    left half span {0} x (L1 cap L2), and their right halves are already
    its HNF (Cohen, GTM 138, sec. 2.4).
    """
    block = [tuple(row) * 2 for row in b1] + [tuple(row) + (0,) * ncols for row in b2]
    return tuple(row[ncols:] for row in hnf(block, 2 * ncols) if not any(row[:ncols]))


def lattice_index(basis: Basis, ncols: int) -> int | None:
    """Index [Z^n : L], or None when the quotient is infinite (rank < n)."""
    if len(basis) < ncols:
        return None
    index = 1
    for row, c in zip(basis, pivot_columns(basis)):
        index *= row[c]
    return index


def smith_column_orders(
    rows: Iterable[Sequence[int]], ncols: int
) -> tuple[tuple[int, ...], tuple[Row, ...]]:
    """Smith normal form data with the right (column) transform.

    For a relation matrix A the pair ``(orders, V)`` satisfies: the change of
    coordinates x -> x.V carries the row lattice of A onto the diagonal
    lattice whose column j is generated by orders[j] (0 marks a free column).
    The nonzero orders form a divisibility chain d_1 | d_2 | ...
    """
    A = _as_rows(rows, ncols)
    m = len(A)
    V = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def swap_cols(j, k):
        if j != k:
            for row in A:
                row[j], row[k] = row[k], row[j]
            for row in V:
                row[j], row[k] = row[k], row[j]

    def add_col(j, k, q):
        # column j -= q * column k
        for row in A:
            row[j] -= q * row[k]
        for row in V:
            row[j] -= q * row[k]

    orders = [0] * ncols
    t = 0
    while t < min(m, ncols):
        best = None
        pos = None
        for i in range(t, m):
            for j in range(t, ncols):
                if A[i][j] != 0 and (best is None or abs(A[i][j]) < best):
                    best = abs(A[i][j])
                    pos = (i, j)
        if pos is None:
            break
        A[t], A[pos[0]] = A[pos[0]], A[t]
        swap_cols(t, pos[1])
        while True:
            # clear column t with row operations
            for i in range(t + 1, m):
                while A[i][t] != 0:
                    q = A[i][t] // A[t][t]
                    A[i] = [a - q * b for a, b in zip(A[i], A[t])]
                    if A[i][t] != 0:
                        A[t], A[i] = A[i], A[t]
            # clear row t with column operations
            for j in range(t + 1, ncols):
                while A[t][j] != 0:
                    q = A[t][j] // A[t][t]
                    add_col(j, t, q)
                    if A[t][j] != 0:
                        swap_cols(t, j)
            if all(A[i][t] == 0 for i in range(t + 1, m)) and all(
                A[t][j] == 0 for j in range(t + 1, ncols)
            ):
                break
        # the pivot must divide the remaining block for the chain property
        d = abs(A[t][t])
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, ncols):
                if A[i][j] % d:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            A[t] = [a + b for a, b in zip(A[t], A[offender])]
            continue
        A[t][t] = d
        orders[t] = d
        t += 1
    return tuple(orders), tuple(tuple(row) for row in V)


def smith_diagonal(rows: Iterable[Sequence[int]], ncols: int) -> tuple[int, ...]:
    """Nonzero Smith diagonal entries d_1 | d_2 | ... of a relation matrix."""
    orders, _ = smith_column_orders(rows, ncols)
    return tuple(d for d in orders if d != 0)
