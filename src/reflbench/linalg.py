"""Small exact linear-algebra helpers over CycNum (row-major lists of lists)."""

from __future__ import annotations

from . import cyclo
from .cyclo import CycNum


def rref(rows: list[list[CycNum]]) -> tuple[list[list[CycNum]], list[int]]:
    """Reduced row echelon form; returns (reduced nonzero rows, pivot columns)."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = mat[r][c].inverse()
        prow = mat[r] = [x * inv for x in mat[r]]
        # row updates touch only the columns where the pivot row is nonzero
        support = [(j, b) for j, b in enumerate(prow) if b]
        for i in range(nrows):
            row = mat[i]
            if i != r and row[c]:
                f = row[c]
                for j, b in support:
                    row[j] = row[j] - f * b
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat[:r], pivots


def rank(rows: list[list[CycNum]]) -> int:
    return len(rref(rows)[0])


def det(rows: list[list[CycNum]]) -> CycNum:
    n = len(rows)
    mat = [list(r) for r in rows]
    result = cyclo.ONE
    for c in range(n):
        pr = next((i for i in range(c, n) if mat[i][c]), None)
        if pr is None:
            return cyclo.ZERO
        if pr != c:
            mat[c], mat[pr] = mat[pr], mat[c]
            result = -result
        pivot = mat[c][c]
        result = result * pivot
        inv = pivot.inverse()
        support = [(j, b) for j, b in enumerate(mat[c]) if b]
        for i in range(c + 1, n):
            row = mat[i]
            if row[c]:
                f = row[c] * inv
                for j, b in support:
                    row[j] = row[j] - f * b
    return result


def invert(rows: list[list[CycNum]]) -> list[list[CycNum]]:
    n = len(rows)
    aug = [list(r) + [cyclo.ONE if i == j else cyclo.ZERO for j in range(n)] for i, r in enumerate(rows)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in red[:n]]
