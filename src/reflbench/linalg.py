"""Exact linear algebra over a field, on row-major lists of lists: the entries
(CycNum or Fraction) need + - * / and a truth value that is False at zero.
Zero and one are taken from the entries, so no field type is imported here."""

from __future__ import annotations


def rref(rows: list[list]) -> tuple[list[list], list[int]]:
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
        inv = 1 / mat[r][c]
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


def kernel(rows: list[list]) -> list[list[tuple]]:
    """A null-space basis of a nonempty matrix, read off the pivots of its rref:
    per free column f, the sparse vector of (column, entry) pairs that is 1 at f
    and minus column f of the reduced rows at the pivot columns."""
    reduced, pivots = rref(rows)
    one = rows[0][0] ** 0
    return [
        [(c, -row[f]) for c, row in zip(pivots, reduced) if row[f]] + [(f, one)]
        for f in range(len(rows[0]))
        if f not in pivots
    ]


def det(rows: list[list]):
    """The determinant of a nonempty square matrix."""
    n = len(rows)
    mat = [list(r) for r in rows]
    result = mat[0][0] ** 0
    for c in range(n):
        pr = next((i for i in range(c, n) if mat[i][c]), None)
        if pr is None:
            return result - result
        if pr != c:
            mat[c], mat[pr] = mat[pr], mat[c]
            result = -result
        pivot = mat[c][c]
        result = result * pivot
        inv = 1 / pivot
        support = [(j, b) for j, b in enumerate(mat[c]) if b]
        for i in range(c + 1, n):
            row = mat[i]
            if row[c]:
                f = row[c] * inv
                for j, b in support:
                    row[j] = row[j] - f * b
    return result


def invert(rows: list[list]) -> list[list]:
    """The inverse of a nonempty square matrix; ZeroDivisionError if singular."""
    n = len(rows)
    one = rows[0][0] ** 0
    zero = one - one
    aug = [list(r) + [one if i == j else zero for j in range(n)] for i, r in enumerate(rows)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in red[:n]]
