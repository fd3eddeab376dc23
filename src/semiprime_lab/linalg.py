"""Dense row reduction over F_p for the tiny matrices used by ideal windows."""

from __future__ import annotations


def rref(rows, p):
    """Reduced row echelon form without zero rows.

    Returns ``(rows, pivots)`` where rows are tuples with unit pivots and
    zeros above and below every pivot; pivots are the pivot column indices
    in increasing order.
    """
    mat = [
        [c % p for c in r]
        for r in rows
        if any(c % p for c in r)
    ]
    if not mat:
        return (), ()
    width = len(mat[0])
    pivots = []
    row = 0
    for col in range(width):
        sel = None
        for i in range(row, len(mat)):
            if mat[i][col]:
                sel = i
                break
        if sel is None:
            continue
        mat[row], mat[sel] = mat[sel], mat[row]
        inv = pow(mat[row][col], -1, p)
        mat[row] = [(x * inv) % p for x in mat[row]]
        for i in range(len(mat)):
            if i != row and mat[i][col]:
                f = mat[i][col]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[row])]
        pivots.append(col)
        row += 1
        if row == len(mat):
            break
    return tuple(tuple(r) for r in mat[:row]), tuple(pivots)


def reduce_vector(vec, rows, pivots, p):
    """Residual of ``vec`` after elimination against an RREF basis."""
    v = [c % p for c in vec]
    for r, pc in zip(rows, pivots):
        if v[pc]:
            f = v[pc]
            v = [(a - f * b) % p for a, b in zip(v, r)]
    return tuple(v)


def in_rowspace(vec, rows, pivots, p) -> bool:
    return not any(reduce_vector(vec, rows, pivots, p))


def rowspaces_intersect(rows_a, rows_b, width, p):
    """RREF of the intersection of two row spaces of ``width``-wide rows,
    read off one 2*width-wide Zassenhaus block."""
    big = [list(r) + list(r) for r in rows_a]
    big += [list(r) + [0] * width for r in rows_b]
    red, piv = rref(big, p)
    out = [r[width:] for r, pc in zip(red, piv) if pc >= width]
    return rref(out, p)
