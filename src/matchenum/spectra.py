"""Kasteleyn-signed matrices, exact characteristic polynomials of K*K^T,
and floating-point singular values of K.

The characteristic polynomial is computed over exact integers (every
division in the recurrence is exact), so the counting identity
|constant term| = (matching count)^2 can be asserted as integer equality.
Floating point appears only in the singular values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .counting import kasteleyn_orient, signed_biadjacency
from .graphs import GraphError, MatchGraph

JACOBI_TOL = 1e-12


@dataclass(frozen=True)
class SignedMatrix:
    """Signed biadjacency: rows one color class, columns the other,
    entries +-1 on edges per the Kasteleyn orientation, 0 elsewhere."""

    entries: tuple[tuple[int, ...], ...]
    row_vertices: tuple[int, ...]
    col_vertices: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class CharPoly:
    """det(lambda*I - A) as integer coefficients, constant term first."""

    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def constant_term(self) -> int:
        return self.coeffs[0]

    def to_json(self) -> str:
        return json.dumps([str(c) for c in self.coeffs])


def kasteleyn_matrix(g: MatchGraph, seed: int = 0) -> SignedMatrix:
    """Signed biadjacency whose |det| is the perfect matching count."""
    if g.coords is None:
        raise GraphError("kasteleyn_matrix needs an embedding")
    if g.color is None:
        raise GraphError("kasteleyn_matrix needs a bipartition")
    if not g.is_balanced():
        a, b = g.class_sizes()
        raise GraphError(f"bipartition classes have sizes {a} != {b}")
    rows, cols, mat = signed_biadjacency(g, kasteleyn_orient(g, seed=seed))
    return SignedMatrix(
        entries=tuple(tuple(r) for r in mat),
        row_vertices=tuple(rows),
        col_vertices=tuple(cols),
    )


def _kk_star(k: SignedMatrix) -> list[list[int]]:
    m = k.dimension
    e = k.entries
    n = len(e[0]) if m else 0
    out = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            s = 0
            for t in range(n):
                s += e[i][t] * e[j][t]
            out[i][j] = s
            out[j][i] = s
    return out


def kk_star_charpoly(k: SignedMatrix) -> CharPoly:
    """Exact characteristic polynomial of K*K^T.

    Faddeev-LeVerrier recurrence over the integers; the trace divisions
    are exact and asserted to be so.
    """
    a = _kk_star(k)
    m = len(a)
    coeffs = [0] * (m + 1)
    coeffs[m] = 1
    mat = [[0] * m for _ in range(m)]  # M_0 = 0
    for step in range(1, m + 1):
        # M_step = A @ M_{step-1} + c_{m-step+1} * I
        prev_c = coeffs[m - step + 1]
        nxt = [[0] * m for _ in range(m)]
        for i in range(m):
            ai = a[i]
            row = nxt[i]
            for t in range(m):
                ait = ai[t]
                if ait:
                    mt = mat[t]
                    for j in range(m):
                        row[j] += ait * mt[j]
            row[i] += prev_c
        mat = nxt
        tr = 0
        for i in range(m):
            ai = a[i]
            for t in range(m):
                tr += ai[t] * mat[t][i]
        q, r = divmod(-tr, step)
        if r:
            raise ArithmeticError("trace division in the recurrence not exact")
        coeffs[m - step] = q
    return CharPoly(tuple(coeffs))


def _jacobi_eigenvalues(a: list[list[float]], tol: float = JACOBI_TOL) -> list[float]:
    n = len(a)
    if n == 0:
        return []
    a = [[float(v) for v in row] for row in a]
    scale = math.sqrt(sum(v * v for row in a for v in row)) or 1.0
    for _ in range(200):
        off = math.sqrt(sum(a[p][q] ** 2 for p in range(n) for q in range(p + 1, n)))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if abs(apq) <= 1e-300:
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for k in range(n):
                    akp, akq = a[k][p], a[k][q]
                    a[k][p] = c * akp - s * akq
                    a[k][q] = s * akp + c * akq
                for k in range(n):
                    apk, aqk = a[p][k], a[q][k]
                    a[p][k] = c * apk - s * aqk
                    a[q][k] = s * apk + c * aqk
    return [a[i][i] for i in range(n)]


def singular_values(k: SignedMatrix, tol: float = JACOBI_TOL) -> list[float]:
    """Singular values of K in descending order (Jacobi iteration on K*K^T).

    Their product equals the matching count up to floating round-off.
    """
    eigs = _jacobi_eigenvalues([[float(v) for v in row] for row in _kk_star(k)], tol)
    return sorted((math.sqrt(max(e, 0.0)) for e in eigs), reverse=True)
