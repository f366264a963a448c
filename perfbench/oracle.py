"""Independent dense QYBE residual, used to check the kernel on broken operators.

Builds R12 = R (x) I, R23 = I (x) R and R13 = P23 R12 P23 with explicit
Kronecker products and a permutation matrix, multiplies in plain
``Fraction`` arithmetic and shares no code with ``ybops.tensorop``.  Meant for
n <= 3, where the 27 x 27 products stay cheap.
"""

from __future__ import annotations

from fractions import Fraction


def _kron(a, b):
    na, nb = len(a), len(b)
    return [[a[i // nb][j // nb] * b[i % nb][j % nb] for j in range(na * nb)]
            for i in range(na * nb)]


def _matmul(a, b):
    cols = len(b[0])
    out = []
    for row in a:
        acc = [Fraction(0)] * cols
        for k, x in enumerate(row):
            if x:
                for j, y in enumerate(b[k]):
                    if y:
                        acc[j] += x * y
        out.append(acc)
    return out


def _identity(m):
    return [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]


def _swap23(n):
    m = n ** 3
    p = [[Fraction(0)] * m for _ in range(m)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                p[(a * n + c) * n + b][(a * n + b) * n + c] = Fraction(1)
    return p


def dense_colored_residual(family, u, v, w):
    """max |R12(u,v) R13(u,w) R23(v,w) - R23(v,w) R13(u,w) R12(u,v)|."""
    r_uv, r_uw, r_vw = (family.op(*a).mat for a in ((u, v), (u, w), (v, w)))
    n = round(len(r_uv) ** 0.5)
    eye = _identity(n)
    swap = _swap23(n)
    r12 = _kron(r_uv, eye)
    r13 = _matmul(_matmul(swap, _kron(r_uw, eye)), swap)
    r23 = _kron(eye, r_vw)
    lhs = _matmul(_matmul(r12, r13), r23)
    rhs = _matmul(_matmul(r23, r13), r12)
    return max(abs(x - y) for lr, rr in zip(lhs, rhs) for x, y in zip(lr, rr))
