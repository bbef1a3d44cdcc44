"""Reference matrix-polynomial arithmetic, one Fraction entry at a time.

These are the operations MatPoly and DiffOp ran entry by entry on Fraction
coefficients before they moved to integer numerators over one denominator;
the property tests hold the integer layer to them.  A polynomial is a tuple
of coefficient matrices (tuples of row tuples) by ascending power, trailing
zero matrices trimmed; an operator is a list of polynomials by ascending
derivative order.
"""

import math
from fractions import Fraction


def trim(cs) -> tuple:
    cs = [tuple(tuple(Fraction(x) for x in row) for row in c) for c in cs]
    while cs and all(x == 0 for row in cs[-1] for x in row):
        cs.pop()
    return tuple(cs)


def add(p, q) -> tuple:
    out = []
    for m in range(max(len(p), len(q))):
        if m >= len(p):
            out.append(q[m])
        elif m >= len(q):
            out.append(p[m])
        else:
            out.append(tuple(tuple(x + y for x, y in zip(rp, rq)) for rp, rq in zip(p[m], q[m])))
    return trim(out)


def scale(p, s) -> tuple:
    return trim([tuple(tuple(s * x for x in row) for row in c) for c in p])


def neg(p) -> tuple:
    return scale(p, -1)


def sub(p, q) -> tuple:
    return add(p, neg(q))


def derivative(p) -> tuple:
    return trim([tuple(tuple(m * x for x in row) for row in c) for m, c in enumerate(p) if m >= 1])


def transpose(p) -> tuple:
    return tuple(tuple(zip(*c)) for c in p)


def mul(p, q) -> tuple:
    if not p or not q:
        return ()
    rows, inner, cols = len(p[0]), len(q[0]), len(q[0][0])
    out = [[[Fraction(0)] * cols for _ in range(rows)] for _ in range(len(p) + len(q) - 1)]
    for a, pa in enumerate(p):
        for b, qb in enumerate(q):
            for i in range(rows):
                for j in range(cols):
                    for t in range(inner):
                        out[a + b][i][j] += pa[i][t] * qb[t][j]
    return trim(out)


def mul_scalar_poly(p, s) -> tuple:
    """p times the scalar polynomial with ascending coefficients s."""
    if not p:
        return ()
    zero = tuple(tuple(Fraction(0) for _ in row) for row in p[0])
    out = ()
    for k, c in enumerate(s):
        out = add(out, scale((zero,) * k + tuple(p), c))
    return out


def apply(op, f) -> tuple:
    """sum_j A_j f^(j)."""
    out, g = (), f
    for a in op:
        out = add(out, mul(a, g))
        g = derivative(g)
    return out


def compose(op1, op2) -> list:
    """The Leibniz expansion: C(i, m) A_i B_j^(m) at order i + j - m."""
    acc = [()] * (len(op1) + len(op2) - 1)
    for i, a in enumerate(op1):
        for j, b in enumerate(op2):
            for m in range(i + 1):
                acc[i + j - m] = add(acc[i + j - m], scale(mul(a, b), math.comb(i, m)))
                b = derivative(b)
    return acc
