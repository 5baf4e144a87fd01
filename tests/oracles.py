"""Independent brute-force oracles used by the tests.

Everything here is deliberately naive and written directly from the
defining formulas -- no imports from the package's computational paths
beyond plain data access -- so that agreement is meaningful.
"""

import cmath
from fractions import Fraction


def genus_float(order, b, branch_orders):
    """Riemann-Hurwitz via float arithmetic, rounded."""
    rhs = order * (2 * b - 2) + sum(
        order * (1.0 - 1.0 / m) for m in branch_orders
    )
    g = rhs / 2.0 + 1.0
    assert abs(g - round(g)) < 1e-9
    return int(round(g))


def char_value_complex(exponent, multvec):
    """Sum of m_k * zeta_e^k as a complex number."""
    return sum(
        m * cmath.exp(2j * cmath.pi * k / exponent)
        for k, m in enumerate(multvec)
    )


def complex_table(table):
    """Character table as complex values per (character, class)."""
    e = table.exponent
    return [
        [char_value_complex(e, v) for v in c.values]
        for c in table.characters
    ]


def inner_complex(table, row_i, row_j):
    """<chi_i, chi_j> with complex arithmetic."""
    vals = complex_table(table)
    n = table.group.order
    acc = 0j
    for cl, a, b in zip(table.classes, vals[row_i], vals[row_j]):
        acc += len(cl.members) * a * b.conjugate()
    return acc / n


def saturate_closure(G, elements):
    """Subgroup generated by ``elements``: add every product of two
    members until nothing new appears."""
    sub = {0} | set(elements)
    changed = True
    while changed:
        changed = False
        for a in list(sub):
            for b in list(sub):
                if G.mult[a][b] not in sub:
                    sub.add(G.mult[a][b])
                    changed = True
    return frozenset(sub)


def brute_vectors(G, b, r):
    """All generating vectors over G for base genus b with r branch
    points, by plain nested loops.  Only usable for tiny G."""
    import itertools

    n = G.order

    def gen_span(elems):
        sub = {0}
        changed = True
        while changed:
            changed = False
            for a in list(sub):
                for g in list(sub) + list(elems):
                    for x in (G.mult[a][g], G.mult[g][a]):
                        if x not in sub:
                            sub.add(x)
                            changed = True
        return sub

    out = []
    for ab in itertools.product(range(n), repeat=2 * b):
        for gam in itertools.product(range(1, n), repeat=r):
            if any(G.element_order[g] < 2 for g in gam):
                continue
            prod = 0
            for j in range(b):
                a, bb = ab[j], ab[b + j]
                prod = G.mult[prod][
                    G.mult[G.mult[G.mult[a][bb]][G.inverse[a]]][G.inverse[bb]]
                ]
            for g in gam:
                prod = G.mult[prod][g]
            if prod != 0:
                continue
            if len(gen_span(set(ab) | set(gam))) != n:
                continue
            out.append((ab, gam))
    return out


def broughton_complex(G, table, cover, chi_index):
    """Isotypic dimension from the analytic fixed-point formula, done in
    complex arithmetic: chi(1)(2b-2+r) - sum_j (1/|g_j|) sum_t chi(g_j^t)."""
    v = cover.vector
    b = v.base_genus
    vals = complex_table(table)
    if chi_index == table.trivial_index:
        return 2 * b
    deg = table.characters[chi_index].degree
    acc = deg * (2 * b - 2 + len(v.gammas))
    for g in v.gammas:
        d = G.element_order[g]
        s = 0j
        x = 0
        for _ in range(d):
            s += vals[chi_index][table.class_of[x]]
            x = G.mult[x][g]
        s /= d
        assert abs(s.imag) < 1e-9
        acc -= s.real
    assert abs(acc - round(acc)) < 1e-8
    return int(round(acc))


def chi_top_euler(gC, gD, order):
    """Euler number of (C x D)/G from multiplicativity."""
    num = (2 - 2 * gC) * (2 - 2 * gD)
    f = Fraction(num, order)
    assert f.denominator == 1
    return int(f)


def cyc_complex(c):
    """A Cyc (power-basis coefficients over zeta_e) as a complex number."""
    return sum(
        float(q) * cmath.exp(2j * cmath.pi * k / c.e)
        for k, q in enumerate(c.coeffs)
    )


def restriction_complex(tableG, sub, phi_index, chi_index):
    """<phi|_H, chi>_H = (1/|H|) sum_{h in H} phi(h) conj(chi(h)), one
    element of H at a time, in complex arithmetic."""
    phi = complex_table(tableG)[phi_index]
    chi = complex_table(sub.table)[chi_index]
    acc = 0j
    for h, g in enumerate(sub.embed):
        acc += phi[tableG.class_of[g]] * chi[sub.table.class_of[h]].conjugate()
    return acc / sub.H.order


def induced_complex(tableG, sub, chi_index):
    """chi^G(g) = (1/|H|) sum_{t in G} chi°(t g t^-1) per class of G,
    with chi° zero off H, in complex arithmetic."""
    G = tableG.group
    chi = complex_table(sub.table)[chi_index]
    in_h = {g: h for h, g in enumerate(sub.embed)}
    out = []
    for cl in tableG.classes:
        acc = 0j
        for t in range(G.order):
            x = G.mult[G.mult[t][cl.representative]][G.inverse[t]]
            if x in in_h:
                acc += chi[sub.table.class_of[in_h[x]]]
        out.append(acc / sub.H.order)
    return out
