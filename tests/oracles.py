"""Independent brute-force oracles used by the tests.

Everything here is deliberately naive and written directly from the
defining formulas -- no imports from the package's computational paths
beyond plain data access -- so that agreement is meaningful.
"""

import cmath
from fractions import Fraction
from functools import cache
from math import gcd, prod

from isoprod.errors import GenusError
from isoprod.groups import _memo


def genus_float(order, b, branch_orders):
    """Riemann-Hurwitz via float arithmetic, rounded."""
    rhs = order * (2 * b - 2) + sum(
        order * (1.0 - 1.0 / m) for m in branch_orders
    )
    g = rhs / 2.0 + 1.0
    assert abs(g - round(g)) < 1e-9
    return int(round(g))


def hurwitz_genus(order: int, b: int, branch_orders) -> int:
    """g from 2g-2 = |G|(2b-2 + sum(1 - 1/m_i)) in exact fractions, from
    the branch orders alone; raises GenusError if g is not an integer
    >= 0.  The oracle of the package's integer rule (``covers._genus``)."""
    num, den = order * (2 * b - 2), 1
    for m in branch_orders:
        num, den = num * m + den * order * (m - 1), den * m
    if num % den:
        d = gcd(num, den)
        raise GenusError(
            f"Riemann-Hurwitz value {num // d}/{den // d} is not an integer"
        )
    rhs = num // den
    if rhs % 2 != 0:
        raise GenusError(f"2g-2 = {rhs} is odd")
    g = (rhs + 2) // 2
    if g < 0:
        raise GenusError(f"negative genus g = {g}")
    return g


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


def conjugate_index(table):
    """Per character i, the index j with chi_j = conj(chi_i), matched by
    complex values, or None when no character of the table matches."""
    vals = complex_table(table)

    def close(row, other):
        return all(abs(x - y) < 1e-9 for x, y in zip(row, other))

    out = []
    for row in vals:
        bar = [y.conjugate() for y in row]
        match = (j for j, other in enumerate(vals) if close(other, bar))
        out.append(next(match, None))
    return out


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


def closure(G, elements):
    """Subgroup generated by ``elements``, by a word tree: in a finite
    group the products of generators already form a subgroup, so a
    breadth-first search over right products by the generators from
    the identity is the whole closure.  The oracle of the registry's
    coset closure (``groups._coset_closure``)."""
    gens = sorted(set(elements))
    reached = {0}
    frontier = [0]
    for x in frontier:
        for g in gens:
            y = G.mult[x][g]
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    return frozenset(reached)


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

    spans = {}  # element set -> order of the subgroup it generates
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
            elems = frozenset(ab) | frozenset(gam)
            if elems not in spans:
                spans[elems] = len(gen_span(elems))
            if spans[elems] != n:
                continue
            out.append((ab, gam))
    return out


def broughton_complex(G, table, cover, chi_index):
    """Multiplicity of chi in H^1(C, C) from the analytic fixed-point
    formula, done in complex arithmetic:
    chi(1)(2b-2+r) - sum_j (1/|g_j|) sum_t chi(g_j^t)."""
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


def aut0_complex(S):
    """Aut_0(S) by the paper's definition, in complex arithmetic: the
    central sigma with chi(sigma) = chi(1) for every irreducible chi
    such that H^1(C)^chi and H^1(D)^conj(chi) are both nonzero."""
    from isoprod.characters import character_table

    G = S.group
    table = character_table(G)
    vals = complex_table(table)
    nchars = len(vals)
    multC = [broughton_complex(G, table, S.cover_C, i) for i in range(nchars)]
    multD = [broughton_complex(G, table, S.cover_D, i) for i in range(nchars)]
    conj = conjugate_index(table)
    relevant = [
        row for i, row in enumerate(vals) if multC[i] and multD[conj[i]]
    ]
    out = set()
    for sigma in range(G.order):
        if any(G.mult[sigma][g] != G.mult[g][sigma] for g in range(G.order)):
            continue
        k = table.class_of[sigma]
        if all(abs(row[k] - row[0]) < 1e-9 for row in relevant):
            out.add(sigma)
    return frozenset(out)


def lefschetz_numbers(G, M, genus):
    """Per element h of G, the Lefschetz number of h on a curve C of
    genus ``genus`` with a G-cover C -> C/G branched over the classes of
    the multiset M (indices into ``conjugacy_classes(G)``): 2 - 2 genus at
    the identity and, for h != 1, the number of points h fixes,
    sum_i |C_G(h)| #{0 < k < m_i : gamma_i^k ~ h} / m_i over the branch
    points, m_i the order of gamma_i (A. M. Macbeath, 1973).  Conjugacy
    and centralizers come from the table alone; no character is used."""
    from isoprod.groups import conjugacy_classes

    n, mult, inv = G.order, G.mult, G.inverse
    conjugates = {}  # element -> the set of its conjugates
    for x in range(n):
        if x not in conjugates:
            cl = frozenset(mult[mult[t][x]][inv[t]] for t in range(n))
            for y in cl:
                conjugates[y] = cl
    L = [0] * n
    for c in M:
        gamma = conjugacy_classes(G)[c].representative
        powers, x = [], gamma  # gamma^1, ..., gamma^(m-1)
        while x:
            powers.append(x)
            x = mult[x][gamma]
        m = len(powers) + 1
        for h in range(1, n):
            fixed = n // len(conjugates[h]) * sum(y in conjugates[h] for y in powers)
            assert fixed % m == 0, (G.spec, M, h)
            L[h] += fixed // m
    L[0] = 2 - 2 * genus
    return tuple(L)


def aut0_lefschetz(G, LC, LD):
    """Aut_0 of S = (C x D)/G by Lefschetz numbers, from the per-element
    Lefschetz numbers LC and LD of the two curves (``lefschetz_numbers``):
    a central sigma acts on S as (sigma, 1), with Lefschetz number
    (1/|G|) sum_g LC(sigma g) LD(g).  It acts trivially on H^1 and H^3,
    so it lies in Aut_0 iff that number is the Euler number e(S), its
    value at sigma = 1."""
    n, mult = G.order, G.mult
    euler = sum(LC[g] * LD[g] for g in range(n))
    return frozenset(
        s
        for s in range(n)
        if all(mult[s][g] == mult[g][s] for g in range(n))
        and sum(LC[mult[s][g]] * LD[g] for g in range(n)) == euler
    )


def acts_trivially(S, sigma):
    """Whether the central element sigma acts trivially on H^*(S, QQ),
    by the package's kernel criterion (``classify.compute_aut0``);
    DomainError when sigma is not central."""
    from isoprod.classify import compute_aut0
    from isoprod.errors import DomainError
    from isoprod.groups import center

    if sigma not in center(S.group):
        raise DomainError(f"element {sigma} is not central")
    return sigma in compute_aut0(S)


def cover_of_row(G, b, row):
    """The BranchedCover of one (ab, gammas, genus) row of an
    ``enumerate_vectors`` listing over G at base genus b, made by
    ``validate_vector``, the one maker of a cover; the row's genus must
    be the validated one."""
    from isoprod.covers import GeneratingVector, validate_vector

    ab, gammas, genus = row
    cover = validate_vector(GeneratingVector(G, b, ab[:b], ab[b:], gammas))
    assert cover.genus == genus, (row, cover.genus)
    return cover


def branch_orders(vector):
    """The element orders of a generating vector's gammas."""
    return tuple(vector.group.element_order[g] for g in vector.gammas)


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


def decompose(tableG, values):
    """Multiplicities <f, chi> = (1/|G|) sum_g f(g) conj(chi(g)) of the
    class function f given by per-class Cyc ``values``, summed per class
    in complex arithmetic; ValueError unless the values lie in
    Q(zeta_e) and every <f, chi> is a non-negative integer, that is,
    unless f is a character."""
    e = tableG.exponent
    if any(v.e != e for v in values):
        raise ValueError(f"class function values must lie in Q(zeta_{e})")
    f = [cyc_complex(v) for v in values]
    mults = []
    for i, chi in enumerate(complex_table(tableG)):
        z = sum(
            len(cl.members) * fv * x.conjugate()
            for cl, fv, x in zip(tableG.classes, f, chi)
        ) / tableG.group.order
        m = round(z.real)
        if abs(z - m) > 1e-9 or m < 0:
            raise ValueError(f"class function is not a character: <f, chi_{i}> = {z}")
        mults.append(m)
    return tuple(mults)


def trivial_multiplicity(table, i, sigma):
    """l_sigma(chi_i), the multiplicity of the trivial character in the
    restriction of chi_i to <sigma>: (1/|sigma|) sum_k chi_i(sigma^k),
    in complex arithmetic."""
    G = table.group
    chi = complex_table(table)[i]
    acc, x = 0j, 0
    for _ in range(G.element_order[sigma]):
        acc += chi[table.class_of[x]]
        x = G.mult[x][sigma]
    m = acc / G.element_order[sigma]
    assert abs(m - round(m.real)) < 1e-9
    return round(m.real)


def kernel_by_values(table, i):
    """{g : chi_i(g) = chi_i(1)}, read afresh from the multiplicity
    vectors: all of the degree sits on the exponent-0 entry."""
    chi = table.characters[i]
    return frozenset(
        g
        for g in range(table.group.order)
        if chi.values[table.class_of[g]][0] == chi.degree
    )


def first_constituent_by_scan(tableG, sub, chi_index, avoid, extra=None):
    """The first phi of tableG, in table order, with <phi|_H, chi> != 0,
    Ker(phi) disjoint from ``avoid`` and ``extra`` outside Ker(phi); None
    when there is none.  Every call restricts each phi and recomputes
    each kernel, keeping nothing between calls.  The multiplicities come
    from the package's ``restriction_multiplicity``, which the complex
    oracles above check on their own."""
    from isoprod.characters import restriction_multiplicity

    for i, phi in enumerate(tableG.characters):
        if restriction_multiplicity(tableG, sub, i, chi_index) == 0:
            continue
        ker = kernel_by_values(tableG, i)
        if set(avoid) & ker or (extra is not None and extra in ker):
            continue
        return phi
    return None


def listed_buckets(G, table, b, max_r, genus_cap, branch_order_cap):
    """The classification sweep's buckets by listing: every vector of
    ``brute_vectors`` with r <= max_r and no branch order over
    branch_order_cap, keyed one vector at a time by (r, genus,
    stabilizer-union mask, u), u the gamma when every gamma equals one
    central element, else -1.  Each sorted branch-class multiset must
    get one key, so that the key is a function of the multiset.  The
    H^1 positivity mask over the irreducibles is computed too: the same
    mask at the conjugate characters must equal it, and at b >= 1 it
    must be one per key, so that adding it to the key would split no
    bucket (at b = 0 one key may hold several masks).

    Returns (counts, first, truncated): the number of vectors per key,
    the first vector listed per key as (ab, gammas), and the number of
    vectors whose genus is over genus_cap.  Vectors of genus < 2 are
    dropped.
    """
    n = G.order
    vals = complex_table(table)
    nchars = len(vals)
    conj = conjugate_index(table)
    trivial = next(
        i for i in range(nchars) if all(abs(x - 1) < 1e-9 for x in vals[i])
    )
    fixed = {}  # element -> per character, (1/|g|) sum_t chi(g^t)
    stab = {}  # element -> mask of the union of the conjugates of <g>

    def element_data(g):
        if g not in fixed:
            powers, x = [], 0
            while True:
                powers.append(x)
                x = G.mult[x][g]
                if x == 0:
                    break
            sums = []
            for i in range(nchars):
                s = sum(vals[i][table.class_of[p]] for p in powers)
                s /= len(powers)
                assert abs(s - round(s.real)) < 1e-9
                sums.append(int(round(s.real)))
            fixed[g] = sums
            mask = 0
            for t in range(n):
                y = G.mult[G.mult[t][g]][G.inverse[t]]
                z = 0
                while True:
                    mask |= 1 << z
                    z = G.mult[z][y]
                    if z == 0:
                        break
            stab[g] = mask
        return fixed[g], stab[g]

    central = {
        g for g in range(n) if all(G.mult[g][t] == G.mult[t][g] for t in range(n))
    }
    counts, first, truncated = {}, {}, 0
    maskpos_of = {}  # key -> the H^1 positivity mask of its vectors
    key_of = {}  # sorted branch-class multiset -> the key of its vectors
    for r in range(max_r + 1):
        for ab, gam in brute_vectors(G, b, r):
            orders = [G.element_order[g] for g in gam]
            if branch_order_cap is not None and any(
                m > branch_order_cap for m in orders
            ):
                continue
            genus = genus_float(n, b, orders)
            if genus > genus_cap:
                truncated += 1
                continue
            if genus < 2:
                continue
            dims = []
            sig = 1
            for i in range(nchars):
                dims.append(round(vals[i][0].real) * (2 * b - 2 + r))
            for g in gam:
                sums, mask = element_data(g)
                sig |= mask
                for i in range(nchars):
                    dims[i] -= sums[i]
            dims[trivial] = 2 * b
            maskpos = sum(1 << i for i in range(nchars) if dims[i] > 0)
            maskconj = sum(1 << i for i in range(nchars) if dims[conj[i]] > 0)
            assert maskconj == maskpos, (G.spec, b, gam)
            uniform = gam and all(g == gam[0] for g in gam)
            u = gam[0] if uniform and gam[0] in central else -1
            key = (r, genus, sig, u)
            M = tuple(sorted(table.class_of[g] for g in gam))
            assert key_of.setdefault(M, key) == key, (G.spec, b, gam)
            if b >= 1:
                assert maskpos_of.setdefault(key, maskpos) == maskpos, (G.spec, gam)
            counts[key] = counts.get(key, 0) + 1
            first.setdefault(key, (tuple(ab), tuple(gam)))
    return counts, first, truncated


def tuples_by_product(G, b, r, allowed_gamma):
    """Every generating vector over G at base genus b with r gammas from
    ``allowed_gamma``, as (alphas+betas, gammas), in the order of
    ``covers._raw_tuples``: itertools.product over the free entries (the
    2b alphas and betas over G, then the first r - 1 gammas), the last
    gamma forced by the long relation (with r = 0, the relation must
    hold), and the entries tested to generate G by ``saturate_closure``,
    once per set of entries."""
    import itertools

    mult, inv = G.mult, G.inverse
    allowed = set(allowed_gamma)
    generates = {}  # set of entries -> whether it generates G
    free = [range(G.order)] * (2 * b) + [allowed_gamma] * max(r - 1, 0)
    for entries in itertools.product(*free):
        ab, head = entries[: 2 * b], entries[2 * b :]
        p = 0
        for a, c in zip(ab[:b], ab[b:]):  # p *= [a, c] = a c a^-1 c^-1
            p = mult[p][mult[mult[mult[a][c]][inv[a]]][inv[c]]]
        for g in head:
            p = mult[p][g]
        if r:
            if inv[p] not in allowed:
                continue
            gam = head + (inv[p],)
        elif p:
            continue
        else:
            gam = ()
        key = frozenset(ab + gam)
        if key not in generates:
            generates[key] = len(saturate_closure(G, key)) == G.order
        if generates[key]:
            yield ab, gam


def dedup_by_marking(G, b, max_r, genus_cap, min_genus=2, exact=None):
    """Orbit dedup by listing: walk every tuple of ``tuples_by_product``
    (every non-identity gamma allowed, or only the orders in ``exact``)
    and keep a vector unless an earlier kept vector of the same r marked
    it, marking all its images under ``automorphisms``.  The
    genus is Riemann-Hurwitz in integers; branch orders other than the
    sorted ``exact``, an odd 2g - 2 or a negative genus are skipped, a
    genus over genus_cap counts as truncated and one below min_genus is
    skipped.

    Returns (kept, truncated): the kept vectors as (ab, gammas, genus)
    in listing order, and the number of vectors over genus_cap.
    """
    n = G.order
    auts = automorphisms(G)
    orders = G.element_order
    allowed = [g for g in range(1, n) if exact is None or orders[g] in exact]
    genus_of = {}  # gammas -> genus, or None to skip

    def genus(branch):
        if exact is not None and branch != sorted(exact):
            return None
        # 2g - 2 = |G|(2b - 2) + sum (|G| - |G|/m); m divides |G|
        twice = n * (2 * b - 2) + sum(n - n // m for m in branch)
        if twice % 2 or twice < -2:
            return None
        return twice // 2 + 1

    kept, truncated = [], 0
    for r in range(max_r + 1):
        if exact is not None and r != len(exact):
            continue
        marked = set()
        for ab, gam in tuples_by_product(G, b, r, allowed):
            if gam not in genus_of:
                genus_of[gam] = genus(sorted(orders[x] for x in gam))
            g = genus_of[gam]
            if g is None:
                continue
            if g > genus_cap:
                truncated += 1
            elif g >= min_genus and (ab, gam) not in marked:
                kept.append((ab, gam, g))
                for phi in auts:
                    image = phi.__getitem__
                    marked.add((tuple(map(image, ab)), tuple(map(image, gam))))
    return kept, truncated


def listing_kept_by_multiset(G, b, max_r, genus_cap, *, dedup, exact=None):
    """The listing filtered by the multiset keep rule: every tuple of
    ``covers._raw_tuples`` at r <= max_r (r = len(exact) with ``exact``)
    over the gammas ``covers._branch_plan`` allows, kept iff its sorted
    branch-class multiset is a key of the kept dict of
    ``covers._counted_multisets``, with the genus stored there.  Returns
    (ab, gammas, genus) in listing order."""
    from isoprod.covers import _branch_plan, _counted_multisets, _raw_tuples
    from isoprod.groups import class_index

    exact = tuple(sorted(exact)) if exact else None
    allowed = _branch_plan(G, None, exact)
    kept = _counted_multisets(G, b, max_r, genus_cap, allowed, exact)[0]
    cls_of = class_index(G)
    out = []
    for r in [len(exact)] if exact else range(max_r + 1):
        for ab, gam in _raw_tuples(G, b, r, allowed, dedup=dedup):
            M = tuple(sorted(cls_of[g] for g in gam))
            if M in kept:
                out.append((ab, gam, kept[M][0]))
    return out


def gamma_tails_brute(G, r, allowed, prefix, first=None):
    """Every tail of gammas completing the gamma prefix ``prefix`` to a
    generating vector at b = 0, by itertools.product over all r -
    len(prefix) entries in lexicographic order: each entry in
    ``allowed`` (the first in ``first`` when given, if it is a free
    entry), prefix times tail multiplying to the identity and their
    entries generating G."""
    import itertools

    k = len(prefix)
    factors = [allowed] * (r - k)
    if first is not None and r - k > 1:
        factors[0] = first
    out = []
    for tail in itertools.product(*factors):
        p = 0
        for g in prefix + tail:
            p = G.mult[p][g]
        if p == 0 and len(saturate_closure(G, prefix + tail)) == G.order:
            out.append(tail)
    return out


def _automorphism_from_images(G, tree, images):
    """The map sending the i-th generator to images[i], extended along
    the word tree (parent, bfs_order) of the generators by
    phi(x g) = phi(x) phi(g), as a tuple; None unless it is a bijection
    with phi(xy) = phi(x) phi(y) for every x and y."""
    parent, bfs_order = tree
    mult = G.mult
    phi = [0] * G.order
    for x in bfs_order[1:]:
        px, gi = parent[x]
        phi[x] = mult[phi[px]][images[gi]]
    if len(set(phi)) != G.order:
        return None
    for x, row in enumerate(mult):
        image_row = mult[phi[x]]
        if [phi[xy] for xy in row] != [image_row[py] for py in phi]:
            return None
    return tuple(phi)


def automorphisms(G):
    """All automorphisms of G as element-permutation tuples, the
    identity first, as products of Sims's transversals.

    The chain Aut(G) = S_0 > S_1 > ... > S_k = 1, S_i the automorphisms
    fixing the first i greedy generators (C. C. Sims, 1970).  From
    i = k - 1 down to 0, each image c of gens[i] not yet in its orbit
    under the automorphisms found so far is searched exhaustively for
    one map of S_i that sends gens[i] to c, and the orbit is kept with
    one map per point (the transversal).  Aut(G) is listed as the
    products u_0 u_1 ... u_(k-1), each once.
    """
    from isoprod.groups import _greedy_generators, _word_tree, subgroup_registry

    n = G.order
    gens = _greedy_generators(G.mult)
    reg = subgroup_registry(G)
    tree = _word_tree(G.mult, gens)
    gen_sids = [0]
    for g in gens:
        gen_sids.append(reg.extend(gen_sids[-1], g))
    order = G.element_order

    def candidates(k, sid):
        size = len(reg.sets[gen_sids[k + 1]])
        for c in range(n):
            if order[c] == order[gens[k]]:
                nsid = reg.extend(sid, c)
                if len(reg.sets[nsid]) == size:
                    yield c, nsid

    def search(images, sid):
        if len(images) == len(gens):
            return _automorphism_from_images(G, tree, images)
        for c, nsid in candidates(len(images), sid):
            phi = search(images + [c], nsid)
            if phi is not None:
                return phi
        return None

    identity = tuple(range(n))
    found = []
    auts = [identity]
    for i in reversed(range(len(gens))):
        orbit = {gens[i]: identity}  # x -> a map of S_i sending gens[i] to x
        for c, sid in candidates(i, gen_sids[i]):
            if c in orbit:
                continue
            phi = search(gens[:i] + [c], sid)
            if phi is None:
                continue
            found.append(phi)
            points = list(orbit)
            for x in points:
                for s in found:
                    if s[x] not in orbit:
                        orbit[s[x]] = tuple(map(s.__getitem__, orbit[x]))
                        points.append(s[x])
        auts = [tuple(map(u.__getitem__, p)) for u in orbit.values() for p in auts]
    return tuple(auts)


def canonical_tuples_by_filtering(G, b, r, allowed_gamma, auts):
    """The tuples of ``tuples_by_product`` that are lex-least in their
    orbit under the automorphisms ``auts``, by filtering the list: fix
    the free entries one at a time, skip a candidate x that some phi in
    the current stabilizer sends below x, and narrow the stabilizer to
    the phi fixing x; once it is trivial, or no free entry is left, the
    completions of the prefix are the tuples of the full listing that
    start with it (the listing is grouped by prefix once per prefix
    length)."""
    free = 2 * b + max(r - 1, 0)
    listing = list(tuples_by_product(G, b, r, allowed_gamma))
    by_prefix = {}  # prefix length -> {prefix: its tuples in listing order}

    def completions(prefix):
        k = len(prefix)
        if k not in by_prefix:
            by_prefix[k] = {}
            for ab, gam in listing:
                by_prefix[k].setdefault((ab + gam)[:k], []).append((ab, gam))
        return by_prefix[k].get(prefix, [])

    def walk(prefix, stab):
        if len(stab) == 1 or len(prefix) == free:
            yield from completions(prefix)
            return
        for x in range(G.order) if len(prefix) < 2 * b else allowed_gamma:
            if all(phi[x] >= x for phi in stab):
                yield from walk(prefix + (x,), [phi for phi in stab if phi[x] == x])

    return walk((), auts)


def registry_by_saturation(G):
    """The subgroups of G in the order ``all_subgroups`` interns them:
    from the trivial one, every interned subgroup s in turn is extended
    by every element g = 1, ..., |G| - 1 in index order, and
    ``saturate_closure`` of s and g is interned when it is new."""
    sets = [frozenset([0])]
    seen = set(sets)
    for s in sets:
        for g in range(1, G.order):
            if g not in s:
                K = saturate_closure(G, s | {g})
                if K not in seen:
                    seen.add(K)
                    sets.append(K)
    return sets


def lattice_by_every_element(G):
    """The subgroups of G, smallest first, as a fresh registry finds them
    when every interned subgroup is extended by every element, not only
    by the least generator of each cyclic subgroup."""
    from isoprod.groups import SubgroupRegistry

    reg = SubgroupRegistry(G)
    sid = 0
    while sid < len(reg.sets):
        for g in range(1, G.order):
            reg.extend(sid, g)
        sid += 1
    return sorted(reg.sets, key=lambda s: (len(s), sorted(s)))


def mobius_by_definition(G, subgroups):
    """mu(H, G) for every H of ``subgroups`` (all subgroups of G), from
    the defining recursion summed over every K > H."""
    mu = {}
    for H in sorted(subgroups, key=len, reverse=True):
        mu[H] = 1 if len(H) == G.order else -sum(
            mu[K] for K in mu if H < K
        )
    return mu


def automorphisms_by_leaves(G):
    """Every automorphism of G by checking every leaf: each tuple of
    generator images that passes the element-order and generated-subgroup
    size pruning goes through ``_automorphism_from_images``, with no orbit
    or transversal; tuples in leaf order."""
    from isoprod.groups import _greedy_generators, _word_tree, subgroup_registry

    n = G.order
    gens = _greedy_generators(G.mult)
    reg = subgroup_registry(G)
    tree = _word_tree(G.mult, gens)
    gen_sids = []
    sid = 0
    for g in gens:
        sid = reg.extend(sid, g)
        gen_sids.append(sid)
    order = G.element_order
    auts = []

    def assign(k, images, sid):
        if k == len(gens):
            phi = _automorphism_from_images(G, tree, images)
            if phi is not None:
                auts.append(phi)
            return
        target_size = len(reg.sets[gen_sids[k]])
        for c in range(n):
            if order[c] == order[gens[k]]:
                nsid = reg.extend(sid, c)
                if len(reg.sets[nsid]) == target_size:
                    assign(k + 1, images + [c], nsid)

    assign(0, [], 0)
    return tuple(auts)


def automorphisms_brute(G):
    """Every automorphism of G as a bijection fixing the identity with
    phi(xy) = phi(x)phi(y) for every x, y; (n - 1)! candidates, so only
    for tiny G."""
    import itertools

    n = G.order
    mult = G.mult
    auts = []
    for rest in itertools.permutations(range(1, n)):
        phi = (0,) + rest
        if all(
            phi[mult[x][y]] == mult[phi[x]][phi[y]]
            for x in range(n)
            for y in range(n)
        ):
            auts.append(phi)
    return auts


def det_mod(M, p):
    """det(M) over F_p by Gaussian elimination to upper-triangular
    form: each row swap flips the sign, and the determinant is the
    product of the pivots."""
    rows = [[x % p for x in row] for row in M]
    n = len(rows)
    det = 1
    for c in range(n):
        r = next((i for i in range(c, n) if rows[i][c]), None)
        if r is None:
            return 0
        if r != c:
            rows[c], rows[r] = rows[r], rows[c]
            det = -det
        det = det * rows[c][c] % p
        inv = pow(rows[c][c], p - 2, p)
        for i in range(c + 1, n):
            f = rows[i][c] * inv % p
            rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[c])]
    return det % p


@cache
def _cyclotomic(e):
    """Coefficients of the e-th cyclotomic polynomial, constant term
    first: x^e - 1 divided by Phi_d for every proper divisor d of e."""
    poly = [-1] + [0] * (e - 1) + [1]
    for d in range(1, e):
        if e % d == 0:
            poly = _poly_divmod(poly, _cyclotomic(d))[0]
    return tuple(poly)


def reduce_dense(folded, e):
    """The phi(e) power-basis coefficients of Sum_k folded[k] zeta_e^k,
    by long division by every coefficient of Phi_e, zero or not."""
    return _poly_divmod(folded, _cyclotomic(e))[1]


def _poly_divmod(num, monic):
    """(quotient, remainder) of integer polynomials, constant term first,
    by a monic divisor."""
    rem = list(num)
    deg = len(monic) - 1
    quot = [0] * max(len(rem) - deg, 1)
    for t in range(len(rem) - 1, deg - 1, -1):
        q = rem[t]
        if q:
            quot[t - deg] = q
            for s, c in enumerate(monic):
                rem[t - deg + s] -= q * c
    return quot, rem[:deg]


def fold_orthogonality_failures(G, characters):
    """The pairs (i, j), i <= j, of ``characters`` whose inner product is
    not |G| [i = j], by the full row fold: sum over the classes of
    |class| chi_i conj(chi_j), summed as integers on the exponents mod e
    (e the exponent of G) and reduced modulo Phi_e by long division.
    Every pair is folded, linear or not."""
    from isoprod.groups import conjugacy_classes

    e, n = G.exponent, G.order
    sizes = [len(c.members) for c in conjugacy_classes(G)]
    phi = _cyclotomic(e)
    bad = []
    for i, chi in enumerate(characters):
        for j in range(i, len(characters)):
            folded = [0] * e
            for w, x, y in zip(sizes, chi.values, characters[j].values):
                for k, a in enumerate(x):
                    if a:
                        for l, c in enumerate(y):
                            if c:
                                folded[(k - l) % e] += w * a * c
            if i == j:
                folded[0] -= n
            if any(_poly_divmod(folded, phi)[1]):
                bad.append((i, j))
    return bad


# -- group invariants that only the tests compare ----------------------


def invariant_signature(G):
    """(order, class sizes, element-order census) -- the comparison
    key used instead of isomorphism testing."""
    from isoprod.groups import conjugacy_classes

    census = tuple(sorted(G.element_order))
    sizes = tuple(sorted(len(c.members) for c in conjugacy_classes(G)))
    return (G.order, sizes, census)


@_memo
def commutator_subgroup(G):
    comms = {G.commutator(g, h) for g in range(G.order) for h in range(G.order)}
    return closure(G, comms)


@_memo
def abelian_invariants(G):
    """Invariant factors d_1 | d_2 | ... | d_t of an abelian group.

    Iterated maximal-order extraction: the order of a maximal element of
    G/H is the next factor, H grows by that element.
    """
    from isoprod.errors import DomainError
    from isoprod.groups import cyclic_subgroup

    if not G.is_abelian():
        raise DomainError("abelian_invariants requires an abelian group")
    factors = []
    H = frozenset([0])

    def order_mod_H(g):
        # the order of gH in G/H is |<g>| / |<g> & H|
        pw = cyclic_subgroup(G, g)
        return len(pw) // len(H.intersection(pw))

    while len(H) < G.order:
        g = max(range(G.order), key=order_mod_H)
        factors.append(order_mod_H(g))
        H = closure(G, H | {g})
    factors.reverse()
    assert all(factors[i + 1] % factors[i] == 0 for i in range(len(factors) - 1))
    assert prod(factors) == G.order
    return tuple(factors)


# -- Cayley tables one entry at a time ---------------------------------


def table_by_entries(spec):
    """(mult, labels) of a built-in spec, every product computed on its
    own from the family's defining rule: coordinate sums mod the factors
    for ``ab:``, a^i b^j with b a b^-1 = a^-1 and b^2 = a^t for ``dih:``
    and ``quat:``, and composition of permutation tuples (sorted, the
    identity first) for ``sym:``, ``alt:`` and ``perm:``."""
    import itertools

    from isoprod.groups import _cycle_label, _parse_perm_gens

    kind, _, body = spec.partition(":")
    if kind == "ab":
        factors = [d for d in map(int, body.split(",")) if d > 1]
        if not factors:
            return [[0]], ("1",)
        coords = list(itertools.product(*[range(d) for d in factors]))
        pos = {c: i for i, c in enumerate(coords)}
        mult = [
            [
                pos[tuple((a + b) % d for a, b, d in zip(x, y, factors))]
                for y in coords
            ]
            for x in coords
        ]
        return mult, tuple(str(c) for c in coords)
    if kind in ("dih", "quat"):
        m = int(body)
        if kind == "dih":
            k, t, a, b = m, 0, "r", "s"
        else:
            k, t, a, b = m // 2, m // 4, "i", "j"
        elems = [(i, j) for j in range(2) for i in range(k)]
        mult = [
            [
                (i1 + (-i2 if j1 else i2) + t * j1 * j2) % k + k * ((j1 + j2) % 2)
                for i2, j2 in elems
            ]
            for i1, j1 in elems
        ]
        return mult, tuple(f"{a}^{i}{b}" if j else f"{a}^{i}" for i, j in elems)
    if kind == "perm":
        gens, points = _parse_perm_gens(body)
        npoints = len(points)
    else:
        # sym:n from the transpositions (1 k), alt:n from the 3-cycles (1 2 k)
        npoints = int(body)
        points = range(1, npoints + 1)
        moved = (0,) if kind == "sym" else (0, 1)
        gens = []
        for k in range(len(moved), npoints):
            cycle = moved + (k,)
            p = list(range(npoints))
            for x, y in zip(cycle, cycle[1:] + cycle[:1]):
                p[x] = y
            gens.append(tuple(p))

    def compose(x, y):  # (x*y)[i] = x[y[i]]
        return tuple(x[y[i]] for i in range(npoints))

    elems = {tuple(range(npoints))}
    grown = True
    while grown:
        new = {compose(x, g) for x in elems for g in gens} - elems
        elems |= new
        grown = bool(new)
    ordered = sorted(elems)
    pos = {p: i for i, p in enumerate(ordered)}
    mult = [[pos[compose(x, y)] for y in ordered] for x in ordered]
    return mult, tuple(_cycle_label(p, points) for p in ordered)
