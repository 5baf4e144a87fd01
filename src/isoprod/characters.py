"""Exact irreducible character tables.

Characters are stored per conjugacy class as eigenvalue-multiplicity
vectors over e-th roots of unity (e = group exponent): the value at g is
Sum_k m_k zeta_e^k with non-negative integer m_k summing to the degree.
This makes the two predicates the classification needs -- chi(g) = chi(1)
and the trivial multiplicity l_sigma(chi) -- plain integer tests.  Each
table also builds, once, every vector's sparse (exponent, multiplicity)
row; the orthogonality check, restriction and induction all sum over
those rows.  The check folds no pair of two rows it has certified as
linear characters (homomorphisms G -> Z_e).

Abelian groups get a direct fast path; everything else goes through
Dixon's method: simultaneous diagonalization of the class-sum matrices
over a prime field F_p with p = 1 (mod e), followed by discrete Fourier
sums that recover the multiplicity vectors exactly; the Fourier matrix
over F_p is built once per element order, so each multiplicity is one
dot product with one of its rows.  On each common
eigenspace not yet split, the eigenvalues of a class sum are the roots
of its characteristic polynomial (Hessenberg reduction, O(d^3) on a
d-dimensional space); a nullspace is solved for only at those roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import isqrt
from operator import mul

from .cyclotomic import Cyc, reduce_folded
from .errors import ConsistencyError, DomainError
from .groups import (
    GroupTable,
    _column_getters,
    _extend_map,
    _greedy_generators,
    _is_multiplicative,
    _is_prime,
    _memo,
    _powers,
    _word_tree,
    class_index,
    conjugacy_classes,
    subgroup_table,
)

_DIXON_PRIME_BOUND = 1 << 20


@dataclass(frozen=True)
class Character:
    """One irreducible character: degree and per-class multiplicity
    vectors (length e each)."""

    degree: int
    values: tuple  # tuple of tuples of ints


class CharacterTable:
    def __init__(self, group: GroupTable, characters):
        self.group = group
        self.classes = conjugacy_classes(group)
        self.class_of = class_index(group)
        self.exponent = group.exponent
        self.characters = tuple(
            sorted(characters, key=lambda c: (c.degree, c.values))
        )
        self._index = {c.values: i for i, c in enumerate(self.characters)}
        self._kernels = {}  # index -> kernel, filled by ``kernel``
        # sparse[i][r]: the nonzero (exponent, multiplicity) entries of
        # character i at class r, read by every inner product; one row
        # per distinct vector, shared by every entry that has it
        distinct = {v for c in self.characters for v in c.values}
        rows = {v: _sparse(v) for v in distinct}
        self.sparse = tuple(
            tuple(map(rows.__getitem__, c.values)) for c in self.characters
        )
        if len(self.characters) != len(self.classes):
            raise ConsistencyError(
                f"{len(self.characters)} characters for {len(self.classes)} classes"
            )
        # checked before the lookups below, which assume a valid table
        self.check()
        self.trivial_index = next(
            i
            for i, c in enumerate(self.characters)
            if c.degree == 1 and all(v[0] == 1 for v in c.values)
        )

    # -- lookups -------------------------------------------------------

    def index_of(self, chi) -> int:
        if isinstance(chi, int):
            return chi
        return self._index[chi.values]

    def value(self, chi, g) -> Cyc:
        """Exact value chi(g) for a group element g."""
        chi = self.characters[self.index_of(chi)]
        return Cyc(self.exponent, chi.values[self.class_of[g]])

    def kernel(self, chi) -> frozenset:
        """{g : chi(g) = chi(1)}, i.e. all eigenvalues are 1; computed
        once per character and kept on the table."""
        i = self.index_of(chi)
        ker = self._kernels.get(i)
        if ker is None:
            chi = self.characters[i]
            good = {ci for ci, v in enumerate(chi.values) if v[0] == chi.degree}
            ker = self._kernels[i] = frozenset(
                g for g, ci in enumerate(self.class_of) if ci in good
            )
        return ker

    def __copy__(self):
        # a copy's characters may be edited, so it shares no kernel memo
        new = object.__new__(CharacterTable)
        new.__dict__.update(self.__dict__, _kernels={})
        return new

    # -- verification --------------------------------------------------

    def check(self):
        """Each multiplicity vector is the eigenvalue multiset of its
        class: at element order d it is non-negative, sums to the degree
        and lives on the d-th roots of unity, the exponents that are
        multiples of e/d (at the identity, class 0, the value is then the
        degree); each distinct (vector, e/d, degree) is tested once.
        Burnside's identity and the row relation hold, exactly.  A
        degree-1 row whose exponent map is a homomorphism G -> Z_e
        (``groups._is_multiplicative`` against the columns of Z_e,
        ``_shifts``) is a linear character; such rows must be pairwise
        distinct, and a pair of two of them needs no inner
        product: distinct linear characters are orthogonal, and every
        |lambda(g)|^2 is 1.  Every other pair's inner product is summed
        as integers over exponents mod e and reduced once modulo the e-th
        cyclotomic polynomial.  The column relation is implied: the value
        matrix X is square (``__init__``), so X D X* = |G| I, D the class
        sizes, gives X^-1 = D X*/|G|, hence X* X = |G| D^-1 (Isaacs,
        Character Theory of Finite Groups, ch. 2)."""
        G = self.group
        n = G.order
        e = self.exponent
        steps = [e // G.element_order[c.representative] for c in self.classes]
        passed = set()
        for i, c in enumerate(self.characters):
            for r, (v, step) in enumerate(zip(c.values, steps)):
                key = (v, step, c.degree)
                if key in passed:
                    continue
                # non-negative with all of the degree on the multiples of step
                if min(v) < 0 or sum(v) != c.degree or sum(v[::step]) != c.degree:
                    raise ConsistencyError(
                        f"character {i} at class {r} is not a multiset of "
                        f"{e // step}-th roots of unity of size {c.degree}"
                    )
                passed.add(key)
        if sum(c.degree * c.degree for c in self.characters) != n:
            raise ConsistencyError("Burnside identity sum chi(1)^2 = |G| fails")
        gens = _greedy_generators(G.mult)
        gen_columns = _column_getters(tuple(zip(*G.mult)), gens)
        shifts = _shifts(e)
        linear = {}  # values -> index of the certified rows
        for i, c in enumerate(self.characters):
            if c.degree == 1:
                # the multiset test left one unit per class
                k_class = [v.index(1) for v in c.values]
                k = list(map(k_class.__getitem__, self.class_of))
                images = [k[g] for g in gens]
                if _is_multiplicative(gen_columns, k, images, shifts):
                    j = linear.setdefault(c.values, i)
                    if j != i:
                        raise ConsistencyError(
                            f"characters {j} and {i} are the same linear character"
                        )
        certified = set(linear.values())
        sizes = [len(c.members) for c in self.classes]
        sparse = self.sparse
        for i, rows_i in enumerate(sparse):
            for j in range(i, len(sparse)):
                if i in certified and j in certified:
                    continue
                coeffs = _fold(e, zip(sizes, rows_i, sparse[j]))
                if coeffs[0] != (n if i == j else 0) or any(coeffs[1:]):
                    raise ConsistencyError(
                        f"row orthogonality fails for characters {i}, {j}"
                    )

    # -- serialization -------------------------------------------------

    def to_json(self):
        return {
            "group": self.group.spec,
            "exponent": self.exponent,
            "classes": [len(c.members) for c in self.classes],
            "characters": [
                {"degree": c.degree, "values": [list(v) for v in c.values]}
                for c in self.characters
            ],
        }


def _sparse(v):
    """Nonzero (exponent, coefficient) entries of an integer vector over
    zeta_e."""
    return tuple((k, m) for k, m in enumerate(v) if m)


def _shifts(e):
    """The addition table of Z_e: shifts[a][b] = (a + b) mod e."""
    return [tuple((a + b) % e for b in range(e)) for a in range(e)]


def _fold(e, terms):
    """Sum w * x * conj(y) over (w, x, y) in ``terms`` as its phi(e)
    integer power-basis coefficients; x and y are sparse integer vectors
    over zeta_e, summed into e buckets and reduced once."""
    folded = [0] * e
    for w, xs, ys in terms:
        for k, a in xs:
            for l, b in ys:
                folded[(k - l) % e] += w * a * b
    return reduce_folded(folded, e)


# -- abelian fast path -------------------------------------------------


def _abelian_characters(G: GroupTable):
    """The homomorphisms G -> Z_e (e the exponent), each from the
    images of the greedy generators, as linear characters;
    ``CharacterTable`` rejects a missing or repeated one."""
    e = G.exponent
    classes = conjugacy_classes(G)
    gens = _greedy_generators(G.mult)
    parent, bfs = _word_tree(G.mult, gens)
    gen_columns = _column_getters(tuple(zip(*G.mult)), gens)
    shifts = _shifts(e)  # its own columns, Z_e being abelian
    choice_sets = [range(0, e, e // G.element_order[g]) for g in gens]
    units = [tuple(int(k == j) for k in range(e)) for j in range(e)]
    chars = []
    for exps in product(*choice_sets):
        val = _extend_map(gen_columns, parent, bfs, exps, shifts)
        if val is not None:
            values = tuple(units[val[c.representative]] for c in classes)
            chars.append(Character(1, values))
    return chars


# -- Dixon's algorithm -------------------------------------------------


def _dixon_prime(order, exponent):
    p = 2 * order + 1
    while p < _DIXON_PRIME_BOUND:
        if p % exponent == 1 and _is_prime(p):
            return p
        p += 1
    raise ConsistencyError("no suitable Dixon prime below bound")


def _root_of_unity(e, p):
    """A primitive e-th root of unity in F_p, e dividing p - 1: the first
    g^((p-1)/e), g = 2, 3, ..., whose order is exactly e.  Another root
    permutes the Dixon rows by a Galois automorphism, and the rows are
    sorted, so the table does not depend on the choice."""
    for g in range(2, p):
        z = pow(g, (p - 1) // e, p)
        if all(pow(z, e // q, p) != 1 for q in range(2, e + 1) if e % q == 0):
            return z
    raise ConsistencyError(f"no primitive {e}-th root of unity mod {p}")


def _rref_mod(rows, p):
    rows = [list(r) for r in rows]
    cols = len(rows[0]) if rows else 0
    piv = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        piv.append(c)
        r += 1
        if r == len(rows):
            break
    return [rows[i] for i in range(r)], piv


def _nullspace_mod(mat, p):
    """Basis (rows) of {x : mat @ x = 0} over F_p."""
    d = len(mat)
    rr, piv = _rref_mod(mat, p)
    free = [c for c in range(d) if c not in piv]
    basis = []
    for fc in free:
        x = [0] * d
        x[fc] = 1
        for i, pc in enumerate(piv):
            x[pc] = (-rr[i][fc]) % p
        basis.append(x)
    return basis


def _matvec(M, v, p):
    return [sum(map(mul, Mr, v)) % p for Mr in M]


def _combine(coeffs, rows, p):
    """Sum c_i * rows[i] over F_p."""
    out = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        if c:
            for t, x in enumerate(row):
                out[t] += c * x
    return [x % p for x in out]


def _charpoly_mod(A, p):
    """Coefficients of det(xI - A) over F_p, constant term first.

    A is brought to upper Hessenberg form H by similarity: per column,
    a nonzero sub-diagonal pivot is swapped (rows and columns) up to the
    first sub-diagonal and the entries below it are eliminated.  With P_m
    the polynomial of the leading m x m block,
    P_(m+1) = (x - h_mm) P_m - Sum_(i<m) h_im h_(i+1,i) ... h_(m,m-1) P_i.
    O(d^3) for d x d.
    """
    H = [[x % p for x in row] for row in A]
    d = len(H)
    for j in range(d - 2):
        s = next((i for i in range(j + 1, d) if H[i][j]), None)
        if s is None:
            continue
        if s != j + 1:
            H[s], H[j + 1] = H[j + 1], H[s]
            for row in H:
                row[s], row[j + 1] = row[j + 1], row[s]
        inv = pow(H[j + 1][j], p - 2, p)
        for i in range(j + 2, d):
            f = H[i][j] * inv % p
            if f:
                # row_i -= f row_(j+1), then col_(j+1) += f col_i
                H[i] = [(x - f * y) % p for x, y in zip(H[i], H[j + 1])]
                for row in H:
                    row[j + 1] = (row[j + 1] + f * row[i]) % p
    polys = [[1]]
    for m in range(d):
        nxt = [0] + polys[m]
        for t, c in enumerate(polys[m]):
            nxt[t] -= H[m][m] * c
        sub = 1
        for i in range(m - 1, -1, -1):
            sub = sub * H[i + 1][i] % p
            if not sub:
                break
            c = H[i][m] * sub
            for t, y in enumerate(polys[i]):
                nxt[t] -= c * y
        polys.append([x % p for x in nxt])
    return polys[d]


def _dixon_characters(G: GroupTable):
    n = G.order
    classes = conjugacy_classes(G)
    class_of = class_index(G)
    k = len(classes)
    reps = [c.representative for c in classes]
    sizes = [len(c.members) for c in classes]
    e = G.exponent
    p = _dixon_prime(n, e)
    mult = G.mult
    inv = G.inverse

    # class-sum multiplication constants: K_r K_s = sum_t a[r][s][t] K_t
    M = []
    for r in range(k):
        Mr = [[0] * k for _ in range(k)]
        for t in range(k):
            zt = reps[t]
            for x in classes[r].members:
                Mr[class_of[mult[inv[x]][zt]]][t] += 1
        M.append(Mr)

    # simultaneous diagonalization over F_p (right eigenvectors)
    ident = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    spaces = [(ident, list(range(k)))]
    for r in range(1, k):
        if all(len(B) == 1 for B, _ in spaces):
            break
        spaces = _refine_spaces(spaces, M[r], p)
    if not all(len(B) == 1 for B, _ in spaces) or len(spaces) != k:
        raise ConsistencyError("class-sum matrices failed to split into lines")

    inv_class = [class_of[inv[reps[s]]] for s in range(k)]
    size_inv = [pow(h, p - 2, p) for h in sizes]
    zinv = pow(_root_of_unity(e, p), p - 2, p)
    zinv_pow = [pow(zinv, t, p) for t in range(e)]  # zinv has order e

    # power-map classes: pw[r][j] = class of reps[r]^j, j = 0..|reps[r]|-1
    pw = [[class_of[y] for y in _powers(mult, x)] for x in reps]
    # the eigenvalues of an element of order d are d-th roots of unity:
    # zeta_e^(kk*step), kk < d, step = e/d, has multiplicity
    # Sum_j chi(g^j) fourier[d][kk][j], fourier[d][kk][j] =
    # d^-1 zeta_e^(-j*kk*step); the other e-th roots have none
    fourier = {}
    for d in {len(w) for w in pw}:
        d_inv, step = pow(d, p - 2, p), e // d
        fourier[d] = [
            [d_inv * zinv_pow[j * kk * step % e] % p for j in range(d)]
            for kk in range(d)
        ]

    chars = []
    for B, _ in spaces:
        v = B[0]
        v0_inv = pow(v[0], p - 2, p)
        omega = [(x * v0_inv) % p for x in v]
        t = sum(omega[s] * omega[inv_class[s]] * size_inv[s] for s in range(k)) % p
        c = (n * pow(t, p - 2, p)) % p
        degree = next(
            (d for d in range(1, isqrt(n) + 1) if (d * d) % p == c), None
        )
        if degree is None:
            raise ConsistencyError("could not identify character degree")
        chi_p = [(degree * omega[s] * size_inv[s]) % p for s in range(k)]
        values = []
        for classes_r in pw:
            w = [chi_p[cls] for cls in classes_r]
            vec = [0] * e
            # a wrong lift fails check()'s support and sum test
            vec[:: e // len(w)] = [
                sum(map(mul, w, at)) % p for at in fourier[len(w)]
            ]
            values.append(tuple(vec))
        chars.append(Character(degree, tuple(values)))
    return chars


def _refine_spaces(spaces, M, p):
    new = []
    for B, piv in spaces:
        d = len(B)
        if d == 1:
            new.append((B, piv))
            continue
        W = [_matvec(M, b, p) for b in B]
        A = [[W[i][piv[j]] for j in range(d)] for i in range(d)]
        # invariance check (the class algebra is closed, so this must hold)
        if any(_combine(A[i], B, p) != W[i] for i in range(d)):
            raise ConsistencyError("eigenspace not invariant under class sum")
        At = [[A[j][i] % p for j in range(d)] for i in range(d)]
        cp = _charpoly_mod(At, p)
        used = 0
        for lam in range(p):
            # the nullspace is nonzero exactly at the roots of det(xI - At)
            v = 0
            for c in reversed(cp):
                v = (v * lam + c) % p
            if v:
                continue
            N = [
                [(At[i][j] - (lam if i == j else 0)) % p for j in range(d)]
                for i in range(d)
            ]
            ns = _nullspace_mod(N, p)
            if not ns:
                continue
            rows = [_combine(u, B, p) for u in ns]
            rr, rpiv = _rref_mod(rows, p)
            new.append((rr, rpiv))
            used += len(rr)
            if used == d:
                break
        if used != d:
            raise ConsistencyError("class-sum matrix not diagonalizable over F_p")
    return new


# -- public construction ----------------------------------------------


@_memo
def character_table(G: GroupTable) -> CharacterTable:
    """Complete exact character table of G: the abelian fast path when G
    is abelian, else Dixon's method.  Computed once per group and kept
    on it (``_memo``), so it lives exactly as long as G."""
    chars = _abelian_characters(G) if G.is_abelian() else _dixon_characters(G)
    return CharacterTable(G, chars)


# -- subgroups, induction, restriction -------------------------------


class SubgroupChars:
    """A subgroup re-indexed as its own group plus its character table
    and the embedding data needed for induction/restriction.  Both tables
    are immutable, so the facts of one character chi of H -- its kernel
    in G, chi^G and the constituents of chi^G -- are computed once and
    kept here.  The last two are asked with ``parent_table`` only."""

    def __init__(self, G: GroupTable, elements, parent_table=None):
        self.parent = G
        self.parent_table = parent_table or character_table(G)
        self.H, self.embed = subgroup_table(G, elements)
        self.table = character_table(self.H)
        self.elements = frozenset(self.embed)
        self._kernels = {}
        self._induced = {}
        self._constituents = {}

    def kernel_in_parent(self, chi) -> frozenset:
        j = self.table.index_of(chi)
        ker = self._kernels.get(j)
        if ker is None:
            ker = self._kernels[j] = frozenset(
                self.embed[h] for h in self.table.kernel(j)
            )
        return ker

    def _kept(self, memo, compute, tableG, j):
        """compute(tableG, self, j), kept in ``memo``; tableG must be the
        parent table."""
        if tableG is not self.parent_table:
            raise DomainError(
                f"the table of G must be the subgroup's parent table: {_where(self)}"
            )
        out = memo.get(j)
        if out is None:
            out = memo[j] = compute(tableG, self, j)
        return out


def induced_character(
    tableG: CharacterTable, sub: SubgroupChars, chi
) -> tuple:
    """chi^G as exact per-class Cyc values:
    chi^G(g) = |C_G(g)|/|H| sum_{h in H meeting g^G} chi(h), summed per
    H-class as integer multiplicity vectors over zeta_(e_G), reduced, and
    divided exactly: chi^G(g) is an algebraic integer, and the power basis
    is an integral basis of Z[zeta_(e_G)].  Kept on ``sub`` per chi."""
    return sub._kept(sub._induced, _induce, tableG, sub.table.index_of(chi))


def _induce(tableG, sub, j):
    G = tableG.group
    eG = tableG.exponent
    eH = sub.table.exponent
    assert eG % eH == 0
    scale = eG // eH
    acc = [[0] * eG for _ in tableG.classes]
    for cl, v in zip(sub.table.classes, sub.table.sparse[j]):
        row = acc[tableG.class_of[sub.embed[cl.representative]]]
        for k, m in v:
            row[k * scale] += len(cl.members) * m
    out = []
    for cl, row in zip(tableG.classes, acc):
        den = len(cl.members) * sub.H.order
        coeffs = []
        for c in reduce_folded(row, eG):
            q, rem = divmod(c * G.order, den)
            if rem:
                raise ConsistencyError(
                    f"chi_{j}^G is not an algebraic integer at class of "
                    f"{cl.representative}: {_where(sub)}"
                )
            coeffs.append(q)
        out.append(Cyc(eG, coeffs))
    return tuple(out)


def restriction_multiplicity(
    tableG: CharacterTable, sub: SubgroupChars, phi, chi
) -> int:
    """<phi|_H, chi>_H, summed over the classes of H as integers over
    zeta_(e_G) (equals <phi, chi^G>_G by Frobenius reciprocity)."""
    scale = tableG.exponent // sub.table.exponent
    i, j = tableG.index_of(phi), sub.table.index_of(chi)
    phi_rows = tableG.sparse[i]
    terms = (
        (
            len(cl.members),
            phi_rows[tableG.class_of[sub.embed[cl.representative]]],
            [(k * scale, m) for k, m in v],
        )
        for cl, v in zip(sub.table.classes, sub.table.sparse[j])
    )
    coeffs = _fold(tableG.exponent, terms)
    m, rem = divmod(coeffs[0], sub.H.order)
    if any(coeffs[1:]) or rem or m < 0:
        raise ConsistencyError(
            f"<phi_{i}|_H, chi_{j}> is not a non-negative integer "
            f"(|H| * value has coefficients {list(coeffs)}): "
            f"{_where(sub)}"
        )
    return m


def _where(sub: SubgroupChars) -> str:
    return f"G = {sub.parent.spec}, H = {sorted(sub.elements)}"


def _scan_constituents(tableG, sub, j):
    """Indices of the constituents of chi_j^G in table order: the phi with
    <phi|_H, chi_j>_H > 0 (Frobenius reciprocity)."""
    return tuple(
        i
        for i in range(len(tableG.characters))
        if restriction_multiplicity(tableG, sub, i, j)
    )


def find_constituent_avoiding(
    tableG: CharacterTable,
    sub: SubgroupChars,
    chi,
    avoid,
    extra: int | None = None,
) -> Character:
    """The first irreducible constituent phi of chi^G, in table order,
    with Ker(phi) disjoint from ``avoid`` (and, when given, with ``extra``
    outside Ker(phi))."""
    j = sub.table.index_of(chi)
    avoid = frozenset(avoid)
    if avoid & sub.kernel_in_parent(j):
        raise DomainError("avoid set meets Ker(chi)")
    if not avoid <= sub.elements:
        raise DomainError("avoid set must lie inside the subgroup")
    if extra is not None:
        vals = induced_character(tableG, sub, j)
        if not vals[tableG.class_of[extra]].is_zero():
            raise DomainError("induced character does not vanish at extra")
    for i in sub._kept(sub._constituents, _scan_constituents, tableG, j):
        ker = tableG.kernel(i)
        if avoid & ker:
            continue
        if extra is not None and extra in ker:
            continue
        return tableG.characters[i]
    raise ConsistencyError(
        "no constituent avoiding the kernel condition exists; this "
        f"contradicts the induced-character lemma: {_where(sub)}, "
        f"chi_{j}, avoid {sorted(avoid)}, extra {extra}"
    )
