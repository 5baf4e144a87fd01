"""Generating vectors and branched G-covers of curves.

A generating vector (b; m_1,...,m_r) is a tuple (alpha_j, beta_j; gamma_i)
whose 2b+r entries generate G and satisfy the long relation
prod [alpha_j, beta_j] prod gamma_i = 1; it encodes a branched G-cover of
a genus-b curve whose covering genus comes from Riemann-Hurwitz.
"""

from __future__ import annotations

import itertools
from math import factorial, prod
from typing import NamedTuple

from .errors import (
    BranchOrderError,
    ConsistencyError,
    DomainError,
    GenerationError,
    GenusError,
    RelationError,
)
from .groups import (
    GroupTable,
    _is_prime,
    _memo,
    _orbit,
    automorphism_stabilizer,
    conjugacy_classes,
    class_index,
    cyclic_subgroup,
    mobius,
    subgroup_registry,
)


class GeneratingVector(NamedTuple):
    # GroupTable has no __eq__, so the group compares by identity
    group: GroupTable
    base_genus: int
    alphas: tuple
    betas: tuple
    gammas: tuple

    def to_json(self):
        return {
            "group": self.group.spec,
            "b": self.base_genus,
            "alphas": list(self.alphas),
            "betas": list(self.betas),
            "gammas": list(self.gammas),
        }


class BranchedCover(NamedTuple):
    vector: GeneratingVector
    genus: int


def validate_vector(v: GeneratingVector) -> BranchedCover:
    G = v.group
    n = G.order
    b, alphas, betas, gammas = v.base_genus, v.alphas, v.betas, v.gammas
    if b < 0:
        raise DomainError("base genus must be >= 0")
    if len(alphas) != b or len(betas) != b:
        raise DomainError(f"need exactly {b} alphas and betas")
    for g in alphas + betas + gammas:
        if not 0 <= g < n:
            raise DomainError(f"element index {g} out of range")
    for g in gammas:
        if g == 0:
            raise BranchOrderError("branch elements must have order >= 2")
    prod = 0
    for a, bb in zip(alphas, betas):
        prod = G.mult[prod][G.commutator(a, bb)]
    for g in gammas:
        prod = G.mult[prod][g]
    if prod != 0:
        raise RelationError(
            f"long relation fails: product is {G.labels[prod]}, not identity"
        )
    reg = subgroup_registry(G)
    sid = 0
    for g in alphas + betas + gammas:
        sid = reg.extend(sid, g)
    if len(reg.sets[sid]) != n:
        raise GenerationError(
            f"elements generate a subgroup of order {len(reg.sets[sid])}, not G"
        )
    return BranchedCover(v, _genus(G, b, gammas))


@_memo
def _class_cyclic_masks(G: GroupTable) -> tuple:
    """Per conjugacy class, the union of <y> over its members y, as a
    bitmask over the elements."""
    return tuple(
        sum(1 << x for x in set().union(*(cyclic_subgroup(G, y) for y in c.members)))
        for c in conjugacy_classes(G)
    )


def _mask_to_set(mask):
    return frozenset(g for g in range(mask.bit_length()) if mask >> g & 1)


def _stabilizer_mask(G: GroupTable, classes) -> int:
    """The stabilizer-union mask of a branch-class multiset: the OR of
    the ``_class_cyclic_masks`` of ``classes`` and the identity."""
    masks = _class_cyclic_masks(G)
    acc = 1
    for c in classes:
        acc |= masks[c]
    return acc


def stabilizer_union(v: GeneratingVector) -> frozenset:
    """All elements lying in a conjugate of some <gamma_i> (the union of
    point stabilizers of the cover); always contains the identity."""
    cls_of = class_index(v.group)
    return _mask_to_set(_stabilizer_mask(v.group, [cls_of[g] for g in v.gammas]))


def h1_multiplicities(table, b: int, classes) -> tuple:
    """Per-irreducible multiplicities in H^1(C, CC) of a G-cover of a
    genus-b curve whose branch elements lie in the conjugacy classes
    ``classes`` (a multiset of class indices), by Broughton's formula:
    2b for the trivial character, chi(1)(2b-2+r) - sum_gamma
    l_gamma(chi) for the others, l_gamma(chi) being the eigenvalue-1
    count of chi at gamma's class."""
    out = []
    for i, (degree, values) in enumerate(table.characters):
        if i == table.trivial_index:
            m = 2 * b
        else:
            m = degree * (2 * b - 2 + len(classes)) - sum(
                values[k][0] for k in classes
            )
            if m < 0:
                raise ConsistencyError(
                    f"negative isotypic multiplicity {m} of chi_{i} on "
                    f"{table.group.spec} at b = {b}, classes {sorted(classes)}"
                )
        out.append(m)
    return tuple(out)


def isotypic_dimensions(cover: BranchedCover, table) -> tuple:
    """Per-irreducible dimensions of H^1(C, CC), chi(1) times the
    ``h1_multiplicities``; they sum to 2 g(C)."""
    v = cover.vector
    classes = [table.class_of[g] for g in v.gammas]
    dims = tuple(
        chi.degree * m
        for chi, m in zip(
            table.characters, h1_multiplicities(table, v.base_genus, classes)
        )
    )
    if sum(dims) != 2 * cover.genus:
        raise ConsistencyError(
            f"isotypic dimensions sum to {sum(dims)}, expected {2 * cover.genus}, "
            f"for the vector {v.to_json()}"
        )
    return dims


# -- enumeration -------------------------------------------------------


class CoverStream:
    """The listing of ``enumerate_vectors``: iterating the stream yields
    raw (ab, gammas, genus) rows, ab the alphas then the betas.
    ``truncated`` counts the otherwise valid vectors dropped because
    their genus exceeded the cap, and is known when the stream is
    created."""

    def __init__(self, rows, truncated):
        self._rows = rows
        self.truncated = truncated

    def __iter__(self):
        return self._rows()


def _raw_tuples(G, b, r, allowed_gamma, *, dedup=False):
    """All (alphas+betas, gammas) with the long relation satisfied and
    the generated subgroup full, in listing order: the free entries (the
    2b alphas and betas over G, then the first r - 1 gammas over
    ``allowed_gamma``) in lexicographic order; the last gamma is forced
    by the relation.  Yields (ab, gammas).

    The walk fixes free entries one at a time, carrying the id of the
    subgroup K the prefix generates and the prefix's product (each
    commutator [alpha_j, beta_j] once beta_j is fixed, then each
    gamma), and hands both to ``_gamma_tails`` once the alphas and betas
    are fixed.  With ``dedup`` only the tuples lex-least in their Aut(G)
    orbit are listed.  A tuple is lex-least iff each entry is least in
    its orbit under the stabilizer of the entries before it (R. C.
    Read's orderly generation), and an automorphism fixes the entries
    y_1..y_k exactly when it fixes K = <y_1..y_k> pointwise, so a
    candidate x is kept iff x is the least of its orbit under the
    automorphisms fixing K (``_orbit_minima``).  Once that stabilizer
    is trivial the filter is off for the whole subtree, and once no
    free entry is left it is not needed: a map fixing those fixes the
    forced last gamma.  The gamma tails are handed off once no filter is
    left, or at the last free entry when it is a gamma: its kept
    candidates are then the first factor of the tails."""
    n, mult, comm = G.order, G.mult, G.commutator
    extend = subgroup_registry(G).extend
    tails = _gamma_tails(G, r, allowed_gamma)
    free = 2 * b + max(r - 1, 0)

    def walk(prefix, sid, prod, filtering):
        k = len(prefix)
        mins = _orbit_minima(G, sid) if filtering and k < free else None
        if k >= 2 * b and (mins is None or k == free - 1):
            first = None if mins is None else [x for x in allowed_gamma if mins[x] == x]
            ab, head = prefix[: 2 * b], prefix[2 * b :]
            for tail in tails(prod, sid, k - 2 * b, first):
                yield ab, head + tail
            return
        for x in range(n) if k < 2 * b else allowed_gamma:
            if mins is not None and mins[x] != x:
                continue
            if k < b:
                p = prod
            elif k < 2 * b:
                p = mult[prod][comm(prefix[k - b], x)]
            else:
                p = mult[prod][x]
            yield from walk(prefix + (x,), extend(sid, x), p, mins is not None)

    return walk((), 0, 0, dedup)


def _gamma_tails(G, r, allowed_gamma):
    """The gamma-tail loop of ``_raw_tuples``, set up once per (G, r,
    allowed_gamma).  Returns ``tails(prod, sid, k, first=None)``, which
    yields in lexicographic order the gammas after a prefix of k gammas
    that complete a generating vector, given the product ``prod`` of the
    prefix (its commutators, then its gammas) and the id ``sid`` of the
    subgroup it generates in ``subgroup_registry(G)``; ``first``, when
    given, replaces ``allowed_gamma`` as the candidates for the first
    free gamma.  Once the prefix generates G only the forced last gamma
    is checked, and no subgroup is tracked."""
    n = G.order
    mult, inv = G.mult, G.inverse
    reg = subgroup_registry(G)
    extend, sets = reg.extend, reg.sets
    allowed = frozenset(allowed_gamma)

    def tails(prod, sid, k, first=None):
        if not r:
            if not prod and len(sets[sid]) == n:
                yield ()
            return
        factors = [allowed_gamma] * (r - 1 - k)
        if first is not None:
            factors[0] = first
        if len(sets[sid]) == n:
            for tail in itertools.product(*factors):
                p = prod
                for g in tail:
                    p = mult[p][g]
                if inv[p] in allowed:
                    yield tail + (inv[p],)
            return
        for tail in itertools.product(*factors):
            p, s = prod, sid
            for g in tail:
                p = mult[p][g]
                s = extend(s, g)
            last = inv[p]
            if last in allowed and len(sets[extend(s, last)]) == n:
                yield tail + (last,)

    return tails


def _orbit_minima(G: GroupTable, sid):
    """Per element x, the least element of x's orbit under the
    automorphisms that fix the subgroup ``sid`` of ``subgroup_registry(G)``
    pointwise, or None when only the identity does; memoised per id."""
    memo = G._cache.setdefault("_orbit_minima", {})
    if sid not in memo:
        stab = automorphism_stabilizer(G, subgroup_registry(G).gens[sid])
        mins = None
        if stab:
            mins = [None] * G.order
            for x in range(G.order):
                if mins[x] is None:
                    for y in _orbit(x, stab):
                        mins[y] = x
        memo[sid] = mins
    return memo[sid]


def _branch_plan(G: GroupTable, branch_order_cap, exact=None):
    """The elements a gamma may be, in index order."""
    orders = G.element_order
    return [
        g
        for g in range(1, G.order)
        if (branch_order_cap is None or orders[g] <= branch_order_cap)
        and (exact is None or orders[g] in exact)
    ]


def _hurwitz_terms(G: GroupTable, b):
    """Riemann-Hurwitz in integers: (base, weights) with 2g - 2 = base +
    the sum of weights[gamma_i] over the branch elements, base = |G|(2b -
    2) and weights[x] = |G| - |G|/ord(x), an integer as ord(x) divides
    |G|.  The one genus rule of listing, counting and validation
    (``_genus``); the weights are memoised per table."""
    return G.order * (2 * b - 2), _hurwitz_weights(G)


@_memo
def _hurwitz_weights(G: GroupTable):
    """weights[x] = |G| - |G|/ord(x) for every element x."""
    return [G.order - G.order // m for m in G.element_order]


def _genus(G: GroupTable, b, gammas):
    """The Riemann-Hurwitz genus of a vector over a genus-b curve with
    branch elements ``gammas``, by ``_hurwitz_terms``; raises GenusError
    unless 2g - 2 is an even integer >= -2."""
    base, weights = _hurwitz_terms(G, b)
    twice = base + sum([weights[g] for g in gammas])
    if twice % 2 or twice < -2:
        raise GenusError(f"2g-2 = {twice} is not an even integer >= -2")
    return twice // 2 + 1


def _multiset_genus(G: GroupTable, b, key):
    """The Riemann-Hurwitz genus of the vectors whose sorted branch-class
    multiset is ``key``, or None when it is below 2.  Callers pass the
    multisets of actual generating vectors, whose value is a genus by
    Riemann's existence theorem, so a GenusError here is a fault and is
    raised."""
    classes = conjugacy_classes(G)
    genus = _genus(G, b, [classes[c].representative for c in key])
    return genus if genus >= 2 else None


def _count_vectors(G: GroupTable, b: int, max_r: int, elements):
    """Exact numbers of generating vectors, counted without listing them.

    Returns {M: vectors whose sorted branch-class multiset is M}, M
    running over every multiset of at most max_r of the classes making
    up ``elements`` whose count is nonzero, so the multisets with no
    vector are never reported.  Abelian groups are counted in closed
    form (``_count_abelian``), the others by Moebius inversion over the
    subgroup lattice (``_count_by_mobius``).
    """
    if G.is_abelian():
        return _count_abelian(G, b, max_r, elements)
    return _count_by_mobius(G, b, max_r, elements)


def _count_abelian(G: GroupTable, b: int, max_r: int, elements):
    """``_count_vectors`` for abelian G, without the subgroup lattice.

    Every class is one element, class i is {i} (classes sort by size,
    then representative), and the long relation is prod gamma_i = 1.
    The (alpha, beta) complete an ordering of a multiset M with product 1
    to a generating vector iff their images generate G/S, S = <M>, so M
    has _orderings(M) |S|^2b phi_2b(G/S) vectors, phi_d(A) the number of
    d-tuples generating A (P. Hall's Eulerian function, 1936; ``lifts``).
    A tuple generates G modulo S iff it does modulo T = Phi(G)S, as the
    Frattini subgroup Phi(G) = {x^rad}, rad the product of the primes of
    |G|, is the set of non-generators; so the count is |T|^2b
    phi_2b(G/T), and G/T is elementary abelian at each prime.  The sorted
    (r - 1)-prefixes are walked level by level with their product and
    the id of Phi(G)<prefix>; the last gamma is forced to be the inverse
    of the product, and kept iff it is allowed and its class is not below
    the prefix's last one.
    """
    n, d = G.order, 2 * b
    mult, inv = G.mult, G.inverse
    reg = subgroup_registry(G)
    extend, sets = reg.extend, reg.sets
    allowed = frozenset(elements)
    classes = sorted(allowed)
    primes = [p for p in range(2, n + 1) if n % p == 0 and _is_prime(p)]
    frattini, rad = 0, prod(primes)
    for y in sorted({G.power(x, rad) for x in range(n)}):
        frattini = extend(frattini, y)
    memo = {}

    def lifts(sid):
        """|T|^d phi_d(G/T), T the subgroup ``sid`` containing Phi(G):
        with p^k the p-part of |G : T|, G/T is the sum of the F_p^k and
        phi_d(G/T) = prod_p prod_(i<k) (p^d - p^i)."""
        out = memo.get(sid)
        if out is None:
            out = len(sets[sid]) ** d
            index = n // len(sets[sid])
            for p in primes:
                pi = 1
                while index % p == 0:
                    index //= p
                    out *= p**d - pi
                    pi *= p
            memo[sid] = out
        return out

    counts = {}
    if lifts(frattini):
        counts[()] = lifts(frattini)
    # (sorted prefix, its product, the id of Phi(G)<prefix>, position of
    # its last element in ``classes``)
    level = [((), 0, frattini, 0)]
    for r in range(1, max_r + 1):
        for P, product, sid, _ in level:
            last = inv[product]
            if last in allowed and (not P or last >= P[-1]):
                M = P + (last,)
                k = lifts(extend(sid, last))
                if k:
                    counts[M] = _orderings(M) * k
        if r < max_r:
            level = [
                (P + (x,), mult[product][x], extend(sid, x), j)
                for P, product, sid, i in level
                for j, x in enumerate(classes[i:], i)
            ]
    return counts


def _count_by_mobius(G: GroupTable, b: int, max_r: int, elements):
    """``_count_vectors`` for any G, by Moebius inversion; the oracle the
    abelian closed form is tested against.

    The tuples of H that generate G number sum of mu(H, G) N_H over the
    subgroups H (P. Hall's inversion).  N_H(M) for one ordering of M is
    the identity coefficient of f0_H * C_1 * ... * C_r in Z[H], where
    f0_H(x) counts the (alpha, beta) in H^2b with prod [alpha_j, beta_j]
    = x and C_i is the sum of H's elements in the i-th class of M.  Both
    are central in Z[H], so every ordering of M gives the same count and
    N_gen(M) is that count times the number of distinct orderings.  Per
    subgroup the multisets whose classes all meet H are walked, in
    ``combinations_with_replacement`` order and by size, keeping one DP
    vector per multiset of the size below: each is the prefix of the
    multisets that extend it by one class.
    """
    n = G.order
    mult, inv = G.mult, G.inverse
    members = [c.members for c in conjugacy_classes(G)]
    classes = sorted({class_index(G)[g] for g in elements})
    counts = {}
    for H, mu in mobius(G).items():
        if not mu:
            continue
        elems = sorted(H)
        comm = [0] * n
        for x in elems:
            for y in elems:
                comm[G.commutator(x, y)] += 1
        comm = [(z, k) for z, k in enumerate(comm) if k]
        f0 = [0] * n
        f0[0] = 1
        for _ in range(b):
            f0 = _convolve(mult, elems, f0, comm)
        # per class, its elements in H as (element, weight 1) terms
        parts = {c: [(x, 1) for x in members[c] if x in H] for c in classes}
        hit = [c for c in classes if parts[c]]
        counts[()] = counts.get((), 0) + mu * f0[0]
        level = {(): f0}  # DP vector of every multiset of size r - 1
        for r in range(1, max_r + 1):
            below, level = level, {}
            for M in itertools.combinations_with_replacement(hit, r):
                head, part = below[M[:-1]], parts[M[-1]]
                if r < max_r:
                    level[M] = _convolve(mult, elems, head, part)
                    total = level[M][0]
                else:
                    total = sum(head[inv[c]] for c, _ in part)
                counts[M] = counts.get(M, 0) + mu * total
    return {M: k * _orderings(M) for M, k in counts.items() if k}


def _convolve(mult, elems, f, terms):
    """f * g in the group algebra, for f supported on ``elems`` and g the
    sum of w * y over the (y, w) in ``terms``."""
    out = [0] * len(f)
    for x in elems:
        fx = f[x]
        if fx:
            row = mult[x]
            for y, w in terms:
                out[row[y]] += fx * w
    return out


def _orderings(key):
    """Number of distinct orderings of the multiset ``key``."""
    out = factorial(len(key))
    for c in set(key):
        out //= factorial(key.count(c))
    return out


def _counted_multisets(G: GroupTable, b, max_r, genus_cap, allowed, exact=None):
    """Genus and cap, decided once per sorted branch-class multiset M that
    ``_count_vectors`` reports for gammas in ``allowed`` (a union of
    classes); with ``exact``, sorted branch orders, only M of those
    orders count.  Returns (kept, truncated): kept[M] = (genus, count)
    for the M of genus <= genus_cap, and the number of vectors over the
    cap.  Listing and sweep share it."""
    counts = _count_vectors(G, b, max_r, allowed)
    order_of = [G.element_order[c.representative] for c in conjugacy_classes(G)]
    kept, truncated = {}, 0
    for M, count in counts.items():
        if exact and tuple(sorted([order_of[c] for c in M])) != exact:
            continue
        genus = _multiset_genus(G, b, M)
        if genus is None:
            continue
        if genus > genus_cap:
            truncated += count
        else:
            kept[M] = genus, count
    return kept, truncated


def enumerate_vectors(
    G: GroupTable,
    b: int,
    max_r: int,
    genus_cap: int = 65,
    dedup: bool = True,
    branch_order_cap: int | None = None,
    exact_branch_orders=None,
):
    """Stream (a ``CoverStream``) of the valid generating vectors with r
    <= max_r branch points and 2 <= g <= genus_cap, as raw (ab, gammas,
    genus) rows; ``validate_vector`` makes a BranchedCover of one.

    The vectors are counted first (``_counted_multisets``): that fixes
    the kept branch-class multisets and ``truncated``, the number of
    vectors over the cap, when the stream is created.  Only the r of a
    kept multiset are walked, and a listed vector is kept iff its
    Riemann-Hurwitz genus, base + the sum of its gammas' weights
    (``_hurwitz_terms``), lies in [2, genus_cap] and, with
    ``exact_branch_orders``, its sorted branch orders are those: the
    rule that keeps its multiset.  With ``dedup`` one representative per
    orbit of simultaneous relabeling by group automorphisms is emitted:
    the lex-least vector of the orbit, the one listed first, found by
    orderly generation (``_raw_tuples`` with its orbit filter on)
    without listing the rest: an automorphism fixes a prefix of the
    vector pointwise exactly when it fixes the subgroup the prefix
    generates, so the walk needs only the stabilizers of subgroups,
    each from Sims's search (``automorphism_stabilizer``), and never
    lists Aut(G).  No stabilizer is built unless some vector is kept.
    """
    if b not in (0, 1, 2):
        raise DomainError("base genus must be 0, 1 or 2")
    if max_r < 0:
        raise DomainError("max_r must be >= 0")
    if genus_cap < 1:
        raise DomainError("genus_cap must be >= 1")
    if branch_order_cap is not None and branch_order_cap < 1:
        raise DomainError("branch_order_cap must be >= 1")
    exact = tuple(sorted(exact_branch_orders)) if exact_branch_orders else None
    if exact and exact[0] < 2:
        raise DomainError("exact branch orders must be >= 2")
    if exact and max_r < len(exact):
        raise DomainError(f"max_r {max_r} is below the {len(exact)} branch orders")
    allowed = _branch_plan(G, branch_order_cap, exact)
    kept, truncated = _counted_multisets(G, b, max_r, genus_cap, allowed, exact)
    base, weights = _hurwitz_terms(G, b)
    # 2 <= g <= genus_cap, for the weight sum of the gammas
    lo, hi = 2 - base, 2 * genus_cap - 2 - base
    orders, weight = G.element_order, weights.__getitem__

    def rows():
        for r in sorted({len(M) for M in kept}):
            for ab, gammas in _raw_tuples(G, b, r, allowed, dedup=dedup):
                w = sum(map(weight, gammas))
                if lo <= w <= hi and (
                    exact is None or tuple(sorted([orders[g] for g in gammas])) == exact
                ):
                    yield ab, gammas, (base + w) // 2 + 1

    return CoverStream(rows, truncated)
