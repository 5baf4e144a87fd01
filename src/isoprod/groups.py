"""Exact finite-group arithmetic on dense Cayley tables.

Elements are indices 0..order-1 with the identity at index 0.  Groups are
built from a small spec mini-language (see ``build_group``); every built-in
family fills its table from its generators' rows (``_table_from_rows``).
Tables are validated at construction (Latin square, associativity,
inverses) and immutable afterwards; every derived structure is computed
once, by ``_memo``.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass
from functools import partial, wraps
from math import factorial, isqrt, lcm, prod
from operator import itemgetter

from .errors import (
    DomainError,
    GroupSpecError,
    SizeError,
    TableError,
)

DEFAULT_ORDER_CAP = 128


def _memo(fn):
    """``fn(G)`` computed once per table and kept in ``G._cache`` under
    fn's name; for functions of the table alone."""
    name = fn.__name__

    @wraps(fn)
    def memoized(G):
        try:
            return G._cache[name]
        except KeyError:
            out = G._cache[name] = fn(G)
            return out

    return memoized


class GroupTable:
    """A finite group as an explicit multiplication table.

    ``mult[g][h]`` is the index of g*h.  Construction validates the table;
    instances are immutable.
    """

    __slots__ = (
        "order",
        "mult",
        "identity",
        "labels",
        "inverse",
        "element_order",
        "spec",
        "aux",
        "_cache",
    )

    def __init__(self, mult, labels=None, spec="", aux=None):
        mult = tuple(tuple(map(int, row)) for row in mult)
        n = len(mult)
        if n == 0:
            raise TableError("empty multiplication table")
        self.order = n
        self.mult = mult
        self.spec = spec
        self.aux = aux or {}
        self._cache = {}
        _check_latin(mult)
        ident = _find_identity(mult)
        if ident != 0:
            raise TableError("identity element must sit at index 0")
        self.identity = 0
        _check_associative(mult)
        # each row of a Latin square holds exactly one identity
        self.inverse = tuple(row.index(0) for row in mult)
        for g, h in enumerate(self.inverse):
            if mult[h][g] != 0:
                raise TableError(f"element {g} has no two-sided inverse")
        self.element_order = tuple(len(_powers(mult, g)) for g in range(n))
        if labels is None:
            labels = tuple(f"g{i}" for i in range(n))
        self.labels = tuple(labels)

    # -- basic helpers -------------------------------------------------

    def conj(self, g, x):
        """g x g^-1."""
        return self.mult[self.mult[g][x]][self.inverse[g]]

    def commutator(self, g, h):
        m = self.mult
        return m[m[m[g][h]][self.inverse[g]]][self.inverse[h]]

    def power(self, g, k):
        return _powers(self.mult, g)[k % self.element_order[g]]

    @property
    @_memo
    def exponent(self):
        return lcm(*self.element_order)

    def is_abelian(self):
        return len(conjugacy_classes(self)) == self.order

    def __repr__(self):
        return f"GroupTable({self.spec or self.order!r}, order={self.order})"


def _check_latin(mult):
    n = len(mult)
    full = set(range(n))
    for i, row in enumerate(mult):
        if len(row) != n:
            raise TableError(f"row {i} has length {len(row)}, expected {n}")
        if set(row) != full:
            raise TableError(f"row {i} is not a permutation of 0..{n - 1}")
    for j, column in enumerate(zip(*mult)):
        if set(column) != full:
            raise TableError(f"column {j} is not a permutation of 0..{n - 1}")


def _find_identity(mult):
    n = len(mult)
    for e in range(n):
        if all(mult[e][g] == g and mult[g][e] == g for g in range(n)):
            return e
    raise TableError("no identity element")


def _powers(mult, g):
    """[1, g, g^2, ..., g^(d-1)] as indices, d the order of g."""
    out = [0]
    x = g
    while x != 0:
        out.append(x)
        x = mult[x][g]
    return out


def _word_tree(mult, gens):
    """Breadth-first word tree over ``gens`` in the table ``mult``:
    returns (parent, bfs_order), where bfs_order lists every element the
    right products by ``gens`` reach from the identity, each parent
    before its children, and x = parent[x][0] * gens[parent[x][1]] for
    every reached x != 0 (parent[x] is None for the others)."""
    parent = [None] * len(mult)
    parent[0] = (0, None)
    bfs_order = [0]
    for x in bfs_order:
        row = mult[x]
        for gi, g in enumerate(gens):
            y = row[g]
            if parent[y] is None:
                parent[y] = (x, gi)
                bfs_order.append(y)
    return parent, bfs_order


def _table_from_rows(n, rows):
    """The Cayley table of the group of order n that the left
    multiplications ``rows`` generate, rows[g][x] the index of g*x.

    Row g*x is row g read at the entries of row x, since
    (g*x)*y = g*(x*y), so a word tree over the rows fills the table
    one gather per element.
    """
    mult = [None] * n
    mult[0] = tuple(range(n))
    parent, bfs_order = _word_tree(list(zip(*rows)) or [()] * n, range(len(rows)))
    for y in bfs_order[1:]:
        x, gi = parent[y]
        mult[y] = itemgetter(*mult[x])(rows[gi])
    return mult


def _greedy_generators(mult):
    """Generators in index order, each the least element the ones before
    it do not reach; together they reach every element."""
    gens = []
    reached = {0}
    for g in range(1, len(mult)):
        if g not in reached:
            gens.append(g)
            reached = set(_word_tree(mult, gens)[1])
    return gens


def _check_associative(mult):
    """Light's associativity test, exact at every order.

    The elements s with (x*s)*y == x*(s*y) for all x, y are closed under
    products, so it suffices to test a set of s whose right products
    from the identity reach every element: O(n^2) per generator.
    """
    for s in _greedy_generators(mult):
        times_s_row = itemgetter(*mult[s])  # row x -> (x*(s*y))_y
        for x in range(len(mult)):
            if times_s_row(mult[x]) != mult[mult[x][s]]:
                raise TableError("multiplication table is not associative")


# -- conjugacy classes -------------------------------------------------


@dataclass(frozen=True)
class ConjugacyClass:
    representative: int
    members: tuple


@_memo
def conjugacy_classes(G: GroupTable):
    """Classes sorted by (size, representative index); identity first."""
    n = G.order
    seen = [False] * n
    classes = []
    for g in range(n):
        if seen[g]:
            continue
        orbit = set()
        for t in range(n):
            orbit.add(G.conj(t, g))
        members = tuple(sorted(orbit))
        for x in members:
            seen[x] = True
        classes.append(ConjugacyClass(members[0], members))
    classes.sort(key=lambda c: (len(c.members), c.representative))
    return tuple(classes)


@_memo
def class_index(G: GroupTable):
    """class_index(G)[x] is the position of x's class in the classes."""
    class_of = [0] * G.order
    for i, c in enumerate(conjugacy_classes(G)):
        for x in c.members:
            class_of[x] = i
    return tuple(class_of)


@_memo
def center(G: GroupTable):
    """The elements whose conjugacy class is a singleton."""
    return frozenset(
        c.representative for c in conjugacy_classes(G) if len(c.members) == 1
    )


def cyclic_subgroup(G: GroupTable, g):
    if not 0 <= g < G.order:
        raise DomainError(f"element index {g} out of range")
    return frozenset(_powers(G.mult, g))


# -- subgroup machinery ------------------------------------------------


class SubgroupRegistry:
    """Interns subgroups as small ids with a memoized one-element
    extension map; backbone of the enumeration hot loops and of
    ``all_subgroups``.  ``gens[sid]`` are the elements added, one
    extension at a time, on the path that first reached subgroup
    ``sid``; they generate it, and an extension closes the subgroup
    and one element more by cosets (``_coset_closure``)."""

    def __init__(self, G: GroupTable):
        self.G = G
        self.sets = [frozenset([0])]
        self.gens = [()]
        self.ids = {self.sets[0]: 0}
        self.ext = {}

    def extend(self, sid, g):
        """The id of the subgroup generated by subgroup ``sid`` and g."""
        key = (sid, g)
        out = self.ext.get(key)
        if out is None:
            if g in self.sets[sid]:
                out = sid
            else:
                gens = self.gens[sid] + (g,)
                if sid:
                    K = _coset_closure(self.G.mult, self.sets[sid], gens)
                else:
                    K = cyclic_subgroup(self.G, g)
                out = self.ids.setdefault(K, len(self.sets))
                if out == len(self.sets):
                    self.sets.append(K)
                    self.gens.append(gens)
            self.ext[key] = out
        return out


def _coset_closure(mult, K, gens):
    """The subgroup generated by ``gens``, given the subgroup K that
    all but the last of them generate, as a union of left cosets y*K
    (Dimino's algorithm; G. Butler, *Fundamental Algorithms for
    Permutation Groups*, LNCS 559, 1991, ch. 6).

    The cosets are permuted by left products, so closing the coset
    representatives under left products by ``gens`` reaches every coset;
    each new coset is one gather of row y at the elements of K.  K has
    at least two elements, so the gather returns a tuple.
    """
    elements = set(K)
    coset = itemgetter(*K)
    reps = [0]
    for y in reps:
        for s in gens:
            z = mult[s][y]
            if z not in elements:
                elements.update(coset(mult[z]))
                reps.append(z)
    return frozenset(elements)


@_memo
def subgroup_registry(G: GroupTable) -> SubgroupRegistry:
    return SubgroupRegistry(G)


@_memo
def all_subgroups(G: GroupTable):
    """Every subgroup of G as a frozenset, smallest first.

    Each subgroup is reached from the trivial one by adding its elements
    one at a time, so extending every interned subgroup by every element
    until no new id appears interns them all.  <K, g> = <K, g'> whenever
    <g> = <g'>, so only the least generator of each cyclic subgroup is
    added: the others would find the same subgroup already interned,
    and the ids come out in the same order.
    """
    reg = subgroup_registry(G)
    cyclic = set()
    leaders = []  # the least generator of each cyclic subgroup
    for g in range(1, G.order):
        C = cyclic_subgroup(G, g)
        if C not in cyclic:
            cyclic.add(C)
            leaders.append(g)
    sid = 0
    while sid < len(reg.sets):
        for g in leaders:
            reg.extend(sid, g)
        sid += 1
    return tuple(sorted(reg.sets, key=lambda s: (len(s), sorted(s))))


@_memo
def mobius(G: GroupTable):
    """The Moebius function mu(H, G) of the subgroup lattice, as a dict
    from every subgroup H (a frozenset) to an integer.

    Top-down recursion: mu(G, G) = 1 and mu(H, G) = -sum of mu(K, G)
    over the subgroups K with H < K <= G (P. Hall, "The Eulerian
    functions of a group", 1936).
    """
    mu = {}
    above = []  # (K, mu(K, G)) with mu(K, G) != 0, larger K first
    for H in reversed(all_subgroups(G)):
        m = 1 if len(H) == G.order else -sum(v for K, v in above if H < K)
        mu[H] = m
        if m:
            above.append((H, m))
    return mu


@_memo
def _subgroup_tables(G: GroupTable):
    """The re-indexed subgroup tables of G built so far, by ``mult``."""
    return {}


def subgroup_table(G: GroupTable, elements):
    """Re-index a subgroup as its own GroupTable.

    Returns (H, embed) with embed[i] the G-index of H's element i, the
    identity first and the rest in index order.  G itself maps to
    itself.  A proper subgroup's H is interned on G by its
    multiplication table: subgroups that re-index to one table share
    one H, built and validated once, so H carries default labels, a
    spec naming G and its order, and no reference to G; ``embed`` is
    its only link to G.
    """
    elems = frozenset(elements)
    if 0 not in elems:
        raise DomainError("subgroup must contain the identity")
    if elems == frozenset(range(G.order)):
        return G, tuple(range(G.order))
    embed = (0, *sorted(elems - {0}))
    pos = {g: i for i, g in enumerate(embed)}
    try:
        mult = tuple(
            tuple(pos[p] for p in map(G.mult[a].__getitem__, embed)) for a in embed
        )
    except KeyError:
        raise DomainError("element set is not closed under products") from None
    tables = _subgroup_tables(G)
    H = tables.get(mult)
    if H is None:
        H = tables[mult] = GroupTable(
            mult, spec=f"{G.spec}|subgroup of order {len(embed)}"
        )
    return H, embed


# -- automorphisms -----------------------------------------------------


def automorphism_stabilizer(G: GroupTable, fixed=()):
    """Strong generators of the automorphisms of G that fix every element
    of ``fixed``, as element-permutation tuples; empty when only the
    identity does.

    Sims's search (C. C. Sims, 1970; Holt, Eick and O'Brien, *Handbook
    of Computational Group Theory*, 2005, ch. 4) on the base gens: the
    elements of ``fixed`` that enlarge the subgroup K the ones before
    them generate, then the greedy completion, each the least element
    outside the subgroup the ones before it generate.  S_i, the
    automorphisms fixing gens[:i], fix K pointwise from i = m, the
    number of fixed generators.  From i = len(gens) - 1 down to m, each
    image c of gens[i] not yet in its orbit under the maps found so far
    is searched exhaustively for one map of S_i that sends gens[i] to c,
    so the orbit comes out whole and the maps found at levels >= i
    generate S_i.  ``_extend_map`` checks only the leaves the searches
    walk, and no product of the maps is formed.  Images are pruned by
    element order and generated-subgroup size.
    """
    n = G.order
    reg = subgroup_registry(G)
    gens, gen_sids = [], [0]  # gen_sids[i]: the id of <gens[:i]>

    def add(elements):
        for g in elements:
            if g not in reg.sets[gen_sids[-1]]:
                gens.append(g)
                gen_sids.append(reg.extend(gen_sids[-1], g))

    add(fixed)
    m = len(gens)
    add(range(n))
    parent, bfs_order = _word_tree(G.mult, gens)
    columns = tuple(zip(*G.mult))
    gen_columns = _column_getters(columns, gens)
    order = G.element_order
    by_order = {}
    for g in range(n):
        by_order.setdefault(order[g], []).append(g)

    def candidates(k, sid):
        """(c, id of <images, c>) for the images c of gens[k] after
        images generating subgroup ``sid``."""
        size = len(reg.sets[gen_sids[k + 1]])
        for c in by_order[order[gens[k]]]:
            nsid = reg.extend(sid, c)
            if len(reg.sets[nsid]) == size:
                yield c, nsid

    def search(images, sid):
        """One automorphism sending gens[j] to images[j] for every j
        < len(images) (which generate subgroup ``sid``), or None."""
        k = len(images)
        if k == len(gens):
            phi = _extend_map(gen_columns, parent, bfs_order, images, columns)
            return phi if phi is not None and len(set(phi)) == n else None
        for c, nsid in candidates(k, sid):
            phi = search(images + [c], nsid)
            if phi is not None:
                return phi
        return None

    found = []  # those found at levels >= i generate S_i
    for i in reversed(range(m, len(gens))):
        orbit = {gens[i]}
        for c, sid in candidates(i, gen_sids[i]):
            if c in orbit:
                continue
            phi = search(gens[:i] + [c], sid)
            if phi is None:
                continue
            found.append(phi)
            orbit = _orbit(gens[i], found)
    return tuple(found)


def _orbit(x, perms):
    """The orbit of x under the group the element permutations ``perms``
    generate, as a set."""
    orbit = {x}
    points = [x]
    for y in points:
        for p in perms:
            z = p[y]
            if z not in orbit:
                orbit.add(z)
                points.append(z)
    return orbit


def _column_getters(columns, gens):
    """Per element g of ``gens``, a gather that reads a sequence indexed
    by the elements at the column x -> x*g, from the table's
    ``columns`` (``zip(*mult)``)."""
    return [itemgetter(*columns[g]) for g in gens]


def _extend_map(gen_columns, parent, bfs_order, images, target_columns):
    """The map that sends gens[i] to images[i], extended along the word
    tree (parent, bfs_order) of gens, as a tuple; None unless it is
    a homomorphism (``_is_multiplicative``).  ``gen_columns`` are the
    ``_column_getters`` of gens in the source table, and
    ``target_columns[c]`` is the column y -> y*c of the target's Cayley
    table."""
    phi = [0] * len(bfs_order)
    for x in bfs_order[1:]:
        px, gi = parent[x]
        phi[x] = target_columns[images[gi]][phi[px]]
    if _is_multiplicative(gen_columns, phi, images, target_columns):
        return tuple(phi)
    return None


def _is_multiplicative(gen_columns, phi, images, target_columns):
    """Whether phi(x*g) = phi(x)*phi(g) for every element x and every
    generator g, phi(g) being its entry of ``images``; the g for which
    that holds for every x are closed under products, so phi is then a
    homomorphism.  Per g it is two gathers: phi read at the column
    x -> x*g (``gen_columns``, see ``_column_getters``) against the
    target's column y -> y*phi(g) (``target_columns``) read at phi."""
    at_phi = itemgetter(*phi)
    for column, im in zip(gen_columns, images):
        if column(phi) != at_phi(target_columns[im]):
            return False
    return True


# -- built-in families and the spec mini-language ----------------------


def _abelian_table(factors):
    factors = tuple(int(d) for d in factors if int(d) > 1)
    if not factors:
        return GroupTable([[0]], labels=("1",), spec="ab:1", aux={"factors": ()})
    coords = list(itertools.product(*[range(d) for d in factors]))
    n = len(coords)
    rows = []  # x + the unit vector of factor d, at mixed-radix stride
    stride = n
    for d in factors:
        stride //= d
        rows.append(
            [
                x - (d - 1) * stride if x // stride % d == d - 1 else x + stride
                for x in range(n)
            ]
        )
    mult = _table_from_rows(n, rows)
    labels = tuple(str(c) for c in coords)
    spec = "ab:" + ",".join(str(d) for d in factors)
    return GroupTable(
        mult, labels=labels, spec=spec, aux={"factors": factors, "coords": coords}
    )


def abelian_element(G: GroupTable, coords):
    """Index of a coordinate tuple in a group built via ``ab:``."""
    factors = G.aux.get("factors")
    if factors is None:
        raise DomainError("group was not built from abelian invariant factors")
    if len(coords) != len(factors):
        raise DomainError(f"{len(coords)} coordinates for {len(factors)} factors")
    coords = tuple(c % d for c, d in zip(coords, factors))
    return G.aux["coords"].index(coords) if factors else 0


def _metacyclic_table(k, t, a, b, spec):
    """The group of order 2k of the a^i b^j (0 <= i < k, j in {0, 1})
    with b a b^-1 = a^-1 and b^2 = a^t; a^i b^j sits at index i + k*j."""
    elems = [(i, j) for j in range(2) for i in range(k)]
    # a a^i b^j = a^(i+1) b^j; b a^i = a^-i b and b a^i b = a^(t-i)
    row_a = [(i + 1) % k + k * j for i, j in elems]
    row_b = [(t - i) % k if j else -i % k + k for i, j in elems]
    mult = _table_from_rows(2 * k, [row_a, row_b])
    labels = [f"{a}^{i}{b}" if j else f"{a}^{i}" for i, j in elems]
    return GroupTable(mult, labels=labels, spec=spec)


def _dihedral_table(n):
    if n < 2:
        raise GroupSpecError("dih:n requires n >= 2")
    return _metacyclic_table(n, 0, "r", "s", f"dih:{n}")


def _quaternion_table(m):
    # dicyclic group of order m: j i j^-1 = i^-1, j^2 = i^(m/4)
    if m % 4 != 0 or m < 8:
        raise GroupSpecError("quat:m requires m divisible by 4, m >= 8")
    return _metacyclic_table(m // 2, m // 4, "i", "j", f"quat:{m}")


def _perm_group_table(perms, npoints, spec, order_cap):
    ident = tuple(range(npoints))
    elems = {ident}
    frontier = [ident]
    gens = [tuple(p) for p in perms]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple(map(x.__getitem__, g))
            if y not in elems:
                if len(elems) >= order_cap:
                    raise SizeError(
                        f"permutation closure exceeds order cap {order_cap}"
                    )
                elems.add(y)
                frontier.append(y)
    ordered = sorted(elems)
    assert ordered[0] == ident
    pos = {p: i for i, p in enumerate(ordered)}
    rows = [[pos[tuple(map(g.__getitem__, y))] for y in ordered] for g in gens]
    mult = _table_from_rows(len(ordered), rows)
    labels = tuple(_cycle_label(p) for p in ordered)
    return GroupTable(mult, labels=labels, spec=spec)


def _cycle_label(p):
    n = len(p)
    seen = [False] * n
    parts = []
    for i in range(n):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j + 1)
            j = p[j]
        parts.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(parts) if parts else "()"


def _cycle_perm(npoints, cycles):
    """The permutation of 0..npoints-1 that sends each point of the
    disjoint ``cycles`` to the next point of its cycle."""
    p = list(range(npoints))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            p[a] = b
    return tuple(p)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def _parse_perm_gens(body):
    gens_txt = [t for t in body.split(";") if t.strip()]
    if not gens_txt:
        raise GroupSpecError("perm: needs at least one generator")
    raw = []
    npoints = 0
    for txt in gens_txt:
        cycles = []
        seen = set()
        rest = txt.strip()
        matched = _CYCLE_RE.findall(rest)
        if not matched and rest:
            raise GroupSpecError(f"cannot parse permutation {txt!r}")
        for cyc in matched:
            pts = [int(t) for t in re.split(r"[,\s]+", cyc.strip()) if t]
            if any(p < 1 for p in pts):
                raise GroupSpecError("cycle notation uses 1-based points")
            if len(set(pts)) != len(pts) or seen.intersection(pts):
                raise GroupSpecError(f"repeated point in permutation {txt!r}")
            seen.update(pts)
            cycles.append([p - 1 for p in pts])
            npoints = max(npoints, max(pts, default=0))
        raw.append(cycles)
    npoints = max(npoints, 1)
    return [_cycle_perm(npoints, cycles) for cycles in raw], npoints


def _load_cayley(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise GroupSpecError(f"cannot read cayley table file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise GroupSpecError(f"invalid JSON in cayley table file: {exc}") from exc
    if not isinstance(data, dict) or "table" not in data:
        raise GroupSpecError('cayley file must be {"order": N, "table": [[...]]}')
    table = data["table"]
    if not (
        isinstance(table, list)
        and table
        and all(isinstance(row, list) for row in table)
        and all(isinstance(x, int) for row in table for x in row)
    ):
        raise GroupSpecError(
            "cayley table must be a non-empty list of rows of integers"
        )
    if "order" in data and len(table) != data["order"]:
        raise GroupSpecError("cayley file order does not match table size")
    _check_latin(table)
    # relabel so the identity lands at index 0
    ident = _find_identity(table)
    if ident != 0:
        n = len(table)
        perm = list(range(n))
        perm[0], perm[ident] = ident, 0
        # perm swaps two points, so it is its own inverse
        table = [[perm[table[perm[i]][perm[j]]] for j in range(n)] for i in range(n)]
    return table


def build_group(spec: str, order_cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """Build a validated group from the spec mini-language.

    ``ab:d1,d2,...`` | ``dih:n`` | ``quat:8`` | ``sym:n`` | ``alt:n`` |
    ``perm:(a b c)(d e);...`` | ``cayley:<path>``
    """
    spec = spec.strip()
    if ":" not in spec:
        raise GroupSpecError(f"malformed group spec {spec!r}")
    kind, _, body = spec.partition(":")
    kind = kind.strip().lower()
    if kind == "perm":
        # the order is known only once the closure is built
        perms, npoints = _parse_perm_gens(body)
        return _perm_group_table(perms, npoints, spec, order_cap)
    if kind == "ab":
        try:
            factors = [int(t) for t in body.split(",") if t.strip()]
        except ValueError as exc:
            raise GroupSpecError(f"bad abelian factors in {spec!r}") from exc
        if not factors or any(d < 1 for d in factors):
            raise GroupSpecError(f"bad abelian factors in {spec!r}")
        order = prod(factors)
        make = partial(_abelian_table, factors)
    elif kind == "cayley":
        table = _load_cayley(body.strip())
        order = len(table)
        make = partial(GroupTable, table, spec=spec)
    elif kind in ("dih", "quat", "sym", "alt"):
        try:
            n = int(body)
        except ValueError as exc:
            raise GroupSpecError(f"bad parameter in {spec!r}") from exc
        if kind == "dih":
            order = 2 * n
            make = partial(_dihedral_table, n)
        elif kind == "quat":
            order = n
            make = partial(_quaternion_table, n)
        else:
            # sym:n from the transpositions (1 k), alt:n from the
            # 3-cycles (1 2 k)
            if kind == "sym" and not 1 <= n <= 5:
                raise GroupSpecError("sym:n supports 1 <= n <= 5")
            if kind == "alt" and not 3 <= n <= 5:
                raise GroupSpecError("alt:n supports 3 <= n <= 5")
            order = factorial(n) // (2 if kind == "alt" else 1)
            moved = (0,) if kind == "sym" else (0, 1)
            gens = [_cycle_perm(n, [moved + (k,)]) for k in range(len(moved), n)]
            make = partial(_perm_group_table, gens, n, f"{kind}:{n}", order_cap)
    else:
        raise GroupSpecError(f"unknown group family {kind!r} in {spec!r}")
    if order > order_cap:
        raise SizeError(f"group order {order} exceeds cap {order_cap}")
    return make()


def _is_prime(m):
    return m >= 2 and all(m % q for q in range(2, isqrt(m) + 1))


def _invariant_chains(order):
    """All divisibility chains d_1 | ... | d_t, d_i >= 2, product = order."""
    if order == 1:
        return [()]
    out = []

    def rec(remaining, max_last, chain):
        # chain is built from the largest factor down
        for d in range(2, max_last + 1):
            if remaining % d == 0 and (not chain or chain[-1] % d == 0):
                if remaining == d:
                    out.append(tuple(reversed(chain + [d])))
                else:
                    rec(remaining // d, d, chain + [d])

    rec(order, order, [])
    return out


def builtin_groups_upto(max_order):
    """Spec strings of every built-in group of order <= max_order."""
    specs = []
    for n in range(2, max_order + 1):
        for chain in _invariant_chains(n):
            specs.append("ab:" + ",".join(map(str, chain)))
    for n in range(3, max_order // 2 + 1):
        specs.append(f"dih:{n}")
    if max_order >= 8:
        specs.append("quat:8")
    for n in range(3, 6):
        if factorial(n) <= max_order:
            specs.append(f"sym:{n}")
    for n in range(4, 6):
        if factorial(n) // 2 <= max_order:
            specs.append(f"alt:{n}")
    return specs
