import itertools
import json
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoprod import groups
from isoprod.characters import (
    CharacterTable,
    _abelian_characters,
    _dixon_characters,
)
from isoprod.errors import DomainError, GroupSpecError, SizeError, TableError
from isoprod.groups import (
    GroupTable,
    abelian_element,
    all_subgroups,
    automorphism_stabilizer,
    build_group,
    builtin_groups_upto,
    center,
    conjugacy_classes,
    cyclic_subgroup,
    mobius,
    subgroup_table,
)

from oracles import (
    abelian_invariants,
    automorphisms,
    automorphisms_brute,
    automorphisms_by_leaves,
    closure,
    commutator_subgroup,
    invariant_signature,
    lattice_by_every_element,
    mobius_by_definition,
    registry_by_saturation,
    saturate_closure,
    table_by_entries,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def test_cyclic_group_basics():
    G = build_group("ab:6")
    assert G.order == 6
    assert G.identity == 0
    assert G.exponent == 6
    assert G.is_abelian()
    assert sorted(G.element_order) == [1, 2, 3, 3, 6, 6]


def test_symmetric_group():
    G = build_group("sym:3")
    assert G.order == 6
    assert not G.is_abelian()
    assert sorted(len(c.members) for c in conjugacy_classes(G)) == [1, 2, 3]
    assert center(G) == frozenset([0])
    assert len(commutator_subgroup(G)) == 3


def test_dihedral_vs_perm():
    """dih:4 should match its permutation-group presentation up to the
    isomorphism-invariant signature."""
    D = build_group("dih:4")
    P = build_group("perm:(1 2 3 4);(1 3)")
    assert invariant_signature(D) == invariant_signature(P)


def test_quat8_structure():
    Q = build_group("quat:8")
    assert Q.order == 8
    assert sorted(Q.element_order) == [1, 2, 4, 4, 4, 4, 4, 4]
    assert len(center(Q)) == 2
    # every subgroup of Q8 is normal; here just count them: 1,1,3,1 of
    # orders 1,2,4,8 respectively
    sizes = sorted(len(s) for s in all_subgroups(Q))
    assert sizes == [1, 2, 4, 4, 4, 8]


def test_alt4():
    G = build_group("alt:4")
    assert G.order == 12
    assert [len(c.members) for c in conjugacy_classes(G)] == [1, 3, 4, 4]


def test_identity_moves_to_index_zero():
    """A table whose identity sits at index i != 0 is relabelled by
    swapping elements 0 and i, labels included."""
    G = GroupTable([[1, 0], [0, 1]], labels=("a", "e"))
    assert G.mult == ((0, 1), (1, 0))
    assert G.labels == ("e", "a")
    H = GroupTable([[1, 2, 0], [2, 0, 1], [0, 1, 2]])
    assert H.mult == ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    assert H.labels == ("g0", "g1", "g2")


def test_labels_must_name_every_element():
    """A label list of the wrong length is refused, also when the
    identity swap would have indexed it."""
    with pytest.raises(TableError, match="1 labels for 2 elements"):
        GroupTable([[0, 1], [1, 0]], labels=("a",))
    with pytest.raises(TableError, match="1 labels for 2 elements"):
        GroupTable([[1, 0], [0, 1]], labels=("a",))


def test_non_latin_rejected():
    from isoprod.groups import GroupTable

    with pytest.raises(TableError, match="row 1 is not a permutation"):
        GroupTable([[0, 1], [1, 1]])
    with pytest.raises(TableError, match="column 0 is not a permutation"):
        GroupTable([[0, 1], [0, 1]])
    with pytest.raises(TableError, match="empty"):
        GroupTable([])


def test_non_associative_rejected():
    from isoprod.groups import GroupTable

    # a quasigroup of order 5 that is not associative
    t = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(TableError):
        GroupTable(t)


def test_non_associative_loop_above_256_rejected():
    """Z_258 with one intercalate swapped is still a Latin square with
    identity 0, but (1*1)*2 = 133 while 1*(1*2) = 4."""
    n = 258
    t = [[(a + b) % n for b in range(n)] for a in range(n)]
    for a, b in [(1, 1), (1, 130), (130, 1), (130, 130)]:
        t[a][b] = (t[a][b] + n // 2) % n
    with pytest.raises(TableError):
        GroupTable(t)


def test_closure_matches_saturation_oracle():
    for spec in ["sym:4", "dih:8", "quat:8", "ab:2,4"]:
        G = build_group(spec)
        for a in range(G.order):
            for b in range(a, G.order):
                assert closure(G, {a, b}) == saturate_closure(G, {a, b}), (
                    spec, a, b,
                )


def test_order_cap():
    with pytest.raises(SizeError):
        build_group("ab:200", order_cap=128)


def test_bad_specs():
    """Specs that do not parse are refused, among them permutations with
    text outside complete cycles and non-integer points."""
    for spec in [
        "", "foo", "xyz:3", "ab:", "ab:0", "dih:x", "sym:9", "alt:2",
        "perm:(1 2)(1 2)", "perm:(1 2)(2 3)",
        "perm:(1 2)(3 4", "perm:(1 2)x", "perm:(1 2);junk(1 3)", "perm:(1 a)",
    ]:
        with pytest.raises(GroupSpecError):
            build_group(spec)


def test_cayley_roundtrip(tmp_path):
    G = build_group("sym:3")
    path = tmp_path / "s3.json"
    path.write_text(
        json.dumps({"order": 6, "table": [list(r) for r in G.mult]})
    )
    H = build_group(f"cayley:{path}")
    assert H.mult == G.mult


def test_cayley_identity_relabel(tmp_path):
    G = build_group("ab:3")
    n = G.order
    perm = [1, 0, 2]  # move the identity to index 1
    table = [
        [perm.index(G.mult[perm[i]][perm[j]]) for j in range(n)]
        for i in range(n)
    ]
    path = tmp_path / "c3.json"
    path.write_text(json.dumps({"table": table}))
    H = build_group(f"cayley:{path}")
    assert H.identity == 0
    assert invariant_signature(H) == invariant_signature(G)


def test_generator_images_that_do_not_extend(tmp_path):
    """Z_4 x Z_2 listed as (0,0), (1,0), (1,1), ...: both greedy
    generators have order 4, so of the 16 candidate character images
    the 8 that break 2*(1,0) = 2*(1,1) must be rejected."""
    coords = [(0, 0), (1, 0), (1, 1), (0, 1), (2, 0), (2, 1), (3, 0), (3, 1)]
    pos = {c: i for i, c in enumerate(coords)}
    table = [
        [pos[(a + c) % 4, (b + d) % 2] for c, d in coords] for a, b in coords
    ]
    path = tmp_path / "z4z2.json"
    path.write_text(json.dumps({"table": table}))
    G = build_group(f"cayley:{path}")
    ta = CharacterTable(G, _abelian_characters(G))
    td = CharacterTable(G, _dixon_characters(G))
    assert ta.characters == td.characters
    assert abelian_invariants(G) == (2, 4)
    assert len(automorphisms(G)) == 8


def test_cayley_table_is_checked_once(monkeypatch):
    """A cayley: table goes through the Latin check and the identity
    search once, in GroupTable; the loader only reads the file."""
    calls = []
    for name in ("_check_latin", "_find_identity"):

        def counted(mult, fn=getattr(groups, name), name=name):
            calls.append(name)
            return fn(mult)

        monkeypatch.setattr(groups, name, counted)
    G = build_group(f"cayley:{FIXTURES / 's3_identity_at_3.json'}")
    assert G.order == 6 and G.mult[0] == tuple(range(6))
    assert sorted(calls) == ["_check_latin", "_find_identity"]


def test_perm_points_are_the_ones_named():
    """A perm: spec acts on the points it names, relabelled in order, so
    a large point name costs nothing."""
    import tracemalloc

    tracemalloc.start()
    try:
        G = build_group("perm:(1 1000000)")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.labels == ("()", "(1 1000000)")
    assert G.mult == ((0, 1), (1, 0))
    assert peak < 1_000_000
    # the points 2, 5, 7, 9 act as 1, 2, 3, 4 do
    H = build_group("perm:(2 5)(7 9);(5 7)")
    assert H.mult == build_group("perm:(1 2)(3 4);(2 3)").mult
    assert H.labels == (
        "()", "(5 7)", "(2 5)(7 9)", "(2 5 9 7)",
        "(2 7 9 5)", "(2 7)(5 9)", "(2 9)", "(2 9)(5 7)",
    )


def test_cayley_missing_file():
    with pytest.raises(GroupSpecError):
        build_group("cayley:/nonexistent/file.json")


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=2, max_value=6), min_size=1, max_size=3))
def test_abelian_invariants_roundtrip(factors):
    order = 1
    for d in factors:
        order *= d
    if order > 64:
        return
    G = build_group("ab:" + ",".join(map(str, factors)))
    inv = abelian_invariants(G)
    # invariant factors form a divisibility chain with the right product
    prod = 1
    for a, b in zip(inv, inv[1:]):
        assert b % a == 0
    for d in inv:
        prod *= d
    assert prod == order
    # and the exponent is the last factor
    assert G.exponent == inv[-1]


def test_abelian_invariants_canonicalize():
    # Z2 x Z6 and Z2 x Z2 x Z3 are the same group
    G = build_group("ab:2,6")
    a = abelian_invariants(G)
    b = abelian_invariants(build_group("ab:2,2,3"))
    assert a == b == (2, 6)
    assert abelian_invariants(build_group("ab:3,4")) == (12,)
    # computed once per table
    assert abelian_invariants(G) is a


def test_abelian_element():
    G = build_group("ab:2,4")
    g = abelian_element(G, (1, 2))
    assert G.element_order[g] == 2
    assert G.mult[abelian_element(G, (1, 0))][abelian_element(G, (0, 2))] == g
    assert abelian_element(build_group("ab:1"), ()) == 0
    # the index of the label's coordinates, the last coordinate fastest
    G = build_group("ab:2,3,4")
    for coords in itertools.product(range(2), range(3), range(4)):
        assert G.labels[abelian_element(G, coords)] == str(coords)
    assert abelian_element(G, (-1, 4, 6)) == abelian_element(G, (1, 1, 2))
    # one coordinate per invariant factor, no more and no fewer
    V = build_group("ab:2,2")
    for coords in [(1, 0, 1), (1,)]:
        with pytest.raises(DomainError, match="coordinates for"):
            abelian_element(V, coords)
    with pytest.raises(DomainError, match="abelian invariant factors"):
        abelian_element(build_group("sym:3"), (1,))


def test_conjugacy_class_order():
    """Classes come sorted by (size, representative); identity first."""
    for spec in ["sym:4", "dih:6", "quat:8"]:
        G = build_group(spec)
        cls = conjugacy_classes(G)
        assert cls[0].members == (0,)
        keys = [(len(c.members), c.representative) for c in cls]
        assert keys == sorted(keys)


def test_cyclic_subgroup():
    G = build_group("ab:8")
    g = next(x for x in range(8) if G.element_order[x] == 8)
    assert cyclic_subgroup(G, g) == frozenset(range(8))
    h = G.mult[g][g]
    assert len(cyclic_subgroup(G, h)) == 4


def test_subgroup_table_reindex():
    G = build_group("sym:4")
    H3 = next(s for s in all_subgroups(G) if len(s) == 3)
    H, embed = subgroup_table(G, H3)
    assert H.order == 3
    assert embed[0] == 0
    for i in range(3):
        for j in range(3):
            assert embed[H.mult[i][j]] == G.mult[embed[i]][embed[j]]
    # a set without the identity, and one not closed under products
    s, t = [g for g in range(G.order) if G.element_order[g] == 2][:2]
    with pytest.raises(DomainError, match="identity"):
        subgroup_table(G, {s})
    with pytest.raises(DomainError, match="not closed"):
        subgroup_table(G, {0, s, t})


def test_automorphism_counts():
    """|Aut(G)| for small groups, the abelian ones against Hillar and
    Rhea's closed form, D_n (n >= 3) against n * phi(n) and S_4, which
    is complete, against its order; every map is a bijection fixing the
    identity that respects products."""
    expected = {
        "ab:1": 1,
        "ab:2": 1,
        "ab:3": 2,
        "ab:2,2": 6,
        "ab:4": 2,
        "ab:2,2,2": 168,
        "ab:3,3": 48,
        "ab:4,4": 96,
        "ab:2,2,4": 192,
        "ab:2,4,4": 1536,
        "ab:2,2,2,2": 20160,
        "ab:3,3,3": 11232,
        "ab:2,2,2,4": 21504,
        "sym:3": 6,
        "quat:8": 24,
        "dih:4": 8,
        "dih:5": 20,
        "dih:8": 32,
        "dih:16": 128,
        "sym:4": 24,
    }
    for spec, count in expected.items():
        G = build_group(spec)
        auts = automorphisms(G)
        assert len(auts) == len(set(auts)) == count, spec
        rows = [itemgetter(*row) for row in G.mult]
        for phi in auts:
            assert phi[0] == 0
            assert sorted(phi) == list(range(G.order))
            # phi(x * y) == phi(x) * phi(y): row x of the table mapped by
            # phi is row phi(x) read at the columns phi(y)
            image = itemgetter(*phi)
            assert [row(phi) for row in rows] == [image(G.mult[p]) for p in phi]


@pytest.mark.parametrize("spec", builtin_groups_upto(16) + ["sym:4", "quat:12"])
def test_automorphisms_match_oracles(spec):
    """The orbit search lists the same set as checking every leaf, and,
    for |G| <= 8, as a brute force over all bijections."""
    G = build_group(spec)
    auts = set(automorphisms(G))
    assert auts == set(automorphisms_by_leaves(G))
    if G.order <= 8:
        assert auts == set(automorphisms_brute(G))


def _generated(G, maps):
    """The group of permutations of G's elements that ``maps`` generate."""
    identity = tuple(range(G.order))
    out = {identity}
    frontier = [identity]
    for p in frontier:
        for s in maps:
            q = tuple(map(s.__getitem__, p))
            if q not in out:
                out.add(q)
                frontier.append(q)
    return out


def test_automorphisms_check_only_found_maps(monkeypatch):
    """Z_2^4 has 20,160 automorphisms, and checking every generator-image
    leaf calls ``_extend_map`` that often; the orbit search checks only
    the leaves it walks to reach an orbit point it has not reached yet,
    and its strong generators generate all of Aut(G)."""
    calls = []
    extend = groups._extend_map

    def counted(*args):
        calls.append(1)
        return extend(*args)

    monkeypatch.setattr(groups, "_extend_map", counted)
    G = build_group("ab:2,2,2,2")
    strong = automorphism_stabilizer(G)
    assert len(calls) <= 64
    assert _generated(G, strong) == set(automorphisms(G))


@pytest.mark.parametrize("spec", ["ab:2,2,2", "ab:2,4", "ab:3,3", "dih:4",
                                  "dih:6", "quat:8", "sym:4", "quat:12"])
def test_automorphism_stabilizer_matches_oracle(spec):
    """The automorphisms fixing a tuple pointwise are generated by the
    strong generators ``automorphism_stabilizer`` returns, for the empty
    tuple, every single element and every pair of the first ones; the
    tuple is empty exactly when only the identity fixes the elements.
    Each map is found only for an image outside the orbit of the ones
    before it, so it enlarges the group they generate, and there are at
    most as many maps as prime factors of that group's order."""
    G = build_group(spec)
    auts = automorphisms(G)
    fixed = [()] + [(x,) for x in range(G.order)]
    fixed += [(x, y) for x in range(1, 5) for y in range(G.order)]
    for f in fixed:
        want = {phi for phi in auts if all(phi[x] == x for x in f)}
        strong = automorphism_stabilizer(G, f)
        assert _generated(G, strong) == want, (spec, f)
        assert (not strong) == (len(want) == 1), (spec, f)
        assert len(strong) <= _prime_factor_count(len(want)), (spec, f)


def _prime_factor_count(n):
    """The prime factors of n, counted with multiplicity."""
    count, p = 0, 2
    while n > 1:
        while n % p == 0:
            n //= p
            count += 1
        p += 1
    return count


def test_registry_matches_saturation_oracle():
    """The registry closes a subgroup's stored generators and one more
    element, not every element of the subgroup; the subgroups it interns,
    in id order, and ``all_subgroups`` are those of closing by
    saturation, for every built-in group of order <= 32."""
    for spec in builtin_groups_upto(32):
        G = build_group(spec)
        subs = all_subgroups(G)
        reg = groups.subgroup_registry(G)
        want = registry_by_saturation(G)
        assert reg.sets == want, spec
        assert subs == tuple(sorted(want, key=lambda s: (len(s), sorted(s))))
        for sid, gens in enumerate(reg.gens):
            assert saturate_closure(G, gens) == reg.sets[sid], (spec, sid)


REGISTRY_SPECS = builtin_groups_upto(32) + [
    "sym:5",
    "perm:(1 2 3 4);(1 2);(5 6)",
    "perm:(1 2 3 4);(1 3);(5 6 7)",
]


def test_registry_extensions_match_closure_oracle():
    """Every (sid, g) -> id that the registry memoizes, by coset
    closure, is the subgroup the word-tree oracle generates from
    gens[sid] and g, and every gens[sid] generates its subgroup.  The
    extensions are those of the lattice (``all_subgroups``), of the
    vector counts (``_count_vectors``) and of one deduplicated listing:
    every built-in of order <= 32, sym:5 and two permutation groups."""
    from isoprod.covers import _count_vectors, enumerate_vectors

    for spec in REGISTRY_SPECS:
        G = build_group(spec)
        reg = groups.subgroup_registry(G)
        all_subgroups(G)
        _count_vectors(G, 1, 2, range(1, G.order))
        if G.order <= 32:
            for _ in enumerate_vectors(G, 0, 3, genus_cap=9).rows():
                pass
        for sid, gens in enumerate(reg.gens):
            assert closure(G, gens) == reg.sets[sid], (spec, sid)
        for (sid, g), out in reg.ext.items():
            assert reg.sets[out] == closure(G, reg.gens[sid] + (g,)), (
                spec, sid, g,
            )


@pytest.mark.parametrize("spec", ["dih:8", "alt:4", "ab:2,4"])
def test_all_subgroups_extends_by_least_cyclic_generators(monkeypatch, spec):
    """``all_subgroups`` extends each subgroup only by the least generator
    of each cyclic subgroup, and by each such element once."""
    G = build_group(spec)
    leaders = {min(g for g in range(1, G.order) if cyclic_subgroup(G, g) == C)
               for C in {cyclic_subgroup(G, g) for g in range(1, G.order)}}
    calls = []
    extend = groups.SubgroupRegistry.extend

    def counted(self, sid, g):
        calls.append((sid, g))
        return extend(self, sid, g)

    monkeypatch.setattr(groups.SubgroupRegistry, "extend", counted)
    subs = all_subgroups(G)
    assert {g for _, g in calls} == leaders, spec
    assert len(calls) == len(set(calls)) == len(subs) * len(leaders), spec


def test_mobius_matches_every_element_lattice():
    """The lattice from the least cyclic generators has the subgroups
    and the Moebius function of extending every subgroup by every
    element, for every built-in group of order <= 32."""
    for spec in builtin_groups_upto(32):
        G = build_group(spec)
        lattice = lattice_by_every_element(G)
        assert list(all_subgroups(G)) == lattice, spec
        assert mobius(G) == mobius_by_definition(G, lattice), spec


@pytest.mark.parametrize(
    "spec, mu",
    [
        ("ab:2", -1),
        ("ab:2,2", 2),
        ("ab:2,2,2", -8),
        ("ab:2,2,2,2", 64),
        ("sym:3", 3),
        ("alt:4", 4),
        ("sym:4", -12),
        ("dih:5", 5),
        ("quat:8", 0),
        ("dih:4", 0),
        ("ab:4", 0),
    ],
)
def test_mobius_of_trivial_subgroup(spec, mu):
    """mu(1, G): (-1)^k p^(k(k-1)/2) on Z_p^k, 0 unless the Frattini
    subgroup is trivial, and the known values on S_3, A_4, S_4, D_5."""
    assert mobius(build_group(spec))[frozenset([0])] == mu


def test_mobius_defining_identity():
    """sum of mu(K, G) over H <= K <= G is 1 for H = G and 0 otherwise,
    for every subgroup of every built-in group of order <= 16."""
    for spec in builtin_groups_upto(16):
        G = build_group(spec)
        mu = mobius(G)
        subs = all_subgroups(G)
        assert set(mu) == set(subs), spec
        for H in subs:
            total = sum(mu[K] for K in subs if H <= K)
            assert total == (1 if len(H) == G.order else 0), (spec, sorted(H))


def test_builtin_groups_upto():
    specs = builtin_groups_upto(16)
    assert "ab:2,8" in specs and "dih:8" in specs and "quat:8" in specs
    seen = set()
    for spec in specs:
        G = build_group(spec)
        assert G.order <= 16
        key = (spec.split(":")[0], invariant_signature(G))
        assert key not in seen  # no duplicates within a family
        seen.add(key)


@pytest.mark.parametrize(
    "spec, mult, labels",
    [
        ("sym:1", ((0,),), ("()",)),
        ("ab:1", ((0,),), ("1",)),
        ("ab:1,1", ((0,),), ("1",)),
        ("perm:(1)", ((0,),), ("()",)),
        ("sym:2", ((0, 1), (1, 0)), ("()", "(1 2)")),
        (
            "dih:2",
            ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)),
            ("r^0", "r^1", "r^0s", "r^1s"),
        ),
    ],
)
def test_trivial_and_smallest_tables(spec, mult, labels):
    """The row builder at order 1 (no generators, or only the identity)
    and order 2 and 4."""
    G = build_group(spec)
    assert (G.mult, G.labels) == (mult, labels)


def test_tables_match_entry_by_entry_oracle():
    """Tables built from the generators' rows equal the ones computed
    one product at a time, element indices and labels included."""
    specs = builtin_groups_upto(64) + [
        "sym:5",
        "alt:5",
        "quat:16",
        "perm:(1 2 3 4);(1 2)",
        "perm:(1 2)(3 4);(1 3)(2 4);(5 6)",
    ]
    for spec in specs:
        G = build_group(spec)
        mult, labels = table_by_entries(spec)
        assert G.mult == tuple(map(tuple, mult)), spec
        assert G.labels == labels, spec


BUILT_IN_SPECS = (
    "ab:2,3", "dih:5", "quat:12", "sym:4", "alt:4", "perm:(1 2)(3 4);(1 3)",
)


def test_tables_from_rows_are_still_validated(monkeypatch):
    """Swapping two entries of one row keeps it a permutation but breaks
    two columns; every family's table goes through GroupTable's checks."""
    from_rows = groups._table_from_rows

    def swapped(n, rows):
        mult = [list(row) for row in from_rows(n, rows)]
        mult[1][0], mult[1][1] = mult[1][1], mult[1][0]
        return mult

    monkeypatch.setattr(groups, "_table_from_rows", swapped)
    for spec in BUILT_IN_SPECS:
        with pytest.raises(TableError, match="column"):
            build_group(spec)


def test_each_family_builds_its_table_from_rows_once(monkeypatch, tmp_path):
    from_rows = groups._table_from_rows
    calls = []

    def counted(n, rows):
        calls.append(n)
        return from_rows(n, rows)

    monkeypatch.setattr(groups, "_table_from_rows", counted)
    for spec in BUILT_IN_SPECS:
        calls.clear()
        G = build_group(spec)
        assert calls == [G.order], spec
    path = tmp_path / "z3.json"
    table = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    path.write_text(json.dumps({"order": 3, "table": table}))
    calls.clear()
    assert build_group(f"cayley:{path}").order == 3
    assert calls == []
