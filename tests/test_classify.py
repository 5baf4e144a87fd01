import pytest

from isoprod.characters import character_table
from isoprod.classify import (
    ALL_BASE_GENERA,
    SearchBounds,
    _aut0_mask,
    _bucket_key,
    _classify_group,
    _cover_buckets,
    _mask_to_set,
    _representative,
    check_conformance,
    classify_all,
    compute_aut0,
)
from isoprod.covers import (
    GeneratingVector,
    _branch_plan,
    _counted_multisets,
    _multiset_genus,
    _stabilizer_mask,
    enumerate_vectors,
    h1_multiplicities,
)
from isoprod.errors import ConsistencyError, DomainError
from isoprod.groups import (
    abelian_element,
    build_group,
    builtin_groups_upto,
    center,
    class_index,
    conjugacy_classes,
    subgroup_registry,
)
from isoprod.surfaces import build_surface, example46_construct

from oracles import (
    abelian_invariants,
    acts_trivially,
    aut0_complex,
    aut0_lefschetz,
    closure,
    cover_of_row,
    kernel_by_values,
    lefschetz_numbers,
    listed_buckets,
)


def _klein_surface():
    G = build_group("ab:2,2")
    a = abelian_element(G, (1, 0))
    b = abelian_element(G, (0, 1))
    vC = GeneratingVector(G, 1, (a,), (b,), (a, a))
    vD = GeneratingVector(G, 1, (a,), (b,), (b, b))
    return G, a, b, build_surface(vC, vD)


def test_acts_trivially():
    G, a, b, S = _klein_surface()
    sigma = G.mult[a][b]
    assert acts_trivially(S, sigma)
    assert not acts_trivially(S, a)
    assert not acts_trivially(S, b)
    assert acts_trivially(S, 0)


def _s3_surface():
    """A sym:3 surface and one of its (non-central) involutions."""
    G = build_group("sym:3")
    t = next(g for g in range(6) if G.element_order[g] == 2)
    c = next(g for g in range(6) if G.element_order[g] == 3)
    vC = GeneratingVector(G, 1, (c,), (c,), (t, t))
    vD = GeneratingVector(G, 1, (t,), (t,), (c, c, c))
    return t, build_surface(vC, vD)


def test_acts_trivially_requires_central():
    t, S = _s3_surface()
    with pytest.raises(DomainError):
        acts_trivially(S, t)


def test_compute_aut0_klein():
    G, a, b, S = _klein_surface()
    assert compute_aut0(S) == frozenset([0, G.mult[a][b]])


def test_compute_aut0_trivial_for_s3():
    _, S = _s3_surface()
    assert compute_aut0(S) == frozenset([0])


def rule_aut0(G, bC, uC, bD, uD):
    """Aut_0 of a free pair by the central-involution rule, as the sweep
    applies it: {1, uC uD} when both base genera are 1 and the uniform
    branch elements uC and uD (-1 for none) are central involutions,
    else {1}."""
    central = center(G)
    if bC == bD == 1 and all(
        u in central and G.element_order[u] == 2 for u in (uC, uD)
    ):
        return frozenset([0, G.mult[uC][uD]])
    return frozenset([0])


def uniform_element(G, M):
    """The element every gamma of every vector of the branch-class
    multiset M equals, when there is one (M is one singleton class
    repeated), else -1."""
    if M and M.count(M[0]) == len(M):
        members = conjugacy_classes(G)[M[0]].members
        if len(members) == 1:
            return members[0]
    return -1


def test_compute_aut0_matches_complex_oracle():
    """compute_aut0 and the central-involution rule agree with Aut_0 by
    the paper's definition in complex arithmetic: on every freely paired
    couple of bucket representatives of four groups at b = 1, r <= 3, on
    both example families and on a sym:3 surface."""
    surfaces = []
    for spec in ["ab:2,2", "ab:2,4", "dih:4", "quat:8"]:
        G = build_group(spec)
        buckets, _ = _cover_buckets(G, 1, 3, 33, 8)
        vectors = {}
        for key in buckets:
            ab, gammas = _representative(G, 1, key, 8)
            vectors[key] = GeneratingVector(G, 1, ab[:1], ab[1:], gammas)
        for keyC, vC in sorted(vectors.items()):
            for keyD, vD in sorted(vectors.items()):
                if keyC[2] & keyD[2] != 1:
                    continue
                S = build_surface(vC, vD)
                ruled = rule_aut0(G, 1, keyC[3], 1, keyD[3])
                assert compute_aut0(S) == ruled, (spec, keyC, keyD)
                surfaces.append(S)
    for family in ("z2m_z2mn", "z2_z2m_z2mn"):
        for m, n, k, l in [(1, 1, 1, 1), (1, 2, 2, 1)]:
            surfaces.append(example46_construct(family, m, n, k, l))
    surfaces.append(_s3_surface()[1])
    nontrivial = 0
    for S in surfaces:
        aut0 = compute_aut0(S)
        assert aut0 == aut0_complex(S), S.to_json()
        nontrivial += len(aut0) > 1
    assert nontrivial > 0


@pytest.mark.parametrize(
    "bC,bD,max_r,max_s", [(1, 1, 4, 4), (0, 2, 4, 2), (2, 0, 2, 4), (1, 2, 4, 2)]
)
def test_aut0_matches_lefschetz_on_free_multiset_pairs(bC, bD, max_r, max_s):
    """Over every pair of kept branch-class multisets of the built-ins of
    order <= 12 (genus cap 33, branch orders <= 8), the Lefschetz
    numbers, which use no character, agree with the sweep: a pair is
    free exactly when no g != 1 fixes points of both curves, the
    central-involution rule gives the Aut_0 of the Lefschetz rule, and
    the sweep's surface and nontrivial counts are the free pairs
    weighted by their numbers of vectors.  Each curve's numbers
    also average to e(C/G) = 2 - 2b over G."""
    bounds = SearchBounds(
        max_group_order=12,
        max_branch_points_r=max_r,
        max_branch_points_s=max_s,
        base_genera=((bC, bD),),
    )
    nontrivial = 0
    for spec in builtin_groups_upto(12):
        G = build_group(spec)
        allowed = _branch_plan(G, bounds.branch_order_cap)
        sides = []
        for b, r in ((bC, max_r), (bD, max_s)):
            kept = _counted_multisets(G, b, r, bounds.genus_cap, allowed)[0]
            side = []
            for M, (genus, count) in kept.items():
                L = lefschetz_numbers(G, M, genus)
                assert sum(L) == G.order * (2 - 2 * b), (spec, M)
                sig = _stabilizer_mask(G, M)
                side.append((L, count, sig, uniform_element(G, M)))
            sides.append(side)
        want = {"surfaces": 0, "nontrivial_aut0": 0}
        for LC, countC, sigC, uC in sides[0]:
            for LD, countD, sigD, uD in sides[1]:
                free = sigC & sigD == 1
                assert free == all(LC[g] * LD[g] == 0 for g in range(1, G.order))
                if not free:
                    continue
                aut0 = aut0_lefschetz(G, LC, LD)
                assert aut0 == rule_aut0(G, bC, uC, bD, uD), spec
                want["surfaces"] += countC * countD
                if len(aut0) > 1:
                    want["nontrivial_aut0"] += countC * countD
        counts = _classify_group(G, bounds)[1]
        assert {k: counts[k] for k in want} == want, spec
        nontrivial += want["nontrivial_aut0"]
    # nontrivial Aut_0 occurs only at base genera (1, 1)
    assert (nontrivial > 0) == ((bC, bD) == (1, 1))


def test_rule_matches_kernel_criterion_on_every_free_bucket_pair():
    """The central-involution rule that decides the sweep's Aut_0 gives
    the kernel criterion's Aut_0 on the H^1 positivity masks of
    Broughton's multiplicities, read off the character table per
    branch-class multiset: on every free bucket pair of every built-in
    of order <= 16 under the four base-genus pairs at r, s <= 3.  With
    ``full`` the sweep makes a record of each free pair, carrying the
    rule's Aut_0, and ``_record`` turns a disagreement with
    ``compute_aut0`` into an error."""
    nontrivial = 0
    for spec in builtin_groups_upto(16):
        G = build_group(spec)
        table, cls_of = character_table(G), class_index(G)
        maskpos = {}  # (b, branch-class multiset) -> H^1 positivity mask

        def mask(v):
            M = tuple(sorted(cls_of[g] for g in v["gammas"]))
            if (v["b"], M) not in maskpos:
                mults = h1_multiplicities(table, v["b"], M)
                maskpos[v["b"], M] = sum(1 << i for i, m in enumerate(mults) if m)
            return maskpos[v["b"], M]

        for bC, bD in ALL_BASE_GENERA:
            bounds = SearchBounds(
                max_branch_points_r=3, max_branch_points_s=3, base_genera=((bC, bD),)
            )
            records, counts = _classify_group(G, bounds, full=True)
            assert counts["errors"] == 0, (spec, bC, bD)
            keysC = _cover_buckets(G, bC, 3, 33, 8)[0]
            keysD = _cover_buckets(G, bD, 3, 33, 8)[0]
            free = sum(1 for kC in keysC for kD in keysD if kC[2] & kD[2] == 1)
            assert len(records) == free, (spec, bC, bD)
            for rec in records:
                criterion = _aut0_mask(G, mask(rec["vC"]) & mask(rec["vD"]))
                assert rec["aut0"] == sorted(_mask_to_set(criterion)), (spec, rec)
                nontrivial += rec["aut0_order"] > 1
    assert nontrivial > 0


def _kept_closures(G, b, max_r):
    """{M: N} over the kept branch-class multisets M of G at base genus b,
    r <= max_r and the sweep's default caps: N is the normal closure of
    the gammas, the subgroup the members of M's classes generate
    (``oracles.closure``), at b = 1, and G itself at b = 2."""
    kept = _counted_multisets(G, b, max_r, 33, _branch_plan(G, 8))[0]
    classes = conjugacy_classes(G)
    if b == 2:
        return dict.fromkeys(kept, frozenset(range(G.order)))
    return {M: closure(G, [g for c in M for g in classes[c].members]) for M in kept}


def _kernels(G):
    """Ker chi for each chi of ``character_table(G)``, read from the
    values (``oracles.kernel_by_values``)."""
    table = character_table(G)
    return table, [kernel_by_values(table, i) for i in range(len(table.characters))]


def _central(G):
    """The central elements other than 1, read from the Cayley table."""
    n, mult = G.order, G.mult
    return [s for s in range(1, n) if all(mult[s][g] == mult[g][s] for g in range(n))]


def _identity_aut0(G, central, NC, ND, products):
    """The regular-character identity's Aut_0 less 1: the ``central``
    sigma at which |G| - i_C(1 - e_C) - i_D(1 - e_D) + i_CD(1 - e_CD)
    = 0, with i_X = |G : N_X|, N_CD = N_C N_D (``oracles.closure``, kept
    in ``products``) and e_X = 1 iff sigma lies in N_X."""
    if (NC, ND) not in products:
        products[NC, ND] = closure(G, NC | ND)
    n, NCD = G.order, products[NC, ND]
    iC, iD, iCD = n // len(NC), n // len(ND), n // len(NCD)
    return [
        s
        for s in central
        if n - iC * (s not in NC) - iD * (s not in ND) + iCD * (s not in NCD) == 0
    ]


# (multiset, chi != 1) pairs per base genus, and free multiset pairs per
# base-genus pair, over the built-ins of order <= 16 at r, s <= 3
CHECKED_LEMMA_A = {1: 4858, 2: 4452}
FREE_PAIRS = {(1, 1): 2544, (1, 2): 3387, (2, 1): 3387, (2, 2): 4387}


def test_lemma_a_positivity_is_the_normal_closure_test():
    """Lemma A of the central-involution rule (README): at b = 1 and
    chi != 1, Broughton's multiplicity m_C(chi) is positive iff N_C, the
    normal closure of the gammas, is not inside Ker chi; at b = 2 every
    m_C(chi) with chi != 1 is positive (N_C = G).  Over every kept
    branch-class multiset of the built-ins of order <= 16 at r <= 3."""
    checked = {1: 0, 2: 0}
    for spec in builtin_groups_upto(16):
        G = build_group(spec)
        table, kernels = _kernels(G)
        for b in (1, 2):
            for M, N in _kept_closures(G, b, 3).items():
                mults = h1_multiplicities(table, b, M)
                for i, ker in enumerate(kernels):
                    if i != table.trivial_index:
                        assert (mults[i] > 0) == (not N <= ker), (spec, b, M, i)
                        checked[b] += 1
    assert checked == CHECKED_LEMMA_A


@pytest.mark.parametrize("bC,bD", ALL_BASE_GENERA)
def test_regular_character_identity_is_the_kernel_criterion(bC, bD):
    """The regular-character identity of the central-involution rule
    (README): on a free pair, Aut_0 is {1} and the central sigma != 1 at
    which |G| - i_C(1 - e_C) - i_D(1 - e_D) + i_CD(1 - e_CD) = 0, with
    i_X = |G : N_X|, N_CD = N_C N_D and e_X = 1 iff sigma lies in N_X.
    That is the kernel criterion on the pair's H^1 positivity masks:
    the central elements in Ker chi for every chi positive on both
    sides.  Over every free pair of kept branch-class multisets of the
    built-ins of order <= 16 at r, s <= 3, with N = G on a b = 2 side;
    Aut_0 is nontrivial on some pair exactly at base genera (1, 1)."""
    pairs = nontrivial = 0
    for spec in builtin_groups_upto(16):
        G = build_group(spec)
        central = _central(G)
        table, kernels = _kernels(G)

        def side(b):
            """(stabilizer-union mask, N, H^1 positivity) per kept multiset."""
            return [
                (
                    _stabilizer_mask(G, M),
                    N,
                    {i for i, m in enumerate(h1_multiplicities(table, b, M)) if m},
                )
                for M, N in _kept_closures(G, b, 3).items()
            ]

        products, sideD = {}, side(bD)
        for sigC, NC, posC in side(bC):
            for sigD, ND, posD in sideD:
                if sigC & sigD != 1:
                    continue
                identity = _identity_aut0(G, central, NC, ND, products)
                criterion = [
                    s for s in central if all(s in kernels[i] for i in posC & posD)
                ]
                assert identity == criterion, (spec, sigC, sigD)
                pairs += 1
                nontrivial += bool(identity)
    assert pairs == FREE_PAIRS[bC, bD]
    assert (nontrivial > 0) == ((bC, bD) == (1, 1))


# free multiset pairs at base genera (1, 1) over the built-ins of order
# <= 16 at r, s <= 3 whose Aut_0 is nontrivial
SHAPED_PAIRS = 102


def test_nontrivial_aut0_has_the_central_involution_shape():
    """The shape step of the central-involution rule (README): on a free
    pair at base genera (1, 1), the regular-character identity's Aut_0 is
    nontrivial exactly when N_C = {1, s} and N_D = {1, t} with s != t.
    Then every class of M_C is {s} and every class of M_D is {t}, Aut_0
    is {1, st} and every commutator of G is 1; and that is exactly when
    both multisets key (``_bucket_key``) to a central involution u.  Over
    every free pair of kept branch-class multisets of the built-ins of
    order <= 16 at r, s <= 3."""
    pairs = shaped = 0
    for spec in builtin_groups_upto(16):
        G = build_group(spec)
        mult, order, central = G.mult, G.element_order, _central(G)
        commutative = len(central) == G.order - 1
        classes = conjugacy_classes(G)
        kept = []  # (M, stabilizer-union mask, N, the key's uniform u)
        for M, N in _kept_closures(G, 1, 3).items():
            u = _bucket_key(G, M, _multiset_genus(G, 1, M))[3]
            kept.append((M, _stabilizer_mask(G, M), N, u))
        products = {}
        for MC, sigC, NC, uC in kept:
            for MD, sigD, ND, uD in kept:
                if sigC & sigD != 1:
                    continue
                aut0 = _identity_aut0(G, central, NC, ND, products)
                shape = len(NC) == len(ND) == 2 and NC != ND
                assert bool(aut0) == shape, (spec, MC, MD)
                keyed = all(u >= 0 and order[u] == 2 for u in (uC, uD))
                assert keyed == shape, (spec, MC, MD)
                pairs += 1
                if shape:
                    (s,), (t,) = NC - {0}, ND - {0}
                    assert all(classes[c].members == (s,) for c in MC), (spec, MC)
                    assert all(classes[c].members == (t,) for c in MD), (spec, MD)
                    assert aut0 == [mult[s][t]] and commutative, (spec, MC, MD)
                    shaped += 1
    assert (pairs, shaped) == (FREE_PAIRS[1, 1], SHAPED_PAIRS)


def test_sweep_records_match_lefschetz():
    """Every record of the order <= 16 sweep at the default bounds names
    the Aut_0 that the Lefschetz numbers of its two vectors give."""
    records, summary = classify_all(SearchBounds(), builtin_groups_upto(16))
    assert records and summary["errors"] == 0
    for rec in records:
        G = build_group(rec["group"])
        numbers = [
            lefschetz_numbers(
                G,
                sorted(class_index(G)[g] for g in rec["v" + side]["gammas"]),
                rec["genus_" + side],
            )
            for side in "CD"
        ]
        assert sorted(aut0_lefschetz(G, *numbers)) == rec["aut0"], rec
        assert rec["aut0_order"] > 1


def test_conformance_positive():
    G, a, b, S = _klein_surface()
    ok, reason = check_conformance(S, compute_aut0(S))
    assert ok and reason == ""


def test_conformance_needs_nontrivial():
    G = build_group("sym:3")
    t = next(g for g in range(6) if G.element_order[g] == 2)
    c = next(g for g in range(6) if G.element_order[g] == 3)
    S = build_surface(
        GeneratingVector(G, 1, (c,), (c,), (t, t)),
        GeneratingVector(G, 1, (t,), (t,), (c, c, c)),
    )
    with pytest.raises(DomainError):
        check_conformance(S, compute_aut0(S))


def test_conformance_example_families():
    for fam in (1, 2):
        S = example46_construct(fam, 1, 2, 1, 2)
        ok, reason = check_conformance(S, compute_aut0(S))
        assert ok, (fam, reason)


def test_uniform_involutions_force_the_invariant_factors():
    """``check_conformance`` does not test the invariant factors: in an
    abelian group, two distinct involutions s, t that each complete some
    (alpha, beta) to a generating set, as the uniform branch elements of
    two b = 1 vectors do, force the factors (2m, 2mn) or (2, 2m, 2mn).
    Checked by search on every abelian built-in of order <= 64."""
    seen = 0
    for spec in builtin_groups_upto(64):
        if not spec.startswith("ab:"):
            continue
        G = build_group(spec)
        reg = subgroup_registry(G)
        n, extend, sets = G.order, reg.extend, reg.sets

        def completes(s):
            ks = {extend(extend(0, s), a) for a in range(n)}
            return any(len(sets[extend(k, b)]) == n for k in ks for b in range(n))

        involutions = [s for s in range(n) if G.element_order[s] == 2]
        if sum(map(completes, involutions)) < 2:
            continue
        seen += 1
        f = abelian_invariants(G)
        assert (len(f) == 2 and f[0] % 2 == 0) or (
            len(f) == 3 and f[0] == 2
        ), (spec, f)
    assert seen == 32


# (spec, vC, vD, Aut_0, reason).  Vectors are (b, alphas, betas, gammas);
# an element is an index, or coordinates in an ab: group.  Aut_0 None
# means compute_aut0(S).  check_conformance takes Aut_0 as given, and
# most of its checks need an Aut_0 given by hand: sym:3 has a trivial
# center, and in an abelian group with b = 1 on both sides a nontrivial
# Aut_0 is always {1, sigma_1 tau_1} with distinct uniform involutions.
_X, _Y = (1, 0), (0, 1)
CONFORMANCE_FAILURES = [
    (
        "sym:3", (1, (3,), (3,), (1, 1)), (1, (1,), (1,), (3, 3, 3)), [0, 1],
        "group is not abelian",
    ),
    (
        "ab:3,3", (0, (), (), ((0, 1), (0, 2), (1, 0), (2, 0))),
        (1, ((0, 1),), ((1, 0),), ((1, 1), (2, 2))), None,
        "base genera are not both 1",
    ),
    (
        "ab:3,3,3", (1, ((1, 0, 0),), ((0, 1, 0),), ((0, 0, 1), (0, 0, 2))),
        (1, ((1, 0, 0),), ((0, 0, 1),), ((0, 1, 0), (0, 2, 0))),
        [(0, 0, 0), (1, 0, 0)],
        "branch elements are not all equal on each factor",
    ),
    (
        "ab:6", (1, ((1,),), ((0,),), ((3,), (3,))),
        (1, ((1,),), ((0,),), ((2,), (4,))), [(0,), (3,)],
        "branch elements are not all equal on each factor",
    ),
    (
        "ab:2,2", (0, (), (), (_Y,) * 4 + (_X,) * 2), (1, (_Y,), (_X,), ((1, 1),) * 2),
        None, "base genera are not both 1",
    ),
    (
        "ab:2,2", (1, (_X,), (_Y,), (_X, _X)), (2, (_X, _Y), (_Y, _X), ()),
        [(0, 0), (1, 1)], "base genera are not both 1",
    ),
    (
        "ab:2,4", (1, (_X,), (_Y,), ((0, 1), (0, 3))), (1, (_X,), (_Y,), (_X, _X)),
        [(0, 0), (1, 2)], "branch elements are not all equal on each factor",
    ),
    (
        "ab:4,4", (1, (_Y,), (_X,), (_X,) * 4), (1, (_X,), (_Y,), (_Y,) * 4),
        [(0, 0), (2, 2)], "uniform branch elements are not involutions",
    ),
    (
        "ab:2,2", (1, (_X,), (_Y,), (_X, _X)), (1, (_X,), (_Y,), (_Y, _Y)),
        [(0, 0), (1, 0), (0, 1), (1, 1)], "Aut_0 is not generated by sigma_1 tau_1",
    ),
]


@pytest.mark.parametrize("spec, vC, vD, aut0, reason", CONFORMANCE_FAILURES)
def test_conformance_failure_reasons(spec, vC, vD, aut0, reason):
    """Every reason a valid surface can fail the classified shape for."""
    G = build_group(spec)

    def element(x):
        return x if isinstance(x, int) else abelian_element(G, x)

    def vector(b, *parts):
        return GeneratingVector(G, b, *(tuple(map(element, p)) for p in parts))

    S = build_surface(vector(*vC), vector(*vD))
    aut0 = compute_aut0(S) if aut0 is None else frozenset(map(element, aut0))
    assert len(aut0) > 1
    assert check_conformance(S, aut0) == (False, reason)


def test_bounds_validation():
    with pytest.raises(DomainError):
        SearchBounds(max_group_order=0).validate()
    with pytest.raises(DomainError):
        SearchBounds(genus_cap=1).validate()
    with pytest.raises(DomainError):
        SearchBounds(base_genera=((0, 1),)).validate()
    with pytest.raises(DomainError):
        SearchBounds(base_genera=((1, 1), (1, 2), (1, 1))).validate()
    with pytest.raises(DomainError):
        SearchBounds(branch_order_cap=0).validate()
    SearchBounds().validate()


def test_classify_small_sweep():
    bounds = SearchBounds(
        max_group_order=4,
        max_branch_points_r=4,
        max_branch_points_s=4,
        genus_cap=33,
    )
    records, summary = classify_all(bounds, ["ab:2", "ab:3", "ab:4", "ab:2,2"])
    assert summary["errors"] == 0
    assert summary["conformance_failures"] == 0
    assert summary["nontrivial_aut0"] > 0
    assert all(r["group"] == "ab:2,2" for r in records)
    assert all(r["conforms"] for r in records)
    # weights add up to the summary count
    assert sum(r["weight"] for r in records) == summary["nontrivial_aut0"]


def test_cover_buckets_and_covers_share_one_stream():
    """The sweep's counted buckets and enumerate_vectors see the same
    vectors: at b = 1, r <= 3 and genus cap 9 the bucket counts add up
    to the vectors listed without dedup, and both truncated counts equal
    the number of listed vectors whose genus is over the cap."""
    over_total = 0
    for spec in builtin_groups_upto(8):
        G = build_group(spec)
        buckets, truncated = _cover_buckets(G, 1, 3, 9, 8)
        stream = enumerate_vectors(
            G, 1, 3, genus_cap=9, dedup=False, branch_order_cap=8
        )
        listed = sum(1 for _ in stream)
        assert sum(buckets.values()) == listed, spec
        uncapped = enumerate_vectors(
            G, 1, 3, genus_cap=10**6, dedup=False, branch_order_cap=8
        )
        over = sum(1 for _, _, genus in uncapped if genus > 9)
        assert truncated == stream.truncated == over, spec
        over_total += over
    assert over_total > 0


def test_cover_buckets_decide_only_multisets_with_vectors(monkeypatch):
    """``_cover_buckets`` decides a genus only for the branch-class
    multisets that have vectors: on Z_2^4 at b = 1, r <= 4 those are 245
    of the 3,876 multisets of at most 4 of its 15 non-identity classes,
    and ``_multiset_genus`` is called no more often than that."""
    import isoprod.covers as covers

    calls = 0
    decide = covers._multiset_genus

    def counting(*args):
        nonlocal calls
        calls += 1
        return decide(*args)

    monkeypatch.setattr(covers, "_multiset_genus", counting)
    G = build_group("ab:2,2,2,2")
    buckets, _ = _cover_buckets(G, 1, 4, 33, 8)
    assert buckets and 0 < calls <= 245


def test_counted_buckets_match_listing_oracle():
    """Counting (closed form on abelian groups, Moebius inversion on the
    others) gives the listing oracle's bucket keys, counts and truncated
    count for every built-in group of order <= 12 over bases of genus 0,
    1 and 2, under a genus cap that truncates and a branch-order cap
    that drops elements of order 9 to 12."""
    uniform = truncated_total = 0
    for spec in builtin_groups_upto(12):
        G = build_group(spec)
        table = character_table(G)
        for b, max_r in ((0, 4), (1, 2), (2, 1 if G.order <= 8 else 0)):
            counted = _cover_buckets(G, b, max_r, 9, 8)
            counts, _, truncated = listed_buckets(G, table, b, max_r, 9, 8)
            assert counted == (counts, truncated), (spec, b, max_r)
            uniform += sum(1 for key in counts if key[-1] != -1)
            truncated_total += truncated
    assert uniform > 0 and truncated_total > 0


def test_representatives_are_first_listed():
    """Each bucket's representative is the first vector listed in it:
    at b = 1, r <= 3 under genus cap 33 for the built-in groups of order
    <= 8, and under genus cap 9 at b = 0, r <= 4 and b = 1, r <= 3 for
    those of order <= 12 and at b = 2, r <= 1 for those of order <= 8.
    Both uniform and non-uniform buckets are compared."""
    compared = {True: 0, False: 0}  # uniform bucket -> buckets compared
    for spec in builtin_groups_upto(12):
        G = build_group(spec)
        table = character_table(G)
        inputs = [(0, 4, 9), (1, 3, 9)]
        if G.order <= 8:
            inputs += [(1, 3, 33), (2, 1, 9)]
        for b, max_r, genus_cap in inputs:
            buckets, _ = _cover_buckets(G, b, max_r, genus_cap, 8)
            _, first, _ = listed_buckets(G, table, b, max_r, genus_cap, 8)
            assert set(buckets) == set(first), (spec, b, max_r)
            for key in sorted(buckets):
                rep = _representative(G, b, key, 8)
                assert rep == first[key], (spec, b, key)
                compared[key[-1] >= 0] += 1
    assert compared[True] > 0 and compared[False] > 0


def test_group_that_keeps_no_multiset_builds_no_table(monkeypatch):
    """A group none of whose multisets is under the genus cap never looks
    up its character table: at genus cap 2 all 456 vectors of Z_2^2 at
    b = 1, r <= 4 are truncated, and the sweep keeps no record and counts
    nothing."""
    import isoprod.classify as classify

    def refuse(G):
        raise AssertionError(f"character table of {G.spec} looked up")

    monkeypatch.setattr(classify, "character_table", refuse)
    assert _cover_buckets(build_group("ab:2,2"), 1, 4, 2, 8) == ({}, 456)
    records, counts = _classify_group(build_group("ab:2,2"), SearchBounds(genus_cap=2))
    assert records == []
    assert counts == {
        "surfaces": 0,
        "nontrivial_aut0": 0,
        "conformance_failures": 0,
        "errors": 0,
    }


def test_sweep_reads_character_tables_only_for_records(monkeypatch):
    """The sweep reads no character table to bucket or to pair vectors:
    dih:4, ab:3,3 and quat:8, which have no record at the default
    bounds, look up none, and ab:2,2 looks one up only inside
    ``_record``, whose recheck by ``compute_aut0`` reads the kernels."""
    import isoprod.classify as classify
    import isoprod.covers as covers

    calls, inside = [], []
    real_table, real_record = classify.character_table, classify._record

    def table(G):
        calls.append((G.spec, bool(inside)))
        return real_table(G)

    def record(*args):
        inside.append(True)
        try:
            return real_record(*args)
        finally:
            inside.pop()

    for module in (classify, covers):
        monkeypatch.setattr(module, "character_table", table, raising=False)
    monkeypatch.setattr(classify, "_record", record)
    records, _ = classify_all(SearchBounds(), ["dih:4", "ab:3,3", "quat:8"])
    assert records == [] and calls == []
    records, _ = classify_all(SearchBounds(), ["ab:2,2"])
    assert records and calls
    assert all(in_record for _, in_record in calls), calls


def test_swept_group_without_records_is_freed():
    """A group that emits no record builds no character table, and its
    memoised subgroup registry keeps the Cayley table, not the group, so
    no reference cycle holds the group: with the cyclic collector off,
    sweeping dih:4 at the default bounds leaves no new GroupTable."""
    import gc

    from isoprod.groups import GroupTable

    def tables():
        return [o for o in gc.get_objects() if isinstance(o, GroupTable)]

    gc.collect()
    before = tables()
    enabled = gc.isenabled()
    gc.disable()
    try:
        records, _ = classify_all(SearchBounds(), ["dih:4"])
        left = [G for G in tables() if not any(G is old for old in before)]
    finally:
        if enabled:
            gc.enable()
    assert records == [] and left == []


def test_representative_of_an_empty_bucket_raises():
    """A key that no vector has is a consistency error naming the group
    spec, the base genus and the key."""
    G = build_group("ab:2,2")
    key = (2, 99, 1, -1)
    with pytest.raises(ConsistencyError) as err:
        _representative(G, 1, key, 8)
    message = str(err.value)
    assert "ab:2,2" in message and "b = 1" in message and str(key) in message


def test_classify_weights_against_bruteforce():
    """The bucketed sweep's surface and nontrivial-Aut_0 counts match a
    direct pairing of individually enumerated vectors for one small
    group."""
    from isoprod.covers import enumerate_vectors, stabilizer_union

    G = build_group("ab:2,2")
    covers = [
        cover_of_row(G, 1, row)
        for row in enumerate_vectors(
            G, 1, 4, genus_cap=33, dedup=False, branch_order_cap=8
        )
    ]
    sigma = {i: stabilizer_union(c.vector) for i, c in enumerate(covers)}
    total = 0
    nontrivial = 0
    from isoprod.classify import compute_aut0 as aut0_of
    from isoprod.surfaces import build_surface as build

    for i, cC in enumerate(covers):
        for j, cD in enumerate(covers):
            if sigma[i] & sigma[j] != frozenset([0]):
                continue
            total += 1
            if len(aut0_of(build(cC.vector, cD.vector))) > 1:
                nontrivial += 1
    bounds = SearchBounds(
        max_group_order=4,
        max_branch_points_r=4,
        max_branch_points_s=4,
        genus_cap=33,
    )
    _, summary = classify_all(bounds, ["ab:2,2"])
    assert summary["surfaces"] == total == 17280
    assert summary["nontrivial_aut0"] == nontrivial == 3456


def test_classify_deterministic_and_parallel():
    """Two sweeps over the same groups give equal records and summaries."""
    bounds = SearchBounds(
        max_group_order=8,
        max_branch_points_r=2,
        max_branch_points_s=2,
        genus_cap=33,
    )
    groups = ["ab:2,2", "ab:2,4", "dih:4", "quat:8"]
    r1, s1 = classify_all(bounds, groups)
    r2, s2 = classify_all(bounds, groups)
    assert r1 == r2
    assert s1 == s2


def test_classify_full_detail():
    bounds = SearchBounds(
        max_group_order=8,
        max_branch_points_r=3,
        max_branch_points_s=3,
        genus_cap=33,
    )
    records, summary = classify_all(bounds, ["sym:3"], full=True)
    assert records and all(r["aut0_order"] == 1 for r in records)
    assert sum(r["weight"] for r in records) == summary["surfaces"]


def test_classify_skips_oversized_groups():
    bounds = SearchBounds(max_group_order=4)
    records, summary = classify_all(bounds, ["sym:4"])
    assert records == [] and summary["surfaces"] == 0
