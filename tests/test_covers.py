from collections import Counter

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from isoprod.characters import character_table
from isoprod.covers import (
    BranchedCover,
    GeneratingVector,
    _branch_plan,
    _count_abelian,
    _count_by_mobius,
    _count_vectors,
    _gamma_tails,
    _multiset_genus,
    _raw_tuples,
    enumerate_vectors,
    h1_multiplicities,
    isotypic_dimensions,
    stabilizer_union,
    validate_vector,
)
from isoprod.errors import (
    BranchOrderError,
    ConsistencyError,
    DomainError,
    GenerationError,
    GenusError,
    RelationError,
    SizeError,
)
from isoprod.groups import (
    _cycle_label,
    abelian_element,
    all_subgroups,
    build_group,
    builtin_groups_upto,
    class_index,
    mobius,
    subgroup_registry,
)

from oracles import (
    automorphisms,
    branch_orders,
    broughton_complex,
    brute_vectors,
    canonical_tuples_by_filtering,
    cover_of_row,
    dedup_by_marking,
    gamma_tails_brute,
    genus_float,
    hurwitz_genus,
    lattice_by_every_element,
    listing_kept_by_multiset,
    mobius_by_definition,
)


def test_hurwitz_known_values():
    # |G|=4, b=1, two branch points of order 2: 2g-2 = 4(0+1) -> g=3
    assert hurwitz_genus(4, 1, (2, 2)) == 3
    # |G|=6, b=1, two branch points of order 2: g = 4
    assert hurwitz_genus(6, 1, (2, 2)) == 4
    # unramified: g-1 = |G|(b-1)
    assert hurwitz_genus(5, 2, ()) == 6
    # classical: |G|=2, b=0, six order-2 points -> genus 2
    assert hurwitz_genus(2, 0, (2,) * 6) == 2


def test_hurwitz_against_float_oracle():
    for order in (2, 4, 6, 8, 12):
        for b in (0, 1, 2):
            for orders in [(), (2, 2), (2, 3, 6), (4, 4), (2, 2, 2, 2)]:
                if any(order % m for m in orders):
                    continue
                try:
                    got = hurwitz_genus(order, b, orders)
                except GenusError:
                    continue
                assert got == genus_float(order, b, orders)


def test_hurwitz_rejects_nonintegral():
    with pytest.raises(GenusError):
        hurwitz_genus(2, 0, (2,))  # 2g-2 = -4+1 not integral
    with pytest.raises(GenusError):
        hurwitz_genus(3, 0, (3,))  # 2g-2 = -4, negative genus
    assert hurwitz_genus(3, 0, (3, 3)) == 0  # the sphere is fine


@pytest.mark.parametrize("spec", builtin_groups_upto(8))
def test_validate_vector_genus_matches_fraction_oracle(spec):
    """``validate_vector`` takes its genus from the integer rule that
    listing and counting use, and it equals the exact-fraction oracle's
    on every vector the walk lists with no genus cap, at b = 0, 1, 2."""
    G = build_group(spec)
    allowed = _branch_plan(G, None)
    for b, max_r in ((0, 4), (1, 3), (2, 1)):
        for r in range(max_r + 1):
            for ab, gammas in _raw_tuples(G, b, r, allowed):
                v = GeneratingVector(G, b, ab[:b], ab[b:], gammas)
                want = hurwitz_genus(G.order, b, branch_orders(v))
                assert validate_vector(v).genus == want, (b, ab, gammas)


def test_validate_vector():
    G = build_group("ab:2,2")
    a = abelian_element(G, (1, 0))
    b = abelian_element(G, (0, 1))
    v = GeneratingVector(G, 1, (a,), (b,), (a, a))
    cover = validate_vector(v)
    assert cover.genus == 3
    # relation violated
    with pytest.raises(RelationError):
        validate_vector(GeneratingVector(G, 1, (a,), (b,), (a,)))
    # identity as branch element
    with pytest.raises(BranchOrderError):
        validate_vector(GeneratingVector(G, 1, (a,), (b,), (0, 0)))
    # fails to generate
    with pytest.raises(GenerationError):
        validate_vector(GeneratingVector(G, 1, (a,), (a,), (a, a)))


def test_generating_vector_equality():
    """Vectors are equal, and hash equal, when their fields are; the
    group compares by identity, so an equal table built twice differs."""
    G = build_group("ab:2,2")
    v = GeneratingVector(G, 1, (1,), (2,), (1, 1))
    assert v == GeneratingVector(G, 1, (1,), (2,), (1, 1))
    assert len({v, GeneratingVector(G, 1, (1,), (2,), (1, 1))}) == 1
    assert v != GeneratingVector(G, 1, (1,), (2,), (2, 2))
    assert v != GeneratingVector(build_group("ab:2,2"), 1, (1,), (2,), (1, 1))


def test_records_are_immutable_and_pickle():
    """Neither record takes field assignment, both survive a pickle round
    trip (the copy's group is a new table with the same spec), and a
    BranchedCover compares by value."""
    import pickle

    G = build_group("ab:2,2")
    a = abelian_element(G, (1, 0))
    b = abelian_element(G, (0, 1))
    v = GeneratingVector(G, 1, (a,), (b,), (a, a))
    cover = validate_vector(v)
    fields = ((v, "gammas"), (v, "group"), (cover, "genus"), (cover, "vector"))
    for record, field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    for record in (v, cover):
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is type(record)
    assert back.genus == cover.genus == 3
    assert type(back.vector) is GeneratingVector
    assert back.vector.to_json() == v.to_json()
    assert branch_orders(back.vector) == branch_orders(v) == (2, 2)
    assert back.vector.group.spec == G.spec and back.vector.group is not G
    assert cover == BranchedCover(v, 3) and cover != BranchedCover(v, 4)
    assert len({cover, BranchedCover(v, 3)}) == 1


def test_stabilizer_union_abelian():
    G = build_group("ab:2,2")
    a = abelian_element(G, (1, 0))
    b = abelian_element(G, (0, 1))
    v = GeneratingVector(G, 1, (a,), (b,), (a, a))
    assert stabilizer_union(v) == frozenset([0, a])


def test_stabilizer_union_conjugates():
    """In S3 the stabilizer union of a transposition-branched cover
    contains all three transpositions.  On every built-in of order <= 32
    the union of a single gamma g is the union of t <g> t^-1 over every
    t, with <g> from the powers of g and no conjugacy class read."""
    G = build_group("sym:3")
    transpositions = [g for g in range(6) if G.element_order[g] == 2]
    t = transpositions[0]
    threecycle = next(g for g in range(6) if G.element_order[g] == 3)
    v = GeneratingVector(G, 1, (threecycle,), (t,), (t, t))
    assert stabilizer_union(v) == frozenset([0] + transpositions)
    for spec in builtin_groups_upto(32):
        G = build_group(spec)
        mult, inv = G.mult, G.inverse
        for g in range(G.order):
            powers, y = [0], g
            while y:
                powers.append(y)
                y = mult[y][g]
            want = {mult[mult[t][y]][inv[t]] for t in range(G.order) for y in powers}
            v = GeneratingVector(G, 0, (), (), (g,))
            assert stabilizer_union(v) == want, (spec, g)


def test_raw_count_matches_bruteforce():
    """Enumeration without dedup agrees with an independent nested-loop
    search on tiny groups, over the oracle's vectors of genus >= 2."""
    for spec in ["ab:2", "ab:3", "ab:2,2", "sym:3"]:
        G = build_group(spec)
        for r in (0, 1, 2):
            brute = [
                (ab, gam)
                for ab, gam in brute_vectors(G, 1, r)
                if genus_float(G.order, 1, [G.element_order[g] for g in gam]) >= 2
            ]
            stream = enumerate_vectors(G, 1, r, genus_cap=1000, dedup=False)
            got = [(ab, gam) for ab, gam, _ in stream if len(gam) == r]
            assert sorted(got) == sorted(brute), (spec, r)


def test_raw_count_z2():
    """(alpha, beta; gamma, gamma) over Z2: gamma is forced to the
    involution, alpha and beta free -- 4 raw tuples."""
    G = build_group("ab:2")
    assert len(brute_vectors(G, 1, 2)) == 4
    stream = enumerate_vectors(G, 1, 2, dedup=False)
    assert sum(1 for _, gam, _ in stream if gam) == 4


@pytest.mark.parametrize(
    "spec,b,r",
    [(s, b, r) for s in ("ab:2,2", "sym:3") for b in (0, 1, 2) for r in (0, 1, 2)]
    + [("dih:4", 1, 3), ("quat:8", 1, 3)],
)
def test_raw_tuples_match_bruteforce(spec, b, r):
    """With every non-identity element allowed, _raw_tuples lists exactly
    the oracle's vectors, in sorted order: alphas and betas outermost,
    then the gamma tuples lexicographically."""
    G = build_group(spec)
    got = list(_raw_tuples(G, b, r, list(range(1, G.order))))
    assert got == sorted(brute_vectors(G, b, r))


def test_count_vectors_match_bruteforce():
    """``_count_vectors`` reports exactly the branch-class multisets that
    have vectors, each with the oracle's count: every built-in group of
    order <= 8, every non-identity element allowed, at
    b = 0, r <= 4 and b = 1, r <= 3.  Multisets with no valid genus are
    counted too.  On the abelian groups, which ``_count_vectors`` counts
    in closed form, the Moebius DP is checked as well, since it is the
    oracle of the closed form at larger orders."""
    for spec in builtin_groups_upto(8):
        G = build_group(spec)
        counters = [_count_vectors]
        if G.is_abelian():
            counters.append(_count_by_mobius)
        for b, max_r in ((0, 4), (1, 3)):
            for count in counters:
                _assert_counts_match_brute(G, b, max_r, count)


def _assert_counts_match_brute(G, b, max_r, count=_count_vectors):
    """``count``, a ``_count_vectors``, agrees with ``brute_vectors`` on
    G at base genus b and r <= max_r, every non-identity element
    allowed."""
    cls_of = class_index(G)
    elements = range(1, G.order)
    multisets = Counter()
    for r in range(max_r + 1):
        for _, gammas in brute_vectors(G, b, r):
            multisets[tuple(sorted(cls_of[g] for g in gammas))] += 1
    counts = count(G, b, max_r, elements)
    assert counts == dict(multisets), (G.spec, b, count.__name__)
    assert 0 not in counts.values()


@st.composite
def perm_specs(draw):
    """A ``perm:`` spec of one to three random permutations of 3 to 6
    points."""
    degree = draw(st.integers(min_value=3, max_value=6))
    perms = st.permutations(range(degree))
    gens = draw(st.lists(perms, min_size=1, max_size=3))
    return "perm:" + ";".join(_cycle_label(p, range(1, degree + 1)) for p in gens)


def test_random_perm_groups_match_oracles():
    """On random permutation groups of order <= 24, each with its own
    element numbering, the subgroup lattice and its Moebius function
    match the oracles that extend by every element and sum the defining
    recursion, and the vector counts match the brute-force listing at
    b = 0, r <= 3 and b = 1, r <= 1 (r <= 2 up to order 12).  At most
    five draws of each order are kept, since many draws reach the
    largest orders; the draws are derandomised."""
    drawn = Counter()

    @settings(
        max_examples=40,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    )
    @given(perm_specs())
    def check(spec):
        try:
            G = build_group(spec, order_cap=24)
        except SizeError:
            assume(False)
        assume(drawn[G.order] < 5)
        drawn[G.order] += 1
        lattice = lattice_by_every_element(G)
        assert list(all_subgroups(G)) == lattice, spec
        assert mobius(G) == mobius_by_definition(G, lattice), spec
        _assert_counts_match_brute(G, 0, 3)
        _assert_counts_match_brute(G, 1, 2 if G.order <= 12 else 1)

    check()
    assert len(drawn) >= 8


def test_abelian_closed_form_matches_mobius():
    """The closed-form count equals the Moebius DP, key order included,
    on every abelian built-in of order <= 32: b = 0 with r <= 4 (r <= 3
    above order 16), b = 1 with r <= 4 and b = 2 with r <= 2, under
    branch-order cap 8 and, up to order 16, under no cap."""
    cases = 0
    for spec in builtin_groups_upto(32):
        G = build_group(spec)
        if not G.is_abelian():
            continue
        for cap in (8, None) if G.order <= 16 else (8,):
            elements = _branch_plan(G, cap)
            for b, max_r in ((0, 4 if G.order <= 16 else 3), (1, 4), (2, 2)):
                args = (G, b, max_r, elements)
                got, want = _count_abelian(*args), _count_by_mobius(*args)
                assert list(got.items()) == list(want.items()), (spec, cap, b)
                cases += 1
    assert cases == 3 * (54 + 24)


def test_abelian_closed_form_matches_mobius_across_primes():
    """The closed form equals the Moebius DP, key order included, where
    G/Phi(G) has more than one prime: Z_6^2 has rank 2 at both 2 and 3,
    the case where ``lifts`` multiplies two nontrivial prime factors,
    and Z_42 and Z_2 x Z_30 have three primes.  Branch-order cap 8."""
    for spec in ("ab:6,6", "ab:42", "ab:2,30"):
        G = build_group(spec)
        elements = _branch_plan(G, 8)
        for b, max_r in ((0, 3), (1, 4), (2, 2)):
            args = (G, b, max_r, elements)
            got, want = _count_abelian(*args), _count_by_mobius(*args)
            assert list(got.items()) == list(want.items()), (spec, b)


def test_abelian_count_builds_no_lattice(monkeypatch):
    """Abelian groups are counted without the Moebius function or the
    subgroup lattice, with the Moebius DP's results: the buckets of
    Z_2^4 at b = 1, r <= 4 and the deduplicated covers of Z_2^3 at b = 1,
    r <= 3."""
    import isoprod.covers as covers
    import isoprod.groups as groups
    from isoprod.classify import _cover_buckets

    def results():
        G = build_group("ab:2,2,2,2")
        buckets = _cover_buckets(G, 1, 4, 33, 8)
        vectors = list(enumerate_vectors(build_group("ab:2,2,2"), 1, 3))
        return buckets, vectors

    with monkeypatch.context() as m:
        m.setattr(covers, "_count_vectors", _count_by_mobius)
        want = results()

    def refuse(*args):
        raise AssertionError("subgroup lattice built for an abelian group")

    monkeypatch.setattr(covers, "mobius", refuse)
    monkeypatch.setattr(groups, "all_subgroups", refuse)
    got = results()
    assert got == want
    assert got[0][0] and got[1]


def test_genus_cap_sets_truncated():
    """``truncated`` holds its final value before the first iteration,
    and a second iteration yields the same covers without changing it."""
    G = build_group("ab:2,2")
    stream = enumerate_vectors(G, 1, 4, genus_cap=3, dedup=False)
    before = stream.truncated
    covers = list(stream)
    assert before == stream.truncated == 420  # r=4 vectors have genus 5
    assert all(genus <= 3 for _, _, genus in covers)
    assert list(stream) == covers
    assert stream.truncated == 420


def test_enumerate_vectors_rejects_bounds_out_of_range():
    """A base genus other than 0, 1 or 2, a negative max_r and a genus
    cap below 1 are refused when the stream is created, each by its own
    message."""
    G = build_group("ab:2,2")
    with pytest.raises(DomainError, match="base genus must be 0, 1 or 2"):
        enumerate_vectors(G, 3, 2)
    with pytest.raises(DomainError, match="max_r must be >= 0"):
        enumerate_vectors(G, 1, -1)
    with pytest.raises(DomainError, match="genus_cap must be >= 1"):
        enumerate_vectors(G, 1, 2, genus_cap=0)


def test_enumerate_vectors_rejects_exact_orders_it_cannot_meet():
    """Exact branch orders below 2, or more of them than max_r allows,
    are refused when the stream is created, not listed as no vector."""
    G = build_group("ab:2,2")
    with pytest.raises(DomainError, match="max_r 1 is below the 2 branch orders"):
        enumerate_vectors(G, 1, 1, exact_branch_orders=[2, 2])
    with pytest.raises(DomainError, match="exact branch orders must be >= 2"):
        enumerate_vectors(G, 1, 2, exact_branch_orders=[1, 2])


@pytest.mark.parametrize("cap", [0, -3])
def test_branch_order_cap_below_one_raises(cap):
    """A cap below 1 is refused when the stream is created instead of
    yielding nothing with ``truncated == 0``.  Cap 1 stays valid: it
    allows no branch point, which leaves the unramified covers (r = 0,
    genus 5 over base genus 2)."""
    G = build_group("ab:2,2")
    with pytest.raises(DomainError, match="branch_order_cap"):
        enumerate_vectors(G, 1, 4, branch_order_cap=cap)
    covers = list(enumerate_vectors(G, 2, 1, branch_order_cap=1))
    assert covers
    assert all(not gam and genus == 5 for _, gam, genus in covers)


@pytest.mark.parametrize("spec,max_r", [("ab:2,2", 2), ("dih:4", 4), ("quat:8", 4)])
def test_dedup_orbits(spec, max_r):
    """Dedup emits exactly one representative per automorphism orbit.
    dih:4 at r <= 4 has vectors of different r with equal codes, so it
    fails if the dedup set is shared across r."""
    G = build_group(spec)
    full = {(ab, gam) for ab, gam, _ in enumerate_vectors(G, 1, max_r, dedup=False)}
    reps = list(enumerate_vectors(G, 1, max_r, dedup=True))
    auts = automorphisms(G)
    covered = set()
    for ab, gam, _ in reps:
        for phi in auts:
            covered.add((tuple(phi[x] for x in ab), tuple(phi[x] for x in gam)))
    assert covered == full
    # Aut(G) acts freely on generating vectors, so every orbit has
    # |Aut(G)| members and no two representatives share one
    assert len(full) == len(reps) * len(auts)


def test_dedup_dih17_matches_marking():
    """Dedup has no group-order limit: dih:17 (order 34, |Aut| = 272)
    keeps the vectors that marking every Aut(G) image keeps."""
    G = build_group("dih:17")
    stream = enumerate_vectors(G, 1, 2)
    got = list(stream)
    assert (got, stream.truncated) == dedup_by_marking(G, 1, 2, 65)
    assert len(got) * 272 == 33456


def test_dedup_builds_no_automorphisms_without_vectors(monkeypatch):
    """Dedup searches automorphisms and lists tuples only when the count
    keeps some vector, so a stream with no vector does neither (Z_2^5
    has no generating vector at b = 1 with r <= 3), and neither does one
    whose vectors are all over the cap (Z_2^4 at b = 1, r <= 3 has
    20,160 vectors, all of genus 13)."""
    import isoprod.covers as covers

    def refuse(*args):
        raise AssertionError("Aut(G) searched or tuples listed without vectors")

    monkeypatch.setattr(covers, "automorphism_stabilizer", refuse)
    monkeypatch.setattr(covers, "_raw_tuples", refuse)
    monkeypatch.setattr(covers, "_gamma_tails", refuse)
    assert list(enumerate_vectors(build_group("ab:2,2,2,2,2"), 1, 3)) == []
    stream = enumerate_vectors(build_group("ab:2,2,2,2"), 1, 3, genus_cap=2)
    assert list(stream) == [] and stream.truncated == 20160


def test_exact_branch_orders():
    G = build_group("ab:2,2")
    covers = [
        cover_of_row(G, 1, row)
        for row in enumerate_vectors(G, 1, 4, dedup=False, exact_branch_orders=[2, 2])
    ]
    assert covers and all(branch_orders(c.vector) == (2, 2) for c in covers)
    assert all(c.genus == 3 for c in covers)


def test_broughton_dimensions_sum():
    G = build_group("ab:2,2")
    t = character_table(G)
    a = abelian_element(G, (1, 0))
    b = abelian_element(G, (0, 1))
    cover = validate_vector(GeneratingVector(G, 1, (a,), (b,), (a, a)))
    dims = isotypic_dimensions(cover, t)
    assert sum(dims) == 2 * cover.genus == 6
    assert dims[t.trivial_index] == 2


def test_consistency_errors_name_their_context():
    """A negative multiplicity names the group, b and the class multiset
    (b = 0 with no branch point is no cover of sym:3); a wrong genus
    names the vector."""
    G = build_group("sym:3")
    t = character_table(G)
    with pytest.raises(ConsistencyError, match=r"sym:3 at b = 0, classes \[\]"):
        h1_multiplicities(t, 0, ())
    cover = cover_of_row(G, 1, next(iter(enumerate_vectors(G, 1, 2))))
    wrong = BranchedCover(cover.vector, cover.genus + 1)
    with pytest.raises(ConsistencyError) as err:
        isotypic_dimensions(wrong, t)
    assert str(cover.vector.to_json()) in str(err.value)


def test_broughton_against_complex_oracle():
    for spec in ["ab:2,2", "sym:3", "dih:4", "quat:8"]:
        G = build_group(spec)
        t = character_table(G)
        count = 0
        for row in enumerate_vectors(G, 1, 3, genus_cap=20, dedup=True):
            cover = cover_of_row(G, 1, row)
            classes = [t.class_of[g] for g in cover.vector.gammas]
            mults = h1_multiplicities(t, 1, classes)
            dims = isotypic_dimensions(cover, t)
            for i, chi in enumerate(t.characters):
                assert mults[i] == broughton_complex(G, t, cover, i)
                assert dims[i] == chi.degree * mults[i]
            count += 1
            if count >= 12:
                break


def test_unramified_genus_one_quotient():
    """b=1, r=0 forces commuting generators; for Z4 the covering curve is
    elliptic (g=1), below the surface-construction threshold, so
    enumerate_vectors lists none of those vectors."""
    G = build_group("ab:4")
    assert list(_raw_tuples(G, 1, 0, []))
    assert hurwitz_genus(4, 1, ()) == 1
    assert not list(enumerate_vectors(G, 1, 0, dedup=False))


def test_multiset_genus_raises_skips_and_ignores_caps():
    """``_multiset_genus`` raises on a multiset with no Riemann-Hurwitz
    genus (one involution on Z2 over P^1), returns None below genus 2
    (Z4 unramified over an elliptic curve) and returns a genus over any
    cap unchanged (four involutions of Z2^2 over an elliptic curve)."""
    G = build_group("ab:2")
    with pytest.raises(GenusError):
        _multiset_genus(G, 0, (class_index(G)[1],))
    assert _multiset_genus(build_group("ab:4"), 1, ()) is None
    G = build_group("ab:2,2")
    t = class_index(G)[abelian_element(G, (1, 0))]
    assert _multiset_genus(G, 1, (t,) * 4) == 5


ORACLE_CASES = (
    [(s, 1, 2, cap, None) for s in builtin_groups_upto(16) for cap in (65, 4)]
    + [
        (s, 1, 4, 65, None)
        for s in ("dih:4", "quat:8", "ab:2,2,2", "ab:3,3", "dih:5", "alt:4")
    ]
    + [
        (s, b, r, 65, None)
        for s in ("sym:3", "dih:4")
        for b, r in ((0, 4), (2, 1))
    ]
    + [("dih:4", 1, 4, 65, (2, 4, 4)), ("ab:2,2,2,2", 1, 3, 2, None)]
)


@pytest.mark.parametrize("spec,b,max_r,cap,exact", ORACLE_CASES)
def test_dedup_matches_marking_oracle(spec, b, max_r, cap, exact):
    """The pruned walk emits exactly the vectors, in the same order and
    with the same genera, that listing every tuple and marking every
    Aut(G) image of each kept one keeps, and the same truncated count."""
    G = build_group(spec)
    stream = enumerate_vectors(
        G, b, max_r, genus_cap=cap, exact_branch_orders=exact
    )
    got = list(stream)
    assert (got, stream.truncated) == dedup_by_marking(G, b, max_r, cap, exact=exact)


@pytest.mark.parametrize("spec", builtin_groups_upto(12))
def test_weight_filter_matches_multiset_keep_rule(spec):
    """A listed vector is kept by its Riemann-Hurwitz weight sum, which
    keeps exactly the rows, in order and with the same genera, that the
    sorted branch-class multiset rule keeps (``listing_kept_by_multiset``),
    at b = 0, 1 and 2, genus caps 5 and 65, dedup on and off."""
    G = build_group(spec)
    for b, max_r in ((0, 4), (1, 3), (2, 1)):
        for cap in (5, 65):
            for dedup in (True, False):
                got = list(enumerate_vectors(G, b, max_r, genus_cap=cap, dedup=dedup))
                want = listing_kept_by_multiset(G, b, max_r, cap, dedup=dedup)
                assert got == want, (b, cap, dedup)


def test_weight_filter_checks_exact_branch_orders():
    """With exact branch orders the walk also lists vectors of other
    order multisets over the same elements (orders 2 and 6 of dih:6,
    among them (2, 2, 6, 6) of genus 5), and the filter drops them as the
    multiset rule does."""
    G = build_group("dih:6")
    exact = (2, 2, 2, 6)
    listed = {
        tuple(sorted(G.element_order[g] for g in gam))
        for _, gam in _raw_tuples(G, 0, 4, _branch_plan(G, None, exact))
    }
    assert exact in listed
    assert any(M != exact and hurwitz_genus(G.order, 0, M) >= 2 for M in listed)
    for dedup in (True, False):
        got = list(enumerate_vectors(G, 0, 4, dedup=dedup, exact_branch_orders=exact))
        covers = [cover_of_row(G, 0, row) for row in got]
        assert {tuple(sorted(branch_orders(c.vector))) for c in covers} == {exact}
        assert got == listing_kept_by_multiset(G, 0, 4, 65, dedup=dedup, exact=exact)


@pytest.mark.parametrize("spec", ["ab:2,2", "ab:6", "dih:3", "dih:4"])
def test_gamma_tails_match_product_oracle(spec):
    """``_gamma_tails`` yields, in order, the tails an ``itertools.product``
    over every remaining gamma keeps, after every gamma prefix at b = 0
    and r <= 4: prefixes that already generate G (no subgroup is tracked
    then) and prefixes that do not, with and without a first-factor
    candidate list (every other allowed gamma)."""
    import itertools

    G = build_group(spec)
    reg = subgroup_registry(G)
    allowed = list(range(1, G.order))
    first = allowed[::2]
    whole = 0
    for r in range(1, 5):
        tails = _gamma_tails(G, r, allowed)
        for k in range(r):
            for prefix in itertools.product(allowed, repeat=k):
                prod, sid = 0, 0
                for g in prefix:
                    prod, sid = G.mult[prod][g], reg.extend(sid, g)
                whole += len(reg.sets[sid]) == G.order
                got = list(tails(prod, sid, k))
                assert got == gamma_tails_brute(G, r, allowed, prefix), (r, prefix)
                if k < r - 1:
                    got = list(tails(prod, sid, k, first))
                    want = gamma_tails_brute(G, r, allowed, prefix, first)
                    assert got == want, (r, prefix, "first")
    assert whole


def test_dedup_walks_no_listing(monkeypatch):
    """Dedup lists no vector to keep one per orbit: the mark-and-skip
    helper and the second, orderly walk are gone, and dih:5 at r <= 4
    takes fewer than 10,000 tuples (listing them all takes 72,060).
    Every listed tuple is a gamma tail of ``_gamma_tails``, to which the
    one walk hands each prefix, so the tails are what is counted; there
    are at least as many as the vectors kept."""
    import isoprod.covers as covers

    assert not hasattr(covers, "_vector_code")
    assert not hasattr(covers, "_canonical_tuples")
    gamma_tails = covers._gamma_tails
    taken = 0

    def counting(*setup):
        tails = gamma_tails(*setup)

        def counted(*state):
            nonlocal taken
            for tail in tails(*state):
                taken += 1
                yield tail

        return counted

    monkeypatch.setattr(covers, "_gamma_tails", counting)
    kept = list(enumerate_vectors(build_group("dih:5"), 1, 4))
    assert kept and len(kept) <= taken < 10_000


def test_canonical_walk_matches_filtering_oracle():
    """The walk on subgroup stabilizers emits the tuples, in order, that
    filtering the list of Aut(G) at every node emits, for every built-in
    group of order <= 16 at b = 0, 1 and 2, and on a few small groups
    at b = 2, r = 2 and b = 1, r = 3, where the walk carries its prefix
    product across the last beta into the gammas; and each memoised
    array of orbit minima is the one of the listed maps that fix its
    subgroup pointwise (None when only the identity does).  The filter
    is keyword-only, so a positional fifth argument is refused."""
    small = {"sym:3", "ab:2,2", "dih:4", "quat:8", "ab:6", "ab:2,2,2"}
    for spec in builtin_groups_upto(16):
        G = build_group(spec)
        auts = automorphisms(G)
        allowed = list(range(1, G.order))
        cases = ((0, 3), (1, 2), (2, 1))
        if spec in small:
            cases += ((2, 2), (1, 3))
        for b, r in cases:
            got = list(_raw_tuples(G, b, r, allowed, dedup=True))
            want = list(canonical_tuples_by_filtering(G, b, r, allowed, auts))
            assert got == want, (spec, b, r)
        sets = subgroup_registry(G).sets
        for sid, mins in G._cache["_orbit_minima"].items():
            stab = [p for p in auts if all(p[x] == x for x in sets[sid])]
            want = None
            if len(stab) > 1:
                want = [min(p[x] for p in stab) for x in range(G.order)]
            assert mins == want, (spec, sid)
    with pytest.raises(TypeError):
        _raw_tuples(G, 1, 2, allowed, True)
