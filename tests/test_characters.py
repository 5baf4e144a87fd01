import copy
import gc
import json
import random
import weakref
from itertools import combinations_with_replacement

import pytest

from isoprod import characters, groups
from isoprod.characters import (
    Character,
    CharacterTable,
    SubgroupChars,
    _abelian_characters,
    _charpoly_mod,
    _dixon_characters,
    character_table,
    find_constituent_avoiding,
    induced_character,
    restriction_multiplicity,
)
from isoprod.classify import _kernel_masks
from isoprod.covers import h1_multiplicities
from isoprod.cyclotomic import Cyc
from isoprod.errors import ConsistencyError, DomainError
from isoprod.groups import (
    _greedy_generators,
    abelian_element,
    all_subgroups,
    build_group,
    builtin_groups_upto,
    class_index,
    conjugacy_classes,
)

from oracles import (
    complex_table,
    conjugate_index,
    cyc_complex,
    decompose,
    det_mod,
    first_constituent_by_scan,
    fold_orthogonality_failures,
    induced_complex,
    kernel_by_values,
    inner_complex,
    restriction_complex,
    trivial_multiplicity,
)


def test_degrees_of_known_groups():
    expected = {
        "ab:2": [1, 1],
        "sym:3": [1, 1, 2],
        "dih:4": [1, 1, 1, 1, 2],
        "quat:8": [1, 1, 1, 1, 2],
        "alt:4": [1, 1, 1, 3],
        "sym:4": [1, 1, 2, 3, 3],
        "dih:5": [1, 1, 2, 2],
        "dih:6": [1, 1, 1, 1, 2, 2],
    }
    for spec, degrees in expected.items():
        t = character_table(build_group(spec))
        assert [c.degree for c in t.characters] == degrees, spec


def test_orthogonality_complex_oracle():
    """Cross-check the exact tables against plain complex arithmetic:
    the row relation, and the column relation Sum_chi chi(g_r)
    conj(chi(g_s)) = |C_G(g_r)| [r = s], which ``check`` leaves implied."""
    for spec in ["sym:3", "dih:4", "quat:8", "alt:4", "ab:2,6", "sym:4"]:
        t = character_table(build_group(spec))
        k = len(t.characters)
        for i in range(k):
            for j in range(k):
                got = inner_complex(t, i, j)
                want = 1.0 if i == j else 0.0
                assert abs(got - want) < 1e-9, (spec, i, j)
        vals = complex_table(t)
        for r, cl in enumerate(t.classes):
            for s in range(k):
                got = sum(row[r] * row[s].conjugate() for row in vals)
                want = t.group.order / len(cl.members) if r == s else 0.0
                assert abs(got - want) < 1e-9, (spec, r, s)


@pytest.mark.parametrize(
    "spec", ["sym:3", "dih:4", "quat:8", "alt:4", "dih:5", "sym:4"]
)
def test_single_unit_moves_are_rejected(spec):
    """Moving one unit of one (character, class) multiplicity vector to
    another exponent changes a value, and ``check`` rejects every such
    table: at the identity class by the identity column, elsewhere by
    the row relation."""
    G = build_group(spec)
    chars = list(character_table(G).characters)
    e = G.exponent
    moves = 0
    for i, chi in enumerate(chars):
        for ci, v in enumerate(chi.values):
            for a in range(e):
                if not v[a]:
                    continue
                for b in range(e):
                    if b == a:
                        continue
                    moved = list(v)
                    moved[a] -= 1
                    moved[b] += 1
                    values = list(chi.values)
                    values[ci] = tuple(moved)
                    edited = list(chars)
                    edited[i] = Character(chi.degree, tuple(values))
                    with pytest.raises(ConsistencyError):
                        CharacterTable(G, edited)
                    moves += 1
    assert moves >= len(chars) * len(chars) * (e - 1)


def test_abelian_and_dixon_agree():
    for spec in builtin_groups_upto(24):
        G = build_group(spec)
        if not G.is_abelian():
            continue
        ta = CharacterTable(G, _abelian_characters(G))
        td = CharacterTable(G, _dixon_characters(G))
        assert ta.characters == td.characters, spec


def _charpoly_cases():
    rng = random.Random(19)
    for p in (31, 61):
        for d in range(1, 7):
            for _ in range(3):
                yield [[rng.randrange(p) for _ in range(d)] for _ in range(d)], p
    yield [[0] * 4 for _ in range(4)], 31
    # nilpotent Jordan block: no sub-diagonal pivot in any column
    yield [[int(j == i + 1) for j in range(5)] for i in range(5)], 31
    # first sub-diagonal entry 0, a lower one not: rows and columns swap
    yield [[1, 2, 3, 4], [0, 5, 6, 7], [8, 9, 10, 11], [12, 13, 14, 15]], 61


def test_charpoly_matches_determinant_oracle():
    """det(xI - A) from the Hessenberg recurrence agrees with a plain
    Gaussian-elimination determinant of lambda*I - A at every lambda."""
    for A, p in _charpoly_cases():
        d = len(A)
        cp = _charpoly_mod(A, p)
        assert len(cp) == d + 1 and cp[-1] == 1, A
        for lam in range(p):
            got = sum(c * lam**t for t, c in enumerate(cp)) % p
            want = det_mod(
                [[int(i == j) * lam - A[i][j] for j in range(d)] for i in range(d)],
                p,
            )
            assert got == want, (A, p, lam)


@pytest.mark.parametrize("spec,k", [("sym:5", 7), ("dih:30", 18)])
def test_dixon_solves_only_at_eigenvalues(monkeypatch, spec, k):
    """Dixon takes the eigenvalues of each class-sum matrix from its
    characteristic polynomial, so it solves for a nullspace a few times
    per class, not once per element of F_p (p > 2|G|)."""
    G = build_group(spec)
    assert len(conjugacy_classes(G)) == k
    nullspace = characters._nullspace_mod
    calls = []

    def counted(mat, p):
        calls.append(p)
        return nullspace(mat, p)

    monkeypatch.setattr(characters, "_nullspace_mod", counted)
    _dixon_characters(G)
    assert 0 < len(calls) <= 3 * k


def test_kernel_and_trivial_multiplicity():
    G = build_group("sym:3")
    t = character_table(G)
    # the trivial character has full kernel; the others' kernels are known
    kernels = sorted(len(t.kernel(i)) for i in range(3))
    assert kernels == [1, 3, 6]  # faithful deg-2, sign (ker = A3), trivial
    transposition = next(g for g in range(6) if G.element_order[g] == 2)
    # l_sigma for an involution: trivial -> 1, sign -> 0, standard -> 1
    ls = sorted(trivial_multiplicity(t, i, transposition) for i in range(3))
    assert ls == [0, 1, 1]
    # l over the identity equals the degree
    for i, c in enumerate(t.characters):
        assert trivial_multiplicity(t, i, 0) == c.degree


def test_tables_closed_under_conjugation():
    """conj(chi) is a row of every table, found by complex values: the
    built-ins of order <= 32, sym:5, alt:5 and dih:30.  The table keeps
    no conjugate lookup of its own; ab:5 has four non-real characters."""
    for spec in builtin_groups_upto(32) + ["sym:5", "alt:5", "dih:30"]:
        conj = conjugate_index(character_table(build_group(spec)))
        assert None not in conj, spec
        assert all(conj[j] == i for i, j in enumerate(conj)), spec
    conj = conjugate_index(character_table(build_group("ab:5")))
    assert sum(1 for i, j in enumerate(conj) if i != j) == 4


def test_h1_multiplicities_agree_at_conjugates():
    """l_gamma(chi) = l_gamma(conj chi), so Broughton's formula gives chi
    and conj(chi) one multiplicity: every 2-multiset of non-identity
    classes at b = 0, 1, 2 on the built-ins of order <= 16.  At b = 0 two
    branch points leave most multiplicities negative (no such cover
    exists), so b = 0 also runs every 4-multiset; the multisets with a
    negative multiplicity are refused and skipped there."""
    checked = 0
    for spec in builtin_groups_upto(16):
        t = character_table(build_group(spec))
        conj = conjugate_index(t)
        k = len(t.classes)
        for b, r in [(0, 2), (0, 4), (1, 2), (2, 2)]:
            for M in combinations_with_replacement(range(1, k), r):
                try:
                    mults = h1_multiplicities(t, b, M)
                except ConsistencyError:
                    assert b == 0, (spec, b, M)
                    continue
                assert all(mults[i] == mults[j] for i, j in enumerate(conj))
                checked += 1
    assert checked > 10000


def test_value_rendering():
    t = character_table(build_group("ab:4"))
    rendered = {
        t.value(i, g).render() for i in range(4) for g in range(4)
    }
    assert "z4" in rendered and "-z4" in rendered and "-1" in rendered


def test_json_roundtrip():
    """``to_json``, which ``chartab`` prints, carries the whole table:
    the characters read back from it make the same checked table."""
    G = build_group("dih:4")
    t = character_table(G)
    data = json.loads(json.dumps(t.to_json()))
    chars = [
        Character(c["degree"], tuple(tuple(v) for v in c["values"]))
        for c in data["characters"]
    ]
    assert CharacterTable(G, chars).characters == t.characters


def test_table_is_memoised_on_its_group(monkeypatch):
    """A group's table is computed once and bound to that group; a
    second GroupTable with the same Cayley table gets a table of its
    own, with the same characters."""
    dixon = characters._dixon_characters
    calls = []

    def counted(G):
        calls.append(G)
        return dixon(G)

    monkeypatch.setattr(characters, "_dixon_characters", counted)
    G1, G2 = build_group("sym:3"), build_group("sym:3")
    assert G1 is not G2
    t1 = character_table(G1)
    assert character_table(G1) is t1 and t1.group is G1
    t2 = character_table(G2)
    assert t2 is not t1 and t2.group is G2
    assert t2.characters == t1.characters
    assert calls == [G1, G2]


def test_generators_are_derived_once_per_group(monkeypatch):
    """The greedy generators that validation tests associativity on are
    kept on the table, and its character table reads them there: one
    ``_greedy_generators`` call per group, on the abelian path (the
    linear characters and their check) and on Dixon's (the check)."""
    greedy = groups._greedy_generators
    calls = []

    def counted(mult):
        calls.append(len(mult))
        return greedy(mult)

    # also in any module that imports the name itself
    for module in (groups, characters):
        monkeypatch.setattr(module, "_greedy_generators", counted, raising=False)
    for spec in ("ab:2,2,2", "sym:4"):
        calls.clear()
        G = build_group(spec)
        character_table(G)
        assert calls == [G.order], spec
        assert G.generators == tuple(greedy(G.mult)), spec


def test_table_does_not_outlive_its_group():
    """Nothing but the group holds its table: once the group is gone,
    so is the table."""
    G = build_group("sym:4")
    ref = weakref.ref(character_table(G))
    assert ref() is not None
    del G
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize(
    "kind, arg",
    [("value", (2, 0, 0, 0, 0, 0)), ("value", (1, 0, 0, 0, 1, 0)),
     ("degrees", (0, 2)), ("degrees", (1, 2)),
     ("trivial", (2, 0, 0, 1, 0, 0))],
    ids=["value-2", "value-1-1", "degrees-0-2", "degrees-1-2", "trivial"],
)
def test_edited_sym3_table_is_rejected(capsys, monkeypatch, kind, arg):
    """``check`` rejects sym:3's table with one edit: the degree-2
    character's value at the 3-cycles changed (still summing to the
    degree), whether or not the row stays closed under complex
    conjugation; the degrees of two characters swapped (the values at
    the identity no longer equal the degrees); or the trivial
    character's vector at the transpositions written as
    [2, 0, 0, 1, 0, 0], which keeps the value 2 - 1 = 1, so the row
    relation cannot see it, but is three eigenvalues for a degree-1
    character.  ``chartab`` on such a table exits 3 with an error
    message, not a traceback from the lookups that read the vectors."""
    from isoprod.cli import main

    G = build_group("sym:3")
    chars = list(character_table(G).characters)
    order = [G.element_order[c.representative] for c in conjugacy_classes(G)]
    if kind == "degrees":
        a, b = (chars[i] for i in arg)
        assert a.degree != b.degree
        chars[arg[0]] = Character(b.degree, a.values)
        chars[arg[1]] = Character(a.degree, b.values)
    else:
        if kind == "value":
            i = next(i for i, c in enumerate(chars) if c.degree == 2)
            r, old = order.index(3), (0, 0, 1, 0, 1, 0)
        else:
            i = next(
                i for i, c in enumerate(chars) if all(v[0] == 1 for v in c.values)
            )
            r, old = order.index(2), (1, 0, 0, 0, 0, 0)
        values = list(chars[i].values)
        assert values[r] == old
        values[r] = arg
        chars[i] = Character(chars[i].degree, tuple(values))
    with pytest.raises(ConsistencyError):
        CharacterTable(G, chars)
    monkeypatch.setattr(characters, "_dixon_characters", lambda G: chars)
    assert main(["chartab", "sym:3"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def test_full_fold_accepts_every_builtin_table():
    """The full row fold, every pair folded, accepts every table ``check``
    accepts while skipping the pairs of certified linear characters:
    the built-ins of order <= 32, sym:5, alt:5 and dih:30."""
    for spec in builtin_groups_upto(32) + ["sym:5", "alt:5", "dih:30"]:
        G = build_group(spec)
        assert fold_orthogonality_failures(G, character_table(G).characters) == []


def test_repeated_linear_character_is_rejected():
    """Two equal rows that are both homomorphisms are refused before any
    pair is folded, on an abelian and a non-abelian table; Burnside's
    identity cannot see it."""
    for spec in ("ab:4", "sym:3"):
        G = build_group(spec)
        chars = list(character_table(G).characters)
        chars[1] = chars[0]
        with pytest.raises(ConsistencyError, match="same linear character"):
            CharacterTable(G, chars)


def test_non_multiplicative_linear_row_is_rejected_by_the_fold():
    """The trivial row of ab:4 with the value -1 at the element of order
    2 is still a multiset of square roots of unity at every class, but
    not a homomorphism, so it is not certified and the row relation
    rejects it, as the full fold does.  So is the row of ab:3,3 with the
    value zeta_3 at every (a, b), a != 0, in place of the row b of the
    nine homomorphisms (a, b) -> ia + jb (mod 3), built here: it is
    multiplicative along the first greedy generator (0, 1) and not along
    the second, so only a test of every generator refuses it."""

    def refused(G, chars):
        assert fold_orthogonality_failures(G, chars), G.spec
        with pytest.raises(ConsistencyError, match="row orthogonality"):
            CharacterTable(G, chars)

    G = build_group("ab:4")
    chars = list(character_table(G).characters)
    two = abelian_element(G, (2,))
    r = class_index(G)[two]
    i = next(i for i, c in enumerate(chars) if all(v[0] == 1 for v in c.values))
    values = list(chars[i].values)
    assert values[r] == (1, 0, 0, 0)
    values[r] = (0, 0, 1, 0)
    chars[i] = Character(1, tuple(values))
    refused(G, chars)

    G = build_group("ab:3,3")
    coords = {abelian_element(G, (a, b)): (a, b) for a in range(3) for b in range(3)}
    assert _greedy_generators(G.mult) == [
        abelian_element(G, (0, 1)),
        abelian_element(G, (1, 0)),
    ]
    units = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def row(k):
        """The degree-1 row with exponent k(a, b) at the class of (a, b)."""
        reps = [coords[c.representative] for c in conjugacy_classes(G)]
        return Character(1, tuple(units[k(a, b)] for a, b in reps))

    chars = [row(lambda a, b: (i * a + j * b) % 3) for i in range(3) for j in range(3)]
    CharacterTable(G, chars)
    chars[1] = row(lambda a, b: int(a != 0))
    refused(G, chars)


def test_induced_from_a3():
    """Induce the nontrivial characters of A3 < S3: each gives the
    degree-2 irreducible."""
    G = build_group("sym:3")
    t = character_table(G)
    A3 = next(s for s in all_subgroups(G) if len(s) == 3)
    sc = SubgroupChars(G, A3)
    deg2 = next(i for i, c in enumerate(t.characters) if c.degree == 2)
    for i in range(3):
        vals = induced_character(t, sc, i)
        mults = decompose(t, vals)
        if i == sc.table.trivial_index:
            # trivial induces trivial + sign
            assert mults[deg2] == 0 and sum(mults) == 2
        else:
            assert mults == tuple(
                1 if j == deg2 else 0 for j in range(3)
            )


def test_decompose_rejects_class_functions_that_are_not_characters():
    """<f, chi> must be a non-negative integer: zeta_3 at every class of
    Z_3 gives an irrational one, 1 at the identity of Z_2 and 0 elsewhere
    gives 1/2, and minus the trivial character gives -1."""
    t3 = character_table(build_group("ab:3"))
    with pytest.raises(ValueError, match="not a character"):
        decompose(t3, [Cyc(3, [0, 1])] * 3)
    t2 = character_table(build_group("ab:2"))
    with pytest.raises(ValueError, match="not a character"):
        decompose(t2, [Cyc(2, [1]), Cyc(2, [0])])
    with pytest.raises(ValueError, match="not a character"):
        decompose(t2, [Cyc(2, [-1]), Cyc(2, [-1])])


def test_frobenius_reciprocity():
    G = build_group("sym:4")
    t = character_table(G)
    for elems in all_subgroups(G):
        if len(elems) in (1, G.order) or len(elems) > 8:
            continue
        sc = SubgroupChars(G, elems)
        for i in range(len(sc.table.characters)):
            vals = induced_character(t, sc, i)
            mults = decompose(t, vals)
            for j in range(len(t.characters)):
                assert mults[j] == restriction_multiplicity(t, sc, j, i)


def test_restriction_and_induction_match_complex_oracle():
    """The integer class-sum kernel against element-wise complex sums, on
    every proper nontrivial subgroup, including ones with e_H < e_G."""
    smaller_exponent = 0
    for spec in ["sym:4", "dih:6", "quat:8", "ab:2,6", "ab:2,2,2"]:
        G = build_group(spec)
        t = character_table(G)
        for elems in all_subgroups(G):
            if len(elems) in (1, G.order):
                continue
            sc = SubgroupChars(G, elems, parent_table=t)
            smaller_exponent += sc.table.exponent < t.exponent
            for i in range(len(sc.table.characters)):
                for j in range(len(t.characters)):
                    want = restriction_complex(t, sc, j, i)
                    got = restriction_multiplicity(t, sc, j, i)
                    assert abs(want - got) < 1e-9, (spec, sorted(elems), j, i)
                vals = induced_character(t, sc, i)
                for got, want in zip(vals, induced_complex(t, sc, i)):
                    assert abs(cyc_complex(got) - want) < 1e-9, (spec, i)
    assert smaller_exponent > 0


def _a3_in_s3():
    G = build_group("sym:3")
    A3 = next(s for s in all_subgroups(G) if len(s) == 3)
    return character_table(G), SubgroupChars(G, A3)


def test_restriction_error_names_group_subgroup_and_characters():
    t, sc = _a3_in_s3()
    nontriv = next(i for i in range(3) if i != sc.table.trivial_index)
    # a private copy of the subgroup table with one character replaced by
    # zeta_3 everywhere: restricting the trivial character gives 3/zeta_3
    sc.table = copy.copy(sc.table)
    broken = Character(1, ((0, 1, 0),) * len(sc.table.classes))
    sc.table.characters = tuple(
        broken if k == nontriv else c for k, c in enumerate(sc.table.characters)
    )
    sc.table.sparse = tuple(
        tuple(map(characters._sparse, broken.values)) if k == nontriv else rows
        for k, rows in enumerate(sc.table.sparse)
    )
    with pytest.raises(ConsistencyError) as err:
        restriction_multiplicity(t, sc, t.trivial_index, nontriv)
    msg = str(err.value)
    assert "sym:3" in msg and str(sorted(sc.elements)) in msg
    assert f"phi_{t.trivial_index}" in msg and f"chi_{nontriv}" in msg


def test_induced_error_names_group_subgroup_and_character():
    """chi^G(g) is an algebraic integer, so a class sum that |C_G(g)|/|H|
    does not divide exactly (here from a subgroup order that does not
    match its table) is a ConsistencyError."""
    t, sc = _a3_in_s3()
    sc.H = build_group("ab:4")
    with pytest.raises(ConsistencyError) as err:
        induced_character(t, sc, sc.table.trivial_index)
    msg = str(err.value)
    assert "algebraic integer" in msg and "sym:3" in msg
    assert str(sorted(sc.elements)) in msg
    assert f"chi_{sc.table.trivial_index}^G" in msg


def test_induced_against_another_table_is_rejected():
    """The facts kept on a SubgroupChars are those of its parent table; a
    copy of that table, which may have been edited, is refused."""
    t, sc = _a3_in_s3()
    other = copy.copy(t)
    nontriv = next(i for i in range(3) if i != sc.table.trivial_index)
    threecycle = next(g for g in sc.elements if g != 0)
    for ask in (
        lambda: induced_character(other, sc, nontriv),
        lambda: find_constituent_avoiding(other, sc, nontriv, [threecycle]),
    ):
        with pytest.raises(DomainError) as err:
            ask()
        assert characters._where(sc) in str(err.value)
    assert induced_character(t, sc, nontriv) is induced_character(t, sc, nontriv)


def test_lemma_error_names_group_subgroup_and_character(monkeypatch):
    t, sc = _a3_in_s3()
    nontriv = next(i for i in range(3) if i != sc.table.trivial_index)
    threecycle = next(g for g in sc.elements if g != 0)
    monkeypatch.setattr(characters, "restriction_multiplicity", lambda *a: 0)
    with pytest.raises(ConsistencyError) as err:
        find_constituent_avoiding(t, sc, nontriv, [threecycle])
    msg = str(err.value)
    assert "induced-character lemma" in msg and "sym:3" in msg
    assert str(sorted(sc.elements)) in msg and f"chi_{nontriv}" in msg
    assert f"avoid [{threecycle}]" in msg


def test_find_constituent_preconditions():
    G = build_group("sym:3")
    t = character_table(G)
    A3 = next(s for s in all_subgroups(G) if len(s) == 3)
    sc = SubgroupChars(G, A3)
    triv = sc.table.trivial_index
    with pytest.raises(DomainError):
        # avoid set meets the kernel of the trivial character
        find_constituent_avoiding(t, sc, triv, [3])
    with pytest.raises(DomainError):
        # avoid set leaves the subgroup
        nontriv = next(i for i in range(3) if i != triv)
        outside = next(g for g in range(6) if g not in sc.elements)
        find_constituent_avoiding(t, sc, nontriv, [outside])


def test_find_constituent_with_vanishing_point():
    G = build_group("sym:3")
    t = character_table(G)
    A3 = next(s for s in all_subgroups(G) if len(s) == 3)
    sc = SubgroupChars(G, A3)
    nontriv = next(i for i in range(3) if i != sc.table.trivial_index)
    transposition = next(g for g in range(6) if G.element_order[g] == 2)
    threecycle = next(g for g in sc.elements if g != 0)
    phi = find_constituent_avoiding(
        t, sc, nontriv, [threecycle], extra=transposition
    )
    assert phi.degree == 2  # only the standard rep works here


def _lemma_queries(G, tG):
    """Criterion 8's queries on G: for each subgroup H != 1 and chi of H,
    (avoid, extra) for every h of H outside Ker(chi) (part (i)) and, where
    chi^G vanishes, the first such h with the first vanishing class
    representative (part (ii)).  Kernels are read from the values."""
    for elems in all_subgroups(G):
        if len(elems) == 1:
            continue
        sc = SubgroupChars(G, elems, parent_table=tG)
        for i in range(len(sc.table.characters)):
            ker = {sc.embed[h] for h in kernel_by_values(sc.table, i)}
            outside = sorted(sc.elements - ker)
            if not outside:
                continue
            queries = [([h], None) for h in outside]
            vals = induced_complex(tG, sc, i)
            zero = [
                cl.representative for cl, v in zip(tG.classes, vals) if abs(v) < 1e-9
            ]
            if zero:
                queries.append(([outside[0]], zero[0]))
            yield sc, i, queries


@pytest.mark.parametrize("spec", ["dih:6", "alt:4", "quat:8", "ab:2,2,2", "sym:4"])
def test_constituent_matches_scan_oracle(spec):
    """The kept constituent list gives the very phi of a fresh scan, on
    every criterion-8 instance, asked twice so that the second round
    reads only kept facts."""
    G = build_group(spec)
    tG = character_table(G)
    parts = [0, 0]
    for sc, i, queries in _lemma_queries(G, tG):
        for _ in range(2):
            for avoid, extra in queries:
                want = first_constituent_by_scan(tG, sc, i, avoid, extra)
                assert want is not None, (spec, sorted(sc.elements), i, avoid)
                got = find_constituent_avoiding(tG, sc, i, avoid, extra=extra)
                assert got is want, (spec, sorted(sc.elements), i, avoid, extra)
                parts[extra is not None] += 1
    assert all(parts)


@pytest.mark.parametrize(
    "spec, builds", [("dih:6", 5), ("ab:9", 1), ("ab:2,2,2", 2), ("alt:4", 3)]
)
def test_subgroup_tables_are_built_once_per_reindexed_table(
    monkeypatch, spec, builds
):
    """Over every subgroup H != 1, as criterion 8 asks for them, one
    character table is built per distinct multiplication table of H
    re-indexed in element order, none for G itself, whose table is
    already built, and subgroups with one re-indexed table share H."""
    G = build_group(spec)
    tG = character_table(G)
    built = []
    for name in ("_abelian_characters", "_dixon_characters"):
        make = getattr(characters, name)
        monkeypatch.setattr(
            characters, name, lambda H, make=make: built.append(H) or make(H)
        )
    shared = {}
    for elems in all_subgroups(G):
        if len(elems) == 1:
            continue
        sc = SubgroupChars(G, elems, parent_table=tG)
        embed = sorted(elems)
        assert sc.embed == tuple(embed)
        if len(elems) == G.order:
            assert sc.H is G and sc.table is tG
            continue
        mult = tuple(
            tuple(embed.index(G.mult[a][b]) for b in embed) for a in embed
        )
        assert sc.H.mult == mult
        assert shared.setdefault(mult, sc.H) is sc.H
    assert len(built) == len(shared) == builds
    assert {id(H) for H in built} == {id(H) for H in shared.values()}


def test_shared_subgroup_tables_do_not_outlive_their_group():
    """The subgroup tables interned on a group are freed with the group:
    each keeps its character table in its memo, so that table outlives
    its subgroup table if the group's intern does."""
    G = build_group("ab:2,2,2")
    subs = [SubgroupChars(G, e) for e in all_subgroups(G) if len(e) in (2, 4)]
    assert len({id(sc.H) for sc in subs}) == 2
    assert all(character_table(sc.H) is sc.table for sc in subs)
    refs = [weakref.ref(sc.table) for sc in subs]
    del G, subs
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_lemma_work_is_done_once_per_subgroup_character(monkeypatch):
    """Across every query on one (H, chi), chi is restricted against each
    phi at most once and chi^G is summed once, though both the caller and
    ``extra`` ask for it; a second round over the same subgroups does no
    such work."""
    G = build_group("alt:4")
    tG = character_table(G)
    calls = {"restrict": 0, "induce": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(
        characters,
        "restriction_multiplicity",
        counted("restrict", characters.restriction_multiplicity),
    )
    monkeypatch.setattr(characters, "_induce", counted("induce", characters._induce))
    instances = list(_lemma_queries(G, tG))
    with_extra = 0
    for round_ in range(2):
        for sc, i, queries in instances:
            before = dict(calls)
            induced_character(tG, sc, i)
            for avoid, extra in queries:
                find_constituent_avoiding(tG, sc, i, avoid, extra=extra)
                with_extra += extra is not None
            restricted = calls["restrict"] - before["restrict"]
            induced = calls["induce"] - before["induce"]
            if round_ == 0:
                assert restricted <= len(tG.characters) and induced == 1
            else:
                assert restricted == induced == 0
    assert with_extra > 0


def test_kernels_are_kept_and_match_values():
    """Every kernel of every table of a built-in of order <= 16 and of its
    subgroups equals a fresh read of the values and is kept: a repeated
    call returns the same object.  The sweep's kernel masks agree."""
    for spec in builtin_groups_upto(16):
        G = build_group(spec)
        tG = character_table(G)
        tables = [tG] + [SubgroupChars(G, e).table for e in all_subgroups(G)]
        for t in tables:
            for i, chi in enumerate(t.characters):
                ker = t.kernel(i)
                assert ker == kernel_by_values(t, i), (spec, t.group.spec, i)
                assert t.kernel(i) is ker and t.kernel(chi) is ker
        masks = tuple(
            sum(1 << g for g in kernel_by_values(tG, i))
            for i in range(len(tG.characters))
        )
        assert _kernel_masks(G)[0] == masks, spec


def test_copied_table_reads_no_stale_kernel():
    """A copy of a table may have its characters edited, so it keeps no
    kernel of the original."""
    t = character_table(build_group("sym:3"))
    sign = next(
        i for i, c in enumerate(t.characters) if c.degree == 1 and i != t.trivial_index
    )
    assert len(t.kernel(sign)) == 3
    edited = copy.copy(t)
    edited.characters = tuple(
        t.characters[t.trivial_index] if i == sign else c
        for i, c in enumerate(t.characters)
    )
    assert edited.kernel(sign) == frozenset(range(6))
    assert len(t.kernel(sign)) == 3


def test_complex_values_match_oracle():
    """Exact multiplicity-vector values vs complex class sums for a
    non-abelian group with irrational character values."""
    G = build_group("dih:5")
    t = character_table(G)
    vals = complex_table(t)
    import cmath

    # the two degree-2 characters at a rotation r: 2cos(2pi k/5)
    rot = next(g for g in range(10) if G.element_order[g] == 5)
    got = sorted(
        round(vals[i][t.class_of[rot]].real, 6)
        for i, c in enumerate(t.characters)
        if c.degree == 2
    )
    want = sorted(
        round(2 * cmath.cos(2 * cmath.pi * k / 5).real, 6) for k in (1, 2)
    )
    assert got == want
