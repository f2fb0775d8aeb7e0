from __future__ import annotations

import dataclasses
import re
from fractions import Fraction

import pytest

from equichern.chartab import (
    ChartabError,
    Irreducible,
    abelian_character_table,
    character_table_for_subgroup,
    format_character_table,
    induction_matrix,
    inner_product,
    parse_character_table,
    restriction_matrix,
    validate_table,
)
from equichern.cyclotomic import Cyclotomic
from equichern.data import bundled_chartab_text, bundled_chartabs
from equichern.groups import enumerate_subgroups, generated_subgroup, subgroup
from equichern.qlinalg import RationalMatrix


def test_abelian_tables(groups):
    for name in ("z2", "z3", "z4", "z5", "z6", "z7", "z8"):
        G = groups[name]
        t = abelian_character_table(G)
        assert t.n_irr == G.order
        validate_table(t)
    z2 = groups["z2"]
    t = abelian_character_table(z2)
    vals = sorted(
        tuple(v.as_rational() for v in chi.values) for chi in t.irreducibles
    )
    assert vals == [(1, -1), (1, 1)]
    z3 = groups["z3"]
    t3 = abelian_character_table(z3)
    w = Cyclotomic.root(3)
    nontriv = [chi for chi in t3.irreducibles if not all(v == 1 for v in chi.values)]
    assert len(nontriv) == 2
    assert {chi.values[1] for chi in nontriv} == {w, w * w}
    z6 = groups["z6"]
    t6 = abelian_character_table(z6)
    assert t6.n_irr == 6 and t6.conductor == 6


def test_abelian_rejects_nonabelian(s3):
    with pytest.raises(ChartabError):
        abelian_character_table(s3)


def test_bundled_tables_validate():
    for t in bundled_chartabs():
        validate_table(t)


def test_parse_negative_controls(s3):
    text = bundled_chartab_text("s3")
    # perturb one entry: break orthogonality
    bad = text.replace("chi std: 2, 0, -1", "chi std: 2, 1, -1")
    with pytest.raises(ChartabError, match="orthogonality|degree"):
        parse_character_table(bad, s3)
    # wrong classes line
    bad2 = text.replace("classes:", "classes: 0 1 2 #", 1)
    with pytest.raises(ChartabError):
        parse_character_table(bad2, s3)


def test_format_round_trip(s3):
    t = parse_character_table(bundled_chartab_text("s3"), s3)
    t2 = parse_character_table(format_character_table(t), s3)
    for a, b in zip(t.irreducibles, t2.irreducibles):
        assert a.values == b.values


def _table(G, name):
    from equichern.data import bundled_chartab_text

    return parse_character_table(bundled_chartab_text(name), G)


def test_restriction_to_trivial_is_degrees(s3):
    t = _table(s3, "s3")
    triv = generated_subgroup(s3, [])
    t1 = character_table_for_subgroup(triv, bundled_chartabs())
    res = restriction_matrix(t, t1, triv)
    assert res == RationalMatrix.from_rows([[1, 1, 2]])


def test_restriction_to_c3(s3):
    t = _table(s3, "s3")
    c3 = generated_subgroup(s3, [3])
    t3 = character_table_for_subgroup(c3, bundled_chartabs())
    res = restriction_matrix(t, t3, c3)
    # oracle: std has values (2, -1, -1) on C3; inner products with
    # (triv, omega, omega^2) are (0, 1, 1); triv and sgn restrict to triv
    cols = [res.column(i) for i in range(3)]
    assert cols[0] == (1, 0, 0)
    assert cols[1] == (1, 0, 0)
    assert sorted(cols[2]) == [0, 1, 1] and cols[2][0] == 0


def test_restriction_to_c2(s3):
    t = _table(s3, "s3")
    c2 = generated_subgroup(s3, [1])
    t2 = character_table_for_subgroup(c2, bundled_chartabs())
    res = restriction_matrix(t, t2, c2)
    # triv -> triv, sgn -> sgn, std -> triv + sgn
    assert res.column(2) == (1, 1)
    assert sorted(res.column(0)) == [0, 1]
    assert sorted(res.column(1)) == [0, 1]
    assert res.column(0) != res.column(1)


def test_restriction_to_self_is_identity(s3):
    t = _table(s3, "s3")
    full = subgroup(s3, range(6))
    t_full = character_table_for_subgroup(full, bundled_chartabs())
    res = restriction_matrix(t, t_full, full)
    # up to the irreducible ordering of the transported table this is a
    # permutation matrix with unit columns
    for i in range(3):
        col = res.column(i)
        assert sorted(col) == [0, 0, 1]


def _scaled_first_character(t, c):
    """The table with its first irreducible multiplied by c, unvalidated."""
    first = t.irreducibles[0]
    scaled = Irreducible(first.name, tuple(v * c for v in first.values))
    return dataclasses.replace(t, irreducibles=(scaled,) + t.irreducibles[1:])


@pytest.mark.parametrize(
    "factor,message",
    [
        (-1, "restriction multiplicity -1 at (0,0) is not a non-negative integer"),
        (Fraction(1, 2), "restriction multiplicity 1/2 at (0,0) is not a non-negative integer"),
        (Cyclotomic.root(3), "non-rational restriction multiplicity at (0,0)"),
    ],
)
def test_restriction_matrix_rejects_bad_multiplicities(s3, factor, message):
    t = _scaled_first_character(_table(s3, "s3"), factor)
    c3 = generated_subgroup(s3, [3])
    t3 = character_table_for_subgroup(c3, bundled_chartabs())
    with pytest.raises(ChartabError, match=re.escape(message)):
        restriction_matrix(t, t3, c3)


def test_induction_matrix_is_transpose_with_degree_check(s3):
    t = _table(s3, "s3")
    c3 = generated_subgroup(s3, [3])
    t3 = character_table_for_subgroup(c3, bundled_chartabs())
    ind = induction_matrix(t, t3, c3)
    res = restriction_matrix(t, t3, c3)
    assert ind == res.transpose()
    # Frobenius: ind(triv_C3) = triv + sgn (degree 2 = [S3:C3])
    col = ind.column(0)
    assert col == (1, 1, 0)
    t1 = character_table_for_subgroup(generated_subgroup(s3, []), bundled_chartabs())
    ind1 = induction_matrix(t, t1, generated_subgroup(s3, []))
    # ind from 1 = regular representation = triv + sgn + 2 std
    assert ind1.column(0) == (1, 1, 2)


def test_subgroup_tables_for_s4(s4):
    # non-abelian subgroups of S4 (S3, D4, A4, S4) are matched by isomorphism
    tables = bundled_chartabs()
    for sub in enumerate_subgroups(s4):
        t = character_table_for_subgroup(sub, tables)
        validate_table(t)
        assert t.group.order == sub.order


def test_inner_products_are_rational_on_validated_tables():
    for t in bundled_chartabs():
        for chi in t.irreducibles:
            for psi in t.irreducibles:
                assert inner_product(t, chi.values, psi.values).is_rational()


@pytest.mark.parametrize(
    "old,new,message",
    [
        ("chartab s3", "chartab", "line 1: expected `chartab <name>`"),
        ("classes: 0 1 3", "classes: 0 one 3", "line 2: bad class representative 'one'"),
        ("chi sgn: 1, -1, 1", "chi sgn: 1, -1/0, 1", "line 4: zero denominator"),
        ("chi sgn: 1, -1, 1", "chi sgn: 1, z(0), 1", "line 4: z(0) is not a root of unity"),
        ("chi std: 2, 0, -1", "chi std: 2, 0, x", "line 5: bad cyclotomic term 'x'"),
    ],
)
def test_bad_character_table_names_the_line(s3, old, new, message):
    text = bundled_chartab_text("s3")
    assert old in text
    with pytest.raises(ChartabError, match=re.escape(message)):
        parse_character_table(text.replace(old, new), s3)
