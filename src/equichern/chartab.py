"""Character tables and restriction/induction multiplicity matrices.

Abelian tables are generated (all homomorphisms into roots of unity);
non-abelian tables are ingested from bundled data files and certified by
exact orthogonality.  Tables for subgroups are obtained by generating (if
abelian) or by transport along an explicit isomorphism with a bundled group.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import (
    Cyclotomic,
    CyclotomicError,
    format_cyclotomic,
    parse_cyclotomic,
    weighted_sum,
)
from .groups import as_group, element_conjugacy_classes, find_isomorphism, parse_int
from .qlinalg import RationalMatrix


class ChartabError(ValueError):
    pass


@dataclass(frozen=True)
class Irreducible:
    name: str
    values: tuple  # one Cyclotomic per conjugacy class


@dataclass
class CharacterTable:
    group: object  # FiniteGroup
    class_reps: tuple
    class_sizes: tuple
    class_of: tuple  # element -> class index
    irreducibles: tuple
    conductor: int

    def degree(self, i):
        v = self.irreducibles[i].values[self.class_of[0]]
        return v.as_rational()

    def value(self, i, element):
        return self.irreducibles[i].values[self.class_of[element]]

    @property
    def n_irr(self):
        return len(self.irreducibles)


def _class_data(G):
    classes = element_conjugacy_classes(G)
    reps = tuple(c.rep for c in classes)
    sizes = tuple(len(c.members) for c in classes)
    class_of = [None] * G.order
    for i, c in enumerate(classes):
        for m in c.members:
            class_of[m] = i
    return reps, sizes, tuple(class_of)


def inner_product(table, values_a, values_b):
    """<a, b> = (1/|G|) sum_g a(g) b(g^-1), summed over classes."""
    G = table.group
    return weighted_sum(
        (
            (table.class_sizes[k], values_a[k], values_b[table.class_of[G.inv(rep)]])
            for k, rep in enumerate(table.class_reps)
        ),
        G.order,
    )


def validate_table(table):
    """Exact row orthogonality, degree positivity and the degree-square sum."""
    G = table.group
    n = len(table.class_reps)
    if sum(table.class_sizes) != G.order:
        raise ChartabError("class sizes do not sum to |G|")
    if len(table.irreducibles) != n:
        raise ChartabError(
            f"{len(table.irreducibles)} irreducibles for {n} classes"
        )
    degsq = Fraction(0)
    for chi in table.irreducibles:
        d = chi.values[table.class_of[0]]
        if not d.is_rational() or d.as_rational() <= 0 or d.as_rational().denominator != 1:
            raise ChartabError(f"degree of {chi.name} is not a positive integer")
        degsq += d.as_rational() ** 2
    if degsq != G.order:
        raise ChartabError(f"sum of squared degrees {degsq} != |G| = {G.order}")
    for i, chi in enumerate(table.irreducibles):
        for j, psi in enumerate(table.irreducibles):
            ip = inner_product(table, chi.values, psi.values)
            expected = Fraction(1 if i == j else 0)
            if not ip.is_rational() or ip.as_rational() != expected:
                raise ChartabError(
                    f"orthogonality fails at ({chi.name}, {psi.name}): "
                    f"<.,.> = {format_cyclotomic(ip)}"
                )
    return table


def abelian_character_table(G):
    """All |G| homomorphisms G -> roots of unity, exactly."""
    if not G.is_abelian():
        raise ChartabError(f"{G.name} is not abelian")
    key = ("abelian_chartab",)
    if key in G._cache:
        return G._cache[key]
    n_exp = G.exponent()
    gens = G.generators() if G.order > 1 else ()
    orders = [G.element_order(g) for g in gens]
    chars = {}

    def try_candidate(exps):
        # chi(gens[i]) = zeta_exp ^ ((n_exp // orders[i]) * exps[i])
        val = {0: 0}
        frontier = [0]
        while frontier:
            nxt = []
            for a in frontier:
                for g, o, e in zip(gens, orders, exps):
                    ag = G.mul(a, g)
                    v = (val[a] + (n_exp // o) * e) % n_exp
                    if ag in val:
                        if val[ag] != v:
                            return None
                    else:
                        val[ag] = v
                        nxt.append(ag)
            frontier = nxt
        return tuple(val[g] for g in range(G.order))

    def rec(i, exps):
        if i == len(gens):
            cand = try_candidate(exps)
            if cand is not None:
                chars[cand] = True
            return
        for e in range(orders[i]):
            rec(i + 1, exps + [e])

    rec(0, [])
    if len(chars) != G.order:
        raise ChartabError(
            f"found {len(chars)} characters for abelian group of order {G.order}"
        )
    reps, sizes, class_of = _class_data(G)
    irreducibles = []
    for k, exps in enumerate(sorted(chars)):
        values = tuple(Cyclotomic.root(n_exp, exps[rep]) for rep in reps)
        irreducibles.append(Irreducible(f"chi{k}", values))
    table = CharacterTable(G, reps, sizes, class_of, tuple(irreducibles), n_exp)
    validate_table(table)
    G._cache[key] = table
    return table


def parse_character_table(text, G):
    """Parse `chartab <name>` / `classes:` / `chi <name>: v, v, ...` files."""
    reps_expected, sizes, class_of = _class_data(G)
    name = None
    reps = None
    irreducibles = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if name is None:
            if not line.startswith("chartab"):
                raise ChartabError(f"line {lineno}: expected `chartab <name>`")
            name = line[len("chartab"):].strip()
            if not name:
                raise ChartabError(f"line {lineno}: expected `chartab <name>`")
            continue
        if reps is None:
            if not line.startswith("classes:"):
                raise ChartabError(f"line {lineno}: expected `classes:`")
            reps = tuple(
                parse_int(tok, "class representative", ChartabError, lineno)
                for tok in line.split(":", 1)[1].split()
            )
            if reps != reps_expected:
                raise ChartabError(
                    f"line {lineno}: class representatives {reps} do not match "
                    f"element conjugacy classes {reps_expected} of {G.name}"
                )
            continue
        if not line.startswith("chi"):
            raise ChartabError(f"line {lineno}: expected `chi <name>: ...`")
        head, _, body = line.partition(":")
        chi_name = head[3:].strip()
        try:
            values = tuple(parse_cyclotomic(tok) for tok in body.split(","))
        except CyclotomicError as exc:
            raise ChartabError(f"line {lineno}: {exc}") from None
        if len(values) != len(reps_expected):
            raise ChartabError(
                f"line {lineno}: {len(values)} values for {len(reps_expected)} classes"
            )
        irreducibles.append(Irreducible(chi_name or f"chi{len(irreducibles)}", values))
    if reps is None:
        raise ChartabError("missing `classes:` line")
    table = CharacterTable(
        G, reps_expected, sizes, class_of, tuple(irreducibles), G.exponent()
    )
    return validate_table(table)


def format_character_table(table):
    lines = [f"chartab {table.group.name}"]
    lines.append("classes: " + " ".join(str(r) for r in table.class_reps))
    for chi in table.irreducibles:
        vals = ", ".join(format_cyclotomic(v) for v in chi.values)
        lines.append(f"chi {chi.name}: {vals}")
    return "\n".join(lines) + "\n"


def transport_table(table, phi, target_group):
    """Move a table along an isomorphism phi: table.group -> target_group."""
    A = table.group
    if len(phi) != A.order or target_group.order != A.order:
        raise ChartabError("isomorphism has wrong size")
    reps, sizes, class_of = _class_data(target_group)
    inv_phi = [None] * A.order
    for a, b in enumerate(phi):
        inv_phi[b] = a
    irreducibles = []
    for chi in table.irreducibles:
        values = tuple(chi.values[table.class_of[inv_phi[rep]]] for rep in reps)
        irreducibles.append(Irreducible(chi.name, values))
    out = CharacterTable(
        target_group, reps, sizes, class_of, tuple(irreducibles), table.conductor
    )
    return validate_table(out)


def character_table_for_subgroup(sub, bundled_tables):
    """A character table for a subgroup, over its standalone as_group view.

    Abelian subgroups are generated; non-abelian ones are matched against the
    bundled standalone tables via an explicit isomorphism search.
    """
    view = as_group(sub)
    key = ("chartab_for_subgroup", sub.elems)
    G = sub.group
    if key in G._cache:
        return G._cache[key]
    if view.group.is_abelian():
        table = abelian_character_table(view.group)
    else:
        table = None
        for cand in bundled_tables:
            if cand.group.order != view.group.order:
                continue
            phi = find_isomorphism(cand.group, view.group)
            if phi is not None:
                table = transport_table(cand, phi, view.group)
                break
        if table is None:
            raise ChartabError(
                f"no bundled character table matches the subgroup {sub.literal()} "
                f"of {G.name} (order {sub.order})"
            )
    G._cache[key] = table
    return table


def restriction_matrix(table_g, table_h, sub):
    """Multiplicities <res_H chi_i, psi_j>_H for H = sub embedded in G.

    `table_h` must be a table over as_group(sub).group; the fusion map sends a
    local class to the parent element's value in `table_g`.
    """
    view = as_group(sub)
    if table_h.group.table != view.group.table:
        raise ChartabError("subgroup table does not match the subgroup view")
    H = table_h.group
    parents = [view.to_parent[rep] for rep in table_h.class_reps]
    inverses = [H.inv(rep) for rep in table_h.class_reps]
    a_rows = [[table_g.value(i, y) for y in parents] for i in range(table_g.n_irr)]
    entries = []
    for j in range(table_h.n_irr):
        b = [table_h.value(j, y) for y in inverses]
        row = []
        for i, a in enumerate(a_rows):
            total = weighted_sum(zip(table_h.class_sizes, a, b), H.order)
            if not total.is_rational():
                raise ChartabError(
                    f"non-rational restriction multiplicity at ({i},{j})"
                )
            q = total.as_rational()
            if q.denominator != 1 or q < 0:
                raise ChartabError(
                    f"restriction multiplicity {q} at ({i},{j}) is not a "
                    f"non-negative integer"
                )
            row.append(q)
        entries.append(row)
    return RationalMatrix(table_h.n_irr, table_g.n_irr, entries)


def induction_matrix(table_g, table_h, sub):
    """Frobenius transpose of the restriction matrix, with the degree check."""
    res = restriction_matrix(table_g, table_h, sub)
    ind = res.transpose()
    index = Fraction(table_g.group.order, table_h.group.order)
    for j in range(table_h.n_irr):
        total = sum(
            ind.data[i][j] * table_g.degree(i) for i in range(table_g.n_irr)
        )
        if total != index * table_h.degree(j):
            raise ChartabError(
                f"degree check fails for induced character {j}: "
                f"{total} != {index} * {table_h.degree(j)}"
            )
    return ind
