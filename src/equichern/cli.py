"""Command-line front end: ingest files, run computations, emit reports.

Exit codes: 0 success, 1 verification mismatch, 2 input/validation error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import data as bundled
from .bredon import CoefficientSystem, CollapseRow, bredon_report, verify_collapse
from .chartab import ChartabError, parse_character_table, validate_table
from .cyclotomic import CyclotomicError
from .eicat import CategoryError, build_or_category, build_sub_category
from .gcw import (
    GcwError,
    builtin_examples,
    euler_check,
    orbit_complex,
    parse_gcw,
    point_complex,
)
from .groups import (
    GroupError,
    GroupParseError,
    double_cosets,
    enumerate_subgroups,
    parse_group,
    parse_subgroup_literal,
    subgroup_conjugacy_classes,
    subgroup_count_oracle,
)
from .mackey import (
    MackeyError,
    builtin_mackey,
    nu_of_mackey,
    parse_mackey,
    validate_mackey,
)

INPUT_ERRORS = (
    GroupError,
    GroupParseError,
    GcwError,
    MackeyError,
    ChartabError,
    CyclotomicError,
    CategoryError,
    OSError,
    KeyError,
    ValueError,
)


def _load_group(spec, cap):
    if spec in bundled.bundled_group_names():
        G = bundled.bundled_group(spec)
    else:
        G = parse_group(Path(spec).read_text(encoding="utf-8"))
    if G.order > cap:
        raise GroupError(f"group order {G.order} exceeds --cap {cap}")
    return G


def _load_space(spec, G):
    if spec == "point":
        return point_complex(G)
    if spec.startswith("orbit:"):
        H = parse_subgroup_literal(spec[len("orbit:"):], G)
        return orbit_complex(G, H)
    if spec in bundled.bundled_space_names():
        return parse_gcw(bundled.bundled_space_text(spec), G)
    return parse_gcw(Path(spec).read_text(encoding="utf-8"), G)


def _load_coefficients(spec, G, q_range, even_only):
    if spec.startswith("file:"):
        M = parse_mackey(Path(spec[len("file:"):]).read_text(encoding="utf-8"), G)
        report = validate_mackey(M)
        if not report.passed():
            raise MackeyError("\n".join(report.lines()))
    else:
        M = builtin_mackey(spec, G)
    lo, hi = q_range
    by_q = {
        q: M
        for q in range(lo, hi + 1)
        if not even_only or q % 2 == 0
    }
    name = M.name + ("-even" if even_only else "")
    return CoefficientSystem(G, by_q, name)


def _parse_range(text):
    lo, _, hi = text.partition("..")
    lo, hi = int(lo), int(hi)
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text}: need a <= b in a..b")
    return lo, hi


def _emit(args, text_lines, json_obj):
    if args.format == "json":
        print(json.dumps(json_obj, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_info(args):
    G = _load_group(args.group, args.cap)
    ct = subgroup_conjugacy_classes(G, cap=args.cap)
    lines = [f"group {G.name} order {G.order}"]
    classes_json = []
    for i, cls in enumerate(ct.classes):
        lines.append(
            f"class {i}: rep {cls.rep.literal()} order {cls.rep.order} "
            f"members {len(cls.members)} N={cls.normalizer.literal()} "
            f"C={cls.centralizer.literal()} |W|={cls.weyl.order}"
        )
        classes_json.append(
            {
                "rep": list(cls.rep.elems),
                "order": cls.rep.order,
                "members": len(cls.members),
                "normalizer": list(cls.normalizer.elems),
                "centralizer": list(cls.centralizer.elems),
                "weyl_order": cls.weyl.order,
            }
        )
    out = {"group": G.name, "order": G.order, "classes": classes_json}
    if args.double_cosets:
        K = parse_subgroup_literal(args.double_cosets[0], G)
        H = parse_subgroup_literal(args.double_cosets[1], G)
        dc = double_cosets(G, K, H)
        lines.append(
            f"double cosets {K.literal()}\\G/{H.literal()}: "
            f"{len(dc.cosets)} cells, representatives "
            + " ".join(str(r) for r in dc.representatives)
        )
        out["double_cosets"] = {
            "left": list(K.elems),
            "right": list(H.elems),
            "representatives": list(dc.representatives),
            "sizes": [len(c) for c in dc.cosets],
        }
    _emit(args, lines, out)
    return 0


def cmd_mackey(args):
    G = _load_group(args.group, args.cap)
    if args.coeff.startswith("file:"):
        M = parse_mackey(Path(args.coeff[len("file:"):]).read_text(encoding="utf-8"), G)
    else:
        M = builtin_mackey(args.coeff, G)
    report = validate_mackey(M)
    out = {
        "functor": M.name,
        "group": G.name,
        "passed": report.passed(),
        "axioms": {
            "conjugation": report.conjugation.ok,
            "isomorphisms": report.isomorphisms.ok,
            "double_coset": report.double_coset.ok,
            "transitivity": report.transitivity.ok,
        },
    }
    _emit(args, report.lines(), out)
    return 0 if report.passed() else 1


def cmd_bredon(args):
    G = _load_group(args.group, args.cap)
    X = _load_space(args.space, G)
    coeffs = _load_coefficients(args.coeff, G, args.q_range, args.even_only)
    n_range = range(args.n_range[0], args.n_range[1] + 1)
    rep = bredon_report(X, coeffs, n_range)
    _emit(args, rep.lines(), json.loads(rep.to_json()))
    return 0


def cmd_chern(args):
    G = _load_group(args.group, args.cap)
    X = _load_space(args.space, G)
    coeffs = _load_coefficients(args.coeff, G, args.q_range, args.even_only)
    n_range = range(args.n_range[0], args.n_range[1] + 1)
    report = verify_collapse(X, coeffs, n_range)
    if args.inject_fault:
        # test hook: corrupt one side to exercise the mismatch path
        rows = list(report.rows)
        rows[-1] = CollapseRow(rows[-1].n, rows[-1].left + 1, rows[-1].right)
        report.rows = tuple(rows)
    out = {
        "group": G.name,
        "space": X.name,
        "coefficients": coeffs.name,
        "rows": [
            {"n": r.n, "bredon": r.left, "chern_target": r.right, "ok": r.ok}
            for r in report.rows
        ],
        "passed": report.passed(),
    }
    _emit(args, report.lines(), out)
    return 0 if report.passed() else 1


def cmd_selftest(args):
    quick = args.quick
    failures = []
    lines = []

    def check(label, fn):
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - collect and report
            failures.append((label, str(exc)))
            lines.append(f"FAIL {label}: {exc}")
        else:
            lines.append(f"ok   {label}")

    names = [n for n in bundled.bundled_group_names()]
    if quick:
        names = [n for n in names if bundled.bundled_group(n).order <= 8]
    for name in names:
        G = bundled.bundled_group(name)
        check(f"group {name}: table axioms", lambda G=G: parse_group(
            bundled.bundled_group_text(G.name), name=G.name
        ))
        check(
            f"group {name}: subgroup count oracle",
            lambda G=G: _require(
                len(enumerate_subgroups(G)) == subgroup_count_oracle(G),
                "subgroup count mismatch",
            ),
        )
        check(f"group {name}: categories", lambda G=G: (
            build_sub_category(G), build_or_category(G)
        ))
    for name in bundled.bundled_chartab_names():
        if quick and bundled.bundled_group(name).order > 8:
            continue
        check(
            f"chartab {name}: orthogonality",
            lambda name=name: validate_table(
                parse_character_table(
                    bundled.bundled_chartab_text(name), bundled.bundled_group(name)
                )
            ),
        )
    mackey_groups = [n for n in names if n in ("z2", "z3", "z4", "z6", "s3", "d4", "q8", "a4")]
    if not quick:
        mackey_groups = mackey_groups + ["s4"]
    for name in mackey_groups:
        G = bundled.bundled_group(name)
        for coeff in ("constant", "burnside", "repring"):
            check(
                f"mackey {coeff} on {name}: axiom suite",
                lambda G=G, coeff=coeff: _require(
                    validate_mackey(builtin_mackey(coeff, G)).passed(),
                    "axiom failure",
                ),
            )
        for coeff in ("constant", "burnside", "repring"):
            check(
                f"mackey {coeff} on {name}: nu bijective",
                lambda G=G, coeff=coeff: _require(
                    nu_of_mackey(builtin_mackey(coeff, G)).all_bijective(),
                    "nu not bijective",
                ),
            )
    for sname in bundled.bundled_space_names():
        X = builtin_examples(sname)
        if quick and X.group.order > 8:
            continue
        check(f"space {sname}: d∘d = 0 and Euler", lambda X=X: euler_check(X))
        for coeff in ("constant", "burnside", "repring"):
            check(
                f"collapse {sname} + {coeff}",
                lambda X=X, coeff=coeff: _require(
                    verify_collapse(
                        X,
                        CoefficientSystem.single(builtin_mackey(coeff, X.group)),
                        range(0, X.dim + 1),
                    ).passed(),
                    "collapse mismatch",
                ),
            )
    for line in lines:
        print(line)
    print(f"selftest: {len(lines) - len(failures)}/{len(lines)} checks passed")
    return 0 if not failures else 1


def _require(cond, message):
    if not cond:
        raise ValueError(message)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="equichern",
        description=(
            "Exact Bredon cohomology of finite G-CW complexes with Mackey "
            "coefficients, and verification of the Chern-character target "
            "decomposition."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, space=False, coeff=False):
        p.add_argument("--group", required=True, help="bundled name or group file path")
        p.add_argument("--cap", type=int, default=64, help="subgroup-order cap")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if space:
            p.add_argument(
                "--space",
                required=True,
                help="point | orbit:{..} | bundled name | G-CW file path",
            )
        if coeff:
            p.add_argument(
                "--coeff",
                required=True,
                help="constant | burnside | repring | file:PATH",
            )
            p.add_argument("--q-range", type=_parse_range, default=(0, 0), metavar="a..b")
            p.add_argument("--n-range", type=_parse_range, default=(0, 2), metavar="a..b")
            p.add_argument(
                "--even-only",
                action="store_true",
                help="place the coefficient functor at even q only",
            )

    p_info = sub.add_parser("info", help="subgroup classes, Weyl groups, double cosets")
    common(p_info)
    p_info.add_argument(
        "--double-cosets",
        nargs=2,
        metavar=("K", "H"),
        help="two subgroup literals, e.g. {0,1} {0,3,4}",
    )
    p_info.set_defaults(fn=cmd_info)

    p_mackey = sub.add_parser("mackey", help="validate the Mackey axiom suite")
    common(p_mackey)
    p_mackey.add_argument(
        "--coeff", required=True, help="constant | burnside | repring | file:PATH"
    )
    p_mackey.set_defaults(fn=cmd_mackey)

    p_bredon = sub.add_parser("bredon", help="Bredon cohomology report")
    common(p_bredon, space=True, coeff=True)
    p_bredon.set_defaults(fn=cmd_bredon)

    p_chern = sub.add_parser(
        "chern", help="verify the collapse: Bredon vs Chern-character target"
    )
    common(p_chern, space=True, coeff=True)
    p_chern.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    p_chern.set_defaults(fn=cmd_chern)

    p_self = sub.add_parser("selftest", help="run the invariant suite on the bundled corpus")
    p_self.add_argument("--quick", action="store_true", help="restrict to groups of order <= 8")
    p_self.set_defaults(fn=cmd_selftest)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
