"""Per-layer tracing of one `equichern` CLI job, from outside the library.

Run as `python bench/tracing.py SPANS_FILE <equichern arguments>`: the script
wraps the library's public functions in timed spans, runs the CLI in this
process, and writes the spans with their parent ids and the work counters to
SPANS_FILE when the job ends. Function names are patched in every module
that binds them, methods at class level. `self_times` turns a spans file into
per-layer self times.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import sys
import time

# (module, function, span name, counter hook): patched in every equichern
# module that binds the function. A span name of None means "named by the
# Mackey functor the call works for".
FUNCTIONS = [
    ("equichern.groups", "enumerate_subgroups", "groups.enumerate", "count_subgroups"),
    ("equichern.groups", "subgroup_conjugacy_classes", "groups.class_table", "count_classes"),
    ("equichern.groups", "double_cosets", "groups.double_cosets", "count_double_cosets"),
    ("equichern.mackey", "builtin_mackey", None, None),
    ("equichern.mackey", "mackey_to_sub_module", "mackey.sub_module", None),
    ("equichern.mackey", "validate_mackey", "mackey.axioms", None),
    ("equichern.mackey", "T_H_of_mackey", "mackey.T_H", None),
    ("equichern.gcw", "quotient_chain", "gcw.quotient_chain", None),
    ("equichern.gcw", "homology_with_action", "gcw.homology", None),
    ("equichern.bredon", "bredon_cochain", "bredon.cochain", None),
    ("equichern.bredon", "bredon_cohomology", "bredon.cohomology", None),
    ("equichern.bredon", "chern_target", "bredon.chern_target", None),
    ("equichern.bredon", "verify_collapse", "bredon.collapse", "count_cells"),
    ("equichern.qlinalg", "equivariant_hom_dim", "qlinalg.hom_dim", None),
]
# (function, span name): patched only in equichern.cli, where the CLI reads
# the user's inputs and prints the report
CLI_FUNCTIONS = [
    ("parse_group", "cli.parse"),
    ("parse_gcw", "cli.parse"),
    ("_emit", "cli.report"),
]
# (module, class, method, span name, counter hook), patched on the class
METHODS = [
    ("equichern.qlinalg", "RationalMatrix", "mul", "qlinalg.mul", "count_mul"),
    ("equichern.qlinalg", "RationalMatrix", "rref", "qlinalg.rref", "count_rref"),
    ("equichern.mackey", "MackeyFunctor", "res", "mackey.products", "count_products"),
    ("equichern.mackey", "MackeyFunctor", "ind", "mackey.products", "count_products"),
    ("equichern.mackey", "MackeyFunctor", "incl_res", None, None),
    ("equichern.mackey", "MackeyFunctor", "incl_ind", None, None),
    ("equichern.mackey", "MackeyFunctor", "weyl_matrix", None, None),
    ("equichern.eicat", "EICategory", "__init__", "eicat.category", "count_morphisms"),
    ("equichern.eicat", "EICategory", "validate", "eicat.category", None),
    ("equichern.eicat", "CatModule", "validate", "eicat.module_validate", None),
    ("equichern.eicat", "CatModuleMap", "validate", "eicat.module_validate", None),
]

SUPPLIER_SPANS = ("mackey.supplier", "chartab.repring_build")
# every span name, in report order; each one's self time is a layer metric
SPAN_NAMES = list(dict.fromkeys(
    [span for _m, _f, span, _h in FUNCTIONS if span]
    + [span for _m, _c, _f, span, _h in METHODS if span]
    + [span for _f, span in CLI_FUNCTIONS]
    + list(SUPPLIER_SPANS)
))
# reported work counters and their units; qlinalg.mul_zero_operands is
# reported as a share of qlinalg.mul_madds
COUNTERS = {
    "groups.double_cosets_calls": "count",
    "groups.subgroups": "count",
    "groups.classes": "count",
    "eicat.morphisms": "count",
    "mackey.products_calls": "count",
    "mackey.products_built": "count",
    "gcw.cells": "count",
    "qlinalg.mul_calls": "count",
    "qlinalg.mul_madds": "count",
    "qlinalg.rref_calls": "count",
    "qlinalg.rref_computed": "count",
    "qlinalg.rank_calls": "count",
    "qlinalg.max_entry_bits": "bits",
}

# span record fields
NAME, PARENT, START, END, BOOK, MULS = range(6)


def supplier_span(functor_name):
    """Coefficient data of the representation ring belongs to the chartab and
    cyclotomic layer; that of the other built-ins to mackey."""
    return SUPPLIER_SPANS[functor_name == "repring"]


def _bits(matrix):
    return max(
        (max(x.numerator.bit_length(), x.denominator.bit_length()) for row in matrix.data for x in row),
        default=0,
    )


class Tracer:
    """Spans kept in memory: [name id, parent index, start ns, end ns,
    bookkeeping ns charged to the span, number of direct mul children]."""

    def __init__(self):
        self.names = {}
        self.spans = []
        self.stack = []
        self.counts = collections.Counter()

    def wrap(self, fn, name, hook=None):
        """`fn` timed in a span. `name` is a string or a function of the call's
        arguments. `hook(args, result, span)` counts work; it runs outside the
        span and its time is excluded from the enclosing span's self time."""
        spans, stack, names, now = self.spans, self.stack, self.names, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            span = [names.setdefault(label, len(names)), stack[-1] if stack else -1, 0, 0, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = now()
                stack.pop()
            if hook is not None:
                t = now()
                hook(args, result, span)
                if stack:
                    spans[stack[-1]][BOOK] += now() - t
            return result

        return functools.update_wrapper(wrapper, fn)

    def install(self):
        """Patch the imported equichern package. A name the library no longer
        has is left out, so its time falls to the caller's span."""
        cli = importlib.import_module("equichern.cli")
        for fn_name, span in CLI_FUNCTIONS:
            if hasattr(cli, fn_name):
                setattr(cli, fn_name, self.wrap(getattr(cli, fn_name), span))
        for module, fn_name, span, hook in FUNCTIONS:
            original = getattr(importlib.import_module(module), fn_name, None)
            if original is None:
                continue
            # builtin_mackey(name, G)
            name = span or (lambda a: supplier_span(a[0]))
            wrapped = self.wrap(original, name, hook and getattr(self, hook))
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "equichern" and getattr(mod, fn_name, None) is original:
                    setattr(mod, fn_name, wrapped)
        matrix = importlib.import_module("equichern.qlinalg").RationalMatrix
        rank, rref = matrix.rank, matrix.rref

        def counted_rank(m):
            self.counts["qlinalg.rank_calls"] += 1
            return rank(m)

        def counted_rref(m):
            if getattr(m, "_rref", None) is None:
                self.counts["qlinalg.rref_computed"] += 1
            return rref(m)

        matrix.rank = counted_rank
        matrix.rref = functools.update_wrapper(counted_rref, rref)  # timed below
        for module, cls_name, method, span, hook in METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            if not hasattr(cls, method):
                continue
            # MackeyFunctor methods: args[0] is the functor
            name = span or (lambda a: supplier_span(a[0].name))
            setattr(cls, method, self.wrap(getattr(cls, method), name, hook and getattr(self, hook)))

    # counter hooks

    def count_subgroups(self, args, result, span):
        self.counts["groups.subgroups"] = max(self.counts["groups.subgroups"], len(result))

    def count_classes(self, args, result, span):
        self.counts["groups.classes"] = max(self.counts["groups.classes"], len(result))

    def count_double_cosets(self, args, result, span):
        self.counts["groups.double_cosets_calls"] += 1

    def count_cells(self, args, result, span):
        self.counts["gcw.cells"] += sum(len(cells) for cells in args[0].cells)

    def count_morphisms(self, args, result, span):
        self.counts["eicat.morphisms"] += len(args[0].mor_index)

    def count_mul(self, args, result, span):
        a, b = args[0], args[1]
        c = self.counts
        madds = a.rows * a.cols * b.cols
        nonzero = 0
        for k in range(a.cols):
            nonzero += sum(1 for row in a.data if row[k] != 0) * sum(1 for x in b.data[k] if x != 0)
        c["qlinalg.mul_calls"] += 1
        c["qlinalg.mul_madds"] += madds
        c["qlinalg.mul_zero_operands"] += madds - nonzero
        c["qlinalg.max_entry_bits"] = max(c["qlinalg.max_entry_bits"], _bits(result))
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][MULS] += 1

    def count_rref(self, args, result, span):
        c = self.counts
        c["qlinalg.rref_calls"] += 1
        c["qlinalg.max_entry_bits"] = max(c["qlinalg.max_entry_bits"], _bits(result[0]))

    def count_products(self, args, result, span):
        self.counts["mackey.products_calls"] += 1
        if span[MULS]:
            self.counts["mackey.products_built"] += 1

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "names": sorted(self.names, key=self.names.get),
                    "spans": [s[:BOOK + 1] for s in self.spans],
                    "counts": dict(self.counts),
                },
                f,
            )


def self_times(path):
    """(self seconds per span name, counters) from a spans file.

    A span's self time is its duration minus the durations of its direct
    children and the bookkeeping charged to it."""
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    spans = data["spans"]
    inner = [0] * len(spans)
    for name, parent, start, end, book in spans:
        if parent >= 0:
            inner[parent] += end - start
    out = collections.Counter()
    for (name, parent, start, end, book), covered in zip(spans, inner):
        out[data["names"][name]] += (end - start - covered - book) / 1e9
    return dict(out), data["counts"]


def main(argv):
    spans_file, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from equichern import cli

    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_file)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
