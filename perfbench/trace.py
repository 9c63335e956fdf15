"""Span recorder that wraps the package's public functions from outside.

Each wrapped call records one span (name, start, end, parent span,
operation id) in memory.  A function is replaced at every import site:
every `stringalg` module attribute that is the original function object
gets the wrapper, so `band_census` is traced whether `doze`, `decomp` or
`cli` calls it.  Methods are replaced on their class.  `uninstall`
restores every original.

A layer's self time is its span's duration minus the durations of its
direct child spans.
"""

import functools
import gzip
import json
import sys
import time
from collections import Counter, defaultdict

# (metric name, module, function) for module-level functions.
FUNCTIONS = [
    ("textio.parse", "stringalg.textio", "parse"),
    ("presentation.minimalize", "stringalg.presentation", "minimalize"),
    ("presentation.quotient_by_J", "stringalg.presentation", "quotient_by_J"),
    ("presentation.validate", "stringalg.presentation", "validate_string_algebra"),
    ("presentation.validate", "stringalg.presentation", "validate_special_biserial"),
    ("automaton.band_census", "stringalg.automaton", "band_census"),
    ("walks.is_string", "stringalg.walks", "is_string"),
    ("walks.is_band", "stringalg.walks", "is_band"),
    ("walks.band_boundary", "stringalg.walks", "band_boundary"),
    ("doze.classify", "stringalg.doze", "classify"),
    ("doze.find_doze", "stringalg.doze", "find_doze"),
    ("doze.has_double_zero", "stringalg.doze", "has_double_zero"),
    ("doze.find_doze_bruteforce", "stringalg.doze", "find_doze_bruteforce"),
    ("decomp.decompose", "stringalg.decomp", "decompose"),
    ("decomp.d_category", "stringalg.decomp", "d_category"),
    ("decomp.check_structure", "stringalg.decomp", "check_structure"),
    ("decomp.support_cover_check", "stringalg.decomp", "support_cover_check"),
    ("rep.string_module", "stringalg.rep", "string_module"),
    ("rep.projective_cover", "stringalg.rep", "projective_cover"),
    ("rep.kernel", "stringalg.rep", "kernel"),
    ("rep.pd_at_least_2", "stringalg.rep", "pd_at_least_2"),
    ("rep.id_at_least_2_dual", "stringalg.rep", "id_at_least_2_dual"),
    ("exactla.rref", "stringalg.exactla", "rref"),
    ("exactla.solve_matrix", "stringalg.exactla", "solve_matrix"),
    ("exactla.matmul", "stringalg.exactla", "matmul"),
    ("exactla.kernel_basis", "stringalg.exactla", "kernel_basis"),
]

# (metric name, module, class, method).
METHODS = [
    ("automaton.build", "stringalg.automaton", "StringAutomaton", "__init__"),
    ("automaton.bfs", "stringalg.automaton", "StringAutomaton", "bfs"),
    ("automaton.cycle_states", "stringalg.automaton", "StringAutomaton", "cycle_states"),
    (
        "presentation.max_generator_length",
        "stringalg.presentation",
        "Presentation",
        "max_generator_length",
    ),
]


def _rref_cells(tracer, args, kwargs, result):
    a = args[0]
    ncols = kwargs.get("ncols", args[1] if len(args) > 1 else None)
    if ncols is None:
        ncols = len(a[0]) if a else 0
    tracer.counts["exactla.rref.cells"] += len(a) * ncols


def _automaton_size(tracer, args, kwargs, result):
    aut = args[0]
    tracer.counts["automaton.states"] += len(aut.states)
    tracer.counts["automaton.edges"] += sum(len(t) for t in aut.edges.values())


def _distinct_minimalize(tracer, args, kwargs, result):
    key = tuple(tuple(path) for path in args[0])
    tracer.distinct["presentation.minimalize"].add((tracer.op, key))


def _distinct_census(tracer, args, kwargs, result):
    tracer.distinct["automaton.band_census"].add((tracer.op, args[0]))


# Counters read off a call's arguments or result, after it returns.
AFTER = {
    "exactla.rref": _rref_cells,
    "automaton.build": _automaton_size,
    "presentation.minimalize": _distinct_minimalize,
    "automaton.band_census": _distinct_census,
}


class Tracer:
    COUNTERS = ("automaton.states", "automaton.edges", "exactla.rref.cells")

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.distinct = defaultdict(set)
        self.op = None
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack, after = self.spans, self._stack, AFTER.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def install(self):
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "stringalg" or key.startswith("stringalg."))
        ]
        for name, module, attr in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._undo.append((m, key, original))
                        setattr(m, key, wrapper)
        for name, module, cls_name, attr in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def uninstall(self):
        while self._undo:
            target, key, original = self._undo.pop()
            setattr(target, key, original)

    def layer_totals(self):
        """{name: (calls, self seconds)} over every recorded span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls = Counter()
        self_s = defaultdict(float)
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
        return calls, self_s

    def write(self, path):
        """Spans as gzipped JSON lines: name, start, end, parent, op."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
