"""Per-layer spans taken from outside the program.

A :class:`Tracer` binds a timing wrapper over each public function named in
``SPANS``, in every ``ptsep`` module that holds that function under the same
name, so a call from one module into another opens a span nested in the
caller's. Nothing under ``src/`` is edited. A name that no longer exists (a
later change may merge or rename it) is skipped and listed in ``missing``;
the other spans and the untraced run keep working.

Spans stay in memory and are written out once, by :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

MODULES = ("automata", "piecewise", "separability", "oracles", "mcvp")

# (defining module, public function) -> span name. Several functions may share
# a span: witness expansion and replay are one layer.
SPANS = {
    ("automata", "parse_automaton"): "automata.parse",
    ("automata", "subset_construction"): "automata.subset_construction",
    ("automata", "minimize"): "automata.minimize",
    ("piecewise", "is_pt_dfa"): "piecewise.is_pt",
    ("piecewise", "condition1_nontrivial_cycle"): "piecewise.cycle_test",
    ("piecewise", "condition2_triple"): "piecewise.triple_test",
    ("piecewise", "verify_pt_witness"): "piecewise.verify_witness",
    ("separability", "decide_separability"): "separability.decide",
    ("separability", "build_block_product"): "separability.block_product",
    ("separability", "towers_from_pattern"): "separability.witness",
    ("separability", "verify_pattern"): "separability.witness",
    ("oracles", "verify_tower"): "separability.witness",
    ("oracles", "reachable_profiles"): "oracles.profiles",
    ("oracles", "separable_by_kpt"): "oracles.separator",
    ("oracles", "bounded_tower_exists"): "oracles.tower",
    ("oracles", "dual_deepening"): "oracles.dual_deepening",
    ("oracles", "verify_separator"): "oracles.verify_separator",
    ("oracles", "pt_bounded"): "oracles.pt_bounded",
    ("mcvp", "evaluate"): "mcvp.evaluate",
    ("mcvp", "instance_pair"): "mcvp.instance_pair",
}

# Bindings whose span depends on the calling module: mcvp calls
# subset_construction and minimize only for the padded walker's minimality
# self-check.
CALLER_SPANS = {
    ("mcvp", "subset_construction"): "mcvp.self_check",
    ("mcvp", "minimize"): "mcvp.self_check",
}

# A span whose innermost open span is the given parent is not opened, so its
# time stays in the parent's self time: the minimize call inside is_pt_dfa is
# the minimality re-check that ``piecewise.is_pt`` measures.
INLINE_UNDER = {"automata.minimize": "piecewise.is_pt"}

# Oracle probes: each call is one probe, conclusive unless it runs out of budget.
PROBES = ("separable_by_kpt", "bounded_tower_exists")


class Tracer:
    """Installs the wrappers on enter and restores every original binding on
    exit. ``instance`` tags the spans of the instance being run."""

    def __init__(self):
        self.spans: list[tuple] = []  # (instance, name, start, end, parent index)
        self.counts: dict[str, float] = defaultdict(float)
        self.instance = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._product = None

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        mods = {name: importlib.import_module(f"ptsep.{name}") for name in MODULES}
        self.missing = []
        self._product = getattr(mods["automata"], "product_intersection", None)
        if self._product is None:
            self.missing.append("automata.product_intersection")
        for (home, fname), span in SPANS.items():
            original = getattr(mods[home], fname, None)
            if not callable(original):
                self.missing.append(f"{home}.{fname}")
                continue
            for mod_name, mod in mods.items():
                if getattr(mod, fname, None) is original:
                    name = CALLER_SPANS.get((mod_name, fname), span)
                    self._saved.append((mod, fname, original))
                    setattr(mod, fname, self._wrap(original, name, fname))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            mod, fname, original = self._saved.pop()
            setattr(mod, fname, original)

    def _wrap(self, fn, name: str, fname: str):
        count = self._counter(fname)
        probe = fname in PROBES
        inline_parent = INLINE_UNDER.get(name)
        counts, spans, stack, clock = self.counts, self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if inline_parent and stack and spans[stack[-1]][1] == inline_parent:
                return fn(*args, **kwargs)
            if probe:
                counts["oracles.probes"] += 1
            idx, parent = len(spans), (stack[-1] if stack else -1)
            start = clock()
            spans.append((self.instance, name, start, start, parent))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if probe and type(exc).__name__ == "Inconclusive":
                    counts["oracles.inconclusive_probes"] += 1
                raise
            finally:
                spans[idx] = (self.instance, name, start, clock(), parent)
                stack.pop()
            if count is not None:
                self._span("trace.count", count, result)
            return result

        return wrapper

    def _span(self, name: str, fn, *args):
        """Run the tracer's own work in a span of its own, so that it is not
        charged to the self time of the layer that called the wrapped
        function."""
        parent = self._stack[-1] if self._stack else -1
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((self.instance, name, start, time.perf_counter(), parent))

    # -- counts, all taken from inputs or return values ----------------------

    def _counter(self, fname: str):
        if fname == "build_block_product":
            return self._count_block_product
        key = {"subset_construction": "automata.dfa_states", "minimize": "automata.min_states"}.get(fname)
        if key is None:
            return None

        def count_states(d) -> None:
            self.counts[key] += len(d.states)

        return count_states

    def _count_block_product(self, bp) -> None:
        pairs = len(bp.a.states) * len(bp.b.states)
        self.counts["separability.candidate_pairs"] += pairs * len(bp.a.alphabet)
        self.counts["separability.anchors"] += len(bp.anchors)
        self.counts["separability.pairs"] += pairs
        if self._product is not None:
            self.counts["separability.reachable_pairs"] += len(self._product(bp.a, bp.b).states)

    # -- results ---------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per span name of each span minus its child spans."""
        out: dict[str, float] = defaultdict(float)
        for _, name, start, end, parent in self.spans:
            out[name] += end - start
            if parent >= 0:
                out[self.spans[parent][1]] -= end - start
        return out

    def write(self, path) -> None:
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [
            [inst, index[name], round(start - t0, 6), round(end - t0, 6), parent]
            for inst, name, start, end, parent in self.spans
        ]
        doc = {
            "columns": ["instance", "name", "start_s", "end_s", "parent"],
            "names": names,
            "missing": self.missing,
            "spans": rows,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
