"""Finite automata over named states: a line-based text format, language
operations, and the alphabet-restricted graph queries behind the decision
procedures in the rest of the package.

Automata are immutable; every operation returns a fresh automaton. Each
automaton indexes its transitions once as state -> letter -> sorted targets,
and every graph query reads that index.

Automata are checked once, where they enter the library: ``parse_automaton``,
``Nfa(...)``, ``Dfa(...)`` and ``Nfa.build`` check every name and transition.
An automaton the library derives from checked ones (``trim``,
``lift_alphabet``, ``product_intersection``) is handed its fields and its
index without a second check; ``lift_alphabet`` checks only the letters its
caller adds. The DFAs the library builds itself (subset construction,
minimization, the MCVP instances) come from their rows, each row checked
whole. Any other automaton indexes its transitions on first use (a DFA at
construction, where the index doubles as the completeness check). State and
symbol names are plain tokens (nonempty, no whitespace, no ``#``). Anything
that can influence observable output (state naming, witness words,
serialized text) is produced by iterating in sorted order, so results are
reproducible across processes regardless of hash seeding.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import Iterable, Iterator, Sequence

Word = tuple[str, ...]
Transition = tuple[str, str, str]

EPSILON: Word = ()


class AutomatonError(Exception):
    """An automaton was constructed or used inconsistently."""


class ParseError(AutomatonError):
    """The automaton text format was violated."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


class AlphabetMismatchError(AutomatonError):
    """An operation received operands over incompatible alphabets."""


def _check_token(token: str, what: str) -> None:
    if not token or "#" in token or any(ch.isspace() for ch in token):
        raise AutomatonError(
            f"invalid {what} {token!r}: names are nonempty tokens without whitespace or '#'"
        )


def letters_of(w: Iterable[str]) -> frozenset[str]:
    """The set of symbols occurring in a word."""
    return frozenset(w)


@dataclass(frozen=True)
class Nfa:
    """Nondeterministic finite automaton (no epsilon moves).

    The transition relation may be partial. ``states`` may be empty (the
    zero-state automaton produced by :func:`trim` on an empty language), in
    which case ``initial`` is empty as well and no word is accepted.

    The constructor checks every name and transition. Automata the library
    derives from checked ones skip that check through :meth:`_handed_over`,
    and are equal field by field, index included, to what the constructor
    builds from the same fields.
    """

    states: frozenset[str]
    alphabet: frozenset[str]
    transitions: frozenset[Transition]
    initial: frozenset[str]
    final: frozenset[str]

    def __post_init__(self):
        for name in self.states:
            _check_token(name, "state name")
        for name in self.alphabet:
            _check_token(name, "symbol")
        for src, sym, dst in self.transitions:
            if src not in self.states or dst not in self.states:
                raise AutomatonError(f"transition uses undeclared state: {src} {sym} {dst}")
            if sym not in self.alphabet:
                raise AutomatonError(f"transition uses undeclared symbol: {src} {sym} {dst}")
        if not self.initial <= self.states:
            raise AutomatonError("initial states must be declared states")
        if not self.final <= self.states:
            raise AutomatonError("final states must be declared states")

    @classmethod
    def build(
        cls,
        states: Iterable[str],
        alphabet: Iterable[str],
        transitions: Iterable[Sequence[str]],
        initial: Iterable[str],
        final: Iterable[str],
    ) -> "Nfa":
        return cls(
            frozenset(states),
            frozenset(alphabet),
            frozenset(map(tuple, transitions)),
            frozenset(initial),
            frozenset(final),
        )

    @classmethod
    def _handed_over(
        cls,
        states: frozenset[str],
        alphabet: frozenset[str],
        transitions: frozenset[Transition],
        initial: frozenset[str],
        final: frozenset[str],
        out: dict[str, dict[str, tuple[str, ...]]],
    ) -> "Nfa":
        """The automaton with these fields and ``out`` as its transition
        index, built without a check. Only for fields derived from checked
        automata: ``out`` must be the index that :attr:`_out` would build."""
        x = cls.__new__(cls)
        x.__dict__.update(
            states=states,
            alphabet=alphabet,
            transitions=transitions,
            initial=initial,
            final=final,
            _out=out,
        )
        return x

    @cached_property
    def _out(self) -> dict[str, dict[str, tuple[str, ...]]]:
        """The transition index every graph query reads: state -> letter ->
        sorted tuple of targets. Every state has a row; a letter without a
        transition has no entry. Tuples of names drop out of the garbage
        collector's scans, which a large DFA's index of lists would slow."""
        out: dict[str, dict[str, tuple[str, ...]]] = {q: {} for q in self.states}
        many: dict[tuple[str, str], list[str]] = {}
        for src, sym, dst in self.transitions:
            row = out[src]
            if sym in row:
                many.setdefault((src, sym), list(row[sym])).append(dst)
            else:
                row[sym] = (dst,)
        for (src, sym), dsts in many.items():
            out[src][sym] = tuple(sorted(dsts))
        return out

    @cached_property
    def _minimal(self) -> "Dfa":
        """The minimal complete DFA of the language, built on first use; the
        PT test, the oracles and :func:`equivalent` all read this one."""
        return minimize(subset_construction(self))

    def successors(self, state: str, symbol: str) -> frozenset[str]:
        return frozenset(self._out.get(state, {}).get(symbol, ()))

    def step_set(self, states: Iterable[str], symbol: str) -> frozenset[str]:
        out: set[str] = set()
        index = self._out
        for q in states:
            out.update(index.get(q, {}).get(symbol, ()))
        return frozenset(out)


@dataclass(frozen=True)
class Dfa(Nfa):
    """Complete deterministic automaton: exactly one initial state and exactly
    one transition per (state, symbol) pair over the declared alphabet."""

    def __post_init__(self):
        super().__post_init__()
        if len(self.initial) != 1:
            raise AutomatonError("a DFA declares exactly one initial state")
        # the index is built here and doubles as the check: a row per state
        # with one entry per letter, each holding exactly one target
        out = self._out
        if sum(map(len, out.values())) != len(self.transitions):
            q, sym = min((q, y) for q, row in out.items() for y, ts in row.items() if len(ts) > 1)
            raise AutomatonError(f"duplicate transition for ({q}, {sym}) in a DFA")
        width = len(self.alphabet)
        if any(len(row) != width for row in out.values()):
            q = min(q for q, row in out.items() if len(row) != width)
            sym = min(self.alphabet - out[q].keys())
            raise AutomatonError(f"incomplete DFA: no transition for ({q}, {sym})")

    @classmethod
    def _from_rows(
        cls,
        rows: dict[str, dict[str, str]],
        alphabet: frozenset[str],
        initial: Iterable[str],
        final: Iterable[str],
    ) -> "Dfa":
        """The DFA with ``rows[q][sym]`` as the target of q under sym, equal
        field by field to :meth:`build` on the same triples. The library's
        own builders use it: it checks each row whole (its letters are the
        alphabet, its targets declared states) and keeps the rows as the
        transition index, instead of checking and indexing every transition.
        Anything that fails a check goes to ``Dfa(...)``, which raises its
        own message."""
        states, initial, final = frozenset(rows), frozenset(initial), frozenset(final)
        transitions = frozenset(
            chain.from_iterable(zip(repeat(q), row, row.values()) for q, row in rows.items())
        )
        width = len(alphabet)
        if not (
            len(initial) == 1
            and initial <= states
            and final <= states
            and all(
                len(row) == width and alphabet.issuperset(row) and states.issuperset(row.values())
                for row in rows.values()
            )
        ):
            return cls(states, alphabet, transitions, initial, final)
        for name in states:
            _check_token(name, "state name")
        for name in alphabet:
            _check_token(name, "symbol")
        # the index shares one 1-tuple per target state
        single = {q: (q,) for q in states}.__getitem__
        out = {q: dict(zip(row, map(single, row.values()))) for q, row in rows.items()}
        return cls._handed_over(states, alphabet, transitions, initial, final, out)

    @property
    def start(self) -> str:
        return next(iter(self.initial))

    def step(self, state: str, symbol: str) -> str:
        return self._out[state][symbol][0]


# ---------------------------------------------------------------------------
# text format


_HEADER_KEYS = ("kind", "states", "alphabet", "initial", "final")


def parse_automaton(text: str) -> Nfa:
    """Parse the line-based automaton format.

    Lines are ``kind:``, ``states:``, ``alphabet:``, ``initial:``, ``final:``
    (each exactly once, any order) plus any number of
    ``trans: <src> <symbol> <dst>`` lines. ``#`` starts a comment; tokens are
    whitespace separated. Returns a :class:`Dfa` when the header declares
    ``kind: dfa`` (which additionally requires a single initial state and a
    total transition function).
    """
    fields: dict[str, tuple[list[str], int]] = {}
    trans: list[tuple[list[str], int]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        key = tokens[0]
        if not key.endswith(":"):
            raise ParseError(f"expected '<key>:' at start of line, got {key!r}", ln)
        key = key[:-1]
        values = tokens[1:]
        if key == "trans":
            if len(values) != 3:
                raise ParseError("trans line needs '<src> <symbol> <dst>'", ln)
            trans.append((values, ln))
        elif key in _HEADER_KEYS:
            if key in fields:
                raise ParseError(f"duplicate '{key}:' line", ln)
            fields[key] = (values, ln)
        else:
            raise ParseError(f"unknown key {key!r}", ln)

    for req in _HEADER_KEYS:
        if req not in fields:
            raise ParseError(f"missing {req}")

    kind_vals, kind_ln = fields["kind"]
    if len(kind_vals) != 1 or kind_vals[0] not in ("nfa", "dfa"):
        raise ParseError("kind must be 'nfa' or 'dfa'", kind_ln)
    kind = kind_vals[0]

    def token_set(key: str) -> frozenset[str]:
        values, ln = fields[key]
        if len(values) != len(set(values)):
            raise ParseError(f"duplicate token in '{key}:' line", ln)
        return frozenset(values)

    states = token_set("states")
    alphabet = token_set("alphabet")
    for key in ("initial", "final"):
        values, ln = fields[key]
        for tok in values:
            if tok not in states:
                raise ParseError(f"undeclared state {tok!r} in '{key}:' line", ln)
    # every later occurrence of a name is mapped to its declared string, so
    # dict lookups keyed by names hit on identity
    declared = {q: q for q in states}
    symbols = {sym: sym for sym in alphabet}
    initial = frozenset(map(declared.__getitem__, token_set("initial")))
    final = frozenset(map(declared.__getitem__, token_set("final")))

    triples: set[Transition] = set()
    seen_pairs: dict[tuple[str, str], int] = {}
    for (src, sym, dst), ln in trans:
        if src not in states:
            raise ParseError(f"undeclared state {src!r}", ln)
        if dst not in states:
            raise ParseError(f"undeclared state {dst!r}", ln)
        if sym not in alphabet:
            raise ParseError(f"undeclared symbol {sym!r}", ln)
        src, sym, dst = declared[src], symbols[sym], declared[dst]
        if kind == "dfa" and (src, sym) in seen_pairs and (src, sym, dst) not in triples:
            raise ParseError(f"duplicate transition for ({src}, {sym}) in a DFA", ln)
        seen_pairs[(src, sym)] = ln
        triples.add((src, sym, dst))

    try:
        if kind == "dfa":
            return Dfa.build(states, alphabet, triples, initial, final)
        return Nfa.build(states, alphabet, triples, initial, final)
    except AutomatonError as exc:
        raise ParseError(str(exc)) from exc


def serialize_automaton(a: Nfa) -> str:
    """Canonical text form: fixed key order, all token lists sorted, one
    transition per line. ``serialize . parse . serialize`` is a fixpoint."""
    kind = "dfa" if isinstance(a, Dfa) else "nfa"
    lines = [
        f"kind: {kind}",
        ("states: " + " ".join(sorted(a.states))).rstrip(),
        ("alphabet: " + " ".join(sorted(a.alphabet))).rstrip(),
        ("initial: " + " ".join(sorted(a.initial))).rstrip(),
        ("final: " + " ".join(sorted(a.final))).rstrip(),
    ]
    for src, sym, dst in sorted(a.transitions):
        lines.append(f"trans: {src} {sym} {dst}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# language operations


def membership(a: Nfa, w: Word) -> bool:
    """Word acceptance by set simulation."""
    for sym in w:
        if sym not in a.alphabet:
            raise AlphabetMismatchError(f"symbol {sym!r} is not in the alphabet")
    current: frozenset[str] = frozenset(a.initial)
    for sym in w:
        if not current:
            return False
        current = a.step_set(current, sym)
    return bool(current & a.final)


def lift_alphabet(a: Nfa, alphabet: Iterable[str]) -> Nfa:
    """Reinterpret over a larger alphabet; the language is unchanged since the
    new symbols have no transitions. Always returns a plain Nfa. Only the
    added letters are checked, least first."""
    alphabet = frozenset(alphabet)
    if not a.alphabet <= alphabet:
        raise AlphabetMismatchError("lift target must contain the current alphabet")
    for sym in sorted(alphabet - a.alphabet):
        _check_token(sym, "symbol")
    # the new letters carry no transitions, so both share one index; the
    # minimal DFA is not shared, since the new letters need a sink
    return Nfa._handed_over(a.states, alphabet, a.transitions, a.initial, a.final, a._out)


def lift_pair(a: Nfa, b: Nfa) -> tuple[Nfa, Nfa]:
    """Both automata over the union of their alphabets. An operand that
    already has the union is returned as it is, so it keeps its cached
    transition table."""
    union = a.alphabet | b.alphabet
    if a.alphabet != union:
        a = lift_alphabet(a, union)
    if b.alphabet != union:
        b = lift_alphabet(b, union)
    return a, b


def language_empty(a: Nfa) -> bool:
    """True when no word is accepted: :func:`shortest_run` searches forward
    from the initial states and stops at the first final state it reaches."""
    return shortest_run(a, a.initial, a.final) is None


def _triples(out: dict[str, dict[str, tuple[str, ...]]]) -> frozenset[Transition]:
    """The transitions that a transition index holds."""
    return frozenset(
        (q, sym, t) for q, row in out.items() for sym, dsts in row.items() for t in dsts
    )


def _distinct_names(names: dict, what: str) -> set[str]:
    """The state names given to the keys of ``names``. Names are built from
    member names, which may contain the separator, so two distinct keys can
    get one name; that would merge two states, and is refused."""
    states = set(names.values())
    if len(states) < len(names):
        label = min(n for n, count in Counter(names.values()).items() if count > 1)
        raise AutomatonError(f"two distinct {what} would both be named {label}")
    return states


def subset_construction(a: Nfa) -> Dfa:
    """Determinize by the subset construction.

    Only subsets reachable from the set of initial states are kept; the empty
    subset acts as the rejecting sink. Subset states are named
    ``{m1,m2,...}`` by their sorted members (the empty subset is ``{}``).
    Raises AutomatonError when two reachable subsets would get one name.
    """
    letters = sorted(a.alphabet)

    def name(subset: frozenset[str]) -> str:
        return "{" + ",".join(sorted(subset)) + "}"

    start = frozenset(a.initial)
    order: list[frozenset[str]] = [start]
    names = {start: name(start)}
    rows: dict[str, dict[str, str]] = {}
    for subset in order:
        row = rows[names[subset]] = {}
        for sym in letters:
            target = a.step_set(subset, sym)
            dst = names.get(target)
            if dst is None:
                dst = names[target] = name(target)
                order.append(target)
            row[sym] = dst
    _distinct_names(names, "subsets")
    final = {names[s] for s in order if s & a.final}
    return Dfa._from_rows(rows, a.alphabet, {names[start]}, final)


def minimize(d: Dfa) -> Dfa:
    """The minimal complete DFA for L(d).

    Unreachable states are dropped and equivalent states merged by partition
    refinement; each merged class is named after its lexicographically least
    member. An empty language collapses to a single non-accepting sink state.
    When every state of ``d`` is reachable and no two are equivalent, the
    result would equal ``d`` field by field, and ``d`` itself is returned.
    """
    letters = sorted(d.alphabet)
    index = d._out
    start = d.start
    # each reachable state's targets, one per letter in sorted letter order
    rows: dict[str, tuple[str, ...]] = {}
    reachable: list[str] = [start]
    seen = {start}
    for q in reachable:
        out_q = index[q]
        row = rows[q] = tuple([out_q[sym][0] for sym in letters])
        for t in row:
            if t not in seen:
                seen.add(t)
                reachable.append(t)

    ordered = sorted(seen)
    block: dict[str, int] = {q: int(q in d.final) for q in seen}
    while True:
        ids: dict[tuple, int] = {}
        refined: dict[str, int] = {}
        for q in ordered:
            sig = (block[q], tuple([block[t] for t in rows[q]]))
            if sig not in ids:
                ids[sig] = len(ids)
            refined[q] = ids[sig]
        if refined == block:
            break
        block = refined
    if len(ids) == len(seen) == len(d.states):
        return d

    representative: dict[int, str] = {}
    for q in ordered:
        representative.setdefault(block[q], q)
    rename = {q: representative[block[q]] for q in seen}
    # members of a class step into the same classes, so the representative's
    # row is the class's row
    classes = {
        r: dict(zip(letters, map(rename.__getitem__, rows[r]))) for r in representative.values()
    }
    final = {rename[q] for q in seen if q in d.final}
    return Dfa._from_rows(classes, d.alphabet, {rename[start]}, final)


def _canonical_table(d: Dfa) -> tuple:
    letters = sorted(d.alphabet)
    ids = {d.start: 0}
    order = [d.start]
    rows = []
    for q in order:
        row = []
        for sym in letters:
            t = d.step(q, sym)
            if t not in ids:
                ids[t] = len(ids)
                order.append(t)
            row.append(ids[t])
        rows.append(tuple(row))
    accepting = frozenset(ids[q] for q in order if q in d.final)
    return (tuple(rows), accepting)


def equivalent(a: Nfa, b: Nfa) -> bool:
    """Language equality over a shared alphabet, decided by comparing the
    canonically renumbered minimal DFAs."""
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError("equivalence requires a shared alphabet")
    return _canonical_table(a._minimal) == _canonical_table(b._minimal)


def trim(a: Nfa) -> Nfa:
    """Keep exactly the states that lie on some accepting path (reachable from
    an initial state and co-reachable to a final state). The language is
    unchanged; the result may have zero states and is a plain Nfa even when
    the input was complete. The result's transition index is the input's
    rows of the kept states, filtered to the kept targets."""
    index = a._out
    # predecessor lists of the forward-reachable states, read off their rows,
    # so no transition that leaves an unreachable state is looked at
    pred: dict[str, list[str]] = {q: [] for q in a.initial}
    queue = list(pred)
    for q in queue:
        for t in set().union(*index[q].values()):
            if t not in pred:
                pred[t] = []
                queue.append(t)
            pred[t].append(q)
    keep = {q for q in a.final if q in pred}
    queue = list(keep)
    for q in queue:
        for p in pred[q]:
            if p not in keep:
                keep.add(p)
                queue.append(p)
    out = {
        q: {
            sym: dsts if keep.issuperset(dsts) else tuple([t for t in dsts if t in keep])
            for sym, dsts in index[q].items()
            if not keep.isdisjoint(dsts)
        }
        for q in keep
    }
    return Nfa._handed_over(
        frozenset(keep), a.alphabet, _triples(out), a.initial & keep, a.final & keep, out
    )


def product_intersection(a: Nfa, b: Nfa) -> Nfa:
    """Synchronized product recognizing L(a) & L(b); states are reachable
    pairs named ``(p,q)``. Raises AutomatonError when two reachable pairs
    would get one name. The product's index is built as the pairs are
    joined."""
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError("product requires a shared alphabet")
    out_a, out_b = a._out, b._out
    start_pairs = sorted((p, q) for p in a.initial for q in b.initial)
    order = list(start_pairs)
    names = {pair: f"({pair[0]},{pair[1]})" for pair in start_pairs}
    out: dict[str, dict[str, tuple[str, ...]]] = {}
    for pair in order:
        row = out[names[pair]] = {}
        row_a, row_b = out_a[pair[0]], out_b[pair[1]]
        for sym, dsts_a in row_a.items():
            dsts_b = row_b.get(sym)
            if not dsts_b:
                continue
            dsts = []
            for pn in dsts_a:
                for qn in dsts_b:
                    child = (pn, qn)
                    dst = names.get(child)
                    if dst is None:
                        dst = names[child] = f"({pn},{qn})"
                        order.append(child)
                    dsts.append(dst)
            row[sym] = tuple(sorted(dsts))
    states = frozenset(_distinct_names(names, "pairs"))
    initial = frozenset(names[pair] for pair in start_pairs)
    final = frozenset(names[(p, q)] for (p, q) in order if p in a.final and q in b.final)
    return Nfa._handed_over(states, a.alphabet, _triples(out), initial, final, out)


# ---------------------------------------------------------------------------
# alphabet-restricted graph queries


def restricted_reach(a: Nfa, gamma: Iterable[str]) -> dict[str, frozenset[str]]:
    """For each state, the set of states reachable by words over ``gamma``.
    The relation is reflexive and transitive (every state reaches itself)."""
    gamma = frozenset(gamma)
    if not gamma <= a.alphabet:
        raise AlphabetMismatchError("gamma must be a subset of the alphabet")
    # each state's successors over gamma, read once for the searches from every root
    succ = {
        q: {t for sym, dsts in row.items() if sym in gamma for t in dsts}
        for q, row in a._out.items()
    }
    result: dict[str, frozenset[str]] = {}
    for root in a.states:
        seen = {root}
        queue = [root]
        for q in queue:
            for nxt in succ[q]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        result[root] = frozenset(seen)
    return result


@dataclass(frozen=True)
class Component:
    """A strongly connected component of an alphabet-restricted transition
    graph, annotated with the labels of its internal transitions."""

    states: frozenset[str]
    letters: frozenset[str]


def scc_decomposition(a: Nfa, gamma: Iterable[str]) -> list[Component]:
    """Strongly connected components of the ``gamma``-restricted graph in
    topological order (edges point from earlier to later components).

    Each component carries the set of labels on transitions with both
    endpoints inside it; a singleton without a self-loop carries no letters.
    """
    gamma = frozenset(gamma)
    if not gamma <= a.alphabet:
        raise AlphabetMismatchError("gamma must be a subset of the alphabet")
    rows = a._out

    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    comps: list[set[str]] = []
    work: list[tuple[str, Iterator[str]]] = []

    def visit(q: str) -> None:
        index[q] = low[q] = len(index)
        stack.append(q)
        on_stack.add(q)
        # successors in sorted order, so the component order is reproducible
        succ = {t for sym, dsts in rows[q].items() if sym in gamma for t in dsts}
        work.append((q, iter(sorted(succ))))

    for root in sorted(a.states):
        if root in index:
            continue
        visit(root)
        while work:
            q, it = work[-1]
            for nxt in it:
                if nxt not in index:
                    visit(nxt)
                    break
                if nxt in on_stack:
                    low[q] = min(low[q], index[nxt])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[q])
                if low[q] == index[q]:
                    comp: set[str] = set()
                    while True:
                        v = stack.pop()
                        on_stack.discard(v)
                        comp.add(v)
                        if v == q:
                            break
                    comps.append(comp)
    comps.reverse()

    member: dict[str, int] = {}
    for i, comp in enumerate(comps):
        for q in comp:
            member[q] = i
    letters: list[set[str]] = [set() for _ in comps]
    for q, i in member.items():
        inside = letters[i]
        for sym, dsts in rows[q].items():
            if sym in gamma and sym not in inside:
                for t in dsts:
                    if member[t] == i:
                        inside.add(sym)
                        break
    return [Component(frozenset(c), frozenset(l)) for c, l in zip(comps, letters)]


def cycle_over_alphabet(
    a: Nfa, gamma: Iterable[str], require_initial_and_final: bool = False
) -> Component | None:
    """A component of the ``gamma``-restricted graph whose internal letters are
    exactly ``gamma``, or None. Such a component exists iff some state lies on
    a cycle using every letter of ``gamma`` and no others (cycles inside one
    component compose). With the flag set, the component must also contain an
    initial and a final state."""
    gamma = frozenset(gamma)
    if not gamma:
        raise AutomatonError("gamma must be nonempty")
    for comp in scc_decomposition(a, gamma):
        if comp.letters != gamma:
            continue
        if require_initial_and_final and not (
            comp.states & a.initial and comp.states & a.final
        ):
            continue
        return comp
    return None


def self_loop_letters(d: Nfa, q: str) -> frozenset[str]:
    """Symbols under which ``q`` has a transition back to itself."""
    row = d._out.get(q)
    if row is None:
        raise AutomatonError(f"unknown state {q!r}")
    return frozenset([sym for sym, dsts in row.items() if q in dsts])


# ---------------------------------------------------------------------------
# deterministic witness-path helpers


def shortest_run(
    a: Nfa,
    sources: Iterable[str],
    targets: Iterable[str],
    gamma: Iterable[str] | None = None,
    within: Iterable[str] | None = None,
) -> tuple[Word, tuple[str, ...]] | None:
    """Shortest labeled run from any source to any target as
    ``(word, state_sequence)``, or None when unreachable.

    BFS visits states and symbols in sorted order, so the same run is found on
    every invocation. ``gamma`` restricts the usable symbols and ``within``
    restricts the visitable states. A source that is already a target yields
    the empty run.
    """
    allowed = frozenset(a.alphabet if gamma is None else gamma)
    inside = None if within is None else frozenset(within)
    target_set = set(targets)
    source_list = sorted(sources)
    for src in source_list:
        if src in target_set:
            return (EPSILON, (src,))
    parent: dict[str, tuple[str, str]] = {}
    seen = set(source_list)
    queue = deque(source_list)
    index = a._out
    while queue:
        q = queue.popleft()
        row = index[q]
        for sym in sorted(row.keys() & allowed):
            for nxt in row[sym]:
                if nxt in seen or (inside is not None and nxt not in inside):
                    continue
                seen.add(nxt)
                parent[nxt] = (q, sym)
                if nxt in target_set:
                    word: list[str] = []
                    path = [nxt]
                    while path[-1] in parent:
                        prev, psym = parent[path[-1]]
                        word.append(psym)
                        path.append(prev)
                    return (tuple(reversed(word)), tuple(reversed(path)))
                queue.append(nxt)
    return None


def closed_run_covering_word(
    a: Nfa, anchor: str, gamma: Iterable[str], target: Word = EPSILON
) -> Word:
    """A word labeling a closed run at ``anchor`` with letter set exactly
    ``gamma`` that contains ``target`` as a subsequence, staying inside the
    anchor's strongly connected component of the gamma restriction. That
    component must carry exactly ``gamma`` as internal letters (callers
    establish this via the common-cycle fixpoint), and letters(target) must
    lie inside gamma.

    The run chases the letters of ``target`` in order, then each letter of
    gamma not yet read in lexicographic order, with shortest connecting runs
    whose letters count as read. So two such words over the same gamma stay
    roughly aligned; that keeps pump counts small when one is repeatedly
    embedded into powers of the other.
    """
    gamma = frozenset(gamma)
    comp = next((c for c in scc_decomposition(a, gamma) if anchor in c.states), None)
    if comp is None:
        raise AutomatonError(f"state {anchor!r} is in no component")
    if comp.letters != gamma:
        raise AutomatonError("anchor's component does not carry exactly the requested letters")
    if not letters_of(target) <= gamma:
        raise AutomatonError("target word uses letters outside gamma")

    index = a._out
    word: list[str] = []

    def entered(src: str, sym: str) -> list[str]:
        # the component's states that a sym edge from src enters, sorted
        return [t for t in index[src].get(sym, ()) if t in comp.states]

    def chase(current: str, sym: str) -> str:
        # append a shortest connector to some sym edge and the edge's letter;
        # return the state the edge enters
        sources = {q for q in comp.states if entered(q, sym)}
        run = shortest_run(a, {current}, sources, gamma=gamma, within=comp.states)
        assert run is not None  # anchor's component is strongly connected
        connector, path = run
        word.extend(connector)
        word.append(sym)
        return entered(path[-1], sym)[0]

    current = anchor
    for sym in target:
        current = chase(current, sym)
    while remaining := gamma - set(word):
        current = chase(current, min(remaining))
    back = shortest_run(a, {current}, {anchor}, gamma=gamma, within=comp.states)
    assert back is not None
    word.extend(back[0])
    return tuple(word)
