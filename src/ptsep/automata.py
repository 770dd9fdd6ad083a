"""Finite automata over named states: a line-based text format, language
operations, and the alphabet-restricted graph queries behind the decision
procedures in the rest of the package.

Automata are immutable; every operation returns a fresh automaton. Each
automaton indexes its transitions once as state -> letter -> sorted targets,
and every graph query reads that index. A DFA keeps its dead sink implicit:
its index lists only the moves that do not enter the sink, the sink's own
row is empty, and a letter missing from a row moves to the sink. Its
``transitions`` table, sink moves included, is built on first use, so
printed automata are unchanged.

Automata are checked once, where they enter the library: ``parse_automaton``,
``Nfa(...)``, ``Dfa(...)`` and ``Nfa.build`` check every name and transition.
An automaton the library derives from checked ones (``trim``,
``lift_alphabet``, ``product_intersection``) is handed its fields and its
index without a second check; ``lift_alphabet`` checks only the letters its
caller adds. The DFAs the library builds itself (subset construction,
minimization, the MCVP instances) come from their rows, each row checked
whole and no name checked again. Any other automaton indexes its transitions
on first use (a DFA at construction, where the index doubles as the
completeness check). State and symbol names are plain tokens (nonempty, no
whitespace, no ``#``). Anything that can influence observable output (state
naming, witness words, serialized text) is produced by iterating in sorted
order, so results are reproducible across processes regardless of hash
seeding.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
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


def _index(
    states: Iterable[str], transitions: Iterable[Transition]
) -> dict[str, dict[str, tuple[str, ...]]]:
    """State -> letter -> sorted tuple of targets, with a row for every state."""
    out: dict[str, dict[str, tuple[str, ...]]] = {q: {} for q in states}
    many: dict[tuple[str, str], list[str]] = {}
    for src, sym, dst in transitions:
        row = out[src]
        if sym in row:
            many.setdefault((src, sym), list(row[sym])).append(dst)
        else:
            row[sym] = (dst,)
    for (src, sym), dsts in many.items():
        out[src][sym] = tuple(sorted(dsts))
    return out


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

    # the implicit dead sink; only a DFA has one
    _sink = None

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
        return _index(self.states, self.transitions)

    def _full_out(self) -> dict[str, dict[str, tuple[str, ...]]]:
        """The index with every transition written out; a DFA adds its sink
        moves."""
        return self._out

    @cached_property
    def _minimal(self) -> "Dfa":
        """The minimal complete DFA of the language, built on first use; the
        PT test, the oracles and :func:`equivalent` all read this one."""
        return minimize(subset_construction(self))

    def successors(self, state: str, symbol: str) -> frozenset[str]:
        return self.step_set((state,), symbol)

    def step_set(self, states: Iterable[str], symbol: str) -> frozenset[str]:
        out: set[str] = set()
        index = self._out
        for q in states:
            out.update(index.get(q, {}).get(symbol, ()))
        return frozenset(out)


def _least_dead(
    out: dict[str, dict[str, tuple[str, ...]]], final: frozenset[str], width: int
) -> str | None:
    """The least rejecting state whose row sends every letter back to it."""
    return min(
        (
            q
            for q, row in out.items()
            if len(row) == width and q not in final and all(t == (q,) for t in row.values())
        ),
        default=None,
    )


@dataclass(frozen=True, eq=False)
class Dfa(Nfa):
    """Complete deterministic automaton: exactly one initial state and exactly
    one transition per (state, symbol) pair over the declared alphabet.

    The dead sink is implicit. ``_sink`` names the least rejecting state that
    every letter maps back to itself, or is None when there is none; the
    index ``_out`` lists only the moves that do not enter the sink, and the
    sink's own row is empty. ``transitions``, sink moves included, is built
    on first use. ``Dfa(...)``, :func:`parse_automaton` and :meth:`_from_rows`
    all build this one form, and equality and hashing read it, so they agree
    with a comparison of the full transition tables."""

    def __post_init__(self):
        super().__post_init__()
        if len(self.initial) != 1:
            raise AutomatonError("a DFA declares exactly one initial state")
        # the index is built here and doubles as the check: a row per state
        # with one entry per letter, each holding exactly one target
        out = _index(self.states, self.transitions)
        if sum(map(len, out.values())) != len(self.transitions):
            q, sym = min((q, y) for q, row in out.items() for y, ts in row.items() if len(ts) > 1)
            raise AutomatonError(f"duplicate transition for ({q}, {sym}) in a DFA")
        width = len(self.alphabet)
        if any(len(row) != width for row in out.values()):
            q = min(q for q, row in out.items() if len(row) != width)
            sym = min(self.alphabet - out[q].keys())
            raise AutomatonError(f"incomplete DFA: no transition for ({q}, {sym})")
        sink = _least_dead(out, self.final, width)
        if sink is not None:
            into = (sink,)
            out = {q: {sym: t for sym, t in row.items() if t != into} for q, row in out.items()}
        self.__dict__.update(_out=out, _sink=sink)

    @classmethod
    def _from_rows(
        cls,
        rows: dict[str, dict[str, str]],
        alphabet: frozenset[str],
        initial: Iterable[str],
        final: Iterable[str],
        sink: str | None = None,
    ) -> "Dfa":
        """The DFA in which ``rows[q][sym]`` is the target of q under sym,
        and ``sink``, whose row is empty, the target of every move a row
        lacks. It equals ``Dfa(...)`` on the full table. The library's own
        builders use it, and derive every name from checked ones (subset
        members, class representatives, gate numbers), so no name is
        checked again. The rows are checked whole (their letters are in the
        alphabet, their targets are declared states, and without a sink
        they are complete) and kept as the index, instead of checking and
        indexing every transition. Anything that fails a check goes to
        ``Dfa(...)`` on the full table, which raises its own message."""
        states, initial, final = frozenset(rows), frozenset(initial), frozenset(final)
        width = len(alphabet)
        if not (
            len(initial) == 1
            and initial <= states
            and final <= states
            and (sink is None or (sink in states and sink not in final and not rows[sink]))
            and all(
                (sink is not None or len(row) == width)
                and alphabet.issuperset(row)
                and states.issuperset(row.values())
                for row in rows.values()
            )
        ):
            triples = {(q, sym, t) for q, row in rows.items() for sym, t in row.items()}
            if sink is not None:
                triples.update(
                    (q, sym, sink) for q, row in rows.items() for sym in alphabet if sym not in row
                )
            return cls(states, alphabet, frozenset(triples), initial, final)
        # the index shares one 1-tuple per target state
        single = {q: (q,) for q in states}
        out = {q: dict(zip(row, map(single.__getitem__, row.values()))) for q, row in rows.items()}
        dead = _least_dead(out, final, width)
        if dead is not None and (sink is None or dead < sink):
            # a rejecting state whose row loops on every letter comes before
            # the sink: it becomes the sink, and the old sink's moves are
            # written out
            into, old = single[dead], (sink,)
            out = {
                q: {sym: t for sym in alphabet if (t := row.get(sym, old)) != into}
                for q, row in out.items()
            }
            sink = dead
        x = cls.__new__(cls)
        x.__dict__.update(
            states=states, alphabet=alphabet, initial=initial, final=final, _out=out, _sink=sink
        )
        return x

    @cached_property
    def transitions(self) -> frozenset[Transition]:
        out, sink = self._out, self._sink
        moves = [(q, sym, t) for q, row in out.items() for sym, (t,) in row.items()]
        if sink is not None:
            moves += [
                (q, sym, sink) for q, row in out.items() for sym in self.alphabet if sym not in row
            ]
        return frozenset(moves)

    def _full_out(self) -> dict[str, dict[str, tuple[str, ...]]]:
        if self._sink is None:
            return self._out
        into = (self._sink,)
        return {
            q: {sym: row.get(sym, into) for sym in self.alphabet} for q, row in self._out.items()
        }

    def _key(self) -> tuple:
        return (self.states, self.alphabet, self.initial, self.final, self._sink)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key() and self._out == other._out

    def __hash__(self):
        return hash(self._key())

    @property
    def start(self) -> str:
        return next(iter(self.initial))

    def step(self, state: str, symbol: str) -> str:
        targets = self._out[state].get(symbol)
        if targets is not None:
            return targets[0]
        if self._sink is None or symbol not in self.alphabet:
            raise AutomatonError(f"no transition for ({state}, {symbol})")
        return self._sink

    def step_set(self, states: Iterable[str], symbol: str) -> frozenset[str]:
        if symbol not in self.alphabet:
            return frozenset()
        index, into_sink = self._out, (self._sink,)
        return frozenset([index[q].get(symbol, into_sink)[0] for q in states if q in index])


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
    new symbols have no transitions. Always returns a plain Nfa, with a
    DFA's sink moves written out. Only the added letters are checked, least
    first."""
    alphabet = frozenset(alphabet)
    if not a.alphabet <= alphabet:
        raise AlphabetMismatchError("lift target must contain the current alphabet")
    for sym in sorted(alphabet - a.alphabet):
        _check_token(sym, "symbol")
    # the new letters carry no transitions, so both share one index; the
    # minimal DFA is not shared, since the new letters need a sink
    return Nfa._handed_over(a.states, alphabet, a.transitions, a.initial, a.final, a._full_out())


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

    Only subsets reachable from the set of initial states are kept. Subset
    states are named ``{m1,m2,...}`` by their sorted members. The empty
    subset ``{}`` is the rejecting sink, and no move into it is listed; a
    DFA's own sink s stands for the empty subset, named ``{s}``. Raises
    AutomatonError when two reachable subsets would get one name.
    """
    letters = sorted(a.alphabet)
    dead = "{}" if a._sink is None else "{" + a._sink + "}"

    def name(subset: frozenset[str]) -> str:
        return "{" + ",".join(sorted(subset)) + "}" if subset else dead

    start = frozenset(a.initial) - {a._sink}
    order: list[frozenset[str]] = [start]
    names = {start: name(start)}
    rows: dict[str, dict[str, str]] = {}
    for subset in order:
        row = rows[names[subset]] = {}
        for sym in letters:
            # the rows as they are, so a DFA's sink moves reach the empty subset
            target = Nfa.step_set(a, subset, sym)
            if not target:
                continue
            dst = names.get(target)
            if dst is None:
                dst = names[target] = name(target)
                order.append(target)
            row[sym] = dst
    sink = None
    if any(len(row) < len(letters) for row in rows.values()):
        sink = names.setdefault(frozenset(), dead)
        rows.setdefault(sink, {})
    _distinct_names(names, "subsets")
    final = {names[s] for s in order if s & a.final}
    return Dfa._from_rows(rows, a.alphabet, {names[start]}, final, sink)


def _refinable(groups: list[list[int]], n: int):
    """A partition of 0..n-1, starting from ``groups``, that is refined by
    marking elements and then splitting every set with marked elements into
    its marked and unmarked parts (Valmari and Lehtinen). Each set's elements
    are contiguous in ``elems``, from ``first[s]`` to ``end[s]``, marked ones
    first; a split keeps the larger part under the old number and gives the
    smaller one the next number. Returns ``(elems, set_of, first, end, mark,
    split)``; an element is marked at most once between splits."""
    elems = [e for group in groups for e in group]
    loc = [0] * n
    set_of = [0] * n
    first: list[int] = []
    end: list[int] = []
    for s, group in enumerate(groups):
        first.append(end[-1] if end else 0)
        end.append(first[-1] + len(group))
        for e in group:
            set_of[e] = s
    for i, e in enumerate(elems):
        loc[e] = i
    marked = [0] * len(groups)
    touched: list[int] = []

    def mark(e: int) -> None:
        s = set_of[e]
        i, j = loc[e], first[s] + marked[s]
        other = elems[j]
        elems[i] = other
        loc[other] = i
        elems[j] = e
        loc[e] = j
        if not marked[s]:
            touched.append(s)
        marked[s] += 1

    def split() -> None:
        while touched:
            s = touched.pop()
            lo, hi = first[s], end[s]
            j = lo + marked[s]
            marked[s] = 0
            if j == hi:
                continue
            if j - lo <= hi - j:
                first.append(lo)
                end.append(j)
                first[s] = j
                moved = elems[lo:j]
            else:
                first.append(j)
                end.append(hi)
                end[s] = j
                moved = elems[j:hi]
            z = len(marked)
            marked.append(0)
            for e in moved:
                set_of[e] = z

    return elems, set_of, first, end, mark, split


def minimize(d: Dfa) -> Dfa:
    """The minimal complete DFA for L(d).

    Unreachable states are dropped and equivalent states merged; each merged
    class is named after its lexicographically least member. The reachable
    states from which no final state is reachable form one class, the sink
    of the result, so an empty language collapses to a single non-accepting
    sink state. The other states are refined over the moves between them
    only, by the partition refinement of Valmari and Lehtinen for partial
    DFAs: O(m log n) for m such moves. When every state of ``d`` is
    reachable and no two are equivalent, the result would equal ``d`` field
    by field, and ``d`` itself is returned.
    """
    index = d._out
    start = d.start
    reachable: list[str] = [start]
    pred: dict[str, list[str]] = {start: []}
    for q in reachable:
        for (t,) in index[q].values():
            if t not in pred:
                pred[t] = []
                reachable.append(t)
            pred[t].append(q)
    live = [q for q in reachable if q in d.final]
    alive = set(live)
    for q in live:
        for p in pred[q]:
            if p not in alive:
                alive.add(p)
                live.append(p)
    dead = pred.keys() - alive
    width = len(d.alphabet)
    if d._sink is not None and any(len(index[q]) < width for q in reachable):
        dead.add(d._sink)

    # blocks of the live states, in name order: the final and the other
    # ones, the larger first
    ordered = sorted(alive)
    n = len(ordered)
    final = [i for i, q in enumerate(ordered) if q in d.final]
    rejecting = [i for i, q in enumerate(ordered) if q not in d.final]
    groups = sorted((group for group in (rejecting, final) if group), key=len, reverse=True)
    blocks, block_of, block_first, block_end, mark_state, split_blocks = _refinable(groups, n)
    # with every block a single state there is nothing to refine
    if len(groups) < n:
        # cords of the moves between live states: grouped by letter at
        # first, later split further by the blocks their heads lie in
        number = {q: i for i, q in enumerate(ordered)}
        tails: list[int] = []
        by_letter: dict[str, list[int]] = {sym: [] for sym in d.alphabet}
        into: list[list[int]] = [[] for _ in ordered]
        for i, q in enumerate(ordered):
            for sym, (t,) in index[q].items():
                if t in number:
                    by_letter[sym].append(len(tails))
                    into[number[t]].append(len(tails))
                    tails.append(i)
        cords, cord_of, cord_first, cord_end, mark_move, split_cords = _refinable(
            [group for group in by_letter.values() if group], len(tails)
        )
        # every cord splits the blocks by the tails of its moves, and every
        # block but the first (the others suffice) splits the cords by the
        # heads of theirs; a singleton cannot split, so its members are not
        # marked
        b, c = 1, 0
        while c < len(cord_first):
            for e in cords[cord_first[c] : cord_end[c]]:
                k = block_of[tails[e]]
                if block_end[k] - block_first[k] > 1:
                    mark_state(tails[e])
            split_blocks()
            c += 1
            while b < len(block_first):
                for q in blocks[block_first[b] : block_end[b]]:
                    for e in into[q]:
                        k = cord_of[e]
                        if cord_end[k] - cord_first[k] > 1:
                            mark_move(e)
                split_cords()
                b += 1

    if len(block_first) + bool(dead) == len(d.states):
        return d
    least: dict[int, str] = {}
    for i, q in enumerate(ordered):
        least.setdefault(block_of[i], q)
    rename = {q: least[block_of[i]] for i, q in enumerate(ordered)}
    # members of a class step into the same classes, so the representative's
    # row is the class's row; its moves into dead states go to the sink
    classes = {
        r: {sym: rename[t] for sym, (t,) in index[r].items() if t in rename}
        for r in least.values()
    }
    sink = min(dead, default=None)
    if sink is not None:
        classes[sink] = {}
    accepting = {rename[ordered[i]] for i in final}
    return Dfa._from_rows(classes, d.alphabet, {rename.get(start, sink)}, accepting, sink)


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
    joined; a DFA's sink moves take part like any other."""
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError("product requires a shared alphabet")
    out_a, out_b = a._full_out(), b._full_out()
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
    if a._sink is not None:
        for q, row in a._out.items():
            if any(sym not in row for sym in gamma):
                succ[q].add(a._sink)
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
    A DFA's sink is a singleton that carries all of gamma, and comes last.
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

    for root in sorted(a.states - {a._sink}):
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
    found = [Component(frozenset(c), frozenset(l)) for c, l in zip(comps, letters)]
    if a._sink is not None:
        found.append(Component(frozenset([a._sink]), gamma))
    return found


def self_loop_letters(d: Nfa, q: str) -> frozenset[str]:
    """Symbols under which ``q`` has a transition back to itself."""
    row = d._out.get(q)
    if row is None:
        raise AutomatonError(f"unknown state {q!r}")
    if q == d._sink:
        return d.alphabet
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
    the empty run. A DFA's sink moves are tried only when its sink is a
    target: no run goes on from the sink.
    """
    allowed = frozenset(a.alphabet if gamma is None else gamma)
    inside = None if within is None else frozenset(within)
    target_set = set(targets)
    source_list = sorted(sources)
    for src in source_list:
        if src in target_set:
            return (EPSILON, (src,))
    # a missing letter moves to the sink, so with the sink a target every
    # allowed letter is tried
    into_sink: tuple[str, ...] = ()
    letters: list[str] = []
    if a._sink in target_set and (inside is None or a._sink in inside):
        into_sink, letters = (a._sink,), sorted(allowed)
    parent: dict[str, tuple[str, str]] = {}
    seen = set(source_list)
    queue = deque(source_list)
    index = a._out
    while queue:
        q = queue.popleft()
        row = index[q]
        for sym in letters or sorted(row.keys() & allowed):
            for nxt in row.get(sym, into_sink):
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
    into_sink = (a._sink,)
    word: list[str] = []

    def entered(src: str, sym: str) -> list[str]:
        # the component's states that a sym edge from src enters, sorted
        return [t for t in index[src].get(sym, into_sink) if t in comp.states]

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
