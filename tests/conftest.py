"""Shared helpers: tiny brute-force reimplementations used as ground truth.

Everything here recomputes answers from first principles (word enumeration,
product searches over letter subsets) instead of calling the code under test,
so a bug in the library cannot hide itself.
"""

from __future__ import annotations

import itertools
import random
import textwrap
from collections import deque

from ptsep.automata import (
    _HEADER_KEYS,
    AutomatonError,
    Dfa,
    Nfa,
    ParseError,
    Transition,
    Word,
    _index,
    parse_automaton,
)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Render the acceptance checklist, one line per criterion."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in RESULTS:
            terminalreporter.write_line(line)


def aut(text: str) -> Nfa:
    return parse_automaton(textwrap.dedent(text))


def random_nfa(rng: random.Random, max_states: int = 6, letters=("a", "b", "c")) -> Nfa:
    n = rng.randint(1, max_states)
    states = [f"q{i}" for i in range(n)]
    alpha = frozenset(letters[: rng.randint(1, len(letters))])
    trans = set()
    for q in states:
        for sym in sorted(alpha):
            for t in states:
                if rng.random() < 1.5 / n:
                    trans.add((q, sym, t))
    final = frozenset(q for q in states if rng.random() < 0.35)
    initial = frozenset({rng.choice(states)})
    return Nfa.build(
        states=states, alphabet=alpha, transitions=trans, initial=initial, final=final
    )


DFA_KINDS = ("no sink", "one sink", "dead states")


def random_dfa(
    rng: random.Random, kind: str, letters=("a", "b", "c"), max_states: int = 6
) -> Dfa:
    """A random complete DFA as a full table, with 1 to ``max_states`` live
    states. "no sink": no rejecting state loops on every letter. "one sink":
    one such state, z, entered from some states. "dead states": the
    rejecting absorbing states y and z, a rejecting two-cycle d0, d1 that
    only leads to them, and sometimes no final state at all (the empty
    language). Some states may be unreachable."""
    alpha = letters[: rng.randint(1, len(letters))]
    n = rng.randint(1, max_states)
    live = [f"q{i}" for i in range(n)]
    dead = {"no sink": [], "one sink": ["z"], "dead states": ["d0", "d1", "y", "z"]}[kind]
    final = {q for q in live if rng.random() < 0.4}
    if kind == "dead states" and rng.random() < 0.3:
        final = set()
    step = {}
    for q in live:
        for sym in alpha:
            step[q, sym] = rng.choice(live + dead if rng.random() < 0.3 else live)
    for sym in alpha:
        if kind != "no sink":
            step["z", sym] = "z"
        if kind == "dead states":
            step["y", sym] = "y"
            step["d0", sym] = "d1"
            step["d1", sym] = rng.choice(["d0", "y", "z"])
    if kind == "no sink":
        # a rejecting state that loops on everything gets an exit
        for q in live:
            if q not in final and all(step[q, sym] == q for sym in alpha):
                if n == 1:
                    final.add(q)
                else:
                    step[q, alpha[0]] = live[(live.index(q) + 1) % n]
    triples = [(q, sym, t) for (q, sym), t in step.items()]
    return Dfa.build(live + dead, alpha, triples, [rng.choice(live)], final)


def reference_minimize(d: Dfa) -> Dfa:
    """Moore's partition refinement over the complete rows, the referee of
    ``minimize``: rounds refine the blocks by (block, block of each
    successor) until stable; classes are named by their least member, and a
    DFA that is already minimal is returned as it is."""
    letters = sorted(d.alphabet)
    index = {(src, sym): dst for src, sym, dst in d.transitions}
    start = next(iter(d.initial))
    rows: dict[str, tuple[str, ...]] = {}
    reachable: list[str] = [start]
    seen = {start}
    for q in reachable:
        row = rows[q] = tuple([index[q, sym] for sym in letters])
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
    triples = [
        (r, sym, rename[t]) for r in representative.values() for sym, t in zip(letters, rows[r])
    ]
    final = {rename[q] for q in seen if q in d.final}
    return Dfa.build(representative.values(), d.alphabet, triples, {rename[start]}, final)


def reference_parse_automaton(text: str) -> Nfa:
    """A plain line parser, the referee of ``parse_automaton``: it strips
    and slices every line, and checks each name of a move against the
    declared sets before it maps the name. Both must return equal automata,
    row order included, or raise the same ``ParseError`` text."""
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
    rows: dict[str, dict[str, str]] = {q: {} for q in states} if kind == "dfa" else {}
    for (src, sym, dst), ln in trans:
        if src not in states:
            raise ParseError(f"undeclared state {src!r}", ln)
        if dst not in states:
            raise ParseError(f"undeclared state {dst!r}", ln)
        if sym not in alphabet:
            raise ParseError(f"undeclared symbol {sym!r}", ln)
        src, sym, dst = declared[src], symbols[sym], declared[dst]
        if kind == "nfa":
            triples.add((src, sym, dst))
        elif rows[src].setdefault(sym, dst) != dst:
            raise ParseError(f"duplicate transition for ({src}, {sym}) in a DFA", ln)

    # every name and move is checked above, so the automaton is handed over
    if kind == "nfa":
        return Nfa._from_index(states, alphabet, initial, final, _index(states, triples))
    try:
        return Dfa._from_rows(rows, alphabet, initial, final)
    except AutomatonError as exc:
        raise ParseError(str(exc)) from exc


def _adjacency(a: Nfa) -> dict[tuple[str, str], set[str]]:
    adj: dict[tuple[str, str], set[str]] = {}
    for src, sym, dst in a.transitions:
        adj.setdefault((src, sym), set()).add(dst)
    return adj


def brute_accepts(a: Nfa, w: Word) -> bool:
    """Membership by direct set simulation, independent of the library."""
    adj = _adjacency(a)
    cur = set(a.initial)
    for sym in w:
        cur = set().union(*(adj.get((q, sym), set()) for q in cur)) if cur else set()
    return bool(cur & a.final)


def brute_language(a: Nfa, max_len: int = 6) -> set[Word]:
    """All accepted words up to the given length."""
    adj = _adjacency(a)
    letters = sorted(a.alphabet)
    out: set[Word] = set()

    def rec(word: Word, cur: frozenset[str]):
        if cur & a.final:
            out.add(word)
        if len(word) == max_len or not cur:
            return
        for sym in letters:
            nxt = frozenset().union(*(adj.get((q, sym), set()) for q in cur))
            if nxt:
                rec(word + (sym,), nxt)

    rec((), frozenset(a.initial))
    return out


def words_up_to(alphabet, max_len: int):
    letters = sorted(alphabet)
    for length in range(max_len + 1):
        yield from itertools.product(letters, repeat=length)


def brute_profile(w: Word, k: int) -> frozenset[Word]:
    """All subsequences of length <= k, via index combinations."""
    out: set[Word] = set()
    for r in range(min(k, len(w)) + 1):
        for idxs in itertools.combinations(range(len(w)), r):
            out.add(tuple(w[i] for i in idxs))
    return frozenset(out)


def is_subsequence(u: Word, w: Word) -> bool:
    it = iter(w)
    return all(sym in it for sym in u)


def has_exact_cycle(a: Nfa, q: str, gamma: frozenset[str]) -> bool:
    """Is q on a cycle whose letter set is exactly gamma? Product search over
    (state, letters collected so far)."""
    if not gamma:
        return False
    adj = _adjacency(a)
    start = (q, frozenset())
    seen = {start}
    queue = deque([start])
    while queue:
        s, got = queue.popleft()
        for sym in sorted(gamma):
            for t in sorted(adj.get((s, sym), ())):
                node = (t, got | {sym})
                if t == q and node[1] == gamma:
                    return True
                if node not in seen:
                    seen.add(node)
                    queue.append(node)
    return False


def has_initial_final_cycle(a: Nfa, gamma: frozenset[str]) -> bool:
    """Do an initial and a final state lie on one closed run whose letter set
    is exactly gamma? Closed runs through a state compose, so this holds iff
    some initial state i reaches a final state and back over gamma, and every
    letter of gamma labels an edge between two states that i reaches and
    that reach i over gamma."""
    if not gamma:
        return False
    adj = _adjacency(a)

    def reach(q: str) -> set[str]:
        seen, todo = {q}, [q]
        while todo:
            s = todo.pop()
            for sym in gamma:
                for t in adj.get((s, sym), ()):
                    if t not in seen:
                        seen.add(t)
                        todo.append(t)
        return seen

    for i in a.initial:
        loop = {q for q in reach(i) if i in reach(q)}
        if loop & a.final and all(
            any(t in loop for q in loop for t in adj.get((q, sym), ())) for sym in gamma
        ):
            return True
    return False


def nonempty_subsets(alphabet):
    letters = sorted(alphabet)
    for r in range(1, len(letters) + 1):
        for combo in itertools.combinations(letters, r):
            yield frozenset(combo)


def check_tower(words, start_side: str, a: Nfa, b: Nfa) -> bool:
    """Independent tower validity: alternating membership plus the
    subsequence chain. Automata are widened to the union alphabet so a word
    using the other side's letters is rejected rather than an error."""
    union = a.alphabet | b.alphabet
    wide_a = Nfa.build(
        states=a.states, alphabet=union, transitions=a.transitions,
        initial=a.initial, final=a.final,
    )
    wide_b = Nfa.build(
        states=b.states, alphabet=union, transitions=b.transitions,
        initial=b.initial, final=b.final,
    )
    if start_side not in ("A", "B") or not words:
        return False
    for i, w in enumerate(words):
        on_a = (start_side == "A") == (i % 2 == 0)
        if not brute_accepts(wide_a if on_a else wide_b, w):
            return False
    return all(is_subsequence(u, w) for u, w in zip(words, words[1:]))


def chain_dfa(n: int, twin: bool) -> tuple[Dfa, tuple[str, ...], str]:
    """State c_i advances on its own letter and self-loops on every other;
    the last state accepts. The twin's letter z sends c_{n-2} to a rejecting
    sink r, which makes c_0, c_{n-1}, r a triple over the full alphabet."""
    chain, z = tuple(f"l{i:03d}" for i in range(n - 1)), "z"
    states = [f"c{i:03d}" for i in range(n)]
    trans = []
    for i, q in enumerate(states):
        trans += [(q, sym, states[i + 1] if j == i else q) for j, sym in enumerate(chain)]
    alphabet = list(chain)
    if twin:
        alphabet.append(z)
        trans += [(q, z, "r" if i == n - 2 else q) for i, q in enumerate(states)]
        trans += [("r", sym, "r") for sym in alphabet]
        states.append("r")
    return Dfa.build(states, alphabet, trans, [states[0]], [f"c{n - 1:03d}"]), chain, z
