import random

import pytest

from conftest import (
    DFA_KINDS,
    aut,
    brute_accepts,
    brute_language,
    has_exact_cycle,
    has_initial_final_cycle,
    is_subsequence,
    nonempty_subsets,
    random_dfa,
    random_nfa,
    reference_minimize,
    words_up_to,
)
from ptsep.automata import (
    AlphabetMismatchError,
    AutomatonError,
    Dfa,
    Nfa,
    ParseError,
    closed_run_covering_word,
    equivalent,
    language_empty,
    lift_alphabet,
    membership,
    minimize,
    parse_automaton,
    product_intersection,
    restricted_reach,
    scc_decomposition,
    self_loop_letters,
    serialize_automaton,
    shortest_run,
    subset_construction,
    trim,
)

EVEN_A = """
kind: dfa
states: e o
alphabet: a
initial: e
final: e
trans: e a o
trans: o a e
"""

SIGMA_STAR = """
kind: dfa
states: z
alphabet: a b
initial: z
final: z
trans: z a z
trans: z b z
"""

A_THEN_ANY = """
kind: nfa
states: u v
alphabet: a b
initial: u
final: v
trans: u a v
trans: v a v
trans: v b v
"""


# ---------------------------------------------------------------------- parsing


def test_parse_dfa_kind_and_completeness():
    d = aut(EVEN_A)
    assert isinstance(d, Dfa)
    assert d.start == "e"
    assert d.step("e", "a") == "o"


def test_parse_nfa_kind():
    a = aut(A_THEN_ANY)
    assert isinstance(a, Nfa) and not isinstance(a, Dfa)
    assert a.step_set({"v"}, "a") == {"v"}


def test_parse_accepts_any_header_order_and_comments():
    a = aut(
        """
        # free-form comment
        final: v       # trailing comment
        trans: u a v
        initial: u
        alphabet: a
        states: u v

        kind: nfa
        """
    )
    assert a.initial == {"u"} and a.final == {"v"}


def test_parse_missing_initial_message():
    with pytest.raises(ParseError, match="^missing initial$"):
        parse_automaton("kind: nfa\nstates: x\nalphabet: a\nfinal: x\n")


def test_parse_duplicate_header_line_reports_line_number():
    text = "kind: nfa\nstates: x\nstates: y\nalphabet: a\ninitial: x\nfinal: x\n"
    with pytest.raises(ParseError) as err:
        parse_automaton(text)
    assert err.value.line == 3
    assert "duplicate 'states:'" in str(err.value)


def test_parse_rejects_unknown_key_and_bad_kind():
    with pytest.raises(ParseError, match="unknown key"):
        parse_automaton("bogus: 1\nkind: nfa\nstates: x\nalphabet: a\ninitial: x\nfinal:\n")
    with pytest.raises(ParseError, match="kind must be"):
        parse_automaton("kind: moore\nstates: x\nalphabet: a\ninitial: x\nfinal:\n")


def test_parse_rejects_undeclared_tokens():
    base = "kind: nfa\nstates: x\nalphabet: a\ninitial: x\nfinal: x\n"
    with pytest.raises(ParseError, match="undeclared state 'y'"):
        parse_automaton(base + "trans: x a y\n")
    with pytest.raises(ParseError, match="undeclared symbol 'b'"):
        parse_automaton(base + "trans: x b x\n")
    with pytest.raises(ParseError, match="undeclared state 'q'"):
        parse_automaton("kind: nfa\nstates: x\nalphabet: a\ninitial: q\nfinal: x\n")


def test_parse_dfa_requires_total_single_valued_function():
    with pytest.raises(ParseError, match="incomplete DFA"):
        aut(
            """
            kind: dfa
            states: e o
            alphabet: a b
            initial: e
            final: e
            trans: e a o
            trans: o a e
            """
        )
    with pytest.raises(ParseError, match="duplicate transition"):
        aut(
            """
            kind: dfa
            states: e o
            alphabet: a
            initial: e
            final: e
            trans: e a e
            trans: e a o
            trans: o a o
            """
        )


def test_parse_dfa_rejections_keep_the_constructor_messages():
    base = "kind: dfa\nstates: e o\nalphabet: a b\nfinal: e\ntrans: e a o\ntrans: o a e\n"
    cases = {
        "initial:\ntrans: e b e\ntrans: o b o\n": "a DFA declares exactly one initial state",
        "initial: e o\ntrans: e b e\ntrans: o b o\n": "a DFA declares exactly one initial state",
        # both faults: the initial state is reported first
        "initial:\ntrans: e b e\n": "a DFA declares exactly one initial state",
        "initial: e\ntrans: e b e\n": "incomplete DFA: no transition for (o, b)",
        "initial: e\n": "incomplete DFA: no transition for (e, b)",
        "initial: e\ntrans: e b e\ntrans: o b o\ntrans: e a e\n": (
            "line 10: duplicate transition for (e, a) in a DFA"
        ),
    }
    for tail, message in cases.items():
        with pytest.raises(ParseError) as exc:
            parse_automaton(base + tail)
        assert str(exc.value) == message


def test_parse_dfa_tolerates_repeated_identical_transition_line():
    d = aut(
        """
        kind: dfa
        states: e
        alphabet: a
        initial: e
        final: e
        trans: e a e
        trans: e a e
        """
    )
    assert d.step("e", "a") == "e"


def test_serialize_is_canonical_and_round_trips():
    a = aut(A_THEN_ANY)
    text = serialize_automaton(a)
    assert text.startswith("kind: nfa\n")
    assert text.endswith("\n")
    assert parse_automaton(text) == a
    assert serialize_automaton(parse_automaton(text)) == text


def test_serialize_round_trips_randomly():
    rng = random.Random(9)
    for _ in range(100):
        a = random_nfa(rng)
        assert parse_automaton(serialize_automaton(a)) == a


def test_nfa_rejects_inconsistent_construction():
    with pytest.raises(AutomatonError):
        Nfa.build(states="x", alphabet="a", transitions=[("x", "a", "y")], initial="x", final="")
    with pytest.raises(AutomatonError):
        Nfa.build(states="x", alphabet="a", transitions=[], initial="z", final="")
    with pytest.raises(AutomatonError):
        Nfa.build(states=["x x"], alphabet="a", transitions=[], initial=[], final=[])


# ----------------------------------------------------------------- membership


def test_membership_examples():
    d = aut(EVEN_A)
    assert membership(d, ())
    assert not membership(d, ("a",))
    assert membership(d, ("a", "a"))


def test_membership_rejects_foreign_symbols():
    with pytest.raises(AlphabetMismatchError):
        membership(aut(EVEN_A), ("b",))


def test_membership_matches_brute_force():
    rng = random.Random(10)
    for _ in range(60):
        a = random_nfa(rng, max_states=5)
        for w in words_up_to(a.alphabet, 4):
            assert membership(a, w) == brute_accepts(a, w)


# ------------------------------------------------------- language operations


def test_lift_alphabet_preserves_language():
    a = aut(EVEN_A)
    lifted = lift_alphabet(a, {"a", "b", "c"})
    assert not isinstance(lifted, Dfa)
    assert brute_language(lifted) == brute_language(a)
    with pytest.raises(AlphabetMismatchError):
        lift_alphabet(a, {"b"})
    # an NFA and its lift share one transition index
    n = aut(A_THEN_ANY)
    assert lift_alphabet(n, {"a", "b", "c"})._out is n._out
    # only the added letters are checked: a malformed one raises the
    # constructor's message, and of several the least is named
    for bad in ({"a b"}, {"x#"}, {"x#", "a b", "c d"}):
        with pytest.raises(AutomatonError) as lifted:
            lift_alphabet(n, n.alphabet | bad)
        with pytest.raises(AutomatonError) as built:
            Nfa(n.states, n.alphabet | {min(bad)}, n.transitions, n.initial, n.final)
        assert str(lifted.value) == str(built.value)


def test_subset_construction_is_deterministic_total_and_language_preserving():
    rng = random.Random(11)
    for _ in range(80):
        a = random_nfa(rng, max_states=5)
        d = subset_construction(a)
        assert isinstance(d, Dfa)
        assert brute_language(d) == brute_language(a)


def test_subset_construction_names_subsets_by_members():
    d = subset_construction(aut(A_THEN_ANY))
    assert d.states == {"{u}", "{v}", "{}"}
    assert d.step("{u}", "b") == "{}"


def test_subset_construction_refuses_ambiguous_subset_names():
    # {x, y} and {"x,y"} would both be named {x,y}; merging them would make
    # the DFA accept the empty word, which the NFA rejects
    a = aut(
        """
        kind: nfa
        states: x y x,y
        alphabet: c
        initial: x y
        final: x,y
        trans: x c x,y
        trans: y c x,y
        trans: x,y c x,y
        """
    )
    assert not membership(a, ())
    with pytest.raises(AutomatonError, match="named {x,y}"):
        subset_construction(a)


def test_parser_reuses_declared_names():
    a = parse_automaton(
        "kind: nfa\nstates: p0 q0\nalphabet: ab\ninitial: p0\nfinal: q0\n"
        "trans: p0 ab q0\ntrans: q0 ab q0\n"
    )
    names = {id(q) for q in a.states} | {id(sym) for sym in a.alphabet}
    occurrences = [*a.initial, *a.final, *(x for t in a.transitions for x in t)]
    assert all(id(x) in names for x in occurrences)


def test_dfas_built_from_rows_equal_the_triple_path():
    rng = random.Random(4242)
    for _ in range(1000):
        d = subset_construction(random_nfa(rng, max_states=6))
        for built in (d, minimize(d)):
            ref = Dfa(built.states, built.alphabet, built.transitions, built.initial, built.final)
            assert type(built) is Dfa and built == ref and built._out == ref._out


def _expected_sink(d: Dfa) -> str | None:
    """The least rejecting state that loops on every letter, read off the
    full table."""
    loops = {q: {sym for src, sym, t in d.transitions if src == q == t} for q in d.states}
    return min((q for q in d.states - d.final if loops[q] == d.alphabet), default=None)


def _random_dfas(seed: int, count: int):
    rng = random.Random(seed)
    for i in range(count):
        yield random_dfa(rng, DFA_KINDS[i % len(DFA_KINDS)])


def test_dfa_constructors_agree_on_the_implicit_sink():
    sinks = set()
    for d in _random_dfas(31, 600):
        triples = set(d.transitions)
        sink = _expected_sink(d)
        sinks.add(sink)
        full = {q: {} for q in d.states}
        for q, sym, t in triples:
            full[q][sym] = t
        partial = {q: {sym: t for sym, t in row.items() if t != sink} for q, row in full.items()}
        built = [
            Dfa(d.states, d.alphabet, frozenset(triples), d.initial, d.final),
            parse_automaton(serialize_automaton(d)),
            Dfa._from_rows(full, d.alphabet, d.initial, d.final),
            Dfa._from_rows(partial, d.alphabet, d.initial, d.final, sink),
        ]
        # a sink that is not the least such state is replaced by the least
        others = [q for q in d.states - d.final if q != sink and set(full[q].values()) == {q}]
        for other in others:
            named = {q: {sym: t for sym, t in row.items() if t != other} for q, row in full.items()}
            built.append(Dfa._from_rows(named, d.alphabet, d.initial, d.final, other))
        for x in built:
            assert type(x) is Dfa
            assert x == d and hash(x) == hash(d)
            assert x._out == d._out and x._sink == d._sink == sink
            assert x.transitions == triples
            assert serialize_automaton(x) == serialize_automaton(d)
        assert d._out == {q: {sym: (t,) for sym, t in row.items()} for q, row in partial.items()}
    # no sink, the sink z, and y chosen over z (or a lone rejecting state)
    assert {None, "y", "z"} < sinks


def test_dfa_queries_read_the_sink_as_the_full_table_does():
    for d in _random_dfas(32, 300):
        full = Nfa(d.states, d.alphabet, d.transitions, d.initial, d.final)
        sink = d._sink
        for q in sorted(d.states):
            assert self_loop_letters(d, q) == self_loop_letters(full, q)
            for sym in sorted(d.alphabet):
                assert d.step_set({q}, sym) == full.step_set({q}, sym) == {d.step(q, sym)}
        for sym in sorted(d.alphabet):
            assert d.step_set(d.states, sym) == full.step_set(d.states, sym)
        assert d.step_set({d.start}, "foreign") == set()
        if sink is not None:
            assert self_loop_letters(d, sink) == d.alphabet
            assert all(d.step(sink, sym) == sink for sym in d.alphabet)
            for q in sorted(d.states):
                assert shortest_run(d, {q}, {sink}) == shortest_run(full, {q}, {sink})
        for gamma in nonempty_subsets(d.alphabet):
            assert restricted_reach(d, gamma) == restricted_reach(full, gamma)
            comps = scc_decomposition(d, gamma)
            assert set(comps) == set(scc_decomposition(full, gamma))
            if sink is not None:
                assert comps[-1].states == {sink} and comps[-1].letters == gamma
        for w in words_up_to(d.alphabet, 3):
            assert membership(d, w) == membership(full, w)
        assert subset_construction(d) == subset_construction(full)
        assert trim(d) == trim(full) and trim(d)._out == trim(full)._out


def test_dfa_lift_and_product_write_the_sink_moves_out():
    dfas = list(_random_dfas(33, 300))
    lifted = [lift_alphabet(d, "abcd") for d in dfas]
    products = [product_intersection(x, y) for x, y in zip(lifted, lifted[1:])]
    for d, x in zip(dfas, lifted):
        ref = Nfa(d.states, frozenset("abcd"), d.transitions, d.initial, d.final)
        assert type(x) is Nfa and x == ref and x._out == ref._out
    for x, y in zip(dfas, dfas[1:]):
        if x.alphabet == y.alphabet:
            full = [Nfa(d.states, d.alphabet, d.transitions, d.initial, d.final) for d in (x, y)]
            product = product_intersection(x, y)
            ref = product_intersection(*full)
            assert product == ref and product._out == ref._out
            products.append(product)
    for x in products:
        ref = Nfa(x.states, x.alphabet, x.transitions, x.initial, x.final)
        assert type(x) is Nfa and x == ref and x._out == ref._out


def test_derived_automata_build_their_transitions_on_first_read():
    rng = random.Random(37)
    derived = []
    for d in _random_dfas(38, 200):
        a = random_nfa(rng, max_states=5)
        lifted = lift_alphabet(a, "abcd")
        derived += [
            trim(a),
            trim(d),
            lifted,
            lift_alphabet(d, "abcd"),
            product_intersection(lifted, lift_alphabet(d, "abcd")),
            subset_construction(a),
            minimize(subset_construction(a)),
            parse_automaton(serialize_automaton(a)),
            parse_automaton(serialize_automaton(d)),
        ]
    assert all("transitions" not in x.__dict__ for x in derived)
    for x in derived:
        ref = type(x)(x.states, x.alphabet, x.transitions, x.initial, x.final)
        assert "transitions" in x.__dict__
        assert x == ref and x._out == ref._out and x._sink == ref._sink


def test_token_checks_stay_with_the_public_constructor():
    for bad, what in (("a b", "symbol"), ("x#", "state name")):
        states, alphabet = ({"p"}, {bad}) if what == "symbol" else ({"p", bad}, {"a"})
        triples = {(q, sym, q) for q in states for sym in alphabet}
        with pytest.raises(AutomatonError) as exc:
            Dfa.build(states, alphabet, triples, {"p"}, set())
        assert str(exc.value) == (
            f"invalid {what} {bad!r}: names are nonempty tokens without whitespace or '#'"
        )


def test_rows_constructor_rejects_what_the_public_constructor_rejects():
    ab = frozenset("ab")
    good = {"p": {"a": "q", "b": "p"}, "q": {"a": "q", "b": "q"}}
    cases = [
        ({**good, "p": {"a": "q"}}, ab, {"p"}, {"q"}),  # a row misses a letter
        ({**good, "q": {"a": "q", "b": "q", "c": "p"}}, ab, {"p"}, {"q"}),  # foreign letter
        ({**good, "q": {"a": "q", "c": "p"}}, ab, {"p"}, {"q"}),  # one in place of b
        ({**good, "q": {"a": "r", "b": "q"}}, ab, {"p"}, {"q"}),  # undeclared target
        (good, ab, set(), {"q"}),  # no initial state
        (good, ab, {"p", "q"}, {"q"}),  # two initial states
        (good, ab, {"r"}, {"q"}),  # undeclared initial state
        (good, ab, {"p"}, {"r"}),  # undeclared final state
    ]
    # partial rows whose missing moves lead to a sink
    cases = [(*case, None) for case in cases] + [
        ({"p": {"a": "q"}, "q": {"c": "p"}, "z": {}}, ab, {"p"}, {"q"}, "z"),  # foreign letter
        ({"p": {"a": "p"}}, ab, {"p"}, {"p"}, "z"),  # undeclared sink
    ]
    for rows, alphabet, initial, final, sink in cases:
        triples = {(q, sym, t) for q, row in rows.items() for sym, t in row.items()}
        if sink is not None:
            triples |= {(q, sym, sink) for q, row in rows.items() for sym in alphabet - row.keys()}
        messages = []
        for build in (
            lambda: Dfa.build(rows, alphabet, triples, initial, final),
            lambda: Dfa._from_rows(rows, alphabet, initial, final, sink),
        ):
            with pytest.raises(AutomatonError) as exc:
                build()
            messages.append(str(exc.value))
        assert messages[0] == messages[1], messages


def test_minimize_agrees_with_moore_refinement_on_complete_rows():
    rebuilt = 0
    for d in _random_dfas(34, 1000):
        m, ref = minimize(d), reference_minimize(d)
        assert type(m) is Dfa and m == ref and m._out == ref._out and m._sink == ref._sink
        assert (m is d) == (ref is d)
        assert minimize(m) is m
        rebuilt += m is not d
    assert 100 < rebuilt < 1000


def test_minimize_preserves_language_and_is_minimal():
    rng = random.Random(12)
    for _ in range(60):
        a = random_nfa(rng, max_states=5)
        m = minimize(subset_construction(a))
        assert brute_language(m) == brute_language(a)
        # all states reachable
        reach = {m.start}
        frontier = [m.start]
        for q in frontier:
            for sym in sorted(m.alphabet):
                t = m.step(q, sym)
                if t not in reach:
                    reach.add(t)
                    frontier.append(t)
        assert reach == set(m.states)
        # a minimal DFA is returned as it is
        assert minimize(m) is m
        # all state pairs distinguishable by some word up to |states|
        # (the classical bound for a complete DFA)
        def accepts_from(q, w):
            for sym in w:
                q = m.step(q, sym)
            return q in m.final

        states = sorted(m.states)
        for i, p in enumerate(states):
            for q in states[i + 1 :]:
                assert any(
                    accepts_from(p, w) != accepts_from(q, w)
                    for w in words_up_to(m.alphabet, len(states))
                ), f"{p} and {q} are equivalent"


def test_minimize_collapses_empty_language_to_one_state():
    d = aut(
        """
        kind: dfa
        states: x y
        alphabet: a
        initial: x
        final:
        trans: x a y
        trans: y a x
        """
    )
    m = minimize(d)
    assert len(m.states) == 1 and not m.final


def test_minimize_names_classes_by_least_member():
    # b and c are equivalent accepting states, a is the start
    d = aut(
        """
        kind: dfa
        states: a b c
        alphabet: x
        initial: a
        final: b c
        trans: a x b
        trans: b x c
        trans: c x b
        """
    )
    m = minimize(d)
    assert m.states == {"a", "b"}
    assert m.step("a", "x") == "b" and m.step("b", "x") == "b"


def test_minimize_rebuilds_a_dfa_with_an_unreachable_or_equivalent_state():
    d = aut(EVEN_A)
    assert minimize(d) is d
    unreachable = Dfa.build(
        d.states | {"u"}, d.alphabet, d.transitions | {("u", "a", "e")}, d.initial, d.final
    )
    # "f" accepts exactly like "e", so it merges into "e"
    equivalent_pair = Dfa.build(
        {"e", "o", "f", "p"},
        {"a"},
        {("e", "a", "o"), ("o", "a", "f"), ("f", "a", "p"), ("p", "a", "e")},
        {"e"},
        {"e", "f"},
    )
    for bigger in (unreachable, equivalent_pair):
        m = minimize(bigger)
        assert m is not bigger and m == d


def test_equivalent_requires_shared_alphabet_and_compares_languages():
    a = aut(A_THEN_ANY)
    d = subset_construction(a)
    m = minimize(d)
    assert equivalent(a, d) and equivalent(d, m)
    flipped = Nfa(a.states, a.alphabet, a.transitions, a.initial, frozenset({"u"}))
    assert not equivalent(a, flipped)
    with pytest.raises(AlphabetMismatchError):
        equivalent(a, aut(EVEN_A))


def test_trim_keeps_exactly_useful_states():
    a = aut(
        """
        kind: nfa
        states: s good dead unreachable
        alphabet: a
        initial: s
        final: good
        trans: s a good
        trans: s a dead
        trans: dead a dead
        trans: unreachable a good
        """
    )
    t = trim(a)
    assert t.states == {"s", "good"}
    assert brute_language(t) == brute_language(a)


def test_trim_of_empty_language_has_no_states():
    a = aut("kind: nfa\nstates: x\nalphabet: a\ninitial: x\nfinal:\ntrans: x a x\n")
    t = trim(a)
    assert t.states == frozenset() and t.initial == frozenset()
    assert language_empty(a)


def test_trim_hands_over_the_index_built_from_scratch():
    # trim, lift_alphabet and product_intersection skip the constructor's
    # checks; each result must equal the constructor's, index included
    rng = random.Random(14)
    empty = aut("kind: nfa\nstates: x\nalphabet: a\ninitial: x\nfinal:\ntrans: x a x\n")
    automata = [empty] + [random_nfa(rng, max_states=6) for _ in range(200)]
    assert any(not trim(a).states for a in automata[1:])
    lifted = [lift_alphabet(a, "abcd") for a in automata]
    products = [product_intersection(x, y) for x, y in zip(lifted, lifted[1:])]
    assert any(len(p.states) > 1 for p in products)
    for x in [trim(a) for a in automata] + lifted + products:
        ref = Nfa(x.states, x.alphabet, x.transitions, x.initial, x.final)
        assert type(x) is Nfa and x == ref and x._out == ref._out


def test_language_empty_matches_brute_force():
    rng = random.Random(13)
    for _ in range(100):
        a = random_nfa(rng, max_states=5)
        # a shortest accepted word never needs more letters than there are states
        assert language_empty(a) == (not brute_language(a, len(a.states)))
        assert language_empty(a) == (not trim(a).states)


def test_product_intersection_matches_set_intersection():
    rng = random.Random(14)
    for _ in range(60):
        a = random_nfa(rng, max_states=4, letters=("a", "b"))
        b = random_nfa(rng, max_states=4, letters=("a", "b"))
        union = a.alphabet | b.alphabet
        al, bl = lift_alphabet(a, union), lift_alphabet(b, union)
        p = product_intersection(al, bl)
        assert brute_language(p, 5) == brute_language(al, 5) & brute_language(bl, 5)
    with pytest.raises(AlphabetMismatchError):
        product_intersection(aut(EVEN_A), aut(SIGMA_STAR))


def test_product_intersection_refuses_ambiguous_pair_names():
    # ("a,b", "c") and ("a", "b,c") would both be named (a,b,c)
    a = Nfa.build(["a,b", "a"], ["x"], [], ["a,b", "a"], [])
    b = Nfa.build(["c", "b,c"], ["x"], [], ["c", "b,c"], [])
    with pytest.raises(AutomatonError, match=r"named \(a,b,c\)"):
        product_intersection(a, b)


# ------------------------------------------------- restricted graph queries


def test_restricted_reach_matches_brute_closure():
    rng = random.Random(15)
    for _ in range(40):
        a = random_nfa(rng, max_states=5)
        for gamma in nonempty_subsets(a.alphabet):
            table = restricted_reach(a, gamma)
            for root in a.states:
                seen = {root}
                frontier = [root]
                for q in frontier:
                    for src, sym, dst in a.transitions:
                        if src == q and sym in gamma and dst not in seen:
                            seen.add(dst)
                            frontier.append(dst)
                assert table[root] == seen


def test_scc_decomposition_partition_letters_and_topology():
    rng = random.Random(16)
    for _ in range(40):
        a = random_nfa(rng, max_states=6)
        for gamma in nonempty_subsets(a.alphabet):
            comps = scc_decomposition(a, gamma)
            # partition of all states
            assert sorted(q for c in comps for q in c.states) == sorted(a.states)
            position = {q: i for i, c in enumerate(comps) for q in c.states}
            for src, sym, dst in a.transitions:
                if sym not in gamma:
                    continue
                if position[src] == position[dst]:
                    assert sym in comps[position[src]].letters
                else:
                    # topological: edges only point forward
                    assert position[src] < position[dst]
            for comp in comps:
                internal = {
                    sym
                    for (src, sym, dst) in a.transitions
                    if sym in gamma and src in comp.states and dst in comp.states
                }
                assert comp.letters == internal
                # mutual reachability inside the component
                table = restricted_reach(a, gamma)
                for q in comp.states:
                    assert comp.states <= table[q]


def test_scc_letters_agree_with_product_search():
    # some component carries exactly gamma iff some state lies on a cycle
    # whose letter set is exactly gamma
    rng = random.Random(17)
    for _ in range(60):
        a = random_nfa(rng, max_states=5)
        for gamma in nonempty_subsets(a.alphabet):
            comps = [c for c in scc_decomposition(a, gamma) if c.letters == gamma]
            assert bool(comps) == any(has_exact_cycle(a, q, gamma) for q in a.states)
            for comp in comps:
                assert all(has_exact_cycle(a, q, gamma) for q in comp.states)


def test_initial_final_cycle_helper():
    # the brute-force counterpart of the MCVP instances' cycle check
    a = aut(
        """
        kind: nfa
        states: s m f
        alphabet: a b
        initial: s
        final: f
        trans: s a m
        trans: m b s
        trans: f a f
        trans: f b f
        """
    )
    # the {a,b} cycle through s,m misses the final state
    assert not has_initial_final_cycle(a, frozenset("ab"))
    b = Nfa(a.states, a.alphabet, a.transitions, a.initial, frozenset({"s", "f"}))
    assert has_initial_final_cycle(b, frozenset("ab"))
    assert not has_initial_final_cycle(b, frozenset("a"))
    assert not has_initial_final_cycle(b, frozenset())


def test_self_loop_letters():
    a = aut(A_THEN_ANY)
    assert self_loop_letters(a, "v") == {"a", "b"}
    assert self_loop_letters(a, "u") == frozenset()
    with pytest.raises(AutomatonError):
        self_loop_letters(a, "nope")


def test_shortest_run_finds_shortest_and_respects_restrictions():
    a = aut(
        """
        kind: nfa
        states: p q r
        alphabet: a b c
        initial: p
        final: r
        trans: p a q
        trans: q b r
        trans: p c r
        """
    )
    word, path = shortest_run(a, {"p"}, {"r"})
    assert word == ("c",) and path == ("p", "r")
    word, path = shortest_run(a, {"p"}, {"r"}, gamma={"a", "b"})
    assert word == ("a", "b") and path == ("p", "q", "r")
    assert shortest_run(a, {"p"}, {"r"}, gamma={"a"}) is None
    assert shortest_run(a, {"p"}, {"r"}, within={"p", "r"}, gamma={"a", "b"}) is None
    assert shortest_run(a, {"p"}, {"p"}) == ((), ("p",))


def test_shortest_run_is_shortest_on_random_graphs():
    rng = random.Random(18)
    for _ in range(60):
        a = random_nfa(rng, max_states=6)
        states = sorted(a.states)
        src, dst = rng.choice(states), rng.choice(states)
        run = shortest_run(a, {src}, {dst})
        # brute-force BFS distance
        dist = {src: 0}
        frontier = [src]
        for q in frontier:
            for s, _, d in sorted(a.transitions):
                if s == q and d not in dist:
                    dist[d] = dist[q] + 1
                    frontier.append(d)
        if dst not in dist:
            assert run is None
        else:
            word, path = run
            assert len(word) == dist[dst]
            assert path[0] == src and path[-1] == dst
            # replay: each step is a real transition
            for (x, y), sym in zip(zip(path, path[1:]), word):
                assert (x, sym, y) in a.transitions


def _set_walk(a: Nfa, sources, word, within=None):
    cur = frozenset(sources)
    for sym in word:
        cur = a.step_set(cur, sym)
        if within is not None:
            cur &= frozenset(within)
    return cur


def test_cycle_word_covering_produces_exact_closed_runs():
    rng = random.Random(19)
    checked = 0
    for _ in range(200):
        a = random_nfa(rng, max_states=5)
        for gamma in nonempty_subsets(a.alphabet):
            for comp in scc_decomposition(a, gamma):
                if comp.letters != gamma:
                    continue
                anchor = sorted(comp.states)[0]
                word = closed_run_covering_word(a, anchor, gamma)
                assert word and frozenset(word) == gamma
                assert anchor in _set_walk(a, {anchor}, word, within=comp.states)
                checked += 1
    assert checked > 50


def test_cycle_word_covering_rejects_wrong_component():
    # empty request: the trivial closed run qualifies
    assert closed_run_covering_word(aut(EVEN_A), "e", frozenset()) == ()
    b = aut(
        """
        kind: nfa
        states: p q d
        alphabet: a b
        initial: p
        final: d
        trans: p a q
        trans: q a p
        trans: p b d
        trans: d a d
        trans: d b d
        """
    )
    # p's component under {a,b} only cycles on a; the b edge leaves it
    with pytest.raises(AutomatonError):
        closed_run_covering_word(b, "p", {"a", "b"})


def test_closed_run_covering_word_embeds_target():
    rng = random.Random(20)
    checked = 0
    for _ in range(200):
        a = random_nfa(rng, max_states=5)
        for gamma in nonempty_subsets(a.alphabet):
            for comp in scc_decomposition(a, gamma):
                if comp.letters != gamma:
                    continue
                anchor = sorted(comp.states)[0]
                target = tuple(rng.choice(sorted(gamma)) for _ in range(rng.randint(0, 5)))
                word = closed_run_covering_word(a, anchor, gamma, target)
                assert frozenset(word) == gamma
                assert is_subsequence(target, word)
                assert anchor in _set_walk(a, {anchor}, word, within=comp.states)
                checked += 1
    assert checked > 50
    with pytest.raises(AutomatonError):
        closed_run_covering_word(aut(EVEN_A), "e", {"a"}, ("b",))
