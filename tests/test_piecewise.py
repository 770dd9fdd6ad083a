import random

import pytest

from conftest import aut, brute_language, chain_dfa, random_nfa, reference_parse_automaton
from ptsep import automata, piecewise
from ptsep.automata import (
    Dfa,
    minimize,
    parse_automaton,
    self_loop_letters,
    serialize_automaton,
    shortest_run,
    subset_construction,
)
from ptsep.oracles import pt_bounded
from ptsep.piecewise import (
    NontrivialCycle,
    NotMinimalError,
    PtVerdict,
    Triple,
    condition1_nontrivial_cycle,
    condition2_triple,
    is_pt_dfa,
    is_pt_nfa,
    verify_pt_witness,
)

SIGMA_STAR = """
kind: dfa
states: z
alphabet: a b
initial: z
final: z
trans: z a z
trans: z b z
"""

EVEN_A = """
kind: dfa
states: e o
alphabet: a
initial: e
final: e
trans: e a o
trans: o a e
"""

# minimal DFA of "starts with a": p start, q accepting sink, qp rejecting sink
STARTS_WITH_A = """
kind: dfa
states: p q qp
alphabet: a b
initial: p
final: q
trans: p a q
trans: p b qp
trans: q a q
trans: q b q
trans: qp a qp
trans: qp b qp
"""

# minimal DFA of "contains an a"
CONTAINS_A = """
kind: dfa
states: n y
alphabet: a b
initial: n
final: y
trans: n a y
trans: n b n
trans: y a y
trans: y b y
"""


def test_full_language_is_pt():
    v = is_pt_dfa(aut(SIGMA_STAR))
    assert v.is_pt and v.witness is None
    assert verify_pt_witness(v)


def test_even_length_yields_frozen_cycle_witness():
    v = is_pt_dfa(aut(EVEN_A))
    assert not v.is_pt
    assert v.witness == NontrivialCycle(states=("e", "o", "e"), word=("a", "a"))
    assert verify_pt_witness(v)


def test_starts_with_a_yields_frozen_triple_witness():
    v = is_pt_dfa(aut(STARTS_WITH_A))
    assert not v.is_pt
    assert v.witness == Triple(
        p="p", q="q", q_prime="qp", w=("a",), w_prime=("b",), gamma=frozenset({"a", "b"})
    )
    assert verify_pt_witness(v)


def test_contains_a_is_pt():
    v = is_pt_dfa(aut(CONTAINS_A))
    assert v.is_pt and v.witness is None


def test_rejects_non_minimal_dfa():
    # s2 and s3 accept everything, so they are equivalent
    d = aut(
        """
        kind: dfa
        states: s1 s2 s3
        alphabet: a
        initial: s1
        final: s2 s3
        trans: s1 a s2
        trans: s2 a s3
        trans: s3 a s2
        """
    )
    with pytest.raises(NotMinimalError):
        is_pt_dfa(d)


def test_cycle_condition_takes_precedence_over_triple():
    # both failure modes are present: q and qp form a 2-cycle on c, and both
    # self-loop on a and b with p reaching them inside {a,b}
    d = aut(
        """
        kind: dfa
        states: p q qp
        alphabet: a b c
        initial: p
        final: q
        trans: p a q
        trans: p b qp
        trans: p c qp
        trans: q a q
        trans: q b q
        trans: q c qp
        trans: qp a qp
        trans: qp b qp
        trans: qp c q
        """
    )
    assert condition2_triple(d) is not None
    cyc = condition1_nontrivial_cycle(d)
    assert cyc == NontrivialCycle(states=("q", "qp", "q"), word=("c", "c"))
    v = is_pt_dfa(d)
    assert v.witness == cyc
    assert verify_pt_witness(v)


def test_nfa_front_end_determinizes_and_minimizes():
    a = aut(
        """
        kind: nfa
        states: u v
        alphabet: a b
        initial: u
        final: v
        trans: u a v
        trans: v a v
        trans: v b v
        """
    )
    v = is_pt_nfa(a)
    assert not v.is_pt and isinstance(v.witness, Triple)
    assert verify_pt_witness(v)
    assert brute_language(v.minimal_dfa) == brute_language(a)


def test_verify_rejects_tampered_witnesses():
    good_cycle = is_pt_dfa(aut(EVEN_A))
    d = good_cycle.minimal_dfa
    # wrong labeling
    assert not verify_pt_witness(
        PtVerdict(False, NontrivialCycle(("e", "o", "e"), ("a",)), d)
    )
    # not closed
    assert not verify_pt_witness(
        PtVerdict(False, NontrivialCycle(("e", "o"), ("a",)), d)
    )
    # closed but trivial
    assert not verify_pt_witness(PtVerdict(False, NontrivialCycle(("e", "e"), ()), d))
    # a PT claim must not carry a witness, and a non-PT claim must carry one
    assert not verify_pt_witness(PtVerdict(True, good_cycle.witness, d))
    assert not verify_pt_witness(PtVerdict(False, None, d))

    good_triple = is_pt_dfa(aut(STARTS_WITH_A))
    d2 = good_triple.minimal_dfa
    w = good_triple.witness
    assert not verify_pt_witness(
        PtVerdict(False, Triple(w.p, w.q, w.q, w.w, w.w_prime, w.gamma), d2)
    )
    assert not verify_pt_witness(
        PtVerdict(False, Triple(w.p, w.q, w.q_prime, w.w, w.w_prime, frozenset({"a"})), d2)
    )
    assert not verify_pt_witness(
        PtVerdict(False, Triple(w.p, w.q, w.q_prime, ("b",), w.w_prime, w.gamma), d2)
    )
    # names foreign to the automaton are refused, not looked up
    assert not verify_pt_witness(
        PtVerdict(False, Triple("zz", w.q, w.q_prime, ("a",), w.w_prime, w.gamma), d2)
    )
    assert not verify_pt_witness(
        PtVerdict(False, Triple(w.p, "nope", w.q_prime, w.w, w.w_prime, w.gamma), d2)
    )
    assert not verify_pt_witness(PtVerdict(False, NontrivialCycle(("p", "q", "p"), ("x", "a")), d2))


def test_random_nfas_yield_replayable_verdicts():
    rng = random.Random(21)
    pt = non_pt = 0
    for _ in range(150):
        a = random_nfa(rng, max_states=5)
        v = is_pt_nfa(a)
        assert verify_pt_witness(v)
        assert v.is_pt == (v.witness is None)
        assert brute_language(v.minimal_dfa, 5) == brute_language(a, 5)
        # the verdict automaton is already minimal, so the check is stable
        assert is_pt_dfa(v.minimal_dfa).is_pt == v.is_pt
        pt += v.is_pt
        non_pt += not v.is_pt
    assert pt > 10 and non_pt > 10


def test_subset_construction_alone_can_be_rejected():
    # determinizing leaves the equivalent subsets {v} and {w} distinct
    a = aut(
        """
        kind: nfa
        states: u v w
        alphabet: a b
        initial: u
        final: v w
        trans: u a v
        trans: u b w
        trans: v a v
        trans: w a w
        """
    )
    d = subset_construction(a)
    with pytest.raises(NotMinimalError):
        is_pt_dfa(d)
    assert is_pt_nfa(a).is_pt


def test_nfa_front_end_minimizes_once(monkeypatch):
    calls = []

    def counting(d):
        calls.append(d)
        return minimize(d)

    # the minimal DFA is built by the automaton's cached property
    monkeypatch.setattr(automata, "minimize", counting)
    monkeypatch.setattr(piecewise, "minimize", counting)
    v = is_pt_nfa(aut(STARTS_WITH_A))
    assert len(calls) == 1 and not v.is_pt
    # pt_bounded minimizes on its own side and hands the result straight over
    assert pt_bounded(aut(STARTS_WITH_A), kmax=2).is_pt is False
    assert len(calls) == 1


def brute_triple(d: Dfa) -> Triple | None:
    """The triple condition read straight off its definition: pairs in sorted
    order, then every third state's forward reachability over gamma."""
    states = sorted(d.states)
    for i, q in enumerate(states):
        for q_prime in states[i + 1 :]:
            gamma = self_loop_letters(d, q) & self_loop_letters(d, q_prime)
            if not gamma:
                continue
            for p in states:
                if p in (q, q_prime):
                    continue
                seen = {p}
                queue = [p]
                for cur in queue:
                    for sym in gamma:
                        nxt = d.step(cur, sym)
                        if nxt not in seen:
                            seen.add(nxt)
                            queue.append(nxt)
                if q in seen and q_prime in seen:
                    w = shortest_run(d, {p}, {q}, gamma=gamma)[0]
                    w_prime = shortest_run(d, {p}, {q_prime}, gamma=gamma)[0]
                    return Triple(p, q, q_prime, w, w_prime, gamma)
    return None


def random_partially_ordered_dfa(rng: random.Random, max_states: int = 8) -> Dfa:
    # every transition stays put or moves to a later state, so no cycle
    # passes through two states and only the triple condition can fail
    n = rng.randint(1, max_states)
    states = [f"s{i}" for i in range(n)]
    letters = ("a", "b", "c")[: rng.randint(2, 3)]
    trans = []
    for i, q in enumerate(states):
        for sym in letters:
            trans.append((q, sym, states[i if rng.random() < 0.3 else rng.randrange(i, n)]))
    final = [q for q in states if rng.random() < 0.5]
    return Dfa.build(states, letters, trans, initial=["s0"], final=final)


def test_triple_scan_matches_the_definition():
    rng = random.Random(5)
    found = 0
    for _ in range(400):
        d = minimize(subset_construction(random_nfa(rng, max_states=8)))
        expected = brute_triple(d)
        assert condition2_triple(d) == expected
        found += expected is not None
    ordered_found = 0
    for _ in range(1000):
        d = minimize(random_partially_ordered_dfa(rng))
        assert condition1_nontrivial_cycle(d) is None
        expected = brute_triple(d)
        assert condition2_triple(d) == expected
        ordered_found += expected is not None
    assert found > 30 and ordered_found > 50


def random_looping_dfa(rng: random.Random, ordered: bool, sink: bool) -> Dfa:
    """A random complete DFA with up to 30 states over up to five letters,
    where a random share of the moves are self-loops. ``ordered``: every
    other move goes to a later state, so no cycle passes through two states.
    ``sink``: some moves enter the rejecting absorbing state z, which the
    DFA keeps implicit."""
    n = rng.randint(1, 30)
    states = [f"s{i:02d}" for i in range(n)]
    letters = "abcde"[: rng.randint(1, 5)]
    stay = rng.random()
    trans = []
    for i, q in enumerate(states):
        for sym in letters:
            if rng.random() < stay:
                t = q
            elif sink and rng.random() < 0.2:
                t = "z"
            else:
                t = states[rng.randrange(i, n) if ordered else rng.randrange(n)]
            trans.append((q, sym, t))
    final = [q for q in states if rng.random() < 0.5]
    if sink:
        states.append("z")
        trans += [("z", sym, "z") for sym in letters]
    return Dfa.build(states, letters, trans, ["s00"], final)


def test_candidate_scan_matches_the_definition_on_larger_dfas():
    rng = random.Random(14)
    found = {}
    for i in range(480):
        ordered, sink = i % 2 == 0, i % 4 >= 2
        d = random_looping_dfa(rng, ordered, sink)
        assert (d._sink is not None) or not sink
        expected = brute_triple(d)
        assert condition2_triple(d) == expected
        kind = (ordered, d._sink is not None)
        found[kind] = found.get(kind, 0) + (expected is not None)
    # triples turn up in all four kinds: ordered or cyclic, with a sink or without
    assert len(found) == 4 and min(found.values()) > 8


def deep_branch_dfa(depth: int) -> Dfa:
    """p0 -c-> p1 -c-> ... -c-> p<depth>, which branches: a to q, b to r.
    The other p's loop on a and b, q and r on every letter. So only
    p<depth> branches, while every p reaches q and r within {a, b, c}."""
    ps = [f"p{i}" for i in range(depth + 1)]
    trans = [(p, sym, p) for p in ps[:-1] for sym in "ab"]
    trans += [(p, "c", nxt) for p, nxt in zip(ps, ps[1:])]
    trans += [(ps[-1], "c", ps[-1]), (ps[-1], "a", "q"), (ps[-1], "b", "r")]
    trans += [(s, sym, s) for s in "qr" for sym in "abc"]
    return Dfa.build(ps + ["q", "r"], "abc", trans, ["p0"], ["q"])


def test_the_least_p_lies_above_the_branching_state():
    for depth in range(6):
        d = deep_branch_dfa(depth)
        path = ("c",) * depth
        expected = Triple("p0", "q", "r", path + ("a",), path + ("b",), frozenset("abc"))
        assert condition2_triple(d) == brute_triple(d) == expected
        v = is_pt_dfa(d)
        assert v.witness == expected and verify_pt_witness(v)


def test_chain_of_200_states_yields_the_constructed_triple():
    plain, _, _ = chain_dfa(200, twin=False)
    assert condition2_triple(plain) is None and is_pt_dfa(plain).is_pt
    d, chain, z = chain_dfa(200, twin=True)
    assert condition2_triple(d) == Triple("c000", "c199", "r", chain, chain[:-1] + (z,), d.alphabet)



def test_parsed_200_state_twin_chain_with_shuffled_moves_yields_the_triple():
    d, chain, z = chain_dfa(200, twin=True)
    lines = serialize_automaton(d).splitlines()
    header, moves = lines[:5], lines[5:]
    random.Random(200).shuffle(moves)
    text = "\n".join(header + moves) + "\n"
    parsed = parse_automaton(text)
    assert parsed == d and isinstance(parsed, Dfa) and parsed._sink == d._sink == "r"
    reference = reference_parse_automaton(text)
    assert [(q, list(row.items())) for q, row in parsed._out.items()] == [
        (q, list(row.items())) for q, row in reference._out.items()
    ]
    # the minimal DFA keeps the subset construction's names
    v = is_pt_nfa(parsed)
    assert v.witness == Triple(
        "{c000}", "{c199}", "{r}", chain, chain[:-1] + (z,), frozenset(chain) | {z}
    )
    assert verify_pt_witness(v)

def test_chain_of_120_states_is_decided_without_the_quartic_scan():
    plain, _, _ = chain_dfa(120, twin=False)
    assert is_pt_dfa(plain).is_pt
    d, chain, z = chain_dfa(120, twin=True)
    v = is_pt_dfa(d)
    assert not v.is_pt and verify_pt_witness(v)
    assert v.witness == Triple("c000", "c119", "r", chain, chain[:-1] + (z,), d.alphabet)


def test_minimize_returns_minimal_chains_as_they_are():
    for twin in (False, True):
        d, _, _ = chain_dfa(40, twin)
        assert minimize(d) is d
