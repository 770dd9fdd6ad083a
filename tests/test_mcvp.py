import random

import pytest

from conftest import brute_language, has_initial_final_cycle
from ptsep.automata import (
    Dfa,
    language_empty,
    lift_alphabet,
    membership,
    minimize,
    product_intersection,
    subset_construction,
)
from ptsep import mcvp
from ptsep.mcvp import (
    Circuit,
    CircuitError,
    Gate,
    MinimalityViolation,
    build_certificate_dfa,
    build_padded_certificate_dfa,
    build_round_dfa,
    certificate_cycle_alphabet,
    circuit_alphabet,
    evaluate,
    instance_pair,
    parse_circuit,
    random_circuit,
)
from ptsep.separability import decide_separability, verify_pattern

FALSE_AND_CHAIN = """
1 = 0
2 = 1
3 = AND 1 2
4 = OR 3 3
"""


def gate_table(d):
    return {(q, sym): d.step(q, sym) for q in d.states for sym in d.alphabet}


def check_table(d, expected: dict):
    """The automaton realizes exactly ``expected``; everything else sinks."""
    for (q, sym), dst in expected.items():
        assert d.step(q, sym) == dst, (q, sym)
    for q in d.states:
        for sym in d.alphabet:
            if (q, sym) not in expected:
                assert d.step(q, sym) == "sink", (q, sym)


# --------------------------------------------------------------------- parsing


def test_parse_round_trips_the_reference_circuit():
    c = parse_circuit(FALSE_AND_CHAIN)
    assert c == Circuit(
        gates=(
            Gate(kind="const", value=0),
            Gate(kind="const", value=1),
            Gate(kind="and", left=1, right=2),
            Gate(kind="or", left=3, right=3),
        )
    )
    assert c.n == 4


def test_parse_accepts_comments_case_and_blank_lines():
    c = parse_circuit("# header\n1 = 1\n\n2 = 0  # inline\n3 = and 1 2\n4 = Or 3 1\n")
    assert c.gates[2].kind == "and" and c.gates[3].kind == "or"


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "at least one gate"),
        ("2 = 1", "expected gate 1, got 2"),
        ("1 = 1\n3 = 0", "expected gate 2, got 3"),
        ("x = 1", "gate index must be an integer"),
        ("1 : 1", "expected 'index = definition'"),
        ("1 = 2", "definition must be"),
        ("1 = NAND 1 1", "definition must be"),
        ("1 = AND 1", "definition must be"),
        ("1 = AND a b", "operand indices must be integers"),
        ("1 = AND 1 2", "not strictly earlier"),
        ("1 = 1\n2 = OR 1 3", "not strictly earlier"),
        ("1 = 1\n2 = OR 0 1", "not strictly earlier"),
    ],
)
def test_parse_rejects_malformed_circuits(text, fragment):
    with pytest.raises(CircuitError, match=fragment):
        parse_circuit(text)


def test_gate_validation():
    with pytest.raises(CircuitError):
        Gate(kind="const", value=2)
    with pytest.raises(CircuitError):
        Gate(kind="const", value=1, left=1)
    with pytest.raises(CircuitError):
        Gate(kind="and", left=1)
    with pytest.raises(CircuitError):
        Gate(kind="xor", left=1, right=2)


# ------------------------------------------------------------------ evaluation


@pytest.mark.parametrize(
    "text,value",
    [
        ("1 = 1", True),
        ("1 = 0", False),
        (FALSE_AND_CHAIN, False),
        ("1 = 1\n2 = 0\n3 = OR 1 2", True),
        ("1 = 1\n2 = 0\n3 = AND 1 2", False),
        ("1 = 1\n2 = 1\n3 = AND 1 2\n4 = OR 3 2\n5 = AND 4 3", True),
    ],
)
def test_evaluate(text, value):
    assert evaluate(parse_circuit(text)) is value


def test_circuit_alphabet():
    c = parse_circuit("1 = 1\n2 = 0")
    assert circuit_alphabet(c) == frozenset({"x", "y", "a1", "b1", "a2", "b2"})


# ----------------------------------------------------------- the three builders


def test_certificate_dfa_golden_table():
    d = build_certificate_dfa(parse_circuit(FALSE_AND_CHAIN))
    assert d.states == {"s", "T", "F", "3", "4", "sink"}
    assert d.initial == {"s"} and d.final == {"T", "F"}
    check_table(
        d,
        {
            ("s", "x"): "4",
            ("4", "a4"): "3",
            ("4", "b4"): "3",
            ("3", "a3"): "F",
            ("3", "b3"): "T",
            ("T", "y"): "s",
        },
    )


def test_round_dfa_golden_table():
    d = build_round_dfa(parse_circuit(FALSE_AND_CHAIN))
    assert d.states == {"q", "t", "w3", "sink"}
    assert d.initial == {"q"} and d.final == {"q"}
    check_table(
        d,
        {
            ("q", "x"): "t",
            ("t", "y"): "q",
            ("t", "a2"): "t",
            ("t", "b2"): "t",
            ("t", "a4"): "t",
            ("t", "b4"): "t",
            ("t", "a3"): "w3",
            ("w3", "b3"): "t",
        },
    )


def test_padded_dfa_golden_table():
    c = parse_circuit(FALSE_AND_CHAIN)
    d = build_padded_certificate_dfa(c)
    assert d.states == {"s", "T", "F", "3", "4", "sink"}
    assert d.alphabet == circuit_alphabet(c) | {f"f{j}" for j in range(1, 9)}
    check_table(
        d,
        {
            ("s", "x"): "4",
            ("4", "a4"): "3",
            ("4", "b4"): "3",
            ("3", "a3"): "F",
            ("3", "b3"): "T",
            ("T", "y"): "s",
            ("s", "f3"): "3",
            ("3", "f6"): "F",
            ("4", "f7"): "F",
            ("F", "f8"): "T",
        },
    )


def test_padded_dfa_is_minimal():
    for text in ("1 = 1", "1 = 0", FALSE_AND_CHAIN, "1 = 1\n2 = 1\n3 = AND 1 2"):
        d = build_padded_certificate_dfa(parse_circuit(text))
        assert len(minimize(subset_construction(d)).states) == len(d.states)


def test_minimize_returns_padded_walkers_as_they_are():
    for n in range(2, 41):
        for seed in range(2):
            d = build_padded_certificate_dfa(random_circuit(n, seed))
            assert minimize(d) is d, (n, seed)


def test_instance_builders_equal_the_triple_path():
    for n in range(2, 41):
        for seed in (0, 1):
            c = random_circuit(n, seed)
            for d in (build_certificate_dfa(c), build_padded_certificate_dfa(c), build_round_dfa(c)):
                ref = Dfa(d.states, d.alphabet, d.transitions, d.initial, d.final)
                assert d == ref and d._out == ref._out, (n, seed)


def test_self_check_catches_an_unreachable_state(monkeypatch):
    rows = mcvp._certificate_rows

    def with_ghost(c):
        return {**rows(c), "ghost": {}}

    monkeypatch.setattr(mcvp, "_certificate_rows", with_ghost)
    with pytest.raises(MinimalityViolation):
        build_padded_certificate_dfa(parse_circuit(FALSE_AND_CHAIN))


def test_all_constant_circuits_build_and_stay_minimal():
    for text, value in (("1 = 1", True), ("1 = 0", False), ("1 = 0\n2 = 1", True)):
        c = parse_circuit(text)
        assert evaluate(c) is value
        cert, padded, rounds = (
            build_certificate_dfa(c),
            build_padded_certificate_dfa(c),
            build_round_dfa(c),
        )
        assert "F" in padded.states  # reachable thanks to the padding letters
        assert len(minimize(subset_construction(rounds)).states) == len(rounds.states)
        # padding never changes membership over the circuit alphabet
        for w in brute_language(cert, 4):
            assert membership(padded, w)


def test_padding_letters_do_not_change_the_core_language():
    rng = random.Random(50)
    c = parse_circuit(FALSE_AND_CHAIN)
    cert = build_certificate_dfa(c)
    padded = build_padded_certificate_dfa(c)
    letters = sorted(circuit_alphabet(c))
    for _ in range(300):
        w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 5)))
        assert membership(cert, w) == membership(padded, w)


def test_certificate_and_rounds_languages_are_disjoint():
    for seed in range(25):
        c = random_circuit(2 + seed % 5, seed)
        padded, rounds = instance_pair(c)
        union = padded.alphabet | rounds.alphabet
        assert language_empty(
            product_intersection(lift_alphabet(padded, union), lift_alphabet(rounds, union))
        )


# -------------------------------------------------------- the cycle alphabet


def test_certificate_cycle_alphabet_frozen_values():
    assert certificate_cycle_alphabet(parse_circuit(FALSE_AND_CHAIN)) == frozenset()
    assert certificate_cycle_alphabet(parse_circuit("1 = 1")) == frozenset({"x", "y"})
    assert certificate_cycle_alphabet(
        parse_circuit("1 = 1\n2 = 1\n3 = AND 1 2")
    ) == frozenset({"x", "y", "a3", "b3"})
    # only the true operand of the OR contributes
    assert certificate_cycle_alphabet(
        parse_circuit("1 = 0\n2 = 1\n3 = OR 1 2")
    ) == frozenset({"x", "y", "b3"})


def test_cycle_alphabet_is_enacted_by_both_automata():
    # for every true circuit both machines carry a cycle over exactly the
    # claimed letters through their initial and a final state
    for seed in range(60):
        c = random_circuit(2 + seed % 7, seed)
        gamma = certificate_cycle_alphabet(c)
        if not evaluate(c):
            assert gamma == frozenset()
            continue
        assert {"x", "y"} <= gamma
        padded, rounds = instance_pair(c)
        cert = build_certificate_dfa(c)
        for machine in (cert, padded, rounds):
            assert has_initial_final_cycle(machine, gamma)


# ------------------------------------------------------------ the reduction


def test_instance_pair_separable_iff_circuit_false():
    texts = [
        "1 = 1",
        "1 = 0",
        FALSE_AND_CHAIN,
        "1 = 1\n2 = 1\n3 = AND 1 2",
        "1 = 0\n2 = 1\n3 = OR 1 2",
        "1 = 0\n2 = 0\n3 = OR 1 2\n4 = AND 2 3",
    ]
    for text in texts:
        c = parse_circuit(text)
        v = decide_separability(*instance_pair(c))
        assert v.separable == (not evaluate(c)), text
    for seed in range(30):
        c = random_circuit(2 + seed % 6, seed + 1000)
        v = decide_separability(*instance_pair(c))
        assert v.separable == (not evaluate(c)), seed
    # beyond the small corpus: one true and one false circuit per size
    values = []
    for n, seed in ((60, 4), (60, 5), (120, 0), (120, 1), (200, 0), (200, 1)):
        c = random_circuit(n, seed)
        walker, rounds = instance_pair(c)
        v = decide_separability(walker, rounds)
        values.append(evaluate(c))
        assert v.separable == (not values[-1]), (n, seed)
        if v.witness is not None:
            assert verify_pattern(v.witness, walker, rounds), (n, seed)
    assert values == [True, False] * 3


def test_instances_at_640_gates_keep_their_ground_truth():
    # the implicit sink keeps instances with 4n letters linear in n, so the
    # circuit value referees the verdict at a size the full tables made slow
    values = []
    for seed in range(4):
        c = random_circuit(640, seed)
        walker, rounds = instance_pair(c)
        assert minimize(walker) is walker, seed
        v = decide_separability(walker, rounds)
        values.append(evaluate(c))
        assert v.separable == (not values[-1]), seed
        if v.witness is not None:
            assert verify_pattern(v.witness, walker, rounds), seed
    assert True in values and False in values


# -------------------------------------------------------------- random circuits


def test_random_circuit_is_deterministic_and_well_formed():
    a = random_circuit(8, 42)
    assert a == random_circuit(8, 42)
    assert a != random_circuit(8, 43)
    assert a.n == 8
    assert a.gates[0].kind == "const" and a.gates[1].kind == "const"
    with pytest.raises(CircuitError):
        random_circuit(1, 0)
