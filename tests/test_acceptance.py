"""Acceptance suite.

Each test covers one release criterion and prints a single summary line
(bypassing pytest's capture) so a full run reads as a checklist. The random
corpora are seeded and shared across criteria via module-scoped fixtures.
"""

import json
import random
import subprocess
import sys
import time

import pytest

from conftest import aut, brute_language, check_tower, has_initial_final_cycle, random_nfa
from ptsep.automata import (
    language_empty,
    minimize,
    parse_automaton,
    product_intersection,
    serialize_automaton,
    subset_construction,
    trim,
)
from ptsep.mcvp import (
    build_certificate_dfa,
    certificate_cycle_alphabet,
    evaluate,
    instance_pair,
    parse_circuit,
    random_circuit,
)
from ptsep.oracles import (
    KProfile,
    KptSeparator,
    dual_deepening,
    pt_bounded,
    verify_separator,
)
from ptsep.piecewise import (
    NontrivialCycle,
    Triple,
    is_pt_dfa,
    is_pt_nfa,
    verify_pt_witness,
)
from ptsep.separability import decide_separability, towers_from_pattern

REFERENCE_CIRCUIT = "1 = 0\n2 = 1\n3 = AND 1 2\n4 = OR 3 3\n"


RESULTS: list[str] = []


def report(num: int, name: str, ok: bool, detail: str = ""):
    """Record one checklist line (rendered in the terminal summary) and
    fail the test when the criterion does not hold."""
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"[acceptance {num}] {name}: {status}{suffix}"
    RESULTS.append(line)
    print(line)
    assert ok, f"acceptance criterion {num} failed: {name} {detail}"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "ptsep", *args], capture_output=True, text=True, timeout=300
    )


# ------------------------------------------------------------ shared corpora


@pytest.fixture(scope="module")
def circuit_corpus():
    """The reference circuit plus 200 random ones (2..12 gates), with their
    instance automata and separability verdicts."""
    t0 = time.perf_counter()
    rows = []
    circuits = [parse_circuit(REFERENCE_CIRCUIT)]
    circuits += [random_circuit(2 + i % 11, i) for i in range(200)]
    for c in circuits:
        padded, rounds = instance_pair(c)
        rows.append(
            {
                "circuit": c,
                "value": evaluate(c),
                "cert": build_certificate_dfa(c),
                "padded": padded,
                "rounds": rounds,
                "verdict": decide_separability(padded, rounds),
            }
        )
    return rows, time.perf_counter() - t0


@pytest.fixture(scope="module")
def pair_corpus():
    """300 seeded random NFA pairs (up to 5 states, up to 3 letters) with
    their separability verdicts."""
    rng = random.Random(777)
    t0 = time.perf_counter()
    rows = []
    for _ in range(300):
        a = random_nfa(rng, max_states=5)
        b = random_nfa(rng, max_states=5)
        rows.append({"a": a, "b": b, "verdict": decide_separability(a, b)})
    return rows, time.perf_counter() - t0


# -------------------------------------------------------------- criterion 1


def test_criterion_1_reference_circuit(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "inst"
    (tmp_path / "ref.mcvp").write_text(REFERENCE_CIRCUIT, encoding="utf-8")
    build = run_cli("mcvp", "build", str(tmp_path / "ref.mcvp"), "--out-dir", str(out))
    ok = build.returncode == 0

    def table_matches(path, states, final, partial):
        d = parse_automaton((out / path).read_text(encoding="utf-8"))
        if set(d.states) != states or set(d.final) != final:
            return False
        expected = {
            (q, sym, partial.get((q, sym), "sink")) for q in d.states for sym in d.alphabet
        }
        return set(d.transitions) == expected

    ok = ok and table_matches(
        "certificate.aut",
        {"s", "T", "F", "3", "4", "sink"},
        {"T", "F"},
        {
            ("s", "x"): "4",
            ("4", "a4"): "3",
            ("4", "b4"): "3",
            ("3", "a3"): "F",
            ("3", "b3"): "T",
            ("T", "y"): "s",
        },
    )
    ok = ok and table_matches(
        "rounds.aut",
        {"q", "t", "w3", "sink"},
        {"q"},
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
    ok = ok and table_matches(
        "certificate_min.aut",
        {"s", "T", "F", "3", "4", "sink"},
        {"T", "F"},
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

    end = run_cli("mcvp", "endtoend", str(tmp_path / "ref.mcvp"))
    ok = ok and end.returncode == 0 and end.stdout == "eval=0 separable=true\n"
    elapsed = time.perf_counter() - t0
    report(
        1,
        "reference circuit build and end-to-end",
        ok,
        f"endtoend {end.stdout.strip()!r}, wall {elapsed:.2f}s incl. interpreter startups",
    )


def test_criterion_1_runtime_in_process():
    # the stated budget is for the computation itself, measured in process
    t0 = time.perf_counter()
    c = parse_circuit(REFERENCE_CIRCUIT)
    value = evaluate(c)
    verdict = decide_separability(*instance_pair(c))
    elapsed = time.perf_counter() - t0
    ok = value is False and verdict.separable and elapsed < 1.0
    report(
        1,
        "reference circuit runtime",
        ok,
        f"eval={int(value)} separable={str(verdict.separable).lower()}, {elapsed:.3f}s < 1s",
    )


# -------------------------------------------------------------- criterion 2


def test_criterion_2_value_vs_separability(circuit_corpus):
    rows, elapsed = circuit_corpus
    mismatches = [
        i for i, row in enumerate(rows) if row["verdict"].separable != (not row["value"])
    ]
    ok = not mismatches and elapsed < 120.0
    report(
        2,
        "separability tracks circuit value on 201 instances",
        ok,
        f"{len(rows)} circuits, {len(mismatches)} mismatches, {elapsed:.1f}s < 120s",
    )


# -------------------------------------------------------------- criterion 3


def test_criterion_3_instance_structure(circuit_corpus):
    rows, _ = circuit_corpus
    failures = []
    for i, row in enumerate(rows):
        c, cert, padded, rounds = row["circuit"], row["cert"], row["padded"], row["rounds"]
        gamma = certificate_cycle_alphabet(c)
        if row["value"]:
            for machine in (cert, rounds, padded):
                if not has_initial_final_cycle(machine, gamma):
                    failures.append((i, "missing cycle"))
        elif gamma:
            failures.append((i, "gamma for false circuit"))
        if not language_empty(product_intersection(cert, rounds)):
            failures.append((i, "languages intersect"))
        for machine in (padded, rounds):
            if len(minimize(subset_construction(machine)).states) != len(machine.states):
                failures.append((i, "not minimal"))
    ok = not failures
    report(
        3,
        "instance cycles, disjointness, and minimality",
        ok,
        f"{len(rows)} circuits, {len(failures)} failures",
    )


# -------------------------------------------------------------- criterion 4


def test_criterion_4_pt_pipeline_consistency():
    rng = random.Random(4242)
    t0 = time.perf_counter()
    failures = 0
    inconclusive = 0
    for _ in range(1000):
        a = random_nfa(rng, max_states=6)
        verdict = is_pt_nfa(a)
        explicit = is_pt_dfa(minimize(subset_construction(a)))
        if verdict.is_pt != explicit.is_pt:
            failures += 1
        if not verify_pt_witness(verdict):
            failures += 1
        oracle = pt_bounded(verdict.minimal_dfa, 4)
        if oracle is None:
            inconclusive += 1
        elif oracle.is_pt != verdict.is_pt:
            failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 120.0
    report(
        4,
        "piecewise testability pipeline consistency",
        ok,
        f"1000 NFAs, {failures} failures, {inconclusive} oracle-inconclusive, {elapsed:.1f}s < 120s",
    )


# -------------------------------------------------------------- criterion 5


def test_criterion_5_canonical_examples():
    sigma_star = aut(
        "kind: dfa\nstates: z\nalphabet: a b\ninitial: z\nfinal: z\ntrans: z a z\ntrans: z b z\n"
    )
    even = aut(
        "kind: dfa\nstates: e o\nalphabet: a\ninitial: e\nfinal: e\ntrans: e a o\ntrans: o a e\n"
    )
    starts = aut(
        "kind: dfa\nstates: p q qp\nalphabet: a b\ninitial: p\nfinal: q\n"
        "trans: p a q\ntrans: p b qp\ntrans: q a q\ntrans: q b q\n"
        "trans: qp a qp\ntrans: qp b qp\n"
    )
    contains = aut(
        "kind: dfa\nstates: n y\nalphabet: a b\ninitial: n\nfinal: y\n"
        "trans: n a y\ntrans: n b n\ntrans: y a y\ntrans: y b y\n"
    )
    checks = [
        is_pt_dfa(sigma_star).is_pt is True,
        is_pt_dfa(even).witness == NontrivialCycle(states=("e", "o", "e"), word=("a", "a")),
        is_pt_dfa(starts).witness
        == Triple(p="p", q="q", q_prime="qp", w=("a",), w_prime=("b",), gamma=frozenset({"a", "b"})),
        is_pt_dfa(contains).is_pt is True,
    ]
    report(5, "canonical example witnesses", all(checks), f"{sum(checks)}/4 exact")


# -------------------------------------------------------------- criterion 6


def test_criterion_6_oracle_concordance(pair_corpus):
    rows, decide_elapsed = pair_corpus
    t0 = time.perf_counter()
    failures = []
    conclusive = 0
    for i, row in enumerate(rows):
        a, b, verdict = row["a"], row["b"], row["verdict"]
        if decide_separability(b, a).separable != verdict.separable:
            failures.append((i, "asymmetric"))
        if not language_empty(
            product_intersection(*_lift(a, b))
        ) and verdict.separable:
            failures.append((i, "separable despite a common word"))
        oracle = dual_deepening(a, b, kmax=6, hmax=5)
        if oracle is not None:
            conclusive += 1
            if oracle.separable != verdict.separable:
                failures.append((i, "oracle disagrees"))
    elapsed = decide_elapsed + (time.perf_counter() - t0)
    ok = not failures and elapsed < 300.0
    report(
        6,
        "separability oracle concordance",
        ok,
        f"300 pairs, {conclusive} oracle-conclusive, {len(failures)} failures, {elapsed:.1f}s < 300s",
    )


def _lift(a, b):
    from ptsep.automata import lift_alphabet

    union = a.alphabet | b.alphabet
    return lift_alphabet(a, union), lift_alphabet(b, union)


# -------------------------------------------------------------- criterion 7


def test_criterion_7_tower_soundness(circuit_corpus, pair_corpus):
    circuit_rows, _ = circuit_corpus
    pair_rows, _ = pair_corpus
    cases = [
        (row["padded"], row["rounds"], row["verdict"].witness)
        for row in circuit_rows
        if not row["verdict"].separable
    ]
    cases += [
        (row["a"], row["b"], row["verdict"].witness)
        for row in pair_rows
        if not row["verdict"].separable
    ]
    invalid = 0
    checked = 0
    for a, b, witness in cases:
        full = towers_from_pattern(witness, 8)
        for h in range(1, 9):
            if towers_from_pattern(witness, h).words != full.words[:h]:
                invalid += 1
        if not check_tower(full.words, full.start_side, a, b):
            invalid += 1
        checked += 1
    ok = invalid == 0 and checked > 0
    report(
        7,
        "towers to height 8 from every non-separable verdict",
        ok,
        f"{checked} patterns, {invalid} invalid",
    )


# -------------------------------------------------------------- criterion 8


def test_criterion_8_separator_soundness(pair_corpus, tmp_path):
    rows, _ = pair_corpus
    emitted = 0
    failures = 0
    for row in rows:
        if not row["verdict"].separable:
            continue
        v = decide_separability(row["a"], row["b"], want_separator=True)
        if v.separator is None:
            continue
        emitted += 1
        if not verify_separator(v.separator, row["a"], row["b"]):
            failures += 1

    # the unary reference instance must separate at k = 1
    aa = aut("kind: dfa\nstates: z0 z1\nalphabet: a\ninitial: z0\nfinal: z1\ntrans: z0 a z1\ntrans: z1 a z1\n")
    bb = aut("kind: dfa\nstates: y0 y1\nalphabet: b\ninitial: y0\nfinal: y1\ntrans: y0 b y1\ntrans: y1 b y1\n")
    v = decide_separability(aa, bb, want_separator=True)
    unary_ok = (
        v.separator is not None and v.separator.k == 1 and verify_separator(v.separator, aa, bb)
    )

    # and the CLI --separator path round-trips through JSON
    fa, fb = tmp_path / "aa.aut", tmp_path / "bb.aut"
    fa.write_text(serialize_automaton(aa), encoding="utf-8")
    fb.write_text(serialize_automaton(bb), encoding="utf-8")
    data = json.loads(
        run_cli("separability", str(fa), str(fb), "--separator", "--json").stdout
    )
    w = data["witness"]
    rebuilt = KptSeparator(
        k=w["k"],
        accepted_profiles=frozenset(
            KProfile(w["k"], frozenset(tuple(p) for p in prof)) for prof in w["profiles"]
        ),
        side=w["side"],
    )
    cli_ok = w["type"] == "k-separator" and w["k"] == 1 and verify_separator(rebuilt, aa, bb)

    ok = failures == 0 and emitted > 0 and unary_ok and cli_ok
    report(
        8,
        "separators verify exactly",
        ok,
        f"{emitted} emitted, {failures} failures, unary k=1 {'ok' if unary_ok else 'bad'},"
        f" cli round-trip {'ok' if cli_ok else 'bad'}",
    )


# -------------------------------------------------------------- criterion 9


def test_criterion_9_round_trip_and_preservation():
    rng = random.Random(99)
    failures = 0
    for _ in range(500):
        a = random_nfa(rng, max_states=5)
        text = serialize_automaton(a)
        if parse_automaton(text) != a or serialize_automaton(parse_automaton(text)) != text:
            failures += 1
        reference = brute_language(a, 6)
        d = subset_construction(a)
        for variant in (d, minimize(d), trim(a)):
            if brute_language(variant, 6) != reference:
                failures += 1
    ok = failures == 0
    report(9, "round-trip and membership preservation", ok, f"500 automata, {failures} failures")
