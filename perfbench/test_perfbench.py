"""Tests of the benchmark itself: generators, tiny runs of every workload,
and the span wrappers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH), str(ROOT / "tests")]

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from ptsep import automata, mcvp, oracles, piecewise, separability  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "mcvp-ladder": {"sizes": (8, 12), "per_value": (1, 1), "tower_height": 4},
    "pt-chain": {"sizes": (4, 7)},
    "pair-crosscheck": {**WORKLOADS["pair-crosscheck"].params, "pairs": 300},
    "pt-corpus": {**WORKLOADS["pt-corpus"].params, "nfas": 200},
}


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], params=TINY[name])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic(name):
    w = tiny(name)
    assert w.inputs(5) == w.inputs(5)
    assert w.inputs(5) != w.inputs(6)


@pytest.mark.parametrize("seed, count, max_states", [(777, 600, 5), (4242, 1000, 6)])
def test_corpora_match_the_acceptance_generator(seed, count, max_states):
    from conftest import random_nfa

    rng = random.Random(seed)
    expected = [automata.serialize_automaton(random_nfa(rng, max_states=max_states)) for _ in range(count)]
    assert gen.nfa_corpus(seed, count, max_states) == expected
    if max_states == 5:
        pairs = gen.pair_corpus(seed, count // 2)
        assert [t for pair in pairs for t in pair] == expected


def test_circuits_match_random_circuit():
    for n in (2, 5, 40):
        for seed in range(20):
            c = mcvp.random_circuit(n, seed)
            text = gen.circuit_text(gen.random_circuit_gates(n, seed))
            assert mcvp.parse_circuit(text) == c
            assert gen.circuit_value(gen.random_circuit_gates(n, seed)) == mcvp.evaluate(c)


def test_ladder_mixes_true_and_false_with_a_typical_gate_mix():
    ladder = gen.circuit_ladder(3, (10, 20), per_value=(2, 2))
    values = [(ci.n, ci.value) for ci in ladder]
    assert sorted(values) == [(10, False)] * 2 + [(10, True)] * 2 + [(20, False)] * 2 + [(20, True)] * 2
    for ci in ladder:
        gates = mcvp.parse_circuit(ci.text).gates
        for kind in ("and", "or"):
            assert abs(sum(g.kind == kind for g in gates) - (ci.n - 2) / 3) <= 1


def test_chain_twin_is_minimal_and_only_the_twin_fails():
    for ci in gen.chain_ladder(1, (6,)):
        d = automata.parse_automaton(ci.text)
        assert len(automata.minimize(d).states) == len(d.states)
        assert piecewise.is_pt_dfa(d).is_pt == (ci.z is None)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_has_no_failures(name):
    w = tiny(name)
    inputs = w.inputs(w.default_seed)
    result = run.run_pass(w, inputs)
    assert result.failed == 0
    assert len(result.times) == len(inputs)
    if name == "pair-crosscheck":
        # the acceptance suite's count for these 300 pairs
        assert result.conclusive == 182


def test_failures_are_counted():
    w = dataclasses.replace(tiny("pt-chain"), check=lambda inp, params: ("wrong", True))
    assert run.run_pass(w, w.inputs(0)).failed == 4


def test_a_separable_verdict_on_a_common_word_fails(monkeypatch):
    import workloads

    common = "kind: dfa\nstates: s\nalphabet: a\ninitial: s\nfinal: s\ntrans: s a s\n"
    fake = separability.SepVerdict(separable=True, separator_omitted=True)
    monkeypatch.setattr(separability, "decide_separability", lambda *args, **kwargs: fake)
    problem, _ = workloads.check_pair((common, common), WORKLOADS["pair-crosscheck"].params)
    assert problem == "separable despite a common word"


def test_klima_polak_referee_on_known_languages():
    from workloads import pt_by_confluence

    even = "kind: dfa\nstates: e o\nalphabet: a\ninitial: e\nfinal: e\ntrans: e a o\ntrans: o a e\n"
    starts = (
        "kind: dfa\nstates: p q r\nalphabet: a b\ninitial: p\nfinal: q\n"
        "trans: p a q\ntrans: p b r\ntrans: q a q\ntrans: q b q\ntrans: r a r\ntrans: r b r\n"
    )
    assert not pt_by_confluence(automata.parse_automaton(even))
    assert not pt_by_confluence(automata.parse_automaton(starts))
    for ci in gen.chain_ladder(2, (5,)):
        assert pt_by_confluence(automata.parse_automaton(ci.text)) == (ci.z is None)


def _bindings():
    return {
        (mod.__name__, name): value
        for mod in (automata, mcvp, oracles, piecewise, separability)
        for name, value in vars(mod).items()
        if callable(value)
    }


def test_wrappers_are_installed_and_restored():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with spans.Tracer():
            assert separability.build_block_product is not before[("ptsep.separability", "build_block_product")]
            assert mcvp.minimize is not before[("ptsep.mcvp", "minimize")]
            w = tiny("mcvp-ladder")
            assert run.run_pass(w, w.inputs(0)).failed == 0
            raise RuntimeError("leave the block early")
    assert _bindings() == before
    assert all(_bindings()[k] is v for k, v in before.items())


def test_spans_nest_and_self_times_partition_the_spanned_time():
    w = tiny("pair-crosscheck")
    with spans.Tracer() as tracer:
        run.run_pass(w, w.inputs(777)[:100])
    names = {s[1] for s in tracer.spans}
    assert {"separability.decide", "separability.block_product", "oracles.dual_deepening", "automata.parse"} <= names
    top = sum(end - start for _, _, start, end, parent in tracer.spans if parent == -1)
    assert sum(tracer.self_times().values()) == pytest.approx(top)
    block_parents = {tracer.spans[s[4]][1] for s in tracer.spans if s[1] == "separability.block_product"}
    assert block_parents == {"separability.decide"}
    assert tracer.counts["oracles.probes"] > tracer.counts["oracles.inconclusive_probes"] > 0


def test_minimality_recheck_stays_in_is_pt():
    w = tiny("pt-chain")
    with spans.Tracer() as tracer:
        run.run_pass(w, w.inputs(0))
    parents = {tracer.spans[s[4]][1] for s in tracer.spans if s[1] == "automata.minimize" and s[4] >= 0}
    assert "piecewise.is_pt" not in parents
    assert tracer.counts["automata.min_states"] == sum(ci.n + (ci.z is not None) for ci in w.inputs(0))


def test_missing_names_are_listed_and_skipped(monkeypatch):
    monkeypatch.setitem(spans.SPANS, ("separability", "no_such_function"), "separability.gone")
    w = tiny("pt-chain")
    with spans.Tracer() as tracer:
        assert run.run_pass(w, w.inputs(0)).failed == 0
    assert tracer.missing == ["separability.no_such_function"]
    assert "piecewise.triple_test" in tracer.self_times()


def test_paired_pass_traces_only_the_traced_half():
    before = _bindings()
    w = tiny("mcvp-ladder")
    tracer = spans.Tracer()
    untraced, traced = run.paired_pass(w, w.inputs(0), tracer)
    assert _bindings() == before
    assert len(untraced.times) == len(traced.times) == 4
    assert untraced.failed == traced.failed == 0
    assert traced.wall == pytest.approx(sum(traced.times))
    assert sum(1 for s in tracer.spans if s[1] == "mcvp.instance_pair") == 4
    assert {s[0] for s in tracer.spans} == {0, 1, 2, 3}


def test_tail_leaves_ten_samples_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert run.tail([float(i) for i in range(19)]) == (18.0, 100.0)
    value, pct = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == 90.0
