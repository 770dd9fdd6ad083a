import json
import os
import subprocess
import sys
import textwrap

import pytest

from conftest import chain_dfa
from ptsep.automata import minimize, parse_automaton, serialize_automaton
from ptsep.mcvp import random_circuit
from ptsep.oracles import KProfile, KptSeparator, verify_separator

AA_PLUS = """\
kind: dfa
states: z0 z1
alphabet: a
initial: z0
final: z1
trans: z0 a z1
trans: z1 a z1
"""

BB_PLUS = """\
kind: dfa
states: y0 y1
alphabet: b
initial: y0
final: y1
trans: y0 b y1
trans: y1 b y1
"""

AB_CYCLE = """\
kind: dfa
states: s0 s1 s2 sink
alphabet: a b
initial: s0
final: s2
trans: s0 a s1
trans: s0 b sink
trans: s1 b s2
trans: s1 a sink
trans: s2 a s1
trans: s2 b sink
trans: sink a sink
trans: sink b sink
"""

BA_CYCLE = """\
kind: dfa
states: t0 t1 t2 sink
alphabet: a b
initial: t0
final: t2
trans: t0 b t1
trans: t0 a sink
trans: t1 a t2
trans: t1 b sink
trans: t2 b t1
trans: t2 a sink
trans: sink a sink
trans: sink b sink
"""

EVEN_A = """\
kind: dfa
states: e o
alphabet: a
initial: e
final: e
trans: e a o
trans: o a e
"""

# not PT: p reaches both q and qp over their common self-loop letters {a, b}
STARTS_WITH_A = """\
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

# contains ab; the subset construction gives two accepting subsets that
# minimization merges
HAS_AB = """\
kind: nfa
states: n0 n1 n2
alphabet: a b
initial: n0
final: n2
trans: n0 a n0
trans: n0 b n0
trans: n0 a n1
trans: n1 b n2
trans: n2 a n2
trans: n2 b n2
"""

FALSE_CIRCUIT = "1 = 0\n2 = 1\n3 = AND 1 2\n4 = OR 3 3\n"
TRUE_CIRCUIT = "1 = 1\n"
MIXED_CIRCUIT = "1 = 1\n2 = 0\n3 = OR 1 2\n4 = AND 3 1\n5 = OR 4 2\n6 = AND 5 3\n"

# a true circuit of the benchmark ladder's smallest size, whose instance has
# one block of 60 state pairs
LADDER_CIRCUIT = "".join(
    f"{i} = {g.value}\n" if g.kind == "const" else f"{i} = {g.kind.upper()} {g.left} {g.right}\n"
    for i, g in enumerate(random_circuit(40, 6).gates, start=1)
)


def run_cli(*args, cwd=None, hash_seed=None):
    env = None if hash_seed is None else {**os.environ, "PYTHONHASHSEED": hash_seed}
    return subprocess.run(
        [sys.executable, "-m", "ptsep", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=120,
    )


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, text in {
        "aa.aut": AA_PLUS,
        "bb.aut": BB_PLUS,
        "ab.aut": AB_CYCLE,
        "ba.aut": BA_CYCLE,
        "even.aut": EVEN_A,
        "starts_a.aut": STARTS_WITH_A,
        "has_ab.aut": HAS_AB,
        "false.mcvp": FALSE_CIRCUIT,
        "true.mcvp": TRUE_CIRCUIT,
        "mixed.mcvp": MIXED_CIRCUIT,
        "ladder.mcvp": LADDER_CIRCUIT,
    }.items():
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


# ------------------------------------------------------------------- pt-check


def test_pt_check_positive(files):
    r = run_cli("pt-check", files["aa.aut"])
    assert r.returncode == 0
    assert r.stdout.splitlines()[0] == "piecewise testable: yes"
    assert "oracle check (profile conflicts, kmax=4): agreed" in r.stdout


def test_pt_check_negative_with_cycle_witness(files):
    r = run_cli("pt-check", files["even.aut"])
    assert r.returncode == 1
    assert r.stdout.splitlines()[0] == "piecewise testable: no"
    # states carry the determinization's subset names
    assert "witness: cycle through {e} -> {o} -> {e} reading aa" in r.stdout


def test_pt_check_json_schema(files):
    r = run_cli("pt-check", files["even.aut"], "--json")
    assert r.returncode == 1
    data = json.loads(r.stdout)
    assert list(data.keys()) == [
        "schema",
        "command",
        "argv",
        "verdict",
        "witness",
        "oracle_check",
    ]
    assert data["schema"] == "ptsep-report/1"
    assert data["command"] == "pt-check"
    assert data["argv"] == ["pt-check", files["even.aut"], "--json"]
    assert data["verdict"] == {"is_pt": False}
    assert data["witness"] == {
        "type": "nontrivial-cycle",
        "states": ["{e}", "{o}", "{e}"],
        "word": ["a", "a"],
    }
    assert data["oracle_check"]["status"] == "agreed"
    assert data["oracle_check"]["ran"] is True


def test_pt_check_timings_key_only_when_asked(files):
    plain = json.loads(run_cli("pt-check", files["aa.aut"], "--json").stdout)
    timed = json.loads(run_cli("pt-check", files["aa.aut"], "--json", "--timings").stdout)
    assert "timings" not in plain
    assert set(timed["timings"]) == {"parse", "decide", "oracle"}


def test_pt_check_max_nodes_bounds_the_oracle(files):
    r = run_cli("pt-check", files["even.aut"], "--max-nodes", "1")
    assert r.returncode == 1
    assert "oracle check (profile conflicts, kmax=4): inconclusive" in r.stdout


def test_pt_check_names_the_triple_of_the_200_state_twin_chain(tmp_path):
    d, chain, z = chain_dfa(200, twin=True)
    path = tmp_path / "twin200.aut"
    path.write_text(serialize_automaton(d), encoding="utf-8")
    r = run_cli("pt-check", str(path), "--json")
    assert r.returncode == 1
    data = json.loads(r.stdout)
    assert data["verdict"] == {"is_pt": False}
    # the states carry the determinization's subset names
    assert data["witness"] == {
        "type": "triple",
        "p": "{c000}",
        "q": "{c199}",
        "q_prime": "{r}",
        "w": list(chain),
        "w_prime": list(chain[:-1] + (z,)),
        "gamma": sorted(d.alphabet),
    }


def test_pt_check_no_oracle(files):
    data = json.loads(run_cli("pt-check", files["aa.aut"], "--json", "--no-oracle").stdout)
    assert data["oracle_check"] == {"ran": False, "status": "skipped"}


def test_cli_output_is_deterministic(files):
    # a pattern witness, a separator, a triple witness, two MCVP patterns, a
    # subset-construction DFA, a minimal DFA and the written MCVP instance
    # files, each produced under two hash seeds
    built = files["dir"] / "built"

    def written():
        return {p.name: p.read_text(encoding="utf-8") for p in sorted(built.glob("*.aut"))}

    for args in (
        ("separability", "ab.aut", "ba.aut", "--json"),
        ("separability", "aa.aut", "bb.aut", "--separator", "--json"),
        ("pt-check", "starts_a.aut", "--json"),
        ("mcvp", "endtoend", "mixed.mcvp", "--json"),
        ("mcvp", "endtoend", "ladder.mcvp", "--json"),
        ("determinize", "has_ab.aut"),
        ("minimize", "has_ab.aut"),
        ("mcvp", "build", "ladder.mcvp", "--out-dir", str(built)),
    ):
        argv = [files.get(x, x) for x in args]
        runs = [(run_cli(*argv, hash_seed=seed), written()) for seed in ("0", "1")]
        assert runs[0][0].stderr == "", args
        assert runs[0][0].stdout == runs[1][0].stdout, args
        assert runs[0][0].returncode == runs[1][0].returncode, args
        assert runs[0][1] == runs[1][1], args
    assert len(written()) == 3


# --------------------------------------------------------------- separability


def test_separability_positive(files):
    r = run_cli("separability", files["aa.aut"], files["bb.aut"])
    assert r.returncode == 0
    assert r.stdout.splitlines()[0] == "separable"
    assert "oracle check (dual deepening, kmax=6, hmax=5): agreed (separator at level 1)" in r.stdout


def test_separability_negative_prints_pattern_and_tower(files):
    r = run_cli("separability", files["ab.aut"], files["ba.aut"])
    assert r.returncode == 1
    lines = r.stdout.splitlines()
    assert lines[0] == "not separable"
    assert "pattern witness (1 pumped blocks):" in lines
    assert "  block 1: anchor (s1, t1), alphabet {a,b}" in lines
    assert "    side A: entry a, cycle ba, exit b" in lines
    assert "    side B: entry b, cycle abab, exit a" in lines
    assert "sample tower (height 4, starts on side A):" in lines
    assert "  1 [A] abab" in lines
    assert "  2 [B] bababa" in lines
    assert "  3 [A] abababab" in lines
    assert "  4 [B] bababababa" in lines


def test_separability_identical_automaton_not_separable(files):
    r = run_cli("separability", files["ab.aut"], files["ab.aut"])
    assert r.returncode == 1
    assert r.stdout.splitlines()[0] == "not separable"


def test_separability_json_pattern_witness(files):
    r = run_cli("separability", files["ab.aut"], files["ba.aut"], "--json")
    data = json.loads(r.stdout)
    assert data["verdict"] == {"separable": False, "separator_omitted": False}
    w = data["witness"]
    assert w["type"] == "pattern"
    assert w["connectors"] == [[], []]
    assert len(w["blocks"]) == 1
    blk = w["blocks"][0]
    assert blk["anchor"] == {"a": "s1", "b": "t1"}
    assert blk["gamma"] == ["a", "b"]
    assert blk["a_entry"] == ["a"] and blk["a_exit"] == ["b"]
    assert blk["b_entry"] == ["b"] and blk["b_exit"] == ["a"]
    assert w["sample_tower"]["start_side"] == "A"
    assert w["sample_tower"]["words"][0] == ["a", "b", "a", "b"]
    assert data["oracle_check"]["status"] == "inconclusive"
    assert data["oracle_check"]["witness_verified"] is True


def test_separability_separator_json_reconstructs_and_verifies(files):
    r = run_cli("separability", files["aa.aut"], files["bb.aut"], "--separator", "--json")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    w = data["witness"]
    assert w["type"] == "k-separator" and w["k"] == 1 and w["side"] == "A"
    assert w["profiles"] == [[[], ["a"]]]
    rebuilt = KptSeparator(
        k=w["k"],
        accepted_profiles=frozenset(
            KProfile(w["k"], frozenset(tuple(p) for p in prof)) for prof in w["profiles"]
        ),
        side=w["side"],
    )
    assert verify_separator(
        rebuilt, parse_automaton(AA_PLUS), parse_automaton(BB_PLUS)
    )
    assert data["oracle_check"]["witness_verified"] is True


def test_separability_max_nodes_bounds_the_separator_search(files):
    r = run_cli(
        "separability", files["aa.aut"], files["bb.aut"],
        "--separator", "--max-nodes", "1", "--json",
    )
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["verdict"] == {"separable": True, "separator_omitted": True}
    assert data["witness"] is None


def test_separability_max_nodes_bounds_the_tower_probes(files):
    # at the default tower budget the oracle proves no tower of height 2
    r = run_cli("separability", files["aa.aut"], files["bb.aut"], "--max-nodes", "1", "--json")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["oracle_check"]["status"] == "inconclusive"
    assert data["oracle_check"]["level"] is None


# ---------------------------------------------------------------------- tower


def test_tower_frozen_text(files):
    r = run_cli("tower", files["ab.aut"], files["ba.aut"], "--height", "3")
    assert r.returncode == 0
    assert r.stdout == textwrap.dedent(
        """\
        tower (height 3, starts on side A):
          1 [A] ab
          2 [B] baba
          3 [A] ababab
        """
    )


def test_tower_absent(files):
    r = run_cli("tower", files["aa.aut"], files["bb.aut"], "--height", "2")
    assert r.returncode == 1
    assert r.stdout == "no tower of height 2 exists\n"


def test_tower_json(files):
    data = json.loads(
        run_cli("tower", files["ab.aut"], files["ba.aut"], "--height", "3", "--json").stdout
    )
    assert data["verdict"] == {"found": True, "height": 3}
    assert data["witness"]["words"] == [
        ["a", "b"],
        ["b", "a", "b", "a"],
        ["a", "b", "a", "b", "a", "b"],
    ]
    assert data["oracle_check"] == {"ran": True, "name": "tower-replay", "status": "agreed"}


def test_tower_budget_overrun_is_exit_2(files):
    r = run_cli("tower", files["ab.aut"], files["ba.aut"], "--height", "3", "--max-nodes", "1")
    assert r.returncode == 2
    assert r.stderr.startswith("inconclusive:")


def test_tower_bad_height_is_exit_2(files):
    r = run_cli("tower", files["ab.aut"], files["ba.aut"], "--height", "0")
    assert r.returncode == 2
    assert r.stderr.startswith("error:")


# ------------------------------------------------------- minimize/determinize


def test_minimize_is_canonical_and_idempotent(files, tmp_path):
    r = run_cli("minimize", files["ab.aut"])
    assert r.returncode == 0
    once = tmp_path / "once.aut"
    once.write_text(r.stdout, encoding="utf-8")
    again = run_cli("minimize", str(once))
    assert again.stdout == r.stdout
    d = parse_automaton(r.stdout)
    assert len(d.states) == len(minimize(parse_automaton(AB_CYCLE)).states)


def test_minimize_accepts_nfa_input(files, tmp_path):
    nfa = tmp_path / "nfa.aut"
    nfa.write_text(
        "kind: nfa\nstates: u v w\nalphabet: a b\ninitial: u\nfinal: v w\n"
        "trans: u a v\ntrans: u b w\ntrans: v a v\ntrans: w a w\n",
        encoding="utf-8",
    )
    r = run_cli("minimize", str(nfa))
    assert r.returncode == 0
    d = parse_automaton(r.stdout)
    assert len(d.states) == 3  # {v} and {w} merge, plus the dead subset


def test_determinize_names_subsets(files, tmp_path):
    nfa = tmp_path / "nfa.aut"
    nfa.write_text(
        "kind: nfa\nstates: u v\nalphabet: a\ninitial: u\nfinal: v\ntrans: u a v\n",
        encoding="utf-8",
    )
    r = run_cli("determinize", str(nfa))
    assert r.returncode == 0
    d = parse_automaton(r.stdout)
    assert d.states == {"{u}", "{v}", "{}"}


# ----------------------------------------------------------------------- mcvp


def test_mcvp_build_writes_parseable_files(files, tmp_path):
    out = tmp_path / "out"
    r = run_cli("mcvp", "build", files["false.mcvp"], "--out-dir", str(out))
    assert r.returncode == 0
    assert r.stdout.splitlines() == [
        f"wrote {out / 'certificate.aut'}",
        f"wrote {out / 'certificate_min.aut'}",
        f"wrote {out / 'rounds.aut'}",
    ]
    cert = parse_automaton((out / "certificate.aut").read_text())
    cert_min = parse_automaton((out / "certificate_min.aut").read_text())
    rounds = parse_automaton((out / "rounds.aut").read_text())
    assert cert.states == {"s", "T", "F", "3", "4", "sink"}
    assert len(minimize(cert_min).states) == len(cert_min.states)
    assert rounds.final == {"q"}


def test_mcvp_eval(files):
    assert run_cli("mcvp", "eval", files["false.mcvp"]).stdout == "0\n"
    assert run_cli("mcvp", "eval", files["true.mcvp"]).stdout == "1\n"


def test_mcvp_endtoend_exact_lines(files):
    r = run_cli("mcvp", "endtoend", files["false.mcvp"])
    assert r.returncode == 0
    assert r.stdout == "eval=0 separable=true\n"
    r2 = run_cli("mcvp", "endtoend", files["true.mcvp"])
    assert r2.returncode == 0
    assert r2.stdout == "eval=1 separable=false\n"


def test_mcvp_endtoend_json(files):
    data = json.loads(run_cli("mcvp", "endtoend", files["true.mcvp"], "--json").stdout)
    assert data["command"] == "mcvp-endtoend"
    assert data["verdict"] == {"eval": 1, "separable": False, "match": True}
    assert data["witness"]["type"] == "pattern"
    assert data["oracle_check"] == {
        "ran": True,
        "name": "evaluator-ground-truth",
        "status": "agreed",
    }


# --------------------------------------------------------------------- oracle


def test_oracle_profiles_frozen_output(files):
    r = run_cli("oracle", "profiles", files["aa.aut"], "--k", "1")
    assert r.returncode == 0
    assert r.stdout == "1 accepted 1-profiles:\n  ε, a\n"


def test_oracle_profiles_negative_k_is_exit_2(files):
    r = run_cli("oracle", "profiles", files["aa.aut"], "--k", "-1")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == "error: k must be nonnegative\n"


@pytest.mark.parametrize(
    "args",
    [
        ("oracle", "profiles", "aa.aut", "--k", "1"),
        ("oracle", "separator", "aa.aut", "bb.aut"),
        ("oracle", "towers", "ab.aut", "ba.aut", "--height", "3"),
    ],
    ids=["profiles", "separator", "towers"],
)
def test_oracle_budget_overrun_is_exit_2(files, args):
    argv = [files.get(x, x) for x in args]
    r = run_cli(*argv, "--max-nodes", "1")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("inconclusive:")


def test_oracle_towers(files):
    r = run_cli("oracle", "towers", files["aa.aut"], files["bb.aut"], "--height", "2")
    assert r.returncode == 1
    assert r.stdout == "no tower of height 2 exists\n"
    r2 = run_cli("oracle", "towers", files["ab.aut"], files["ba.aut"], "--height", "2")
    assert r2.returncode == 0
    assert r2.stdout.splitlines()[0] == "tower (height 2, starts on side A):"


def test_oracle_separator(files):
    r = run_cli("oracle", "separator", files["aa.aut"], files["bb.aut"])
    assert r.returncode == 0
    assert r.stdout == "separator found at k=1 (contains side A, 1 accepted profiles)\n"
    r2 = run_cli("oracle", "separator", files["ab.aut"], files["ba.aut"], "--kmax", "3")
    assert r2.returncode == 1
    assert r2.stdout == "no k-piecewise separator for k <= 3\n"


def test_closed_output_pipe_prints_no_error(tmp_path):
    # the 3-profiles of all words over three letters fill more than a pipe
    every_word = tmp_path / "all.aut"
    every_word.write_text(
        "kind: dfa\nstates: s\nalphabet: a b c\ninitial: s\nfinal: s\n"
        "trans: s a s\ntrans: s b s\ntrans: s c s\n"
    )
    with subprocess.Popen(
        [sys.executable, "-m", "ptsep", "oracle", "profiles", str(every_word), "--k", "3"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        assert proc.stdout.readline() == "5312 accepted 3-profiles:\n"
        proc.stdout.close()
        assert proc.wait(timeout=120) == 2
        assert proc.stderr.read() == ""


# ----------------------------------------------------------------- bad inputs


def test_missing_file_is_exit_2(files):
    r = run_cli("pt-check", str(files["dir"] / "nope.aut"))
    assert r.returncode == 2
    assert r.stderr.startswith("error:")


def test_malformed_automaton_is_exit_2(files, tmp_path):
    bad = tmp_path / "bad.aut"
    bad.write_text("kind: dfa\nstates: x\nalphabet: a\nfinal: x\ntrans: x a x\n")
    r = run_cli("pt-check", str(bad))
    assert r.returncode == 2
    assert r.stderr == "error: missing initial\n"


def test_malformed_circuit_is_exit_2(files, tmp_path):
    bad = tmp_path / "bad.mcvp"
    bad.write_text("2 = 1\n")
    r = run_cli("mcvp", "eval", str(bad))
    assert r.returncode == 2
    assert "expected gate 1, got 2" in r.stderr


def test_unknown_subcommand_is_exit_2(files):
    assert run_cli("frobnicate").returncode == 2
