"""Command line front end.

Exit codes are the stable machine contract: 0 for the affirmative outcome of
a command, 1 for the negative one, 2 for usage, input, or budget errors. The
other stable contract is --json, which emits exactly one report object:

    {
      "schema": "ptsep-report/1",
      "command": "<subcommand>",
      "argv": ["<args as given>"],
      "verdict": {...},            # per command, documented below
      "witness": {...} | null,     # variants tagged by "type"
      "oracle_check": {...} | null,
      "timings": {...}             # present only with --timings
    }

Verdict keys: pt-check {"is_pt"}; separability {"separable",
"separator_omitted"}; tower {"found", "height"}; mcvp endtoend {"eval",
"separable", "match"}. Witness types: "nontrivial-cycle", "triple",
"pattern" (with an embedded "sample_tower"), "k-separator", "tower".
The oracle_check object reports {"ran", "status", ...} where status is one
of agreed, disagreed, inconclusive, skipped. Human-readable text can change
between versions; JSON keys and exit codes do not (the schema is versioned).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from .automata import (
    AutomatonError,
    Dfa,
    Nfa,
    ParseError,
    Word,
    minimize,
    parse_automaton,
    serialize_automaton,
    subset_construction,
)
from . import mcvp as mcvp_mod
from .oracles import (
    DEFAULT_MAX_NODES,
    DEFAULT_TOWER_MAX_NODES,
    Inconclusive,
    Tower,
    bounded_tower_exists,
    dual_deepening,
    pt_bounded,
    reachable_profiles,
    separable_by_kpt,
    verify_separator,
    verify_tower,
)
from .piecewise import NontrivialCycle, Triple, is_pt_nfa
from .separability import (
    PatternWitness,
    decide_separability,
    towers_from_pattern,
    verify_pattern,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2


def _fmt_word(w: Word) -> str:
    if not w:
        return "ε"
    if all(len(sym) == 1 for sym in w):
        return "".join(w)
    return " ".join(w)


def _load(path: str) -> Nfa:
    return parse_automaton(Path(path).read_text(encoding="utf-8"))


class _Report:
    """Collects the verdict/witness/oracle fields and emits either the JSON
    report or nothing (human text is printed as the command goes)."""

    def __init__(self, command: str, argv: list[str], timed: bool):
        self.command = command
        self.argv = argv
        self.timed = timed
        self.verdict: dict = {}
        self.witness: dict | None = None
        self.oracle_check: dict | None = None
        self._t0 = time.perf_counter()
        self._timings: dict[str, float] = {}

    def mark(self, phase: str):
        now = time.perf_counter()
        self._timings[phase] = round(now - self._t0, 6)
        self._t0 = now

    def emit_json(self):
        report = {
            "schema": "ptsep-report/1",
            "command": self.command,
            "argv": self.argv,
            "verdict": self.verdict,
            "witness": self.witness,
            "oracle_check": self.oracle_check,
        }
        if self.timed:
            report["timings"] = self._timings
        print(json.dumps(report, indent=2))


def _pattern_json(w: PatternWitness, tower: Tower) -> dict:
    return {
        "type": "pattern",
        "connectors": [list(u) for u in w.connectors],
        "blocks": [
            {
                "anchor": {"a": seg.anchor.r_a, "b": seg.anchor.r_b},
                "gamma": sorted(seg.gamma),
                "a_entry": list(seg.a_entry),
                "a_cycle": list(seg.a_cycle),
                "a_exit": list(seg.a_exit),
                "b_entry": list(seg.b_entry),
                "b_cycle": list(seg.b_cycle),
                "b_exit": list(seg.b_exit),
            }
            for seg in w.blocks
        ],
        "sample_tower": _tower_json(tower),
    }


def _tower_json(t: Tower) -> dict:
    return {"type": "tower", "start_side": t.start_side, "words": [list(w) for w in t.words]}


def _print_pattern(w: PatternWitness, out):
    print(f"pattern witness ({len(w.blocks)} pumped blocks):", file=out)
    print(f"  connector 0: {_fmt_word(w.connectors[0])}", file=out)
    for i, seg in enumerate(w.blocks, start=1):
        gamma = ",".join(sorted(seg.gamma))
        print(
            f"  block {i}: anchor ({seg.anchor.r_a}, {seg.anchor.r_b}), alphabet {{{gamma}}}",
            file=out,
        )
        print(
            f"    side A: entry {_fmt_word(seg.a_entry)}, cycle {_fmt_word(seg.a_cycle)},"
            f" exit {_fmt_word(seg.a_exit)}",
            file=out,
        )
        print(
            f"    side B: entry {_fmt_word(seg.b_entry)}, cycle {_fmt_word(seg.b_cycle)},"
            f" exit {_fmt_word(seg.b_exit)}",
            file=out,
        )
        print(f"  connector {i}: {_fmt_word(w.connectors[i])}", file=out)


def _print_tower(t: Tower, out, label="tower"):
    print(f"{label} (height {len(t.words)}, starts on side {t.start_side}):", file=out)
    for i, w in enumerate(t.words):
        side = t.start_side if i % 2 == 0 else ("B" if t.start_side == "A" else "A")
        print(f"  {i + 1} [{side}] {_fmt_word(w)}", file=out)


def cmd_pt_check(args, argv) -> int:
    rep = _Report("pt-check", argv, args.timings)
    a = _load(args.automaton)
    rep.mark("parse")
    verdict = is_pt_nfa(a)
    rep.mark("decide")
    rep.verdict = {"is_pt": verdict.is_pt}

    if verdict.witness is not None:
        w = verdict.witness
        if isinstance(w, NontrivialCycle):
            rep.witness = {
                "type": "nontrivial-cycle",
                "states": list(w.states),
                "word": list(w.word),
            }
        elif isinstance(w, Triple):
            rep.witness = {
                "type": "triple",
                "p": w.p,
                "q": w.q,
                "q_prime": w.q_prime,
                "w": list(w.w),
                "w_prime": list(w.w_prime),
                "gamma": sorted(w.gamma),
            }

    if args.no_oracle:
        rep.oracle_check = {"ran": False, "status": "skipped"}
    else:
        oracle = pt_bounded(verdict.minimal_dfa, args.kmax, args.max_nodes)
        if oracle is None:
            status = "inconclusive"
        elif oracle.is_pt == verdict.is_pt:
            status = "agreed"
        else:
            status = "disagreed"
        rep.oracle_check = {
            "ran": True,
            "name": "profile-conflict",
            "status": status,
            "kmax": args.kmax,
            "k": None if oracle is None else oracle.k,
        }
    rep.mark("oracle")

    if args.json:
        rep.emit_json()
    else:
        print(f"piecewise testable: {'yes' if verdict.is_pt else 'no'}")
        w = verdict.witness
        if isinstance(w, NontrivialCycle):
            print(f"witness: cycle through {' -> '.join(w.states)} reading {_fmt_word(w.word)}")
        elif isinstance(w, Triple):
            gamma = ",".join(sorted(w.gamma))
            print(
                f"witness: states p={w.p}, q={w.q}, q'={w.q_prime} with"
                f" p --{_fmt_word(w.w)}--> q, p --{_fmt_word(w.w_prime)}--> q'"
                f" over self-loop letters {{{gamma}}}"
            )
        oc = rep.oracle_check
        if oc and oc["ran"]:
            print(f"oracle check (profile conflicts, kmax={args.kmax}): {oc['status']}")
    return EXIT_OK if verdict.is_pt else EXIT_NEGATIVE


def cmd_separability(args, argv) -> int:
    rep = _Report("separability", argv, args.timings)
    a = _load(args.first)
    b = _load(args.second)
    rep.mark("parse")
    # an explicit --max-nodes binds every probe, the tower probes included
    max_nodes = DEFAULT_MAX_NODES if args.max_nodes is None else args.max_nodes
    verdict = decide_separability(
        a, b, want_separator=args.separator, kmax=args.kmax, max_nodes=max_nodes
    )
    rep.mark("decide")
    rep.verdict = {
        "separable": verdict.separable,
        "separator_omitted": verdict.separator_omitted,
    }

    tower = None
    witness_ok = None
    if verdict.witness is not None:
        tower = towers_from_pattern(verdict.witness, 4)
        rep.witness = _pattern_json(verdict.witness, tower)
        witness_ok = verify_pattern(verdict.witness, a, b) and verify_tower(tower, a, b)
    elif verdict.separator is not None:
        rep.witness = {
            "type": "k-separator",
            "k": verdict.separator.k,
            "side": verdict.separator.side,
            "profiles": sorted(
                sorted(list(p) for p in prof.pieces)
                for prof in verdict.separator.accepted_profiles
            ),
        }
        try:
            witness_ok = verify_separator(verdict.separator, a, b, max_nodes)
        except Inconclusive:
            witness_ok = None
    rep.mark("witness")

    if args.no_oracle:
        rep.oracle_check = {"ran": False, "status": "skipped", "witness_verified": witness_ok}
    else:
        tower_budget = DEFAULT_TOWER_MAX_NODES if args.max_nodes is None else max_nodes
        oracle = dual_deepening(a, b, args.kmax, args.hmax, max_nodes, tower_budget)
        if oracle is None:
            status = "inconclusive"
        elif oracle.separable == verdict.separable:
            status = "agreed"
        else:
            status = "disagreed"
        rep.oracle_check = {
            "ran": True,
            "name": "dual-deepening",
            "status": status,
            "kmax": args.kmax,
            "hmax": args.hmax,
            "level": None if oracle is None else oracle.level,
            "method": None if oracle is None else oracle.method,
            "witness_verified": witness_ok,
        }
    rep.mark("oracle")

    if args.json:
        rep.emit_json()
    else:
        print("separable" if verdict.separable else "not separable")
        if verdict.witness is not None:
            _print_pattern(verdict.witness, sys.stdout)
            _print_tower(tower, sys.stdout, label="sample tower")
        if verdict.separator is not None:
            s = verdict.separator
            print(
                f"separator: k={s.k}, contains side {s.side},"
                f" {len(s.accepted_profiles)} accepted profiles"
            )
        if verdict.separator_omitted:
            print(f"separator omitted (none found for k <= {args.kmax} or search capped)")
        oc = rep.oracle_check
        if oc and oc["ran"]:
            extra = ""
            if oc["status"] == "agreed":
                extra = f" ({oc['method']} at level {oc['level']})"
            print(
                f"oracle check (dual deepening, kmax={args.kmax}, hmax={args.hmax}):"
                f" {oc['status']}{extra}"
            )
        if witness_ok is False:
            print("warning: witness failed replay", file=sys.stderr)
    return EXIT_OK if verdict.separable else EXIT_NEGATIVE


def cmd_tower(args, argv) -> int:
    rep = _Report("tower", argv, args.timings)
    a = _load(args.first)
    b = _load(args.second)
    rep.mark("parse")
    tower = bounded_tower_exists(a, b, args.height, max_nodes=args.max_nodes)
    rep.mark("decide")
    rep.verdict = {"found": tower is not None, "height": args.height}
    if tower is not None:
        rep.witness = _tower_json(tower)
        ok = verify_tower(tower, a, b)
        rep.oracle_check = {"ran": True, "name": "tower-replay", "status": "agreed" if ok else "disagreed"}
    rep.mark("oracle")
    if args.json:
        rep.emit_json()
    elif tower is not None:
        _print_tower(tower, sys.stdout)
    else:
        print(f"no tower of height {args.height} exists")
    return EXIT_OK if tower is not None else EXIT_NEGATIVE


def cmd_minimize(args, argv) -> int:
    a = _load(args.automaton)
    d = a if isinstance(a, Dfa) else subset_construction(a)
    sys.stdout.write(serialize_automaton(minimize(d)))
    return EXIT_OK


def cmd_determinize(args, argv) -> int:
    a = _load(args.automaton)
    sys.stdout.write(serialize_automaton(subset_construction(a)))
    return EXIT_OK


def _load_circuit(path: str) -> mcvp_mod.Circuit:
    return mcvp_mod.parse_circuit(Path(path).read_text(encoding="utf-8"))


def cmd_mcvp_build(args, argv) -> int:
    c = _load_circuit(args.circuit)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    emitted = {
        "certificate.aut": mcvp_mod.build_certificate_dfa(c),
        "certificate_min.aut": mcvp_mod.build_padded_certificate_dfa(c),
        "rounds.aut": mcvp_mod.build_round_dfa(c),
    }
    for name, automaton in emitted.items():
        path = out / name
        path.write_text(serialize_automaton(automaton), encoding="utf-8")
        print(f"wrote {path}")
    return EXIT_OK


def cmd_mcvp_eval(args, argv) -> int:
    c = _load_circuit(args.circuit)
    print("1" if mcvp_mod.evaluate(c) else "0")
    return EXIT_OK


def cmd_mcvp_endtoend(args, argv) -> int:
    rep = _Report("mcvp-endtoend", argv, args.timings)
    c = _load_circuit(args.circuit)
    rep.mark("parse")
    value = mcvp_mod.evaluate(c)
    walker, rounds = mcvp_mod.instance_pair(c)
    verdict = decide_separability(walker, rounds)
    rep.mark("decide")
    match = verdict.separable == (not value)
    rep.verdict = {"eval": 1 if value else 0, "separable": verdict.separable, "match": match}
    if verdict.witness is not None:
        rep.witness = _pattern_json(verdict.witness, towers_from_pattern(verdict.witness, 4))
    rep.oracle_check = {
        "ran": True,
        "name": "evaluator-ground-truth",
        "status": "agreed" if match else "disagreed",
    }
    rep.mark("oracle")
    if args.json:
        rep.emit_json()
    else:
        print(f"eval={1 if value else 0} separable={'true' if verdict.separable else 'false'}")
    return EXIT_OK if match else EXIT_NEGATIVE


def cmd_oracle_profiles(args, argv) -> int:
    a = _load(args.automaton)
    profiles = reachable_profiles(a, args.k, max_nodes=args.max_nodes)
    rows = sorted(sorted(p.pieces) for p in profiles)
    print(f"{len(rows)} accepted {args.k}-profiles:")
    for pieces in rows:
        print("  " + ", ".join(_fmt_word(p) for p in pieces))
    return EXIT_OK


def cmd_oracle_separator(args, argv) -> int:
    a = _load(args.first)
    b = _load(args.second)
    for k in range(1, args.kmax + 1):
        s = separable_by_kpt(a, b, k, max_nodes=args.max_nodes)
        if s is not None:
            print(
                f"separator found at k={k} (contains side {s.side},"
                f" {len(s.accepted_profiles)} accepted profiles)"
            )
            return EXIT_OK
    print(f"no k-piecewise separator for k <= {args.kmax}")
    return EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptsep",
        description="decision procedures for piecewise testability and separability",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, tower_budget=False):
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument("--timings", action="store_true", help="include wall-clock timings")
        default = DEFAULT_TOWER_MAX_NODES if tower_budget else DEFAULT_MAX_NODES
        p.add_argument(
            "--max-nodes",
            type=int,
            default=default,
            help="search budget before a probe is declared inconclusive",
        )

    p = sub.add_parser("pt-check", help="is the language piecewise testable?")
    p.add_argument("automaton")
    p.add_argument("--kmax", type=int, default=4, help="profile bound for the oracle cross-check")
    p.add_argument("--no-oracle", action="store_true", help="skip the oracle cross-check")
    add_common(p)
    p.set_defaults(func=cmd_pt_check)

    p = sub.add_parser("separability", help="is L(first) separable from L(second)?")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--separator", action="store_true", help="attach a k-piecewise separator")
    p.add_argument("--kmax", type=int, default=6, help="bound for separator search and oracle")
    p.add_argument("--hmax", type=int, default=5, help="tower height bound for the oracle")
    p.add_argument("--no-oracle", action="store_true", help="skip the oracle cross-check")
    add_common(p)
    p.set_defaults(func=cmd_separability, max_nodes=None)

    p = sub.add_parser("tower", help="find a tower of a given height")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--height", type=int, required=True)
    add_common(p, tower_budget=True)
    p.set_defaults(func=cmd_tower)

    p = sub.add_parser("minimize", help="print the canonical minimal DFA")
    p.add_argument("automaton")
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("determinize", help="print the subset-construction DFA")
    p.add_argument("automaton")
    p.set_defaults(func=cmd_determinize)

    p = sub.add_parser("mcvp", help="monotone circuit value instances")
    msub = p.add_subparsers(dest="subcommand", required=True)

    q = msub.add_parser("build", help="emit the instance automata")
    q.add_argument("circuit")
    q.add_argument("--out-dir", default=".")
    q.set_defaults(func=cmd_mcvp_build)

    q = msub.add_parser("eval", help="print the circuit value")
    q.add_argument("circuit")
    q.set_defaults(func=cmd_mcvp_eval)

    q = msub.add_parser("endtoend", help="compare separability against the circuit value")
    q.add_argument("circuit")
    q.add_argument("--json", action="store_true", help="emit a JSON report")
    q.add_argument("--timings", action="store_true", help="include wall-clock timings")
    q.set_defaults(func=cmd_mcvp_endtoend)

    p = sub.add_parser("oracle", help="bounded cross-validation searches")
    osub = p.add_subparsers(dest="subcommand", required=True)

    q = osub.add_parser("profiles", help="print the accepted k-profiles")
    q.add_argument("automaton")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--max-nodes", type=int, default=DEFAULT_MAX_NODES)
    q.set_defaults(func=cmd_oracle_profiles)

    q = osub.add_parser("towers", help="search for a tower of a given height")
    q.add_argument("first")
    q.add_argument("second")
    q.add_argument("--height", type=int, required=True)
    q.add_argument("--max-nodes", type=int, default=DEFAULT_TOWER_MAX_NODES)
    q.set_defaults(func=cmd_tower, json=False, timings=False)

    q = osub.add_parser("separator", help="search for a k-piecewise separator")
    q.add_argument("first")
    q.add_argument("second")
    q.add_argument("--kmax", type=int, default=6)
    q.add_argument("--max-nodes", type=int, default=DEFAULT_MAX_NODES)
    q.set_defaults(func=cmd_oracle_separator)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except Inconclusive as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except BrokenPipeError:
        # the reader has gone; the interpreter's last flush of stdout would
        # raise again, so what is left goes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR
    except (ParseError, mcvp_mod.CircuitError, AutomatonError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
