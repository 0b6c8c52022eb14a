"""End-to-end tests of the command-line front end via main(argv).

Exit codes are part of the contract: 0 all Holds, 1 any Violated, 2 any
Inconclusive without a Violated, 3 usage or parse errors, 4 internal
errors.  JSON output must be byte-identical across reruns with the same
flags and seed, and across hash seeds.
"""

import hashlib
import inspect
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from test_reduction import deadline

from picheck import (
    NIL,
    EncodingScheme,
    GeneratorConfig,
    Mutation,
    Par,
    check_op_completeness,
    encode,
    generate_terms,
    mutant_encoder,
    parse,
    pprint,
    reduct_candidates,
    struct_eq_bounded,
    struct_eq_s,
    term_size,
)
from picheck import checker, cli, reduction
from picheck.cli import main
from picheck.reduction import STATE_CAP, growth_cap

B = EncodingScheme.BOUDOL
HT = EncodingScheme.HONDA_TOKORO


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# --- encode ---


def test_encode_default_scheme_exact_output(capsys):
    code, out, _ = run(capsys, "encode", "x!y.0")
    assert code == 0
    assert out == "new #0. (x!#0.0 | #0(#1).(#1!y.0 | 0))\n"


def test_encode_ht_exact_output(capsys):
    code, out, _ = run(capsys, "encode", "--scheme", "ht", "x!y.0")
    assert code == 0
    assert out == "x(#0).(#0!y.0 | 0)\n"


# --- step ---


def test_step_lists_each_reduct_with_its_subject(capsys):
    code, out, _ = run(capsys, "step", "x!y.0 | x(z).0")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1
    assert "[comm x]" in lines[0]


def test_step_on_terminal_term_prints_nothing(capsys):
    code, out, _ = run(capsys, "step", "x!y.0")
    assert code == 0
    assert out == ""


# --- trace ---


def chain(p, limit=16):
    states = [p]
    while len(states) <= limit:
        cands = reduct_candidates(states[-1])
        if not cands:
            break
        states.append(cands[0][0])
    return states


def trace_terms(out):
    lines = out.splitlines()
    assert lines[0].startswith("start  ")
    terms = [lines[0].removeprefix("start  ")]
    terms += [line.split("]  ", 1)[1] for line in lines[1:]]
    return lines, terms


def test_trace_reproduces_the_boudol_simulation(capsys):
    src = parse("x!y.0 | x(z).0")
    code, out, _ = run(capsys, "trace", "--encode", "boudol", "x!y.0 | x(z).0")
    assert code == 0
    lines, terms = trace_terms(out)
    assert len(lines) == 1 + 3
    assert "[comm x]" in lines[1]
    assert all("[inert" in line for line in lines[2:])
    expected = chain(encode(src, B))
    assert terms == [pprint(s) for s in expected]
    assert struct_eq_bounded(expected[-1], encode(Par(NIL, NIL), B)).is_holds


def test_trace_reproduces_the_honda_tokoro_simulation(capsys):
    src = parse("x!y.0 | x(z).0")
    code, out, _ = run(capsys, "trace", "--encode", "ht", "x!y.0 | x(z).0")
    assert code == 0
    lines, terms = trace_terms(out)
    assert len(lines) == 1 + 2
    assert "[comm x]" in lines[1]
    assert "[inert" in lines[2]
    expected = chain(encode(src, HT))
    assert terms == [pprint(s) for s in expected]
    assert struct_eq_bounded(expected[-1], encode(Par(NIL, NIL), HT)).is_holds


def test_trace_respects_the_step_limit(capsys):
    code, out, _ = run(capsys, "trace", "--max", "3", "!x!y.0 | !x(z).0")
    assert code == 0
    assert len(out.splitlines()) == 1 + 3


def test_trace_stops_at_the_growth_bound(capsys):
    # The states grow on every step; the bound of a 7-node start term is 30
    # nodes.  The state past it is printed but not stepped from, as in a
    # search, and the trace ends normally instead of nesting ever deeper.
    term = "!(x!x.0 | x(y).!(!0 | 0))"
    with deadline(5):
        code, out, _ = run(capsys, "trace", "--max", "40", term)
    lines = out.splitlines()
    assert code == 0
    assert lines[-1] == "stop  35 nodes, past the growth bound of 30 nodes"
    _, terms = trace_terms("\n".join(lines[:-1]))
    states = chain(parse(term), limit=4)
    assert terms == [pprint(s) for s in states]
    assert [term_size(s) for s in states] == [7, 11, 17, 25, 35]


def test_trace_stops_at_the_growth_bound_of_the_encoded_term(capsys):
    term = "!(x!x.0 | x(y).!(!0 | 0))"
    code, out, _ = run(capsys, "trace", "--encode", "ht", "--max", "40", term)
    bound = growth_cap(encode(parse(term), HT))
    assert code == 0
    assert out.splitlines()[-1].endswith(f"past the growth bound of {bound} nodes")


# --- normalize ---


def test_normalize_prints_a_reparseable_representative(capsys):
    code, out, _ = run(capsys, "normalize", "new a. new b. (b!a.0 | 0 | new c. 0)")
    assert code == 0
    printed = out.strip()
    assert "#" not in printed
    reparsed = parse(printed)
    assert struct_eq_s(reparsed, parse("new a. new b. (b!a.0 | 0 | new c. 0)"))


def test_normalize_relabels_past_the_alphabet(capsys):
    # Every letter is taken, so the input's binder is printed as a0, not #1.
    src = (
        "new q. (a!b.0 | c!d.0 | e!f.0 | g!h.0 | i!j.0 | k!l.0 | m!n.0"
        " | o!p.0 | q!r.0 | s!t.0 | u!v.0 | w!x.0 | y!z.0 | q(zz).0)"
    )
    code, out, _ = run(capsys, "normalize", src)
    assert code == 0
    printed = out.strip()
    assert "#" not in printed and "q(a0).0" in printed
    assert struct_eq_s(parse(printed), parse(src))
    assert run(capsys, "normalize", printed) == (0, out, "")


def test_normalize_drops_dead_structure(capsys):
    code, out, _ = run(capsys, "normalize", "x!y.0 | 0 | new q. 0")
    assert code == 0
    assert out.strip() == "x!y.0"


# --- eq ---


def test_eq_equivalent(capsys):
    code, out, _ = run(capsys, "eq", "x!y.0 | 0", "x!y.0")
    assert (code, out) == (0, "equivalent\n")


def test_eq_unfolds_replication(capsys):
    code, out, _ = run(capsys, "eq", "!x!y.0", "x!y.0 | !x!y.0")
    assert (code, out) == (0, "equivalent\n")


def test_eq_not_equivalent(capsys):
    code, out, _ = run(capsys, "eq", "x!y.0", "y!x.0")
    assert (code, out) == (1, "not equivalent\n")


def test_eq_not_equivalent_when_free_names_differ(capsys):
    # Congruence preserves free names, replication or not.
    code, out, _ = run(capsys, "eq", "!x!y.0", "!x!z.0")
    assert (code, out) == (1, "not equivalent\n")


def test_eq_unknown_when_unfolding_cannot_settle_it(capsys):
    code, out, _ = run(capsys, "eq", "!x!y.0", "!x!y.0 | !x!y.0")
    assert (code, out) == (2, "unknown\n")


def test_eq_json_record(capsys):
    code, out, _ = run(capsys, "eq", "--json", "x!y.0 | 0", "x!y.0")
    assert code == 0
    record = json.loads(out)
    assert record["outcome"] == "equivalent"
    assert set(record) == {"left", "right", "outcome", "budgets"}
    assert record["budgets"]["unfolds"] == 2


# --- succeeds ---


def test_succeeds_with_witness(capsys):
    code, out, _ = run(capsys, "succeeds", "x!y.ok | x(z).0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "may succeed"
    assert all(line.startswith("  -> ") for line in lines[1:])


def test_succeeds_negative(capsys):
    code, out, _ = run(capsys, "succeeds", "x!y.0")
    assert (code, out) == (1, "never succeeds\n")


def test_succeeds_unknown_under_tiny_budget(capsys):
    code, out, _ = run(capsys, "succeeds", "--max", "1", "x!x.x!x.ok | x(z).x(w).0")
    assert (code, out) == (2, "unknown\n")


def test_succeeds_unknown_on_a_growing_replication(capsys):
    # The replication's states grow on every step; a small input is never
    # "nested too deeply" (exit 3), its search gives up instead.
    with deadline(5):
        code, out, _ = run(capsys, "succeeds", "!(x!x.0 | x(y).!(!0 | 0)) | z(w).ok")
    assert (code, out) == (2, "unknown\n")


def test_succeeds_json_trace(capsys):
    code, out, _ = run(capsys, "succeeds", "--json", "x!y.ok | x(z).0")
    assert code == 0
    record = json.loads(out)
    assert record["outcome"] == "may succeed"
    assert record["trace"] and set(record["trace"][0]) == {
        "from", "to", "subject", "sent", "inert"
    }


# --- gen ---


def test_gen_matches_the_library_corpus(capsys):
    code, out, _ = run(capsys, "gen", "--max-nodes", "2")
    assert code == 0
    want = [pprint(t) for t in generate_terms(GeneratorConfig(max_nodes=2))]
    assert out.splitlines() == want


def test_gen_random_mode_is_deterministic(capsys):
    first = run(capsys, "gen", "--count", "5", "--seed", "3")
    second = run(capsys, "gen", "--count", "5", "--seed", "3")
    assert first == second
    assert len(first[1].splitlines()) == 5


def test_gen_names_read_back_as_the_same_terms(capsys):
    code, out, _ = run(capsys, "gen", "--names", "_\u00e9", "--max-nodes", "3")
    assert code == 0
    lines = out.splitlines()
    assert "_!\u00e9.0" in lines
    assert [pprint(parse(line)) for line in lines] == lines


# --- check ---


def test_check_text_mode_prints_one_line_per_criterion(capsys):
    code, out, _ = run(
        capsys, "check", "--max-nodes", "1",
        "--criteria", "lemma-suite,success-sensitiveness",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4  # 2 schemes x 2 criteria
    assert all(line.startswith("PASS") for line in lines)
    assert all("violated=0" in line for line in lines)


def test_check_with_every_spare_letter_in_the_alphabet(capsys):
    code, out, _ = run(
        capsys, "check", "--names", "wqrstuv", "--max-nodes", "1",
        "--criteria", "name-invariance,lemma-suite",
    )
    assert code == 0
    assert all(line.startswith("PASS") for line in out.splitlines())


def test_check_json_reads_a_repeated_letter_once(capsys):
    argv = ("check", "--max-nodes", "3", "--criteria", "all", "--json")
    once = run(capsys, *argv, "--names", "x")
    twice = run(capsys, *argv, "--names", "xx")
    assert once[0] == twice[0] == 0
    assert once[1] == twice[1]


@pytest.mark.parametrize("mode", [(), ("--json",)])
def test_check_reads_a_repeated_criterion_once(capsys, mode):
    argv = ("check", "--max-nodes", "1", *mode, "--criteria")
    once = run(capsys, *argv, "lemma-suite")
    twice = run(capsys, *argv, "lemma-suite,lemma-suite")
    assert once[0] == twice[0] == 0
    assert once[1] == twice[1]


def test_check_reads_all_inside_a_list_as_the_default_criteria(capsys):
    argv = ("check", "--max-nodes", "1", "--scheme", "boudol", "--criteria")

    def criteria(selector):
        code, out, err = run(capsys, *argv, selector)
        assert code == 0, err
        return [line.split()[2] for line in out.splitlines()]

    defaults = criteria("all")
    assert len(defaults) == 7
    assert criteria("all,lemma-suite") == defaults
    assert criteria("lemma-suite,all") == ["lemma-suite"] + [
        c for c in defaults if c != "lemma-suite"
    ]
    assert criteria("barb-confluence,all") == ["barb-confluence"] + defaults


def test_check_json_does_not_depend_on_the_hash_seed():
    # Nodes and names hash by identity, that is by address: the run under
    # the system allocator puts them at other addresses, so any output that
    # followed the order of a set of nodes or names would differ.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    settings = (
        {"PYTHONHASHSEED": "0"},
        {"PYTHONHASHSEED": "4242"},
        {"PYTHONHASHSEED": "0", "PYTHONMALLOC": "malloc"},
    )
    # Each stream is pinned by its digest and line count as well: a change
    # that moves any verdict, witness or printed state shows here.
    corpora = (
        (
            ("--max-nodes", "3"),
            "61c204c4ac49690ce4122b14271b226bdd8e27cfb78138c6ab91f94a08676377",
            21658,
        ),
        # Boudol's op-completeness traces print states with two restricted
        # names side by side, which no 3-node term reaches.
        (
            ("--max-nodes", "4", "--criteria", "op-completeness", "--scheme", "boudol"),
            "d36478fa4c2e7bb2e1d6af802ffa66b2f5ff84af6d83839dcaddd785493cbd67",
            20991,
        ),
    )
    for argv, digest, lines in corpora:
        cmd = [sys.executable, "-m", "picheck.cli", "check", *argv, "--json"]
        runs = [
            subprocess.Popen(
                cmd,
                env={**os.environ, "PYTHONPATH": path, **setting},
                stdout=subprocess.PIPE,
            )
            for setting in settings
        ]
        outs = [run.communicate(timeout=300)[0] for run in runs]
        assert [run.returncode for run in runs] == [0, 0, 0], argv
        assert outs[0] == outs[1] == outs[2], argv
        assert outs[0].count(b"\n") == lines, argv
        assert hashlib.sha256(outs[0]).hexdigest() == digest, argv


def _record_state_caps(monkeypatch):
    """Wrap the one search so that every state cap a search runs under,
    passed or defaulted, is recorded in the returned list."""
    caps = []
    original = reduction.explore
    signature = inspect.signature(original)

    def recording(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        caps.append(bound.arguments["state_cap"])
        return original(*args, **kwargs)

    monkeypatch.setattr(reduction, "explore", recording)
    monkeypatch.setattr(checker, "explore", recording)
    return caps


def test_check_json_states_the_state_cap_every_search_ran_under(capsys, monkeypatch):
    caps = _record_state_caps(monkeypatch)
    code, out, _ = run(capsys, "check", "--max-nodes", "3", "--json")
    assert code == 0
    stated = {json.loads(line)["budgets"]["state_cap"] for line in out.splitlines()}
    assert caps and set(caps) == stated


def test_op_completeness_fallback_runs_under_the_stated_state_cap(monkeypatch):
    # Without its forwarder Boudol's image misses the anchored pattern, so
    # only the fallback's search can settle the step, and it refutes it.
    caps = _record_state_caps(monkeypatch)
    broken = mutant_encoder(B, Mutation.DROP_FORWARDER)
    v = check_op_completeness(parse("x!x.0 | x(x).0"), B, translate=broken)
    assert v.is_violated
    assert caps and set(caps) == {STATE_CAP}


def test_check_json_is_deterministic_and_well_formed(capsys):
    argv = (
        "check", "--max-nodes", "2", "--criteria", "lemma-suite",
        "--scheme", "boudol", "--json",
    )
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert (code1, out1) == (code2, out2)
    assert code1 == 0
    lines = out1.splitlines()
    assert len(lines) == len(list(generate_terms(GeneratorConfig(max_nodes=2))))
    for line in lines:
        record = json.loads(line)
        assert set(record) == {
            "criterion", "scheme", "term", "outcome", "trace", "budgets"
        }
        assert record["outcome"] == "holds"
        assert record["scheme"] == "boudol"


# --- usage errors ---


def test_unknown_subcommand_exits_3(capsys):
    code, _, err = run(capsys, "bogus")
    assert code == 3
    assert err


def test_unknown_scheme_exits_3(capsys):
    code, _, err = run(capsys, "encode", "--scheme", "nope", "x!y.0")
    assert code == 3
    assert "scheme" in err


def test_unknown_criterion_exits_3(capsys):
    code, _, err = run(capsys, "check", "--criteria", "nope")
    assert code == 3
    assert "criterion" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "--max-nodes", "-2"),
        ("check", "--count", "-3"),
        ("check", "--step-budget", "-1"),
        ("succeeds", "--max", "-1", "x!y.ok | x(z).0"),
        ("trace", "--max", "-1", "x!y.0 | x(z).0"),
        ("eq", "--unfolds", "-1", "!x!y.0", "x!y.0 | !x!y.0"),
    ],
)
def test_negative_count_or_budget_exits_3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "must not be negative" in err


@pytest.mark.parametrize("command", ["check", "gen"])
def test_zero_count_exits_3(capsys, command):
    code, out, err = run(capsys, command, "--count", "0")
    assert code == 3
    assert out == ""
    assert "must be positive" in err


@pytest.mark.parametrize("command", ["check", "gen"])
def test_random_mode_without_a_node_exits_3(capsys, command):
    code, out, err = run(capsys, command, "--count", "3", "--max-nodes", "0")
    assert code == 3
    assert out == ""
    assert "--max-nodes must be positive" in err


@pytest.mark.parametrize("command", ["check", "gen"])
@pytest.mark.parametrize("names", ["x1", "x#", "x y", "x-", "x'"])
def test_names_the_parser_cannot_read_back_exit_3(capsys, command, names):
    code, out, err = run(capsys, command, "--names", names, "--max-nodes", "1")
    assert code == 3
    assert out == ""
    assert "--names takes letters or '_'" in err


def test_parse_error_exits_3(capsys):
    code, _, err = run(capsys, "encode", "x!y")
    assert code == 3
    assert "parse error" in err


def test_fresh_name_spelling_is_rejected_as_input(capsys):
    code, _, err = run(capsys, "step", "#0(x).0")
    assert code == 3
    assert "parse error" in err


# --- crashes ---

DEEP = "x!y." * 500 + "0"


@pytest.mark.parametrize("command", ["encode", "normalize"])
def test_too_deeply_nested_term_exits_3(capsys, command):
    code, out, err = run(capsys, command, DEEP)
    assert code == 3
    assert out == ""
    assert err == "picheck: term nested too deeply\n"


@pytest.mark.parametrize("command, target", [("encode", "encode"), ("normalize", "deep_canon")])
def test_internal_error_exits_4_with_a_traceback(capsys, monkeypatch, command, target):
    def broken(*args):
        raise KeyError("boom")

    monkeypatch.setattr(cli, target, broken)
    code, out, err = run(capsys, command, "x!y.0")
    assert code == 4
    assert out == ""
    assert err.startswith("Traceback")
    assert "KeyError: 'boom'" in err


# --- README's console examples ---


def readme_examples():
    """(command, expected lines) for every ``$ picheck`` line of README's
    console blocks: the lines up to the next ``$`` line or the end of the
    block, trailing blank lines dropped."""
    examples, block = [], None
    for line in (Path(__file__).parents[1] / "README.md").read_text().splitlines():
        if line == "```console":
            block = []
        elif block is not None and line == "```":
            examples += block
            block = None
        elif block is not None and line.startswith("$ "):
            block.append((line[2:], []))
        elif block:
            block[-1][1].append(line)
    return [
        (command, "\n".join(lines).rstrip("\n").split("\n"))
        for command, lines in examples
        if command.startswith("picheck ")
    ]


def matches(expected, got):
    """Line-by-line equality, where a ``...`` line stands for any run of lines."""
    if not expected:
        return not got
    if expected[0] == "...":
        return any(matches(expected[1:], got[i:]) for i in range(len(got) + 1))
    return bool(got) and got[0] == expected[0] and matches(expected[1:], got[1:])


EXAMPLES = readme_examples()


def test_readme_has_console_examples():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize(("command", "expected"), EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_console_example(capsys, command, expected):
    code, out, _ = run(capsys, *shlex.split(command)[1:])
    assert code == 0
    assert matches(expected, out.splitlines()), out


def readme_python_blocks():
    """The source of every ``python`` block of README."""
    blocks, block = [], None
    for line in (Path(__file__).parents[1] / "README.md").read_text().splitlines():
        if line == "```python":
            block = []
        elif block is not None and line == "```":
            blocks.append("\n".join(block))
            block = None
        elif block is not None:
            block.append(line)
    return blocks


def test_readme_python_example():
    blocks = readme_python_blocks()
    assert blocks
    for source in blocks:
        exec(compile(source, "README.md", "exec"), {})
