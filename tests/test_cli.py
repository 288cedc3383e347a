"""End-to-end command-line behavior: exit codes, piping, determinism."""

from __future__ import annotations

import ast
import copy
import hashlib
import importlib
import json
import math
import multiprocessing.process
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starfact import cli, constructions
from starfact.cayley import build_model, export_edge_list
from starfact.cli import main
from starfact.constructions import construct_prime_power
from starfact.groups import make_group
from starfact.search import search_starter
from starfact.serialize import (
    canonical_json,
    factorization_from_payload,
    factorization_payload,
    starter_from_payload,
    starter_payload,
)
from starfact.starters import (
    Starter,
    StarterSet,
    check_invariance,
    develop_factorization,
    verify_factorization,
)

OK, FAIL, NONE, BUDGET, USAGE = 0, 1, 2, 3, 64


def run_cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "starfact.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
    )


def golden_starter_json() -> str:
    g = make_group([4])
    m = build_model(g.subgroup([(2,)]))
    st = Starter(m, (StarterSet((m.edge(0, 1),), g.subgroup([(2,)])),))
    return canonical_json(starter_payload(st))


def test_construct_verify_develop_pipeline(tmp_path):
    starter_file = tmp_path / "starter.json"
    r = run_cli("construct", "--family", "prime-power", "--p", "5", "--v", "2",
                "-o", str(starter_file))
    assert r.returncode == OK, r.stderr
    payload = json.loads(starter_file.read_text())
    assert payload["group"]["cyclic_orders"] == [5, 5, 2]
    assert len(payload["sets"]) == 8

    r = run_cli("verify-starter", str(starter_file))
    assert r.returncode == OK
    assert json.loads(r.stdout)["passed"] is True

    fact_file = tmp_path / "fact.json"
    r = run_cli("develop", str(starter_file), "-o", str(fact_file))
    assert r.returncode == OK
    fact = json.loads(fact_file.read_text())
    assert len(fact["factors"]) == 48

    r = run_cli("verify-factorization", str(fact_file), "--invariance")
    assert r.returncode == OK
    out = json.loads(r.stdout)
    assert out["passed"] is True and out["invariant"] is True


def test_stdin_stdout_piping():
    built = run_cli("construct", "--family", "prime-power", "--p", "5", "--v", "2")
    assert built.returncode == OK
    verified = run_cli("verify-starter", "-", stdin=built.stdout)
    assert verified.returncode == OK


def test_construct_is_byte_deterministic():
    a = run_cli("construct", "--family", "prime-power", "--p", "5", "--v", "2")
    b = run_cli("construct", "--family", "prime-power", "--p", "5", "--v", "2")
    assert a.stdout == b.stdout
    assert a.stdout.endswith("\n")


def test_doubling_via_cli(tmp_path):
    starter_file = tmp_path / "base.json"
    starter_file.write_text(golden_starter_json())
    r = run_cli("construct", "--family", "doubling", "--input", str(starter_file))
    assert r.returncode == OK, r.stderr
    payload = json.loads(r.stdout)
    assert payload["group"]["cyclic_orders"] == [4, 2]
    assert payload["construction"] == "doubling"
    assert run_cli("verify-starter", "-", stdin=r.stdout).returncode == OK


def test_failing_verification_exits_1():
    broken = json.loads(golden_starter_json())
    broken["sets"][0]["subgroup_generators"] = []  # trivial companion
    r = run_cli("verify-starter", "-", stdin=json.dumps(broken))
    assert r.returncode == FAIL
    report = json.loads(r.stdout)
    assert report["passed"] is False
    violations = [v for c in report["conditions"] for v in c["violations"]]
    assert violations


def test_tampered_factorization_exits_1(tmp_path):
    built = run_cli("construct", "--family", "doubling", "--input", "-",
                    stdin=golden_starter_json())
    fact = run_cli("develop", "-", stdin=built.stdout)
    assert fact.returncode == OK
    payload = json.loads(fact.stdout)
    payload["factors"] = payload["factors"][1:]
    r = run_cli("verify-factorization", "-", stdin=json.dumps(payload))
    assert r.returncode == FAIL


def test_search_exit_codes():
    assert run_cli("search", "--group", "4", "--H", "2").returncode == OK
    assert run_cli("search", "--group", "6", "--H", "3").returncode == NONE
    assert run_cli("search", "--group", "12", "--H", "6",
                   "--budget", "5").returncode == BUDGET


def test_search_modes_and_payload():
    r = run_cli("search", "--group", "4", "--H", "2", "--mode", "all")
    assert r.returncode == OK
    payload = json.loads(r.stdout)
    assert payload["witness_count"] == 4
    assert payload["nodes_explored"] == 5
    r = run_cli("search", "--group", "10", "--H", "5", "--mode", "exhaust")
    assert r.returncode == NONE
    assert json.loads(r.stdout)["status"] == "none_exists"


def test_search_workers_flag_matches_single_process():
    base = run_cli("search", "--group", "12", "--H", "4")
    multi = run_cli("search", "--group", "12", "--H", "4", "--workers", "2")
    assert base.stdout == multi.stdout
    assert base.returncode == multi.returncode == OK


def test_workers_flag_starts_no_process(tmp_path, monkeypatch):
    # --workers is accepted for compatibility: every search runs in this
    # process and writes the same bytes for any worker count.
    def no_process(*args, **kwargs):
        raise AssertionError("a search started a process")

    monkeypatch.setattr(os, "fork", no_process)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)
    commands = [
        ["search", "--group", "4,9", "--H", "1,0"],  # witness in the 2nd of 4 root branches
        ["certify-nonexist", "--m", "3", "--n", "4", "--budget", "20000"],
    ]
    for command in commands:
        runs = []
        for workers in ("1", "2"):
            out = tmp_path / f"{command[0]}-{workers}.json"
            code = main([*command, "--workers", workers, "-o", str(out)])
            runs.append((code, out.read_bytes()))
        assert runs[0] == runs[1], command
        assert runs[0][0] == OK


def test_certify_exit_codes():
    r = run_cli("certify-nonexist", "--m", "3", "--n", "2")
    assert r.returncode == NONE
    payload = json.loads(r.stdout)
    assert payload["status"] == "certified"
    assert run_cli("certify-nonexist", "--m", "2", "--n", "2").returncode == OK
    assert run_cli("certify-nonexist", "--m", "2", "--n", "2",
                   "--budget", "1").returncode == BUDGET


def test_classify_output():
    r = run_cli("classify", "--m", "7", "--n", "6")
    assert r.returncode == OK
    payload = json.loads(r.stdout)
    assert payload["status"] == "not_exists"
    assert payload["certificate"]["type_zero_count"] == 18
    r = run_cli("classify", "--m", "12", "--n", "2")
    assert json.loads(r.stdout)["status"] == "exists"
    assert "certificate" not in json.loads(r.stdout)


def test_groups_listing():
    r = run_cli("groups", "--order", "8")
    assert r.returncode == OK
    payload = json.loads(r.stdout)
    assert [g["cyclic_orders"] for g in payload["groups"]] == [[8], [4, 2], [2, 2, 2]]
    r = run_cli("groups", "--order", "4", "--subgroups")
    lattice = json.loads(r.stdout)["groups"][0]["subgroups"]
    assert [s["order"] for s in lattice] == [1, 2, 4]


def test_emit_edges(tmp_path):
    edges = tmp_path / "edges.txt"
    r = run_cli("search", "--group", "4", "--H", "2", "--emit-edges", str(edges),
                "-o", str(tmp_path / "out.json"))
    assert r.returncode == OK
    assert edges.read_text() == "0 1\n0 3\n1 2\n2 3\n"


def _failing_starter_json() -> str:
    broken = json.loads(golden_starter_json())
    broken["sets"][0]["subgroup_generators"] = []  # trivial companion
    return json.dumps(broken)


@pytest.mark.parametrize(
    "args, code, model",
    [
        (["construct", "--family", "prime-power", "--p", "5", "--v", "2"], OK,
         lambda: construct_prime_power(5, 2).model),
        (["verify-starter", "STARTER"], OK,
         lambda: starter_from_payload(json.loads(golden_starter_json())).model),
        (["verify-starter", "FAILING"], FAIL,
         lambda: starter_from_payload(json.loads(_failing_starter_json())).model),
        (["develop", "STARTER"], OK,
         lambda: starter_from_payload(json.loads(golden_starter_json())).model),
        (["search", "--group", "12", "--H", "6"], OK,
         lambda: build_model(make_group([12]).subgroup([(6,)]))),
        (["search", "--group", "12", "--H", "6", "--budget", "1"], BUDGET,
         lambda: build_model(make_group([12]).subgroup([(6,)]))),
    ],
)
def test_emit_edges_writes_the_model_edge_list(tmp_path, capsys, args, code, model):
    # --emit-edges writes export_edge_list of the command's model byte for
    # byte, on a nonzero exit too; with both on stdout the artifact comes
    # first, then the edge list.
    (tmp_path / "STARTER").write_text(golden_starter_json())
    (tmp_path / "FAILING").write_text(_failing_starter_json())
    args = [str(tmp_path / a) if a in ("STARTER", "FAILING") else a for a in args]
    out, edges = tmp_path / "out.json", tmp_path / "edges.txt"
    assert main([*args, "-o", str(out), "--emit-edges", str(edges)]) == code
    assert edges.read_text() == export_edge_list(model())
    capsys.readouterr()
    assert main([*args, "-o", "-", "--emit-edges", "-"]) == code
    assert capsys.readouterr().out == out.read_text() + edges.read_text()


def test_develop_writes_the_artifact_in_parts(tmp_path, capsysbinary):
    # main sends the artifact's parts, one per factor, to the file or to
    # stdout without joining them, so developing the p = 13 starter peaks
    # below 4x the 2.24 MB it writes; whole copies of the text would not.
    starter = tmp_path / "starter.json"
    starter.write_text(canonical_json(starter_payload(construct_prime_power(13, 2))))
    out = tmp_path / "fact.json"
    tracemalloc.start()
    try:
        assert main(["develop", str(starter), "-o", str(out)]) == OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    assert size > 2_000_000
    assert peak < 4 * size, peak / size
    capsysbinary.readouterr()
    assert main(["develop", str(starter)]) == OK
    assert capsysbinary.readouterr().out == out.read_bytes()


def test_usage_errors_exit_64():
    assert run_cli("no-such-command").returncode == USAGE
    assert run_cli("search", "--group", "4").returncode == USAGE  # missing --H
    assert run_cli("search", "--group", "abc", "--H", "2").returncode == USAGE
    r = run_cli("search", "--group", "4", "--H", "1,1")
    assert r.returncode == USAGE and "expected 1 coordinates" in r.stderr
    r = run_cli("search", "--group", ",", "--H", "1")
    assert r.returncode == USAGE and "at least one cyclic factor" in r.stderr
    r = run_cli("search", "--group", "4", "--H", ";")
    assert r.returncode == USAGE and "order at least 2" in r.stderr
    assert run_cli("verify-starter", "-", stdin="{not json").returncode == USAGE
    assert run_cli("verify-starter", "-", stdin='{"x": 1}').returncode == USAGE
    assert run_cli("construct", "--family", "prime-power").returncode == USAGE
    assert run_cli("construct", "--family", "doubling").returncode == USAGE
    assert run_cli("search", "--group", "4", "--H", "2",
                   "--frobnicate").returncode == USAGE
    assert run_cli("search", "--group", "4", "--H", "2",
                   "--workers", "0").returncode == USAGE
    assert run_cli("search", "--group", "4", "--H", "2",
                   "--budget", "-5").returncode == USAGE
    assert run_cli("certify-nonexist", "--m", "2", "--n", "2",
                   "--budget", "-5").returncode == USAGE
    assert run_cli("verify-starter", "/no/such/file.json").returncode == USAGE


def test_groups_of_order_one_million_fit_in_512_mib():
    # Listing groups builds no translation row, so no group allocates its
    # row table; 121 tables of 10^6 slots each raised MemoryError here.
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    r = subprocess.run(
        [sys.executable, "-m", "starfact.cli", "groups", "--order", "1000000"],
        capture_output=True,
        text=True,
        preexec_fn=limit,
        timeout=30,
    )
    assert r.returncode == OK, r.stderr
    assert len(json.loads(r.stdout)["groups"]) == 121


def _limit_memory():
    # 1 GiB of address space: a group that slips past the order check fails
    # with a MemoryError instead of filling the machine's memory.
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize(
    "orders, group, H",
    [
        ([10**12], "1000000000000", "1"),
        ([10**6, 1000], "1000000,1000", "1,0"),
        ([10**18 + 3], str(10**18 + 3), "1"),  # trial division would take minutes
        ([10**18 + 9], str(10**18 + 9), "1"),  # = 1 mod 4, so classify would factorize it
    ],
)
def test_group_order_above_the_maximum_exits_64(orders, group, H):
    starter = json.loads(golden_starter_json())
    fact = json.loads(run_cli("develop", "-", stdin=golden_starter_json()).stdout)
    starter["group"]["cyclic_orders"] = fact["group"]["cyclic_orders"] = orders
    order = str(math.prod(orders))

    def run(args, stdin=None):
        return subprocess.run(
            [sys.executable, "-m", "starfact.cli", *args],
            input=stdin,
            capture_output=True,
            text=True,
            preexec_fn=_limit_memory,
            timeout=10,
        )

    runs = [
        (["verify-starter", "-"], json.dumps(starter)),
        (["verify-factorization", "-"], json.dumps(fact)),
        (["search", "--group", group, "--H", H], None),
        (["groups", "--order", order], None),
        (["certify-nonexist", "--m", order, "--n", "2"], None),
        (["construct", "--family", "prime-power", "--p", order, "--v", "2"], None),
        (["construct", "--family", "prime-power", "--p", "5", "--v", order], None),
    ]
    for args, stdin in runs:
        r = run(args, stdin)
        assert r.returncode == USAGE, (args, r.stderr)
        assert r.stderr.startswith("bad input: ") and r.stderr.count("\n") == 1
        assert "exceeds the maximum" in r.stderr
    # classify factorizes m only for n = 2 and m = 1 mod 4; every other
    # verdict needs no factorization and answers for any m.
    r = run(["classify", "--m", order, "--n", "2"])
    if int(order) % 4 == 1:
        assert r.returncode == USAGE, r.stderr
        assert r.stderr == f"bad input: group order {2 * int(order)} exceeds the maximum 1000000\n"
    else:
        assert r.returncode == OK, r.stderr
        assert json.loads(r.stdout)["status"] in ("exists", "not_exists")


@pytest.mark.parametrize(
    "h_gens, code",
    [
        ([[1, 0, 0]], FAIL),
        ([[0, 1, 0]], FAIL),
        ([[1, 0, 1]], FAIL),
        ([[0, 0, 1], [1, 0, 0]], FAIL),
        ([[0, 0, 0]], USAGE),
        ([[5, 5, 2]], USAGE),
    ],
)
def test_h_that_disagrees_with_the_sets(h_gens, code):
    # The p = 5 prime-power starter over Z5 x Z5 x Z2 with H = <(0, 0, 1)>,
    # checked against another H: a proper nontrivial H fails verification,
    # and a trivial one is malformed input.
    payload = starter_payload(construct_prime_power(5, 2))
    payload["H_generators"] = h_gens
    r = run_cli("verify-starter", "-", stdin=json.dumps(payload))
    assert r.returncode == code
    if code == FAIL:
        assert json.loads(r.stdout)["passed"] is False
    else:
        assert (r.stdout, r.stderr.count("\n")) == ("", 1)
        assert r.stderr.startswith("bad input: ")


def test_invalid_family_parameters_exit_64():
    # p = 7 fails parameter validation before any assembly starts
    r = run_cli("construct", "--family", "prime-power", "--p", "7", "--v", "2")
    assert r.returncode == USAGE
    assert "not congruent" in r.stderr


def test_construction_failure_exits_1(tmp_path, capsys, monkeypatch):
    # a family whose first set appears twice repeats every difference it
    # covers, so no candidate filling can pass
    assemble = constructions._assemble_family

    def repeated(*args):
        sets = assemble(*args)
        return [sets[0]] + sets

    monkeypatch.setattr(constructions, "_assemble_family", repeated)
    out = tmp_path / "starter.json"
    argv = ["construct", "--family", "prime-power", "--p", "5", "--v", "2", "-o", str(out)]
    assert main(argv) == FAIL
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "construction failed: no candidate filling makes the p=5, v=2 family pass"
        " verification; first attempt reported:\npassed: False\n"
        "condition 1 (differences cover Omega exactly once): FAILED\n"
    )
    assert "covered 2 times" in captured.err


def test_doubling_invalid_starter_exits_1():
    broken = json.loads(golden_starter_json())
    broken["sets"][0]["subgroup_generators"] = []
    r = run_cli("construct", "--family", "doubling", "--input", "-",
                stdin=json.dumps(broken))
    assert r.returncode == FAIL
    assert "condition 2" in r.stderr


@pytest.mark.parametrize(
    "kind, path, value",
    [
        ("starter", ("sets", 0, "edges", 0, 1, 0), 1.5),
        ("starter", ("sets", 0, "edges", 0, 1, 0), "1"),
        ("starter", ("sets", 0, "edges", 0, 1, 0), True),
        ("starter", ("H_generators", 0, 0), 2.5),
        ("starter", ("sets", 0, "subgroup_generators", 0, 0), True),
        ("factorization", ("factors", 0, 0, 1), 1.5),
        ("factorization", ("factors", 0, 0, 1), True),
        ("factorization", ("factors", 0, 0, 1), "1"),
        ("starter", ("group", "cyclic_orders", 0), 4.5),
        ("starter", ("group", "cyclic_orders", 0), "4"),
        ("starter", ("group", "cyclic_orders", 0), 4.0),
        ("starter", ("group", "cyclic_orders", 0), True),
        ("factorization", ("group", "cyclic_orders", 0), 4.0),
    ],
)
def test_non_integer_json_numbers_exit_64(kind, path, value):
    # JSON group orders, coordinates, generators and vertex indices must be
    # integers; a float, string or bool is rejected, never truncated or
    # coerced.
    payload = json.loads(golden_starter_json())
    command = "verify-starter"
    if kind == "factorization":
        payload = json.loads(run_cli("develop", "-", stdin=golden_starter_json()).stdout)
        command = "verify-factorization"
    target = payload
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    r = run_cli(command, "-", stdin=json.dumps(payload))
    assert r.returncode == USAGE
    assert r.stderr.startswith("bad input: ") and r.stderr.count("\n") == 1
    assert "integer" in r.stderr


# A K_{6 x 2} starter over the non-cyclic Z2 x Z6 with H = <(1, 0)>, found by
# search, and a copy with an illegal edge in set 0, set 2 repeated, and set
# 4's short edge moved outside its companion.
_Z2Z6 = {
    "group": {"cyclic_orders": [2, 6]},
    "H_generators": [[1, 0]],
    "sets": [
        {"subgroup_generators": [[1, 2]], "edges": [[[0, 0], [0, 1]]]},
        {"subgroup_generators": [[0, 3], [1, 0]], "edges": [[[0, 0], [0, 2]], [[0, 1], [0, 4]]]},
        {"subgroup_generators": [[0, 1]], "edges": [[[0, 0], [1, 1]]]},
        {"subgroup_generators": [[0, 1]], "edges": [[[0, 0], [1, 2]]]},
        {"subgroup_generators": [[0, 1], [1, 0]], "edges": [[[0, 0], [1, 3]]]},
    ],
}


def _z2z6_tampered():
    t = copy.deepcopy(_Z2Z6)
    t["sets"][0]["edges"] = [[[0, 0], [1, 0]]]
    t["sets"].append(copy.deepcopy(t["sets"][2]))
    t["sets"][4]["subgroup_generators"] = [[0, 1]]
    return t


def _report(*conditions, **extra):
    passed = all(ok for _, ok, _ in conditions)
    return canonical_json(
        {
            "passed": passed,
            "conditions": [
                {"label": label, "ok": ok, "violations": list(v)}
                for label, ok, v in conditions
            ],
            **extra,
        }
    )


def test_messages_print_coordinates_on_a_noncyclic_group():
    # Every message template that names an element prints its coordinates.
    # The expected text was recorded before the verifiers moved to vertex
    # indices.
    r = run_cli("verify-starter", "-", stdin=json.dumps(_z2z6_tampered()))
    assert r.returncode == FAIL
    assert r.stdout == _report(
        ("condition 1 (differences cover Omega exactly once)", False, [
            "set 0: edge (0, 0)~(1, 0) is illegal (difference (1, 0) in H)",
            "difference (1, 1) covered 2 times",
            "difference (1, 5) covered 2 times",
            "difference (0, 1) not covered",
            "difference (0, 5) not covered",
        ]),
        ("condition 2 (marked endpoints form coset transversals)", False, [
            "set 0: coset of (0, 1) has 0 marked endpoints (companion order 6)",
            "set 4: coset of (1, 0) has 0 marked endpoints (companion order 6)",
        ]),
        ("condition 3 (short-edge differences lie in the companion)", False, [
            "set 4: short edge (0, 0)~(1, 3) has difference (1, 3)"
            " outside its companion subgroup",
        ]),
    )

    degenerate = copy.deepcopy(_Z2Z6)
    degenerate["sets"][3]["edges"] = [[[1, 2], [1, 2]]]
    r = run_cli("verify-starter", "-", stdin=json.dumps(degenerate))
    assert (r.returncode, r.stdout) == (USAGE, "")
    assert r.stderr == "bad input: degenerate edge at (1, 2)\n"

    fact = json.loads(run_cli("develop", "-", stdin=json.dumps(_Z2Z6)).stdout)
    assert len(fact["factors"]) == 10
    doubled = copy.deepcopy(fact)
    doubled["factors"][1] = list(doubled["factors"][0])
    doubled["factors"][2][0] = [0, 6]  # (0, 0) ~ (1, 0), inside a part
    r = run_cli("verify-factorization", "-", "--invariance", stdin=json.dumps(doubled))
    assert r.returncode == FAIL
    assert r.stdout == _report(
        ("factors are perfect matchings of legal edges", False, [
            "factor 4: illegal edge (0, 0)~(1, 0) (difference (1, 0) in H)",
            "factor 4: vertices covered != once: [(0, 3), (1, 0)]",
        ]),
        ("factors partition the edge set", False, [
            "6 edges appear in more than one factor, e.g. [((0, 0), (0, 1)),"
            " ((0, 2), (0, 3)), ((0, 4), (0, 5)), ((1, 0), (1, 1))]",
        ]),
        ("factor count equals mn - n", True, []),
        invariant=False,
    )

    short = copy.deepcopy(fact)
    short["factors"].pop()
    r = run_cli("verify-factorization", "-", stdin=json.dumps(short))
    assert r.returncode == FAIL
    assert r.stdout == _report(
        ("factors are perfect matchings of legal edges", True, []),
        ("factors partition the edge set", False, ["54 distinct edges used, expected 60"]),
        ("factor count equals mn - n", False, ["9 factors, expected 10"]),
    )

    # Factor 5 rewired, (0, 7) and (5, 6) to (0, 6) and (5, 7): still a
    # perfect matching, with one edge inside a part and one edge of factor 6.
    rewired = copy.deepcopy(fact)
    rewired["factors"][5][0] = [0, 6]
    rewired["factors"][5][5] = [5, 7]
    illegal = "factor 5: illegal edge (0, 0)~(1, 0) (difference (1, 0) in H)"
    shared = "1 edges appear in more than one factor, e.g. [((0, 5), (1, 1))]"
    r = run_cli("verify-factorization", "-", "--invariance", stdin=json.dumps(rewired))
    assert r.returncode == FAIL
    assert r.stdout == _report(
        ("factors are perfect matchings of legal edges", False, [illegal]),
        ("factors partition the edge set", False, [shared]),
        ("factor count equals mn - n", True, []),
        invariant=False,
    )

    # Factor 0 rewired, (0, 1) and (6, 7) to (0, 6) and (1, 7): both new
    # edges lie inside parts, so no edge is shared and only the parts
    # reveal the fault.
    inside = copy.deepcopy(fact)
    inside["factors"][0][0] = [0, 6]
    inside["factors"][0][3] = [1, 7]
    r = run_cli("verify-factorization", "-", "--invariance", stdin=json.dumps(inside))
    assert r.returncode == FAIL
    assert r.stdout == _report(
        ("factors are perfect matchings of legal edges", False, [
            "factor 4: illegal edge (0, 0)~(1, 0) (difference (1, 0) in H)",
            "factor 4: illegal edge (0, 1)~(1, 1) (difference (1, 0) in H)",
        ]),
        ("factors partition the edge set", True, []),
        ("factor count equals mn - n", True, []),
        invariant=False,
    )

    # The rewired factor 5, with factor 2 short of an edge: both faults, in factor order.
    mixed = copy.deepcopy(rewired)
    mixed["factors"][2].pop()
    r = run_cli("verify-factorization", "-", "--invariance", stdin=json.dumps(mixed))
    assert r.returncode == FAIL
    assert r.stdout == _report(
        ("factors are perfect matchings of legal edges", False, [
            "factor 2: vertices covered != once: [(1, 2), (1, 4)]",
            illegal,
        ]),
        ("factors partition the edge set", False, [shared]),
        ("factor count equals mn - n", True, []),
        invariant=False,
    )


def test_star_import_resolves_every_exported_name():
    # a name left in __all__ after its definition is gone fails here
    exec("from starfact import *", {})


def test_benchmark_traced_names_resolve():
    # perfbench/tracer.py wraps each (module, function) in TRACED by name,
    # so deleting one breaks `perfbench/run.py --trace 1`.  The file is read,
    # not imported.
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    (traced,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(tracer.read_text()).body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TRACED"
    ]
    assert traced
    for module, name in traced:
        assert callable(getattr(importlib.import_module(f"starfact.{module}"), name, None)), (
            module,
            name,
        )


def test_p13_pipeline_artifacts_are_pinned(tmp_path):
    # The four artifacts of the p = 13 pipeline, pinned by the sha256
    # recorded while factors were still Edge objects written by json.dumps.
    start = time.perf_counter()
    starter, edges, fact, report = (tmp_path / name for name in (
        "starter.json", "edges.txt", "fact.json", "report.json"))
    commands = [
        ["construct", "--family", "prime-power", "--p", "13", "--v", "2",
         "--emit-edges", str(edges), "-o", str(starter)],
        ["develop", str(starter), "-o", str(fact)],
        ["verify-factorization", str(fact), "--invariance", "-o", str(report)],
    ]
    for command in commands:
        r = run_cli(*command)
        assert r.returncode == OK, r.stderr
    elapsed = time.perf_counter() - start
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (starter, edges, fact, report)
    }
    assert digests == {
        "starter.json": "229d4afa5e117ea11007191aeed4c80957eef79ec774e5949bd5b6146c29e5ca",
        "edges.txt": "668b681d533a8e423ad9a7e8aa8772869138f7105739f675c8e2d99a2851e4e2",
        "fact.json": "e012b1dd86636a3239680ef56c6d527a37478cc60addbe2a989f1e0249c337d1",
        "report.json": "0d8c97bd29263a1faa6383aaa73d70a651d187ec39e36d3dc625140fb367d7f7",
    }
    assert elapsed < 30.0, f"{elapsed:.2f}s"


_MISSING = object()


def _unpack_error(factors):
    """The interpreter's own message for a factor list whose shape does not
    unpack into (u, v) edges.  Its wording differs between Python versions,
    so it is taken from the running interpreter rather than pinned."""
    try:
        for factor in factors:
            for _u, _v in factor:
                pass
    except (TypeError, ValueError) as exc:
        return str(exc)
    raise AssertionError("the shape unpacks")


def _json_error(text):
    """The json module's own message for text that does not parse, or that
    nests too deep to parse, taken from the running interpreter like
    _unpack_error's."""
    try:
        json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        return str(exc)
    raise AssertionError("the text parses")


_DEEP = "[" * 200_000 + "]" * 200_000  # valid JSON, nested past any recursion limit


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("factors", 0, 0, 1), 12, "vertex index out of range"),
        (("factors", 0, 0, 0), -1, "vertex index out of range"),
        (("factors", 0, 0), [3, 3], "degenerate edge at (0, 3)"),
        (("factors", 3, 2), [11, 11], "degenerate edge at (1, 5)"),
        (("factors", 0, 0), [0, 1, 2], _unpack_error([[[0, 1, 2]]])),
        (("factors", 0, 0), [0], _unpack_error([[[0]]])),
        (("factors", 0, 0), 5, _unpack_error([[5]])),
        (("factors", 0), 7, _unpack_error([7])),
        (("factors",), _MISSING, "'factors'"),
        # The first check to fail, in input order, names the fault.
        (("factors", 0, 0), [99, 1.5], "vertex index out of range"),
        (("factors", 0), [[0, 1.5], [0, 1, 2]], "vertex index must be an integer, got 1.5"),
        (("factors", 0), [[0, 1, 2], [0, 1.5]], _unpack_error([[[0, 1, 2]]])),
        pytest.param((), _DEEP, _json_error(_DEEP), id="deeply-nested"),
        pytest.param(
            ("factors", 5, 3), [2, 99], "vertex index out of range", id="later-factor-out-of-range"
        ),
        pytest.param(
            ("factors", 0, 0),
            [True, 1],
            "vertex index must be an integer, got True",
            id="bool-vertex",
        ),
        pytest.param(
            ("factors", 0, 0), "ab", "vertex index must be an integer, got 'a'", id="string-edge"
        ),
    ],
)
def test_malformed_factorization_exits_64(tmp_path, capsys, path, value, message):
    # The developed Z2 x Z6 factorization with one fault, or text that does
    # not parse (empty path); each message the program writes itself was
    # recorded while the loader still built Edge objects.
    if path:
        fact = develop_factorization(starter_from_payload(_Z2Z6))
        payload = json.loads(canonical_json(factorization_payload(fact)))
        target = payload
        for key in path[:-1]:
            target = target[key]
        if value is _MISSING:
            del target[path[-1]]
        else:
            target[path[-1]] = value
        value = json.dumps(payload)
    fact = tmp_path / "fact.json"
    fact.write_text(value)
    for extra in ([], ["--invariance"]):
        assert main(["verify-factorization", str(fact), *extra]) == USAGE
        assert capsys.readouterr() == ("", f"bad input: {message}\n")


def test_empty_factor_fails_verification(tmp_path, capsys):
    # An empty factor is well formed, so it loads and fails verification.
    fact = develop_factorization(starter_from_payload(_Z2Z6))
    payload = json.loads(canonical_json(factorization_payload(fact)))
    payload["factors"][0] = []
    fact = tmp_path / "fact.json"
    fact.write_text(json.dumps(payload))
    for extra in ([], ["--invariance"]):
        assert main(["verify-factorization", str(fact), *extra]) == FAIL
        out, err = capsys.readouterr()
        assert json.loads(out)["passed"] is False and err == ""


@pytest.mark.parametrize(
    "path, value, message",
    [
        ((), "{not json", _json_error("{not json")),
        (("group",), _MISSING, "'group'"),
        (("H_generators",), _MISSING, "'H_generators'"),
        (("sets",), _MISSING, "'sets'"),
        (("sets",), 5, _unpack_error([5])),
        (("sets", 1, "subgroup_generators"), _MISSING, "'subgroup_generators'"),
        (("sets", 1, "edges"), _MISSING, "'edges'"),
        (
            ("sets", 1, "edges", 1),
            [[0, 1], [0, 4], [1, 1]],
            _unpack_error([[[[0, 1], [0, 4], [1, 1]]]]),
        ),
        (("sets", 1, "edges", 1, 1), [0, 1.5], "coordinates must be integers, got (0, 1.5)"),
        pytest.param((), _DEEP, _json_error(_DEEP), id="deeply-nested"),
    ],
)
def test_malformed_starter_exits_64(tmp_path, capsys, path, value, message):
    # The Z2 x Z6 starter with one fault, or text that does not parse (empty
    # path); every command that loads a starter names the same fault.
    if path:
        payload = copy.deepcopy(_Z2Z6)
        target = payload
        for key in path[:-1]:
            target = target[key]
        if value is _MISSING:
            del target[path[-1]]
        else:
            target[path[-1]] = value
        value = json.dumps(payload)
    starter = tmp_path / "starter.json"
    starter.write_text(value)
    for command in (
        ["verify-starter", str(starter)],
        ["develop", str(starter)],
        ["construct", "--family", "doubling", "--input", str(starter)],
    ):
        assert main(command) == USAGE
        assert capsys.readouterr() == ("", f"bad input: {message}\n")


@pytest.mark.parametrize("error", [TypeError, KeyError])
def test_library_errors_are_not_reported_as_bad_input(tmp_path, monkeypatch, error):
    # Only loading a document judges its shape; the same exception raised
    # later is a bug and must surface as one, not as exit 64.
    def broken(starter):
        raise error("injected")

    monkeypatch.setattr(cli, "verify_starter", broken)
    starter = tmp_path / "starter.json"
    starter.write_text(golden_starter_json())
    with pytest.raises(error, match="injected"):
        main(["verify-starter", str(starter)])


def _fuzz_documents():
    z4z3 = search_starter(build_model(make_group([4, 3]).subgroup([(2, 0)]))).witness
    z12 = search_starter(build_model(make_group([12]).subgroup([(6,)]))).witness
    return [
        starter_payload(z4z3),
        starter_payload(z12),
        factorization_payload(develop_factorization(z4z3)),
    ]


_FUZZ_DOCUMENTS = _fuzz_documents()
_FUZZ_VALUES = [0, 1, -1, 2, 3, 12, 10**6, 1.5, True, False, None, "", "1", [], {},
                [0], [0, 1], [0, 1, 2], [[0, 1]], [[0], [1]], [1.5]]


def _json_paths(doc, path=()):
    yield path
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from _json_paths(value, path + (key,))


@st.composite
def _mutated_documents(draw):
    """One of the fuzz documents with one or two JSON paths, the root
    included, replaced by a value from a fixed list, or a key deleted."""
    doc = copy.deepcopy(draw(st.sampled_from(_FUZZ_DOCUMENTS)))
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_json_paths(doc))))
        value = copy.deepcopy(draw(st.sampled_from(_FUZZ_VALUES)))
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=500, database=None, derandomize=True, deadline=None)
@given(doc=_mutated_documents())
def test_mutated_documents_exit_0_1_or_64(fuzz_dir, doc):
    # Every command that loads a document judges or rejects a mutated one,
    # and no exception escapes main.
    src = fuzz_dir / "doc.json"
    src.write_text(json.dumps(doc))
    out = str(fuzz_dir / "out.json")
    for command in (
        ["verify-starter", str(src)],
        ["develop", str(src)],
        ["construct", "--family", "doubling", "--input", str(src)],
        ["verify-factorization", "--invariance", str(src)],
    ):
        assert main([*command, "-o", out]) in (OK, FAIL, USAGE), command


def test_read_json_makes_one_int_per_int_text(tmp_path):
    # Equal int texts in one document parse to one int object, so a loaded
    # factorization's vertices are shared; a second read makes its own.
    doc = {"a": [10**30, 10**30, -(10**30), 300, [300, 0.5, "300", True]], "b": 300}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    first = cli._read_json(str(path), lambda d: d)
    assert first == json.loads(path.read_text()) == doc
    assert first["a"][0] is first["a"][1] and type(first["a"][0]) is int
    assert first["a"][3] is first["a"][4][0] is first["b"]
    second = cli._read_json(str(path), lambda d: d)
    assert second == first and second["a"][0] is not first["a"][0]


def test_vertex_of_5000_digits_exits_64(tmp_path, capsys):
    # The parser's own message for an int text past the interpreter's limit
    # on digits, taken from the running interpreter.
    digits = "1" * 5000
    try:
        int(digits)
    except ValueError as exc:
        message = str(exc)
    fact = develop_factorization(starter_from_payload(_Z2Z6))
    payload = json.loads(canonical_json(factorization_payload(fact)))
    payload["factors"][0][0] = "vertex"
    path = tmp_path / "fact.json"
    path.write_text(json.dumps(payload).replace('"vertex"', f"[0, {digits}]"))
    assert main(["verify-factorization", str(path)]) == USAGE
    assert capsys.readouterr() == ("", f"bad input: {message}\n")


@pytest.fixture(scope="module")
def p13_factorization(tmp_path_factory):
    """The developed p = 13 factorization and the path of its artifact."""
    fact = develop_factorization(construct_prime_power(13, 2))
    path = tmp_path_factory.mktemp("p13") / "fact.json"
    path.write_text(canonical_json(factorization_payload(fact)))
    assert path.stat().st_size == 2_352_160
    return fact, path


def test_verify_factorization_peaks_under_4_artifact_sizes(p13_factorization, tmp_path):
    # verify-factorization --invariance holds the artifact's text, then its
    # document, whose equal ints are shared, and then the mate tuples built
    # from it; its traced peak stays under 3.8 times the artifact's size.
    _, path = p13_factorization
    out = str(tmp_path / "report.json")
    tracemalloc.start()
    try:
        assert main(["verify-factorization", str(path), "--invariance", "-o", out]) == OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.8 * path.stat().st_size, peak / path.stat().st_size


def test_loaded_factorization_keeps_only_its_mate_tuples(p13_factorization):
    # A factorization of perfect matchings loads as mate tuples, and
    # verifying it and checking its invariance build no pair tuples, so it
    # keeps under half the size of its factors as pairs.
    fact, path = p13_factorization
    pairs = sum(map(sys.getsizeof, chain(fact.factors, *fact.factors)))
    tracemalloc.start()
    try:
        loaded = cli._read_json(str(path), factorization_from_payload)
        assert verify_factorization(loaded).passed and check_invariance(loaded)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < pairs / 2, kept / pairs
    assert loaded.factors == fact.factors
