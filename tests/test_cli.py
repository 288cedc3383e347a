"""End-to-end command-line behavior: exit codes, piping, determinism."""

from __future__ import annotations

import copy
import json
import subprocess
import sys

import pytest

from starfact.cayley import build_model
from starfact.constructions import ConstructionError, complete_via_index2
from starfact.groups import make_group
from starfact.serialize import canonical_json, starter_from_payload, starter_payload
from starfact.starters import Starter, StarterSet

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
    m = build_model(g, g.subgroup([(2,)]))
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


def test_usage_errors_exit_64():
    assert run_cli("no-such-command").returncode == USAGE
    assert run_cli("search", "--group", "4").returncode == USAGE  # missing --H
    assert run_cli("search", "--group", "abc", "--H", "2").returncode == USAGE
    assert run_cli("search", "--group", "4", "--H", "1,1").returncode == USAGE
    assert run_cli("verify-starter", "-", stdin="{not json").returncode == USAGE
    assert run_cli("verify-starter", "-", stdin='{"x": 1}').returncode == USAGE
    assert run_cli("construct", "--family", "prime-power").returncode == USAGE
    assert run_cli("construct", "--family", "doubling").returncode == USAGE
    assert run_cli("search", "--group", "4", "--H", "2",
                   "--frobnicate").returncode == USAGE
    assert run_cli("search", "--group", "4", "--H", "2",
                   "--workers", "0").returncode == USAGE
    assert run_cli("verify-starter", "/no/such/file.json").returncode == USAGE


def test_invalid_family_parameters_exit_64():
    # p = 7 fails parameter validation before any assembly starts
    r = run_cli("construct", "--family", "prime-power", "--p", "7", "--v", "2")
    assert r.returncode == USAGE
    assert "not congruent" in r.stderr


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

    partial = starter_from_payload(_z2z6_tampered())
    A = partial.model.group.subgroup([(0, 1)])
    with pytest.raises(ConstructionError) as exc:
        complete_via_index2(partial.model, partial, A)
    assert str(exc.value) == (
        "partial starter cannot be completed: set 0: illegal edge (0, 0)~(1, 0);"
        " repeats differences: [(1, 1), (1, 5)];"
        " set 0: coset of (0, 1) has 0 marked endpoints (companion order 6);"
        " set 4: coset of (1, 0) has 0 marked endpoints (companion order 6);"
        " set 4: short edge (0, 0)~(1, 3) has difference (1, 3) outside its"
        " companion subgroup;"
        " uncovered differences inside the index-2 subgroup: [(0, 1), (0, 5)]"
    )

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


def test_star_import_resolves_every_exported_name():
    # a name left in __all__ after its definition is gone fails here
    exec("from starfact import *", {})
