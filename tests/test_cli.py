import contextlib
import hashlib
import io
import json
import resource
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import permcheck
import permcheck.cli
import permcheck.verifier
from conftest import NET, READ, ROOT, WRITE, make_system, src_env
from permcheck.kernel import EMPTY
from permcheck.model import Manifest, SysImgApp, emit_state, parse_state, state_to_doc
from permcheck.verifier import VerifierError

PERM_READ = {"id": "read", "group": "contacts", "level": "dangerous"}


def run_cli(*args, **kwargs):
    return subprocess.run([sys.executable, "-m", "permcheck", *args],
                          capture_output=True, text=True, env=src_env(), **kwargs)


def run_script(name, *args):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=src_env())


def limit_memory(size=1 << 30):
    resource.setrlimit(resource.RLIMIT_AS, (size, size))


def write_scenario(path, f1, actions):
    doc = {"systemPerms": [PERM_READ], "initial": state_to_doc(f1["sys"]),
           "actions": actions}
    path.write_text(json.dumps(doc))
    return str(path)


GRANT_AUTO_READ = {"op": "grantAuto", "perm": PERM_READ, "app": "a1"}


class TestRun:
    def test_single_grant_auto(self, tmp_path, f1):
        scenario = write_scenario(tmp_path / "s.json", f1, [GRANT_AUTO_READ])
        r = run_cli("run", scenario)
        assert r.returncode == 0, r.stderr
        final = parse_state(r.stdout)
        assert final.state.perms == frozenset((("a1", frozenset((READ,))),))

    def test_regrant_blocked_at_action_2(self, tmp_path, f1):
        scenario = write_scenario(tmp_path / "s.json", f1,
                                  [GRANT_AUTO_READ, GRANT_AUTO_READ])
        r = run_cli("run", scenario)
        assert r.returncode == 1
        assert "action 2" in r.stderr and "conjunct 3" in r.stderr

    def test_has_permission_reports_on_stderr(self, tmp_path, f1):
        scenario = write_scenario(
            tmp_path / "s.json", f1,
            [{"op": "hasPermission", "perm": PERM_READ, "app": "a1"},
             GRANT_AUTO_READ,
             {"op": "hasPermission", "perm": PERM_READ, "app": "a1"}])
        r = run_cli("run", scenario)
        assert r.returncode == 0
        assert "action 1: hasPermission -> false" in r.stderr
        assert "action 3: hasPermission -> true" in r.stderr

    def test_format_is_not_a_run_flag(self, tmp_path, f1):
        # run always prints the state document
        scenario = write_scenario(tmp_path / "s.json", f1, [GRANT_AUTO_READ])
        r = run_cli("run", scenario, "--format", "json")
        assert r.returncode == 2
        assert "--format" in r.stderr

    def test_malformed_file_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert run_cli("run", str(bad)).returncode == 2

    def test_missing_file_is_usage_error(self):
        assert run_cli("run", "/nonexistent.json").returncode == 2


class TestCheck:
    def test_empty_state_passes(self, tmp_path):
        p = tmp_path / "empty.json"
        p.write_text(emit_state(make_system()))
        r = run_cli("check", str(p))
        assert r.returncode == 0
        assert "allMapsCorrect.manifest: ok" in r.stdout

    def test_duplicate_key_perms_fails(self, tmp_path):
        sys_ = make_system(perms=frozenset((("a1", frozenset((READ,))),
                                            ("a1", frozenset((WRITE,))))))
        p = tmp_path / "bad.json"
        p.write_text(emit_state(sys_))
        r = run_cli("check", str(p))
        assert r.returncode == 1
        assert "allMapsCorrect.perms: FAIL" in r.stdout

    def test_unknown_field_is_parse_error(self, tmp_path):
        doc = json.loads(emit_state(make_system()))
        doc["state"]["mystery"] = 1
        p = tmp_path / "odd.json"
        p.write_text(json.dumps(doc))
        assert run_cli("check", str(p)).returncode == 2

    def test_json_format(self, tmp_path):
        p = tmp_path / "empty.json"
        p.write_text(emit_state(make_system()))
        r = run_cli("check", str(p), "--format", "json")
        doc = json.loads(r.stdout)
        assert doc["valid"] is True
        assert len(doc["clauses"]) == 8


SMALL = ("--apps", "1", "--perms", "1", "--grps", "1", "--maxcard", "1")


class TestVerify:
    def test_small_sampled_run_holds(self):
        r = run_cli("verify", "--suite", "security", *SMALL,
                    "--budget", "2000", "--seed", "7", "--format", "json")
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        verdicts = {v["query"]: v["verdict"] for v in doc["verdicts"]}
        assert verdicts["sec/cannotAutoGrantWithoutGroup"] == "holds-at-bounds"

    def test_identical_flags_and_seed_give_identical_verdicts(self):
        # separate processes: canonical order must not depend on hashing
        args = ("verify", "--suite", "security", *SMALL, "--budget", "1500",
                "--seed", "42", "--format", "json")
        a, b = run_cli(*args), run_cli(*args)
        va = json.loads(a.stdout)["verdicts"]
        vb = json.loads(b.stdout)["verdicts"]
        assert json.dumps(va) == json.dumps(vb)

    def test_budget_one_is_inconclusive(self):
        r = run_cli("verify", "--suite", "invariance", *SMALL, "--budget", "1")
        assert r.returncode == 3

    def test_no_witness_at_exhaustive_bounds_exits_1(self):
        # every query is exhaustive and none runs out of budget, but the
        # existential property has no witness
        r = run_cli("verify", "--apps", "1", "--perms", "1", "--grps", "1",
                    "--maxcard", "0")
        assert r.returncode == 1, r.stdout
        assert "no-witness-at-bounds" in r.stdout
        assert "budget-exhausted" not in r.stdout

    def test_wide_bounds_fit_in_one_gib(self):
        # no decode table grows with the bounds: 30 apps at maxcard 30 run
        # their 20 samples per query in well under 1 GiB of address space
        r = run_cli("verify", "--apps", "30", "--maxcard", "30", "--budget", "20",
                    preexec_fn=limit_memory, timeout=60)
        assert r.returncode == 3, r.stderr

    def test_a_long_sampled_run_holds_no_samples(self):
        # about 20 KB per sample at these bounds: holding the 8,000 samples
        # for the row used to end in MemoryError (exit 4) under 128 MiB
        r = run_cli("verify", "--suite", "security", "--apps", "30", "--perms", "1",
                    "--grps", "1", "--maxcard", "30", "--budget", "8000",
                    preexec_fn=lambda: limit_memory(128 << 20), timeout=120)
        assert r.returncode == 0, r.stderr

    def test_wide_permission_pool_fits_in_one_gib(self):
        # 99,999 permission triples: targeted families are built only up to
        # the budget, where they used to be built whole until MemoryError
        r = run_cli("verify", "--apps", "1", "--perms", "1", "--grps", "33332",
                    "--maxcard", "2", "--budget", "1",
                    preexec_fn=limit_memory, timeout=60)
        assert r.returncode == 3, r.stderr

    @pytest.mark.parametrize("bounds", [
        ("--apps", "2", "--perms", "1500", "--grps", "1500", "--budget", "1"),
        ("--apps", "20000", "--budget", "1", "--suite", "security"),
        ("--suite", "security", "--apps", "16000", "--perms", "1", "--grps", "1",
         "--maxcard", "16000", "--budget", "1"),
        ("--apps", "1", "--perms", "3", "--grps", "3", "--maxcard", "3",
         "--budget", "2718023665429180103786496"),
    ])
    def test_oversize_bounds_are_rejected_before_any_work(self, bounds):
        # the first two used to build pools until MemoryError (exit 4) under
        # 1 GiB; the third, inside the pair limit, ran for minutes decoding;
        # the fourth fits the whole (1,3,3,3) space, so its run would be
        # enumerated, decoding all 7.9e10 values of systemImage
        r = run_cli("verify", *bounds, preexec_fn=lambda: limit_memory(128 << 20),
                    timeout=5)
        assert r.returncode == 2, r.stderr
        lines = r.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), r.stderr

    def test_internal_error_exits_4_without_traceback(self, monkeypatch, capsys):
        def broken_suite(*args, **kwargs):
            raise VerifierError("unsound counterexample emitted for inv/x")

        monkeypatch.setattr(permcheck.cli, "run_suite", broken_suite)
        assert permcheck.cli.main(["verify", *SMALL]) == 4
        err = capsys.readouterr().err
        assert "internal error" in err and "unsound" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", [
        ("verify", "--suite", "security"),
        ("witness", "execAutoGrantWithoutIndividualPerms")])
    @pytest.mark.parametrize("target", ["_first_hits", "recheck"])
    def test_value_error_in_the_search_exits_4(self, monkeypatch, capsys,
                                                command, target):
        # a ValueError is a usage error only while bounds and inputs are
        # parsed; raised by the search or its recheck it is a crash
        def broken(*args):
            raise ValueError("too many values to unpack")

        monkeypatch.setattr(permcheck.verifier, target, broken)
        assert permcheck.cli.main([*command, *SMALL, "--budget", "1000"]) == 4
        err = capsys.readouterr().err
        assert err == "internal error: ValueError: too many values to unpack\n"

    @pytest.mark.parametrize("command", [
        ("verify",), ("witness", "execAutoGrantWithoutIndividualPerms")])
    def test_bounds_error_exits_2_before_the_search(self, monkeypatch, capsys,
                                                    command):
        monkeypatch.setattr(permcheck.verifier, "_first_hits", None)
        assert permcheck.cli.main([*command, *SMALL, "--budget", "0"]) == 2
        assert capsys.readouterr().err == "error: budget must be >= 1\n"

    def test_out_file(self, tmp_path):
        out = tmp_path / "report.json"
        r = run_cli("verify", "--suite", "security", *SMALL, "--budget", "1500",
                    "--format", "json", "--out", str(out))
        assert r.returncode == 0
        assert json.loads(out.read_text())["suite"] == "security"

    @pytest.mark.parametrize("command", [
        ("verify",), ("witness", "execAutoGrantWithoutIndividualPerms")])
    def test_bad_out_path_exits_2_before_the_search(self, monkeypatch, capsys,
                                                     tmp_path, command):
        # opened before the search, as a shell redirect is: a bad path
        # costs no search work
        def no_search(*args):
            raise AssertionError("searched")

        monkeypatch.setattr(permcheck.cli, "run_suite", no_search)
        monkeypatch.setattr(permcheck.cli, "check_query", no_search)
        out = str(tmp_path / "missing" / "report.json")
        assert permcheck.cli.main([*command, *SMALL, "--out", out]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines

    def test_bad_flag_is_usage_error(self):
        assert run_cli("verify", "--suite", "nope").returncode == 2

    def test_text_labels_each_verdict_with_its_stream_mode(self):
        # the whole space fits the budget: the witness is a hit of the
        # exhaustive enumeration, not of a sample
        r = run_cli("verify", "--suite", "security", *SMALL, "--budget", "100000")
        assert r.returncode == 0, r.stderr
        assert ("sec/execAutoGrantWithoutIndividualPerms: witness "
                "(18049 states, exhaustive)") in r.stdout.splitlines()
        r = run_cli("verify", "--suite", "security", *SMALL, "--budget", "1000")
        assert ("sec/execAutoGrantWithoutIndividualPerms: witness "
                "(1 states, sampled)") in r.stdout.splitlines()


class TestWitness:
    def test_witness_found_at_tiny_bounds(self):
        r = run_cli("witness", "execAutoGrantWithoutIndividualPerms", *SMALL,
                    "--format", "json")
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert doc["verdict"] == "witness"
        assert doc["property"] == "execAutoGrantWithoutIndividualPerms"
        assert doc["bindings"]["perm"]["level"] == "dangerous"
        assert doc["state"]["state"]["grantedPermGroups"]

    def test_text_labels_the_witness_with_its_stream_mode(self):
        r = run_cli("witness", "execAutoGrantWithoutIndividualPerms", *SMALL)
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines()[1] == "verdict: witness (18049 states, exhaustive)"
        # the JSON field still says the sweep stopped short of the space
        r = run_cli("witness", "execAutoGrantWithoutIndividualPerms", *SMALL,
                    "--format", "json")
        assert json.loads(r.stdout)["exhaustive"] is False

    def test_witness_found_at_default_max_card(self):
        # sampled space; the targeted family supplies the witness
        r = run_cli("witness", "execAutoGrantWithoutIndividualPerms",
                    "--apps", "1", "--perms", "1", "--grps", "1",
                    "--format", "json")
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)["verdict"] == "witness"

    def test_no_witness_at_max_card_zero(self):
        r = run_cli("witness", "execAutoGrantWithoutIndividualPerms",
                    "--apps", "1", "--perms", "1", "--grps", "1",
                    "--maxcard", "0")
        assert r.returncode == 1

    def test_unknown_property_is_usage_error(self):
        r = run_cli("witness", "somethingElse")
        assert r.returncode == 2

    def test_universal_property_is_not_witnessable(self):
        r = run_cli("witness", "cannotAutoGrantWithoutGroup", *SMALL)
        assert r.returncode == 2


def test_no_command_is_usage_error():
    assert run_cli().returncode == 2


def test_every_exported_name_resolves():
    assert len(set(permcheck.__all__)) == len(permcheck.__all__)
    for name in permcheck.__all__:
        assert hasattr(permcheck, name), name


@pytest.mark.parametrize("command", ["check", "run"])
def test_deeply_nested_json_is_parse_error(tmp_path, command):
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000 + "]" * 100_000)
    r = run_cli(command, str(nested))
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == "error: invalid JSON: nested too deeply\n"


def test_mutation_demo_reports_rechecked_counterexample():
    r = run_script("mutation_demo.py")
    assert r.returncode == 0, r.stderr
    assert "recheck: True" in r.stdout.splitlines()


def test_benchmark_self_check_passes():
    # the benchmark times each row by wrapping verifier.check_query and
    # reaches SystemSpace, targeted_states and recheck as verifier
    # attributes; its self-check fails when any of these goes missing
    r = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                        "--self-check"], capture_output=True, text=True,
                       timeout=300)
    assert r.returncode == 0, r.stdout + r.stderr


# -- malformed documents ----------------------------------------------------------

# every component non-empty, so every JSON path of a state document occurs
RICH = state_to_doc(make_system(
    apps=("a1", "a2"), verified=("a2",),
    mg=frozenset((("a1", frozenset(("contacts",))),)),
    perms=frozenset((("a1", frozenset((WRITE,))), ("a2", EMPTY))),
    manifest=frozenset((("a1", Manifest(frozenset((READ, NET)))),)),
    cert=frozenset((("a1", "cert1"),)),
    def_perms=frozenset((("a2", frozenset((READ,))),)),
    system_image=frozenset((SysImgApp("sys1", frozenset((WRITE,))),))))
SCENARIO = {"systemPerms": [PERM_READ], "initial": RICH,
            "actions": [GRANT_AUTO_READ,
                        {"op": "hasPermission", "perm": PERM_READ, "app": "a1"}]}


def json_paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for k, v in items:
        yield from json_paths(v, prefix + (k,))


def replaced(doc, path, value):
    if not path:
        return value
    head, *rest = path
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    out[head] = replaced(doc[head], rest, value)
    return out


MALFORMED = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(["", "a1", "contacts", "dangerous", "normal", "read"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["id", "group", "level", "use", "x"]),
                      inner, max_size=3),
    max_leaves=5)


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(["check", "run"]), data=st.data(),
       value=MALFORMED)
def test_one_malformed_path_never_crashes(tmp_path_factory, command, data, value):
    # check reads a state document, run a scenario whose initial state is one
    base = RICH if command == "check" else SCENARIO
    paths = list(json_paths(RICH))
    if command == "run":
        paths = [("initial",) + p for p in paths]
    path = data.draw(st.sampled_from(paths))
    doc_file = tmp_path_factory.getbasetemp() / "malformed.json"
    doc_file.write_text(json.dumps(replaced(base, path, value)))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = permcheck.cli.main([command, str(doc_file)])
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()


# Each document below has one malformed value at one JSON path.  The digest,
# from a known-good run, pins for every such document the exit code and the
# exact stdout and stderr (the ParseError text included) of `check` on a
# state document and of `run` on a scenario.  A change that keeps the JSON
# formats keeps it.
FAULTS = (None, 0, "", "x", [], {}, ["a1", "a1"])
FAULT_OUTCOMES_DIGEST = (
    "41943921729c0517c22cf9dc997c4ac1c531c6956aa0dc03e4a5979eeb5ad09b")


def test_single_fault_documents_match_recorded_outcomes(tmp_path):
    outcomes = []
    doc_file = tmp_path / "fault.json"
    for command, base in (("check", RICH), ("run", SCENARIO)):
        for path in json_paths(base):
            for value in FAULTS:
                doc_file.write_text(json.dumps(replaced(base, path, value)))
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = permcheck.cli.main([command, str(doc_file)])
                outcomes.append([command, list(path), value, code,
                                 out.getvalue(), err.getvalue()])
    text = json.dumps(outcomes)
    assert hashlib.sha256(text.encode()).hexdigest() == FAULT_OUTCOMES_DIGEST


# a key repeated at the root, inside the state and inside the first Perm:
# json.loads alone keeps the last value, which would make each document read
# as valid
@pytest.mark.parametrize("command, key", [
    ("check", "state"), ("check", "apps"), ("check", "id"),
    ("run", "systemPerms"), ("run", "apps"), ("run", "id")])
def test_a_repeated_key_is_parse_error(tmp_path, command, key):
    text = json.dumps(RICH if command == "check" else SCENARIO)
    doc_file = tmp_path / "repeated.json"
    doc_file.write_text(text.replace(f'"{key}": ', f'"{key}": null, "{key}": ', 1))
    r = run_cli(command, str(doc_file))
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert f"repeated field: {key}" in r.stderr
