"""CLI surface: commands, exit codes, JSON emission, schema validity."""

import dataclasses
import json
import os
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from ufdlab import constructions
from ufdlab.claims import REGISTRY, default_params, report_schema
from ufdlab.cli import main
from ufdlab.groebner import Ideal

PHAM_FIXTURE = str(
    resources.files("ufdlab").joinpath("fixtures").joinpath("ring.pham235.json")
)


def test_claim_list_prints_every_id(capsys):
    assert main(["claim", "list"]) == 0
    out = capsys.readouterr().out
    for cid in REGISTRY:
        assert cid in out


def test_claim_run_emits_schema_valid_json(capsys):
    assert main(["claim", "run", "cex.sseq"]) == 0
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, report_schema())
    assert doc["claim_id"] == "cex.sseq"
    assert doc["status"] == "verified"


def test_claim_run_out_writes_file_and_keeps_stdout_clean(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["claim", "run", "omega.basis", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "omega.basis" in captured.err
    doc = json.loads(out.read_text())
    assert doc["status"] == "verified"


def test_claim_run_params_file_overrides_fixture(tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"n": 5, "expect": [2, 3, 6, 24, 181]}))
    assert main(["claim", "run", "cex.sseq", "--params", str(params)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "refuted"


@pytest.mark.parametrize("n, code, status", [(20, 1, "refuted"), (21, 2, "unknown")])
def test_sseq_cap_keeps_the_report_printable(n, code, status, tmp_path, capsys):
    # s(20) has 3172 digits; s(21) would pass json's 4300-digit limit
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"n": n}))
    assert main(["claim", "run", "cex.sseq", "--params", str(params)]) == code
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == status
    if status == "unknown":
        assert doc["bound"] == "cap"
    else:
        assert len(doc["witness"]["values"]) == n


def test_claim_run_timeout_degrades_to_unknown(capsys):
    code = main(["claim", "run", "coeff.prime-avoid", "--timeout", "0.001"])
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "unknown"
    assert doc["bound"] == "timeout"


@pytest.mark.parametrize("timeout", ["inf", "nan", "0", "-1", "1e300"])
def test_claim_run_rejects_a_timeout_the_timer_cannot_take(timeout, capsys):
    assert main(["claim", "run", "omega.basis", "--timeout", timeout]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "timeout" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("caps", ["depth=3", "degree=abc", "degree=-1", "terms=0"])
@pytest.mark.parametrize("argv", [["claim", "run", "cex.sseq"],
                                  ["claim", "run", "samuel.kernel"],
                                  ["claim", "run-all", "--suite", "acceptance"]])
def test_malformed_caps_is_usage_error_for_every_claim(argv, caps, monkeypatch, capsys):
    # cex.sseq's one cap is the constant SSEQ_CAP, which never reads UFDLAB_CAPS,
    # so only the runner's own check sees the value
    monkeypatch.setenv("UFDLAB_CAPS", caps)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "UFDLAB_CAPS" in captured.err


def test_run_all_acceptance_exits_zero_with_json_array(capsys):
    assert main(["claim", "run-all", "--suite", "acceptance"]) == 0
    captured = capsys.readouterr()
    docs = json.loads(captured.out)
    assert [d["claim_id"] for d in docs] == list(REGISTRY)
    schema = report_schema()
    for doc in docs:
        jsonschema.validate(doc, schema)
        assert doc["status"] == "verified"
    # progress went to stderr, one line per claim
    assert len(captured.err.strip().splitlines()) == len(REGISTRY)


def test_run_all_is_deterministic_modulo_elapsed_ms(capsys):
    main(["claim", "run-all", "--suite", "acceptance"])
    first = json.loads(capsys.readouterr().out)
    main(["claim", "run-all", "--suite", "acceptance"])
    second = json.loads(capsys.readouterr().out)
    for doc in first + second:
        doc.pop("elapsed_ms")
    assert first == second


def test_usage_errors_exit_three(tmp_path, capsys):
    assert main(["claim", "run", "no.such.claim"]) == 3
    assert main(["claim", "run-all", "--suite", "bogus"]) == 3
    assert main(["claim", "run", "cex.sseq", "--params", "/no/such/file.json"]) == 3
    not_object = tmp_path / "p.json"
    not_object.write_text("[1, 2]")
    assert main(["claim", "run", "cex.sseq", "--params", str(not_object)]) == 3
    bad_json = tmp_path / "q.json"
    bad_json.write_text("{nope")
    assert main(["claim", "run", "cex.sseq", "--params", str(bad_json)]) == 3
    bool_for_int = tmp_path / "b.json"
    bool_for_int.write_text('{"trials": true, "queries": true}')
    assert main(["claim", "run", "groebner.soundness", "--params", str(bool_for_int)]) == 3
    for cid, params in [("groebner.soundness", {"trials": 0}),
                        ("groebner.soundness", {"trials": -1}),
                        ("cex.m-order", {"n_max": -1}),
                        ("wchain.regular", {"i_max": 0}),
                        ("coeff.prime-avoid", {"lo": 1, "hi": 0}),
                        ("samuel.kernel", {"field": "Q"}),
                        ("jacobian.rank", {"p": [3]}),
                        ("jacobian.rank", {"u": [None]}),
                        ("jacobian.rank", {"q": "x^2 + 1/0"})]:
        path = tmp_path / f"{cid}.json"
        path.write_text(json.dumps(params))
        assert main(["claim", "run", cid, "--params", str(path)]) == 3, (cid, params)
    assert main(["nonsense"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("error", [ValueError("a bug"), KeyError("a bug")],
                         ids=lambda err: type(err).__name__)
@pytest.mark.parametrize("argv", [["claim", "run", "cex.sseq"],
                                  ["claim", "run-all", "--suite", "acceptance"]])
def test_an_internal_error_exits_4_with_its_traceback(argv, error, monkeypatch, capsys):
    def handler(params):
        raise error

    spec = REGISTRY["cex.sseq"]
    monkeypatch.setitem(REGISTRY, "cex.sseq", dataclasses.replace(spec, handler=handler))
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback (most recent call last):" in captured.err
    assert f"{type(error).__name__}: {error}" in captured.err
    assert "in handler" in captured.err
    if argv[1] == "run-all":
        # each claim's progress line is printed as that claim ends
        before = list(REGISTRY)[:list(REGISTRY).index("cex.sseq")]
        assert len(before) == 12
        for cid in before:
            assert f"verified   {cid}\n" in captured.err


def test_a_chain_that_does_not_nest_is_an_internal_error(monkeypatch, capsys):
    # W_i <= W_(i-1) and J_i <= J_(i-1) hold for every nonzero b, s, t, so a
    # colon ideal that breaks the nesting is a bug in the engine, not a
    # caller mistake: J_1 = W_1 and then J_2 = (1) must exit 4, not 3
    answers = []

    def wrong_quotient(w, t):
        answers.append(w if not answers else Ideal(w.ring, (w.ring.one(),)))
        return answers[-1]

    monkeypatch.setattr(constructions, "ideal_quotient", wrong_quotient)
    assert main(["claim", "run", "wchain.regular"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback (most recent call last):" in captured.err
    assert "AssertionError: nesting failure: 1 in J_2 but not J_1" in captured.err


@pytest.mark.parametrize("cid, params, named", [
    ("pham.cases", {"reject": [2]}, "reject"),
    ("pham.cases", {"reject": [2, 0, 3]}, "reject"),
    ("samuel.kernel", {"vars": [[]], "a": "u", "b": "v"}, "vars"),
    ("samuel.kernel", {"vars": ["u", "v", "X 1"], "a": "u", "b": "v"}, "vars"),
    ("groebner.irreducible", {"vars": [[]]}, "vars"),
    # the bounds are i_max and not_in_max only; no single index overrides them
    ("omega.z-relations", {"i": 2}, "unknown parameter 'i'"),
    ("omega.z-relations", {"i": 1, "i_max": 3, "not_in_max": 4}, "unknown parameter 'i'"),
    # refused while parsing, before the handler runs
    ("samuel.kernel", {"a": "0", "b": "v"},
     "parameter 'a' of claim samuel.kernel: must be nonzero, got '0'"),
    ("lemma32.levels", {"b": "0"},
     "parameter 'b' of claim lemma32.levels: must be nonzero, got '0'"),
    ("jacobian.rank", {"q": "1"},
     "parameter 'q' of claim jacobian.rank: must be nonconstant, got '1'"),
    ("jacobian.rank", {"u": [1, 1]},
     "parameter 'u' of claim jacobian.rank: must have one entry per entry of p (1), got 2"),
    ("jacobian.rank", {"v": []},
     "parameter 'v' of claim jacobian.rank: must have one entry per entry of p (1), got 0"),
    ("jacobian.rank", {"p": ["x", "x^2"], "u": [1, 1], "v": [1, 1], "b": [3, 3]},
     "parameter 'a' of claim jacobian.rank: must have one entry per entry of p (2), got 1"),
    ("jacobian.rank", {"a": [2, 3]},
     "parameter 'a' of claim jacobian.rank: must have one entry per entry of p (1), got 2"),
    ("jacobian.rank", {"b": [3, 3]},
     "parameter 'b' of claim jacobian.rank: must have one entry per entry of p (1), got 2"),
    ("groebner.irreducible", {"field": "Q"},
     "parameter 'field' of claim groebner.irreducible: must be a prime field GF(p), got 'Q'"),
    ("coeff.prime-avoid", {"lo": 1, "hi": 0},
     "parameter 'hi' of claim coeff.prime-avoid: empty box: 0 is below lo = 1"),
    ("samuel.kernel", {"vars": [], "a": "1", "b": "1"},
     "parameter 'vars' of claim samuel.kernel: must end with the adjoined variable, got []"),
    ("samuel.kernel", {"a": "X", "b": "u"},
     "parameter 'a' of claim samuel.kernel: must not involve the adjoined variable 'X', got 'X'"),
    ("samuel.kernel", {"vars": ["u", "t"], "a": "u", "b": "u*t - 1"},
     "parameter 'b' of claim samuel.kernel: must not involve the adjoined variable 't', "
     "got 'u*t - 1'"),
    # the builders' own hypotheses, checked once when the handler builds the
    # instance; the error names the parameter that breaks the rule
    ("pham.cases", {"coprime_triple": [2, 4, 5]},
     "parameter 'coprime_triple' of claim pham.cases: case (2) fails: gcd(a_1, a_2) = 2 != 1"),
    ("pham.cases", {"chain": [2, 4, 6, 8]},
     "parameter 'chain' of claim pham.cases: case (1) fails: "
     "gcd(a_n, a_1*...*a_{n-1}) = 8 != 1"),
    ("jacobian.rank", {"p": ["x", "x^2"], "a": [2, 3], "b": [3, 2]},
     "parameter 'b' of claim jacobian.rank: gcd(a_2, b_1*...*b_2) = 3 != 1"),
    # every parameter is parsed before the builder runs, so the shipped a and
    # b, of one entry each, are refused first
    ("jacobian.rank", {"p": ["x", "x+1"]},
     "parameter 'a' of claim jacobian.rank: must have one entry per entry of p (2), got 1"),
    ("jacobian.rank", {"p": ["x", "2"]},
     "parameter 'a' of claim jacobian.rank: must have one entry per entry of p (2), got 1"),
    ("trinomial.validate", {"beta": [[2], [4], [5]], "lambdas": [1]},
     "parameter 'beta' of claim trinomial.validate: (D.2) violated: gcd(d_0, d_1) = 2 != 1"),
    ("jacobian.rank", {"p": ["x", "x+1"], "a": [2, 5], "b": [3, 3]},
     "parameter 'p' of claim jacobian.rank: p_i do not share a common radical: "
     "x has the factor x, prime to x + 1"),
    ("jacobian.rank", {"p": ["x", "2"], "a": [2, 5], "b": [3, 3]},
     "parameter 'p' of claim jacobian.rank: p_i must be nonconstant"),
])
def test_malformed_instances_exit_3_naming_the_parameter(cid, params, named, tmp_path, capsys):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    assert main(["claim", "run", cid, "--params", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert named in captured.err
    assert "Traceback" not in captured.err


_REQUIRED = [(cid, key) for cid, spec in REGISTRY.items()
             for key, param in spec.params.items() if param.required]


def test_required_parameters_are_declared():
    assert _REQUIRED == [("samuel.kernel", "a"), ("samuel.kernel", "b"),
                         ("trinomial.validate", "beta"), ("trinomial.validate", "lambdas"),
                         ("groebner.irreducible", "poly")]


@pytest.mark.parametrize("cid, key", _REQUIRED)
def test_left_out_required_parameter_exits_3_naming_it(cid, key, tmp_path, capsys):
    params = default_params(cid)
    del params[key]
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    assert main(["claim", "run", cid, "--params", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"parameter {key!r} of claim {cid} is required" in captured.err
    assert "Traceback" not in captured.err


_WRONG = [None, True, 2, 1.5, "x", [], {}]


def _wrong_shapes(shipped):
    """Values of another JSON type than `shipped`; for a list or a table also
    one whose single entry has another type than the shipped entries."""
    out = [w for w in _WRONG if type(w) is not type(shipped)]
    if isinstance(shipped, list):
        out += [[w] for w in _WRONG if type(w) is not type(shipped[0])]
    elif isinstance(shipped, dict):
        key = next(iter(shipped))
        out += [{key: w} for w in _WRONG if type(w) is not type(shipped[key])]
    return out


@pytest.mark.parametrize("cid", list(REGISTRY))
def test_every_parameter_rejects_wrong_shaped_values(cid, tmp_path, capsys):
    path = tmp_path / "params.json"
    wrong = []
    for key, param in REGISTRY[cid].params.items():
        for value in _wrong_shapes(param.default):
            path.write_text(json.dumps({**default_params(cid), key: value}))
            code = main(["claim", "run", cid, "--params", str(path)])
            captured = capsys.readouterr()
            if code != 3 or captured.out or "Traceback" in captured.err:
                wrong.append((key, value, code))
    assert wrong == []


def test_reducible_jacobian_point_over_prime_field_exits_3(tmp_path, capsys):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"field": "GF(5)", "p": ["x^2 - 1"], "q": "x^2 - 1"}))
    assert main(["claim", "run", "jacobian.rank", "--params", str(path)]) == 3
    assert "q must be irreducible" in capsys.readouterr().err


def test_jacobian_point_of_higher_degree_over_q_is_unknown(tmp_path, capsys):
    # Q[x]/(x^2 - 1) is not a field, and over Q nothing checks q, so the
    # rank over it proves nothing: the report says so instead of verifying
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"field": "Q", "p": ["x^2 - 1"], "q": "x^2 - 1"}))
    assert main(["claim", "run", "jacobian.rank", "--params", str(path)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "unknown"
    assert doc["bound"] == "q = x^2 - 1 is not checked to be irreducible over Q"
    assert doc["witness"] is None


def test_ring_export_cas_text(capsys):
    assert main(["ring", "export", "--input", PHAM_FIXTURE, "--format", "cas-text"]) == 0
    out = capsys.readouterr().out
    assert "var X1 weight 15" in out
    assert "var X2 weight 10" in out
    assert "var Z weight 6" in out
    assert "rel Z^5 + X2^3 + X1^2" in out


def test_ring_export_json_round_trips(capsys):
    assert main(["ring", "export", "--input", PHAM_FIXTURE, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    with open(PHAM_FIXTURE) as fh:
        assert doc == json.load(fh)


def test_ring_export_rejects_bad_inputs(tmp_path, capsys):
    assert main(["ring", "export", "--input", "/missing.json", "--format", "json"]) == 3
    junk = tmp_path / "junk.json"
    junk.write_text(json.dumps({"not": "a presentation"}))
    assert main(["ring", "export", "--input", str(junk), "--format", "json"]) == 3
    assert (
        main(["ring", "export", "--input", PHAM_FIXTURE, "--format", "xml"]) == 3
    )
    capsys.readouterr()
    # a null weight on one variable, a float weight, an invertible flag, a
    # variable name the parser cannot read back, a field name that is not text;
    # the error names the offending variable or value
    for name, key, value, shown in (("Z", "weight", None, "'Z'"),
                                    ("X1", "weight", 15.0, "'X1'"),
                                    ("X1", "invertible", "no", "'X1'"),
                                    ("X1", "invertible", True, "'X1'"),
                                    ("X1", "name", 7, "7"),
                                    ("X1", "name", "X 1", "'X 1'"),
                                    (None, "field", 5, "5")):
        with open(PHAM_FIXTURE) as fh:
            doc = json.load(fh)
        target = doc if name is None else next(v for v in doc["variables"] if v["name"] == name)
        target[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["ring", "export", "--input", str(bad), "--format", "json"]) == 3, value
        assert shown in capsys.readouterr().err, value


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "claim" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [[], ["claim"], ["ring"]])
def test_missing_subcommand_is_usage_error(argv, capsys):
    assert main(argv) == 3
    capsys.readouterr()


def test_cli_import_does_not_load_numpy():
    env = dict(os.environ)
    src = str(resources.files("ufdlab").parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, ufdlab.cli; print('numpy' in sys.modules, 'jsonschema' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    numpy_loaded, jsonschema_loaded = done.stdout.split()
    assert numpy_loaded == "False"
    assert jsonschema_loaded == "False"


def test_reader_closing_stdout_early_keeps_the_exit_code():
    env = dict(os.environ)
    src = str(resources.files("ufdlab").parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for argv in (["claim", "run", "cex.sseq"], ["claim", "list"],
                 ["ring", "export", "--input", PHAM_FIXTURE, "--format", "cas-text"]):
        proc = subprocess.Popen([sys.executable, "-m", "ufdlab.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()  # the reader is gone before anything is written
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, argv
        assert b"Traceback" not in err and b"BrokenPipeError" not in err, argv
