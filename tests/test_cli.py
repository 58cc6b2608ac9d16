"""CLI surface: commands, exit codes, JSON emission, schema validity."""

import json
import os
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from ufdlab.claims import REGISTRY, report_schema
from ufdlab.cli import main

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


def test_claim_run_timeout_degrades_to_unknown(capsys):
    code = main(["claim", "run", "coeff.prime-avoid", "--timeout", "0.001"])
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "unknown"
    assert doc["bound"] == "timeout"


@pytest.mark.parametrize("caps", ["depth=3", "degree=abc"])
@pytest.mark.parametrize("argv", [["claim", "run", "cex.sseq"],
                                  ["claim", "run", "samuel.kernel"],
                                  ["claim", "run-all", "--suite", "acceptance"]])
def test_malformed_caps_is_usage_error_for_every_claim(argv, caps, monkeypatch, capsys):
    # cex.sseq reaches no cap site, so only the runner's own check sees the value
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


def test_reducible_jacobian_point_over_prime_field_exits_3(tmp_path, capsys):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"field": "GF(5)", "p": ["x^2 - 1"], "q": "x^2 - 1"}))
    assert main(["claim", "run", "jacobian.rank", "--params", str(path)]) == 3
    assert "q must be irreducible" in capsys.readouterr().err


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
