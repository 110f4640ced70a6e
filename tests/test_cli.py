import argparse
import hashlib
import json
import os
import subprocess
import sys

import pytest

import cstarlab
from cstarlab.cli import _build_parser, run
from cstarlab.rng import mix64
from cstarlab.simplex import MeasureScheme, SimplexTower, build_tower
from cstarlab.walk import WalkParams, sample_trajectory


# reports holding a flagged weyl row: a normal pair whose certificate gap
# stays open, or a tolerance below rounding
FLAGGED_EXIT = {
    "579b2b9242a09be55383a5226bab2177ee460c27a379cabd87e2579b0e9f3f0c": 3,
    "d200a0180bef3f00bad55c4c06fb915c26f973070d09a5cda7a3b5715a39560f": 3,
}


def strip_header(path):
    with open(path) as handle:
        return [ln for ln in handle if not ln.startswith("#")]


def without_timestamp(path):
    """The report bytes without the timestamp line; a CSV config line stays."""
    with open(path, "rb") as handle:
        return b"".join(ln for ln in handle if not ln.startswith(b"# generated_at="))


def read_config_line(path):
    return json.loads(strip_header(path)[0])["config"]


class TestDeterminism:
    @pytest.mark.parametrize("argv_stub", [
        ["walk", "--p", "0.6", "--start", "1", "--length", "50", "--trials", "20"],
        ["sample", "--p", "0.4", "--scheme", "barycenter", "--trials", "200",
         "--horizon", "100"],
        ["simplex", "--p", "0.7", "--scheme", "faces", "--horizon", "40"],
        ["weyl", "--n", "3", "--trials", "5", "--ensemble", "hermitian"],
        ["cuntz", "--max-size", "5"],
        ["ktheory", "--max-size", "4"],
    ])
    def test_reports_byte_identical_modulo_timestamp(self, tmp_path, argv_stub):
        out = str(tmp_path / "report.out")
        seed = [] if argv_stub[0] in ("cuntz", "ktheory") else ["--seed", "11"]
        argv = argv_stub + seed + ["--output", out]
        assert run(argv) == 0
        first = strip_header(out)
        assert run(argv) == 0
        assert strip_header(out) == first

    # sha256 of the report bytes without the timestamp line, recorded from
    # the implementation that kept one TowerMap object per step; a change
    # here is a change of report bytes across versions, not just across runs
    @pytest.mark.parametrize("argv_stub, digest", [
        (["simplex", "--p", "0.7", "--scheme", "barycenter", "--horizon", "300", "--seed", "5"],
         "2562ba2ade81c18e81333e0143aebc042c4f86d6d262f98a55acd1317cd015a1"),
        (["simplex", "--p", "0.7", "--scheme", "vertices", "--horizon", "300", "--seed", "5"],
         "9b522478fc38eef1bc0fff85f4e0577df11526e2295aaf7b77072e49069f6391"),
        (["simplex", "--p", "0.7", "--scheme", "faces", "--horizon", "300", "--seed", "5"],
         "5a4424785672dc1e44d8ea85245618f05d1c6920df5b94d16acfb922465ba9ae"),
        (["sample", "--p", "0.45", "--scheme", "faces", "--trials", "100",
          "--horizon", "1200", "--seed", "7"],
         "e8d3157f2cdadec68a441de311427b9719fc1f5252b71657c2589494f6a5533d"),
        (["sample", "--p", "0.7", "--scheme", "vertices", "--trials", "100",
          "--horizon", "1200", "--seed", "7"],
         "4ae61bf5eef82003a03f2b46edb966f12540867c7f7a045bdc0fe91bb37cda01"),
        (["sample", "--p", "0.55", "--barrier", "absorbing", "--start", "4", "--scheme", "faces",
          "--trials", "100", "--horizon", "1200", "--seed", "5"],
         "d5b6dbd45867e6371bd8eafbc2ad9593aade696b9b52e0778af8dce00ce22320"),
        (["sample", "--p", "0.55", "--barrier", "absorbing", "--start", "4", "--scheme",
          "barycenter", "--trials", "100", "--horizon", "1200", "--seed", "2"],
         "503c3fbc653c3ab966e5687a8865c45cdd5170845a8a96261a9ef068fde67d84"),
        # every weyl digest was re-pinned when reports gained the `lower`
        # column; Hermitian values are otherwise unchanged since before
        # normal pairs moved to the aligned closed form
        (["weyl", "--n", "4", "--trials", "20", "--ensemble", "hermitian", "--seed", "3"],
         "d822ca08d5546ffc50989ed27e91d5baed0bc64cac52da9010c4fe97d323c009"),
        # aligning along the bottleneck's own matching moved d_u (and gap) of
        # trial 19 in the last bit; delta, lower and converged are unchanged
        (["weyl", "--n", "5", "--trials", "20", "--ensemble", "unitary", "--seed", "3"],
         "2c7f76eb158ed594beadc49ffea7e985ce344552f965aad110f2217eba458c5d"),
        # recorded before the subcommands shared one option table and renderer
        (["walk", "--p", "0.6", "--start", "1", "--length", "200", "--trials", "50", "--seed", "41"],
         "ee81f90a3c17b5a67ac7d7e85b718358bbca8fac9c6bdddb5852d10313a168ca"),
        (["walk", "--p", "0.6", "--start", "1", "--length", "200", "--trials", "50", "--seed", "41",
          "--format", "csv"],
         "540c1c1a78436c24fff62e6526cd920468687ccc82389f9ebc296fe2a88db9b8"),
        (["walk", "--config", "walk.json", "--p", "0.45"],
         "e8b5c93349e483ae7f43a2aa28689b4cb080570648d5d465ec2f64ac94e5bccc"),
        # beside the `lower` column, the one freeze rule of descent lowered
        # d_u (and gap) of trials 1, 7 and 11 in the last bits; aligning
        # along the bottleneck's own matching then moved d_u (and gap) of
        # trials 10 and 17 in the last bits; lower, converged and the exit
        # code are unchanged
        (["weyl", "--n", "4", "--trials", "20", "--ensemble", "normal", "--seed", "3",
          "--format", "csv"],
         "579b2b9242a09be55383a5226bab2177ee460c27a379cabd87e2579b0e9f3f0c"),
        (["weyl", "--n", "3", "--trials", "4", "--seed", "2", "--tol", "1e-30"],
         "d200a0180bef3f00bad55c4c06fb915c26f973070d09a5cda7a3b5715a39560f"),
        (["cuntz", "--max-size", "8"],
         "93d23cd8f9b2322431506004948d92546da78ebe45dd1763601e2dadc8203f87"),
        (["cuntz", "--max-size", "8", "--format", "csv"],
         "bcfcad06e9e16e59c6314d9adb9cc7ac8876591ca6b5f37bd917bc69ea3b2572"),
        (["ktheory", "--max-size", "8"],
         "16ad787c16196885e4f26d64a80ad81035849a29325c6180a69d4624a2871f96"),
        (["ktheory", "--max-size", "8", "--format", "csv"],
         "866149b9fab375d625b56a8c4610faa38b31a343b07fbef04c84fc8fa301eeed"),
    ])
    def test_reports_match_recorded_digests(self, tmp_path, monkeypatch, argv_stub, digest):
        # the config line records --output, so every run writes the same name
        monkeypatch.chdir(tmp_path)
        (tmp_path / "walk.json").write_text(json.dumps(
            {"p": 0.3, "initial": [[1, 0.5], [4, 0.5]], "length": 120, "trials": 40, "seed": 8}))
        assert run(argv_stub + ["--output", "report.jsonl"]) == FLAGGED_EXIT.get(digest, 0)
        assert hashlib.sha256(without_timestamp("report.jsonl")).hexdigest() == digest

    def test_different_seed_changes_monte_carlo_report(self, tmp_path):
        out1 = str(tmp_path / "a.out")
        out2 = str(tmp_path / "b.out")
        run(["walk", "--p", "0.5", "--length", "100", "--trials", "10",
             "--seed", "1", "--output", out1])
        run(["walk", "--p", "0.5", "--length", "100", "--trials", "10",
             "--seed", "2", "--output", out2])
        assert strip_header(out1) != strip_header(out2)


class TestValidation:
    def test_zero_trials_exits_2(self, tmp_path, capsys):
        rc = run(["sample", "--p", "0.4", "--trials", "0",
                  "--output", str(tmp_path / "x.jsonl")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "trials" in json.loads(err.strip())["error"]

    def test_bad_probability_exits_2(self, tmp_path):
        rc = run(["walk", "--p", "1.5", "--output", str(tmp_path / "x.jsonl")])
        assert rc == 2

    def test_missing_p_exits_2(self, tmp_path):
        rc = run(["sample", "--output", str(tmp_path / "x.jsonl")])
        assert rc == 2

    def test_unknown_command_exits_2(self):
        assert run(["frobnicate"]) == 2

    def test_nonconvergence_flag_exits_3(self, tmp_path):
        # a tolerance below rounding leaves the closed-form certificate gaps
        # (of order 1e-16..1e-15 here) uncertified; the report is still
        # written and the exit status signals the flags
        out = tmp_path / "w.csv"
        rc = run(["weyl", "--n", "3", "--trials", "2", "--seed", "2",
                  "--tol", "1e-30", "--output", str(out)])
        assert rc == 3
        assert out.exists()

    # exact stderr records; the first three were recorded before the
    # subcommands shared one option table
    @pytest.mark.parametrize("argv, error", [
        (["simplex", "--horizon", "10"], "--p is required"),
        (["weyl", "--n", "3", "--trials", "0"], "trials must be >= 1"),
        (["cuntz", "--config", "cfg.json"], "unknown config keys: ['seed']"),
        (["walk", "--p", "0.5", "--config", "missing.json"],
         "cannot read config file: [Errno 2] No such file or directory: 'missing.json'"),
        (["walk", "--p", "0.5", "--config", "."],
         "cannot read config file: [Errno 21] Is a directory: '.'"),
        (["simplex", "--p", "0.5", "--barrier", "absorbing", "--start", "0"],
         "trajectory too short to build a tower (absorbed immediately)"),
    ])
    def test_invalid_config_error_record(self, tmp_path, monkeypatch, capsys, argv, error):
        # cuntz has no seed, as a flag or as a config key
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"max_size": 3, "seed": 1}))
        assert run(argv + ["--output", "r.out"]) == 2
        captured = capsys.readouterr()
        assert captured.err == json.dumps({"error": error}) + "\n"
        assert captured.out == ""
        assert not (tmp_path / "r.out").exists()

    @pytest.mark.parametrize("argv", [
        ["sample", "--p", "0.4", "--trials", "20", "--horizon", "20"],
        ["simplex", "--p", "0.7", "--horizon", "20"],
    ])
    def test_json_only_commands_refuse_csv(self, tmp_path, capsys, argv):
        out = tmp_path / "r.csv"
        assert run(argv + ["--format", "csv", "--output", str(out)]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert argv[0] in error and "csv" in error
        assert not out.exists()

    def test_no_report_written_on_validation_failure(self, tmp_path):
        out = tmp_path / "x.jsonl"
        run(["sample", "--p", "0.4", "--trials", "0", "--output", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("initial", ["[1]", "5", "[[0, 0.5, 1]]", "[[1, null]]",
                                         '{"0": 1}', "[[0, 1]"])
    def test_initial_must_be_state_weight_pairs(self, tmp_path, capsys, initial):
        out = tmp_path / "x.jsonl"
        assert run(["walk", "--p", "0.5", "--initial", initial, "--output", str(out)]) == 2
        assert capsys.readouterr().err == json.dumps(
            {"error": "initial must be a JSON list of [state, weight] pairs"}) + "\n"
        assert not out.exists()

    # NaN fails neither a `< 0` test nor the sum test, and a report cannot
    # record it as JSON
    @pytest.mark.parametrize("argv, content", [
        (["--initial", "[[0, NaN], [3, 1.0]]"], "{}"),
        ([], '{"initial": [[0, NaN], [3, 1.0]]}'),
    ])
    def test_nan_initial_weight_exits_2(self, tmp_path, monkeypatch, capsys, argv, content):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(content)
        assert run(["walk", "--p", "0.5", "--config", "cfg.json", "--output", "r.out"] + argv) == 2
        assert capsys.readouterr().err == json.dumps(
            {"error": "initial weights must be nonnegative, got nan"}) + "\n"
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    # a start beside an initial distribution was recorded but never used
    @pytest.mark.parametrize("argv, content", [
        (["--start", "3", "--initial", "[[1, 1.0]]"], {}),
        (["--start", "0"], {"initial": [[1, 1.0]]}),
        (["--initial", "[[1, 1.0]]"], {"start": 3}),
        ([], {"start": 3, "initial": [[1, 1.0]]}),
    ])
    def test_start_beside_initial_exits_2(self, tmp_path, monkeypatch, capsys, argv, content):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(content))
        assert run(["walk", "--p", "0.5", "--config", "cfg.json", "--output", "r.out"] + argv) == 2
        assert capsys.readouterr().err == json.dumps(
            {"error": "start and initial both set the initial state; give one of them"}) + "\n"
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    def test_unwritable_output_exits_2_without_temp_file(self, tmp_path, capsys):
        out = tmp_path / "nodir" / "x.jsonl"
        assert run(["walk", "--p", "0.5", "--output", str(out)]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error.startswith("cannot write report: ")
        assert not (tmp_path / "nodir").exists()
        # the output path is an existing directory: the temporary file is
        # made beside it, and removed when the rename fails
        assert run(["walk", "--p", "0.5", "--output", str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().err)["error"].startswith("cannot write report: ")
        assert not list(tmp_path.parent.glob(".report-*"))


class TestConfigFile:
    def test_flags_win_over_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 0.3, "trials": 7, "length": 30}))
        out = str(tmp_path / "r.jsonl")
        rc = run(["walk", "--config", str(cfg), "--p", "0.6", "--output", out,
                  "--seed", "0"])
        assert rc == 0
        resolved = read_config_line(out)
        assert resolved["p"] == 0.6       # flag wins
        assert resolved["trials"] == 7    # config supplies the rest
        assert resolved["length"] == 30

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 0.3, "nope": 1}))
        assert run(["walk", "--config", str(cfg), "--output",
                    str(tmp_path / "r.jsonl")]) == 2

    @pytest.mark.parametrize("content", ["5", '["p"]', '"p"', "null"])
    def test_config_must_be_json_object(self, tmp_path, capsys, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(content)
        out = tmp_path / "r.jsonl"
        assert run(["walk", "--config", str(cfg), "--p", "0.5", "--output", str(out)]) == 2
        assert capsys.readouterr().err == json.dumps(
            {"error": "config file must hold a JSON object"}) + "\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, content, error", [
        (["walk"], {"p": [0.5]}, "p must be a finite number, got [0.5]"),
        (["walk"], {"p": 0.5, "seed": None}, "seed must be a finite number, got null"),
        (["walk"], {"p": 0.5, "q": {}}, "q must be a finite number, got {}"),
        (["walk"], {"p": 0.5, "start": None}, "start must be a finite number, got null"),
        (["walk"], {"p": 0.5, "barrier": ["absorbing"]},
         "barrier must be one of ['absorbing', 'reflecting']"),
        (["walk"], {"p": 0.5, "output": 5}, "output must be a path string"),
        (["weyl"], {"tol": [1e-8]}, "tol must be a finite number, got [1e-08]"),
        (["weyl"], {"ensemble": {"hermitian": 1}},
         "ensemble must be one of ['hermitian', 'normal', 'unitary']"),
        (["simplex"], {"p": 0.7, "seed": 1e400}, "seed must be a finite number, got Infinity"),
    ])
    def test_wrong_value_types_exit_2(self, tmp_path, monkeypatch, capsys, argv, content, error):
        # values of the wrong JSON type name their key; no report is written
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(content))
        assert run(argv + ["--config", "cfg.json"]) == 2
        assert capsys.readouterr().err == json.dumps({"error": error}) + "\n"
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    # a non-finite tolerance once certified every row (inf) or none (nan)
    @pytest.mark.parametrize("argv, content, error", [
        (["--tol", "inf"], {}, "tolerance must be positive and finite, got inf"),
        (["--tol", "nan"], {}, "tolerance must be positive and finite, got nan"),
        ([], {"tol": float("inf")}, "tolerance must be positive and finite, got inf"),
    ])
    def test_non_finite_tolerance_exits_2(self, tmp_path, monkeypatch, capsys, argv, content,
                                          error):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(content))
        assert run(["weyl", "--n", "2", "--trials", "2", "--config", "cfg.json"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.err == json.dumps({"error": error}) + "\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


    # config values of a type their flag refuses; every one of these ran
    # before config values were checked against the flags' key table
    @pytest.mark.parametrize("argv, content, key", [
        (["walk"], {"p": 0.5, "format": "xml"}, "format"),
        (["walk"], {"p": 0.5, "format": 3}, "format"),
        (["walk"], {"p": 0.5, "seed": 1.7}, "seed"),
        (["walk"], {"p": "0.5"}, "p"),
        (["walk"], {"p": True}, "p"),
        (["walk", "--p", "0.5", "--initial", "[[1.5, 1.0]]"], {}, "initial"),
        (["walk", "--p", "0.5", "--initial", "[[true, 1]]"], {}, "initial"),
        (["walk", "--p", "0.5", "--initial", '[["2", "1"]]'], {}, "initial"),
        (["weyl"], {"trials": 2, "tol": "1e-8"}, "tol"),
        (["cuntz"], {"max_size": 2.0}, "max_size"),
    ])
    def test_values_flags_refuse_exit_2(self, tmp_path, monkeypatch, capsys, argv, content, key):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(content))
        assert run(argv + ["--config", "cfg.json", "--output", "r.out"]) == 2
        captured = capsys.readouterr()
        assert json.loads(captured.err)["error"].startswith(key + " must be")
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    @pytest.mark.parametrize("argv, content", [
        (["walk", "--p", "1", "--start", "2", "--length", "20", "--trials", "3", "--seed", "4",
          "--format", "csv"],
         {"p": 1, "start": 2, "length": 20, "trials": 3, "seed": 4, "format": "csv"}),
        (["walk", "--p", "0.5", "--initial", "[[0, 1], [3, 0]]", "--barrier", "absorbing"],
         {"p": 0.5, "initial": [[0, 1], [3, 0]], "barrier": "absorbing"}),
        (["sample", "--p", "0.4", "--q", "0.6", "--barrier", "absorbing", "--start", "3",
          "--scheme", "faces", "--trials", "20", "--horizon", "30", "--seed", "2"],
         {"p": 0.4, "q": 0.6, "barrier": "absorbing", "start": 3, "scheme": "faces",
          "trials": 20, "horizon": 30, "seed": 2}),
        (["simplex", "--p", "1", "--q", "0", "--scheme", "vertices", "--horizon", "20"],
         {"p": 1, "q": 0, "scheme": "vertices", "horizon": 20}),
        (["weyl", "--n", "3", "--ensemble", "unitary", "--tol", "1", "--trials", "3",
          "--seed", "1", "--format", "json"],
         {"n": 3, "ensemble": "unitary", "tol": 1, "trials": 3, "seed": 1, "format": "json"}),
        (["cuntz", "--max-size", "3", "--format", "csv"], {"max_size": 3, "format": "csv"}),
        (["ktheory", "--max-size", "3"], {"max_size": 3}),
    ])
    def test_config_file_and_flags_give_the_same_report(self, tmp_path, monkeypatch, argv,
                                                        content):
        # an integral float from a file (`{"p": 1}`) is recorded as the flag
        # records it (1.0)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(content))
        assert run(argv + ["--output", "r.out"]) == 0
        from_flags = without_timestamp("r.out")
        assert run([argv[0], "--config", "cfg.json", "--output", "r.out"]) == 0
        assert without_timestamp("r.out") == from_flags


class TestParserSurface:
    # each subcommand's flags as (option, dest, type, choices), recorded from
    # the parser that listed argparse keywords per flag by hand
    COMMON = [("--config", "config", None, None), ("--seed", "seed", int, None),
              ("--output", "output", None, None), ("--format", "format", None, ["json", "csv"])]
    UNSEEDED = [COMMON[0], *COMMON[2:]]
    WALK = [("--p", "p", float, None), ("--q", "q", float, None),
            ("--barrier", "barrier", None, ["absorbing", "reflecting"]),
            ("--start", "start", int, None), ("--initial", "initial", None, None)]
    SCHEME = [("--scheme", "scheme", None, ["barycenter", "faces", "vertices"])]
    SURFACE = {
        "walk": COMMON + WALK + [("--length", "length", int, None),
                                 ("--trials", "trials", int, None)],
        "sample": COMMON + WALK + SCHEME + [("--trials", "trials", int, None),
                                            ("--horizon", "horizon", int, None)],
        "simplex": COMMON + WALK + SCHEME + [("--horizon", "horizon", int, None)],
        "weyl": COMMON + [("--n", "n", int, None),
                          ("--ensemble", "ensemble", None, ["hermitian", "normal", "unitary"]),
                          ("--tol", "tol", float, None), ("--trials", "trials", int, None)],
        "cuntz": UNSEEDED + [("--max-size", "max_size", int, None)],
        "ktheory": UNSEEDED + [("--max-size", "max_size", int, None)],
        "summary": [(None, "path", None, None)],
    }

    def test_flags_keep_their_names_types_and_choices(self):
        parser = _build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(self.SURFACE)
        for name, subparser in sub.choices.items():
            surface = [(" ".join(a.option_strings) or None, a.dest, a.type,
                        None if a.choices is None else list(a.choices))
                       for a in subparser._actions if not isinstance(a, argparse._HelpAction)]
            assert surface == self.SURFACE[name], name

    @pytest.mark.parametrize("command", ["cuntz", "ktheory"])
    def test_unseeded_commands_refuse_seed(self, tmp_path, capsys, command):
        # their reports draw nothing at random, so a seed would be ignored
        out = tmp_path / "r.jsonl"
        assert run([command, "--seed", "1", "--output", str(out)]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()


class TestParserReuse:
    """`run` parses every call with the process's one parser."""

    def test_second_run_constructs_no_parser(self, monkeypatch, capsys):
        assert run(["cuntz", "--help"]) == 0
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *a, **k: built.append(self) or init(self, *a, **k))
        assert run(["ktheory", "--help"]) == 0
        assert built == []

    @pytest.mark.parametrize("argv", [["--help"], ["weyl", "--help"], ["summary", "--help"]])
    def test_help_is_the_same_on_every_call(self, monkeypatch, capsys, argv):
        monkeypatch.setenv("COLUMNS", "80")
        texts = []
        for _ in range(2):
            assert run(argv) == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1] and texts[0].startswith("usage: cstarlab")

    @pytest.mark.parametrize("bad", [["cuntz", "--max-size", "x"], ["cuntz", "--bogus"],
                                     ["cuntz", "--max-size", "0"], ["nonsense"]])
    def test_failed_call_leaves_next_report_on_its_digest(self, tmp_path, monkeypatch, capsys,
                                                          bad):
        monkeypatch.chdir(tmp_path)
        assert run(bad + ["--output", "report.jsonl"]) == 2
        assert run(["cuntz", "--max-size", "8", "--output", "report.jsonl"]) == 0
        assert hashlib.sha256(without_timestamp("report.jsonl")).hexdigest() == (
            "93d23cd8f9b2322431506004948d92546da78ebe45dd1763601e2dadc8203f87")


class TestReports:
    def test_sample_report_schema(self, tmp_path):
        out = str(tmp_path / "s.jsonl")
        run(["sample", "--p", "0.4", "--scheme", "vertices", "--trials", "300",
             "--horizon", "200", "--seed", "3", "--output", out])
        config, record = map(json.loads, strip_header(out))
        assert set(record) == {"params", "scheme", "horizon", "trials", "estimate", "ci",
                               "diagnostics", "trace_space_class", "descriptor"}
        assert record["scheme"] == "vertices"
        assert record["params"] == {key: config["config"][key]
                                    for key in ("p", "q", "barrier", "initial")}
        assert record["params"] == {"p": 0.4, "q": 0.6, "barrier": "reflecting",
                                    "initial": [[0, 1.0]]}
        assert record["trace_space_class"] == "jiang_su"

    def test_weyl_csv_columns(self, tmp_path):
        out = str(tmp_path / "w.csv")
        rc = run(["weyl", "--n", "2", "--trials", "4", "--seed", "5", "--output", out])
        assert rc == 0
        body = strip_header(out)
        assert body[0].strip() == "trial,delta,d_u,lower,gap,converged"
        assert len(body) == 5

    def test_simplex_tower_roundtrips(self, tmp_path):
        out = str(tmp_path / "t.jsonl")
        run(["simplex", "--p", "0.8", "--scheme", "barycenter", "--horizon", "30",
             "--seed", "9", "--output", out])
        record = json.loads(strip_header(out)[1])
        tower = SimplexTower.from_json(json.dumps(record["tower"]))
        assert len(tower.dims) == 31

    def test_simplex_tower_cut_at_absorption(self, tmp_path):
        # 2 -> 1 -> 0 and absorbed: the tower stops at the first zero
        out = str(tmp_path / "t.jsonl")
        assert run(["simplex", "--p", "0.3", "--barrier", "absorbing", "--start", "2",
                    "--horizon", "50", "--seed", "3", "--output", out]) == 0
        assert json.loads(strip_header(out)[1])["tower"]["dims"] == [2, 1, 0]

    @pytest.mark.parametrize("scheme", ["barycenter", "vertices", "faces"])
    def test_simplex_tower_line_is_sorted_json(self, tmp_path, scheme):
        out = str(tmp_path / "t.jsonl")
        assert run(["simplex", "--p", "0.6", "--scheme", scheme, "--horizon", "80",
                    "--seed", "5", "--output", out]) == 0
        states = sample_trajectory(WalkParams.point(0.6), 81, 5).states
        tower = build_tower(list(states), MeasureScheme(scheme), mix64(5, 1))
        expected = json.dumps({"tower": json.loads(tower.to_json())}, sort_keys=True)
        assert strip_header(out)[1] == expected + "\n"

    def test_ktheory_report_values(self, tmp_path):
        out = str(tmp_path / "k.jsonl")
        run(["ktheory", "--max-size", "4", "--output", out])
        records = [json.loads(ln) for ln in strip_header(out)[1:]]
        assert records[0] == {"model": "toeplitz", "k0": "Z", "k1": "0",
                              "index_of_shift": -1}
        by_pair = {(r["p"], r["q"]): r for r in records[1:]}
        assert by_pair[(2, 3)]["k0"] == "Z" and by_pair[(2, 3)]["k1"] == "0"
        assert by_pair[(2, 4)]["k1"] == "Z/2"


class TestSummary:
    def test_weyl_summary(self, tmp_path, capsys):
        out = str(tmp_path / "w.csv")
        run(["weyl", "--n", "2", "--trials", "4", "--seed", "5", "--output", out])
        assert run(["summary", out]) == 0
        printed = capsys.readouterr().out
        assert "4 records" in printed
        assert "max |gap|" in printed

    def test_sample_summary(self, tmp_path, capsys):
        out = str(tmp_path / "s.jsonl")
        run(["sample", "--p", "0.4", "--trials", "100", "--horizon", "100",
             "--seed", "2", "--output", out])
        assert run(["summary", out]) == 0
        printed = capsys.readouterr().out
        assert "estimate" in printed

    def test_walk_summary(self, tmp_path, capsys):
        out = str(tmp_path / "w.jsonl")
        assert run(["walk", "--p", "0.5", "--trials", "4", "--length", "20",
                    "--output", out]) == 0
        assert run(["summary", out]) == 0
        assert "frequency_hit_zero 0.750000 over 4 trials" in capsys.readouterr().out.splitlines()

    def test_idempotent(self, tmp_path, capsys):
        out = str(tmp_path / "s.jsonl")
        run(["sample", "--p", "0.5", "--trials", "50", "--horizon", "50",
             "--seed", "2", "--output", out])
        run(["summary", out])
        first = capsys.readouterr().out
        run(["summary", out])
        assert capsys.readouterr().out == first

    def test_empty_report(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("# generated_at=now\n")
        assert run(["summary", str(empty)]) == 0
        assert "0 records" in capsys.readouterr().out

    def test_unreadable_exits_2(self, tmp_path):
        assert run(["summary", str(tmp_path / "missing.jsonl")]) == 2

    @pytest.mark.parametrize("body", [
        '{"config": {}}\n5\n',
        '{"config": {}}\n{"estimate": 0.5}\n',
        "# config={}\ntrial,delta,d_u,gap,converged\n0,0.1,0.2,x,1\n",
        "# config={}\ntrial,delta,d_u,gap,converged\n0,0.1,0.2\n",
    ])
    def test_malformed_report_exits_2(self, tmp_path, capsys, body):
        report = tmp_path / "r.out"
        report.write_text("# generated_at=now\n" + body)
        assert run(["summary", str(report)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert json.loads(captured.err)["error"].startswith("malformed report: ")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_weyl_summary_same_for_both_formats(self, tmp_path, capsys, fmt):
        out = str(tmp_path / "w.out")
        run(["weyl", "--n", "2", "--trials", "4", "--seed", "5", "--format", fmt,
             "--output", out])
        assert run(["summary", out]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "4 records"
        assert lines[1].startswith("max |gap| ") and lines[2].startswith("mean delta ")


def test_cli_import_loads_no_scipy():
    # scipy is imported where it is used, so starting the CLI does not pay for it
    src = os.path.dirname(os.path.dirname(cstarlab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, cstarlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout.strip() == "[]"


def test_orbits_load_no_sparse_scipy():
    # the orbit permutation comes from the bottleneck flow, so no orbit
    # loads scipy's sparse graph routines; the Schur form needs scipy.linalg
    src = os.path.dirname(os.path.dirname(cstarlab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, cstarlab.cli\n"
            "from cstarlab.rng import stream\n"
            "from cstarlab.transport import random_normal, random_unitary, unitary_distance\n"
            "rng = stream(5)\n"
            "unitary_distance(random_unitary(4, rng), random_unitary(4, rng))\n"
            "unitary_distance(random_normal(4, rng), random_normal(4, rng))\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout.strip() == "[]"


def test_cli_import_loads_no_numpy_random():
    # numpy.random is loaded at the first stream, so starting the CLI does not pay for it
    src = os.path.dirname(os.path.dirname(cstarlab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, cstarlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'random']))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout.strip() == "[]"
