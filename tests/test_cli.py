import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import haar_unitary
from dgbs.cli import main
from dgbs.experiment import sample_patterns, simulate_records
from dgbs.hafnian import DetectionPattern
from dgbs.probability import (ModelSpec, PatternDistribution, StateKernel,
                              all_patterns, distribution_from_kernel)
from dgbs.serialize import (canonical_json, config_hash, load_config,
                            matrix_from_json, matrix_to_json,
                            source_from_config, transfer_from_config)
from dgbs.states import build_classical_input, build_input_state, propagate


@pytest.fixture
def config_path(tmp_path):
    u = haar_unitary(3, seed=42)
    cfg = {
        "version": 1,
        "source": {"r": 0.35, "alpha_mag": 0.6, "phi": 0.0,
                   "squeezer_ports": [0, 1], "coherent_port": 2},
        "transfer": {"t": matrix_to_json(math.sqrt(0.6) * u)},
        "second_input_port": None,
        "phi_grid": {"start": 0.0, "stop": 4 * math.pi, "num": 32},
        "pulses_per_setting": "inf",
        "include_collisions": True,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestSerialize:
    def test_matrix_round_trip(self):
        m = np.array([[1 + 2j, 0.5], [0, -1j]])
        assert np.array_equal(matrix_from_json(matrix_to_json(m)), m)

    def test_config_hash_stable_under_key_order(self):
        assert config_hash({"a": 1, "b": [2, 3]}) == \
            config_hash({"b": [2, 3], "a": 1})

    def test_version_checked(self, tmp_path):
        from dgbs.errors import SchemaError
        p = tmp_path / "bad.json"
        p.write_text('{"version": 99}')
        with pytest.raises(SchemaError):
            load_config(str(p))

    def test_canonical_json_compact(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'


class TestProbs:
    def test_byte_identical_reruns(self, config_path, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["probs", "--config", config_path, "--n-max", "2",
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_payload_structure(self, config_path, tmp_path):
        out = tmp_path / "p.json"
        main(["probs", "--config", config_path, "--n-max", "2",
              "--model", "korder(1)", "--out", str(out)])
        obj = json.loads(out.read_text())
        assert obj["model"] == "korder(1)"
        assert set(obj["distributions"]) == {"1", "2"}
        assert len(obj["config_hash"]) == 16

    def test_missing_config_is_usage_error(self):
        assert main(["probs", "--config", "/nonexistent.json"]) == 2


class TestSimulateReconstruct:
    def test_pipeline(self, config_path, tmp_path):
        recs = tmp_path / "recs.csv"
        assert main(["simulate", "--config", config_path,
                     "--out", str(recs)]) == 0
        out = tmp_path / "recon.json"
        assert main(["reconstruct", "--records", str(recs),
                     "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["d"] == 3
        assert obj["gamma"] == sorted(obj["gamma"], key=lambda _: 0)  # list

    def test_simulate_deterministic(self, config_path, tmp_path):
        texts = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            main(["simulate", "--config", config_path, "--seed", "5",
                  "--out", str(out)])
            texts.append(out.read_text())
        assert texts[0] == texts[1]


class TestCompare:
    def test_tvd_output(self, config_path, tmp_path):
        out = tmp_path / "cmp.json"
        assert main(["compare", "--config", config_path, "--model", "full",
                     "--model-b", "classical", "--n-max", "2",
                     "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert set(obj["tvd_by_total"]) == {"1", "2"}
        assert all(0 <= v <= 1 for v in obj["tvd_by_total"].values())

    def test_likelihood_from_samples(self, config_path, tmp_path):
        samples = tmp_path / "s.csv"
        main(["sample", "--config", config_path, "--pulses", "300",
              "--n-max", "2", "--out", str(samples)])
        out = tmp_path / "cmp.json"
        assert main(["compare", "--config", config_path, "--model", "full",
                     "--model-b", "korder(0)", "--n-max", "2",
                     "--samples", str(samples), "--min-photons", "2",
                     "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["likelihood"]["samples"] >= 0


class TestSample:
    def test_classical_model_samples_the_surrogate(self, config_path,
                                                   tmp_path):
        config = load_config(config_path)
        transfer = transfer_from_config(config)
        state = propagate(build_classical_input(source_from_config(config),
                                                transfer.d), transfer)
        table = sample_patterns(state, ModelSpec("classical"), 2000, 2, 7)
        header = (f"# dgbs sample config_hash={config_hash(config)} "
                  "seed=7\n")
        outs = {}
        for model in ("classical", "full"):
            out = tmp_path / f"{model}.csv"
            assert main(["sample", "--config", config_path, "--model", model,
                         "--pulses", "2000", "--n-max", "2", "--seed", "7",
                         "--out", str(out)]) == 0
            outs[model] = out.read_text()
        assert outs["classical"] == header + table.to_csv()
        assert outs["classical"] != outs["full"]


class TestLockOracle:
    def test_lock_output(self, config_path, tmp_path):
        out = tmp_path / "lock.json"
        assert main(["lock", "--config", config_path, "--duration", "20",
                     "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["residual_std"] >= 0
        assert len(obj["trace_phi"]) == len(obj["trace_times"])

    def test_oracle_agreement(self, config_path, tmp_path):
        out = tmp_path / "oracle.json"
        assert main(["oracle", "--config", config_path,
                     "--pattern", "1,1,0", "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["abs_diff"] < 1e-6


def write_config(tmp_path, d, seed, source, name="cfg.json"):
    u = haar_unitary(d, seed=seed)
    cfg = {"version": 1, "source": source,
           "transfer": {"t": matrix_to_json(math.sqrt(0.6) * u)}}
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ["probs", "--model", "korder"],
        ["probs", "--model", "korder(x)"],
        ["compare", "--model-b", "korder(x)"],
        ["oracle", "--pattern", "a,b"],
        ["probs", "--n-max", "-1"],
        ["sample", "--n-max", "-1"],
        ["compare", "--model-b", "full", "--n-max", "-1"],
        ["sample", "--pulses", "-1"],
        ["nan-config", "probs"],
    ])
    def test_usage_error_exits_2(self, argv, config_path, tmp_path, capsys):
        if argv[0] == "nan-config":
            text = open(config_path).read().replace('"r": 0.35', '"r": NaN')
            config_path = tmp_path / "nan.json"
            config_path.write_text(text)
            argv = argv[1:]
        code = main(argv[:1] + ["--config", str(config_path)] + argv[1:])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("dgbs:")
        assert "Traceback" not in err

    def test_bare_korder_takes_k(self, config_path, tmp_path):
        out = tmp_path / "p.json"
        assert main(["probs", "--config", config_path, "--model", "korder",
                     "--k", "1", "--n-max", "1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["model"] == "korder(1)"


class TestCompareTables:
    def test_each_table_built_once(self, config_path, tmp_path, monkeypatch):
        import dgbs.cli
        import dgbs.metrics
        from dgbs.probability import distribution_from_kernel
        samples = tmp_path / "s.csv"
        main(["sample", "--config", config_path, "--pulses", "300",
              "--n-max", "3", "--out", str(samples)])
        calls = []

        def counting(kernel, total, *args, **kw):
            calls.append(total)
            return distribution_from_kernel(kernel, total, *args, **kw)

        for mod in (dgbs.cli, dgbs.metrics):
            monkeypatch.setattr(mod, "distribution_from_kernel", counting,
                                raising=False)
        assert main(["compare", "--config", config_path, "--model", "full",
                     "--model-b", "korder(1)", "--n-max", "2",
                     "--samples", str(samples),
                     "--out", str(tmp_path / "cmp.json")]) == 0
        # N = 1, 2 for the TVD, plus N = 0 and 3 seen only in the samples
        assert sorted(calls) == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_zero_probability_samples_do_not_crash(self, tmp_path):
        # without squeezing the squeezer-only model gives every N >= 1
        # sample probability 0, so every such sample is flagged
        cfg = write_config(tmp_path, 3, 42, {
            "r": 0.0, "alpha_mag": 0.6, "phi": 0.0,
            "squeezer_ports": [0, 1], "coherent_port": 2})
        samples = tmp_path / "s.csv"
        assert main(["sample", "--config", cfg, "--n-max", "2",
                     "--pulses", "2000", "--out", str(samples)]) == 0
        out = tmp_path / "cmp.json"
        assert main(["compare", "--config", cfg, "--model", "full",
                     "--model-b", "squeezer_only", "--n-max", "2",
                     "--samples", str(samples), "--out", str(out)]) == 0
        like = json.loads(out.read_text())["likelihood"]
        assert like["flagged"] > 0
        assert like["log_ratio"] == 0.0     # only N=0 samples are unflagged


class TestBadInput:
    @pytest.mark.parametrize("duration", ["0", "-1", "0.05", "nan", "inf"])
    def test_lock_duration_below_one_drift_step(self, duration, config_path,
                                                capsys):
        # the default drift step is 0.1 s
        code = main(["lock", "--config", config_path,
                     "--duration", duration])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("dgbs:") and "Traceback" not in err

    def test_drift_trace_needs_one_step(self):
        from dgbs.errors import ConfigurationError
        from dgbs.experiment import DriftModel
        rng = np.random.default_rng(0)
        assert len(DriftModel().trace(0.1, rng)) == 1
        for duration in (0.0, -1.0, 0.04, math.nan, math.inf):
            with pytest.raises(ConfigurationError):
                DriftModel().trace(duration, rng)

    @pytest.mark.parametrize("kind", [
        "threefolds_not_json", "threefolds_no_total", "threefolds_bad_row",
        "threefolds_other_d", "threefolds_other_d_no_fallback",
        "records_bad_counts", "samples_not_hex", "samples_mask_beyond_d"])
    def test_malformed_file_exits_2(self, kind, config_path, tmp_path,
                                    capsys):
        if kind.endswith("no_fallback"):
            # d = 4 with a second input port: every entry is determined,
            # so reconstruct itself never reads the threefolds
            cfg = json.loads(open(config_path).read())
            cfg["transfer"] = {"t": matrix_to_json(
                math.sqrt(0.6) * haar_unitary(4, seed=42))}
            cfg["second_input_port"] = 3
            config_path = str(tmp_path / "d4.json")
            (tmp_path / "d4.json").write_text(json.dumps(cfg))
        records = tmp_path / "recs.csv"
        assert main(["simulate", "--config", config_path,
                     "--out", str(records)]) == 0
        bad = tmp_path / "bad"
        header = "pulse,bitmask_hex,phi\n0,3,0\n"
        if kind == "threefolds_not_json":
            bad.write_text("not json")
        elif kind == "threefolds_no_total":
            bad.write_text(json.dumps({"d": 3, "collision_free": True,
                                       "patterns": [[1, 1, 1]],
                                       "probabilities": [1.0]}))
        elif kind == "threefolds_bad_row":   # (2, 0, 0) is not a threefold
            bad.write_text(json.dumps({"d": 3, "total": 3,
                                       "collision_free": False,
                                       "patterns": [[2, 0, 0]],
                                       "probabilities": [1.0]}))
        elif kind.startswith("threefolds_other_d"):   # valid, but for d = 9
            pats = all_patterns(9, 3, collision_free=True)
            bad.write_text(PatternDistribution(
                9, 3, True, pats, np.full(len(pats), 1 / len(pats))).to_json())
        elif kind == "records_bad_counts":
            lines = records.read_text().splitlines()
            fields = lines[2].split(",")
            fields[3] = "many"
            lines[2] = ",".join(fields)
            records.write_text("\n".join(lines) + "\n")
        else:
            mask = "zz" if kind == "samples_not_hex" else "ff"
            bad.write_text(header + f"1,{mask},0\n")
        if kind.startswith("samples"):
            argv = ["compare", "--config", config_path, "--model-b", "full",
                    "--samples", str(bad)]
        else:
            argv = ["reconstruct", "--records", str(records)]
            if kind.startswith("threefolds"):
                argv += ["--threefolds", str(bad)]
        code = main(argv + ["--out", str(tmp_path / "out.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("dgbs:") and "Traceback" not in err

    def test_threefolds_with_empty_records_exit_1(self, tmp_path, capsys):
        # with no records there is no d to check the threefolds against;
        # the missing settings are the error
        records, three = tmp_path / "recs.csv", tmp_path / "three.json"
        records.write_text("setting,phi,modes,counts,pulses\n")
        three.write_text(json.dumps({"d": 3, "total": 3,
                                     "collision_free": True,
                                     "patterns": [[1, 1, 1]],
                                     "probabilities": [1.0]}))
        code = main(["reconstruct", "--records", str(records),
                     "--threefolds", str(three),
                     "--out", str(tmp_path / "out.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("dgbs: missing measurement settings") and \
            "Traceback" not in err

    @pytest.mark.parametrize("mask", ["3g", "8"])
    def test_bad_mask_after_repeats_names_its_line(self, mask, config_path,
                                                   tmp_path, capsys):
        # a valid mask parsed once and then repeated does not hide a bad
        # one after it: line 1 is the header, lines 2-501 repeat mask 3
        samples = tmp_path / "samples.csv"
        samples.write_text("pulse,bitmask_hex,phi\n"
                           + "".join(f"{i},3,0\n" for i in range(500))
                           + f"500,{mask},0\n501,3,0\n")
        code = main(["compare", "--config", config_path, "--model-b", "full",
                     "--samples", str(samples),
                     "--out", str(tmp_path / "out.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert f"samples line 502: ['{mask}'] is not a bitmask over 3 modes" \
            in err and "Traceback" not in err

    @pytest.mark.parametrize("kind", ["samples", "records"])
    def test_bad_line_number_counts_the_comment(self, kind, config_path,
                                                tmp_path, capsys):
        # line 1 of a file that `sample` or `simulate` writes is its
        # `# dgbs ...` comment, line 2 the CSV header, line 3 the first row
        path = tmp_path / "data.csv"
        command = ["sample", "--pulses", "5"] if kind == "samples" \
            else ["simulate"]
        assert main([*command, "--config", config_path,
                     "--out", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# dgbs")
        fields = lines[2].split(",")
        if kind == "samples":
            fields[1] = "zz"
            argv = ["compare", "--config", config_path, "--model-b", "full",
                    "--samples", str(path)]
            message = "samples line 3: ['zz'] is not a bitmask over 3 modes"
        else:
            fields[0] = "input3"
            argv = ["reconstruct", "--records", str(path)]
            message = "line 3: unknown setting 'input3'"
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        code = main(argv + ["--out", str(tmp_path / "out.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("setting", ["blocked", "input1"])
    def test_zero_vacuum_rate_exits_1(self, setting, config_path, tmp_path,
                                      capsys):
        # every rate is divided by the vacuum rate of its phi column
        records = tmp_path / "recs.csv"
        assert main(["simulate", "--config", config_path,
                     "--out", str(records)]) == 0
        comment, header, *rows = records.read_text().splitlines()
        i = next(i for i, row in enumerate(rows)
                 if row.startswith(f"{setting},") and ",vac," in row)
        _, phi, _, _, pulses = rows[i].split(",")
        rows[i] = f"{setting},{phi},vac,0,{pulses}"
        records.write_text("\n".join([comment, header, *rows]) + "\n")
        code = main(["reconstruct", "--records", str(records),
                     "--out", str(tmp_path / "out.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"dgbs: {setting}: vacuum rate is 0") and \
            "Traceback" not in err and err.count("\n") == 1
        if phi:
            assert f"at phi {float(phi)}" in err

    @pytest.mark.parametrize("kind", [
        "missing_cell", "duplicate_cell", "label_x:y", "label_foo",
        "pair_beyond_d", "missing_single", "single_far_beyond_d",
        "pulses_disagree", "unknown_setting"])
    def test_malformed_records_exit_2(self, kind, config_path, tmp_path,
                                      capsys):
        records = tmp_path / "recs.csv"
        assert main(["simulate", "--config", config_path,
                     "--out", str(records)]) == 0
        comment, header, *rows = records.read_text().splitlines()
        setting, phi, _, counts, pulses = rows[-1].split(",")
        if kind == "missing_cell":
            rows.pop()
        elif kind == "duplicate_cell":
            rows.append(rows[-1])
        elif kind.startswith("label_"):
            rows.append(f"{setting},{phi},{kind[6:]},{counts},{pulses}")
        elif kind == "pair_beyond_d":   # the config has d = 3
            rows.append(f"{setting},{phi},0:3,{counts},{pulses}")
        elif kind == "missing_single":
            rows = [r for r in rows if r.split(",")[2] != "1"]
        elif kind == "single_far_beyond_d":   # must not allocate its table
            rows.append(f"{setting},{phi},{10 ** 12},{counts},{pulses}")
        elif kind == "pulses_disagree":
            rows[-1] = rows[-1].rsplit(",", 1)[0] + ",1000"
        else:
            rows[-1] = "input3," + rows[-1].split(",", 1)[1]
        records.write_text("\n".join([comment, header, *rows]) + "\n")
        code = main(["reconstruct", "--records", str(records),
                     "--out", str(tmp_path / "out.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("dgbs:") and "Traceback" not in err


# Rows of a valid records file; line 1-2 of the file are comments, line 3
# the header, so row i is on line 4 + i.
RECORDS = ["blocked,,vac,900,1000", "blocked,,0,40,1000",
           "blocked,,1,40,1000", "blocked,,0:1,20,1000",
           "input1,0,vac,400,500", "input1,0,0,30,500", "input1,0,1,30,500",
           "input1,0,0:1,10,500", "input1,1.5,vac,400,500",
           "input1,1.5,0,30,500", "input1,1.5,1,30,500",
           "input1,1.5,0:1,10,500"]
# Rows of a valid samples file over 3 modes, with the same line numbers.
SAMPLES = ["0,1,0", "1,discard,0", "2,3,0", "3,1,0"]
RECORDS_HEADER = "setting,phi,modes,counts,pulses"
SAMPLES_HEADER = "pulse,bitmask_hex,phi"


class TestReaderErrors:
    """Every error of the records and samples readers: exit 2 and exactly
    one message line, whose line numbers count the leading comments."""

    @pytest.mark.parametrize("edits, message", [
        ({"header": "setting,phi,modes,counts"},
         "records CSV must start with the standard header"),
        ({2: "blocked,,1,40"}, "line 6: expected 5 columns"),
        ({5: "input1,0,0,30,500,1"}, "line 9: expected 5 columns"),
        ({1: "input3,,0,40,1000"}, "line 5: unknown setting 'input3'"),
        ({5: "input1,abc,0,30,500"},
         "input1: could not convert string to float: 'abc'"),
        ({5: "input1,nan,0,30,500"}, "input1: bad phi 'nan'"),
        ({0: "blocked,0,vac,900,1000"}, "blocked: bad phi '0'"),
        ({3: "blocked,,0:1:1,20,1000"}, "blocked: bad modes label '0:1:1'"),
        ({6: "input1,0,x,30,500"}, "input1: bad modes label 'x'"),
        ({4: "input1,0,vac,400,many"},
         "input1: could not convert string to float: 'many'"),
        ({4: "input1,0,vac,400,600"}, "input1: rows must share one positive "
         "pulses value, got [500.0, 600.0]"),
        ({i: RECORDS[i][:-4] + "0" for i in range(4)},
         "blocked: rows must share one positive pulses value, got [0.0]"),
        ({9: "input1,1.5,0,lots,500"},
         "input1: could not convert string to float: 'lots'"),
        ({6: "input1,0,0,30,500"},
         "input1: '0' row at phi 0.0 appears 2 times"),
        ({11: None}, "input1: '0:1' row at phi 1.5 appears 0 times"),
        ({3: "blocked,,7,20,1000"}, "blocked: 4 rows leave most of the "
         "table of 8 modes x 1 phi values empty"),
        ({0: "blocked,,vac,2000,1000"}, "blocked: rates outside [0,1]"),
    ])
    def test_records(self, edits, message, tmp_path, capsys):
        path = tmp_path / "records.csv"
        path.write_text(self.text(RECORDS_HEADER, RECORDS, edits))
        code = main(["reconstruct", "--records", str(path),
                     "--out", str(tmp_path / "out.json")])
        assert (code, capsys.readouterr().err) == (2, f"dgbs: {message}\n")

    @pytest.mark.parametrize("edits, message", [
        ({"header": "pulse,mask,phi"},
         "samples CSV must have header pulse,bitmask_hex,phi"),
        ({2: "2,zz,0"},
         "samples line 6: ['zz'] is not a bitmask over 3 modes"),
        ({2: "2,0x1,0"},
         "samples line 6: ['0x1'] is not a bitmask over 3 modes"),
        ({3: "3,8,0"}, "samples line 7: ['8'] is not a bitmask over 3 modes"),
        ({1: "1"}, "samples line 5: [] is not a bitmask over 3 modes"),
        ({2: "2,,0"}, "samples line 6: [''] is not a bitmask over 3 modes"),
        ({2: "# a comment between rows\n2,3,0", 3: "3,g,0"},
         "samples line 8: ['g'] is not a bitmask over 3 modes"),
    ])
    def test_samples(self, edits, message, config_path, tmp_path, capsys):
        path = tmp_path / "samples.csv"
        path.write_text(self.text(SAMPLES_HEADER, SAMPLES, edits))
        code = main(["compare", "--config", config_path, "--model-b", "full",
                     "--samples", str(path),
                     "--out", str(tmp_path / "out.json")])
        assert (code, capsys.readouterr().err) == (2, f"dgbs: {message}\n")

    @staticmethod
    def text(header: str, rows: list, edits: dict) -> str:
        """The file of ``rows`` after ``edits`` (row index or "header" ->
        new text, None to drop the row), after two comment lines."""
        lines = [edits.get("header", header),
                 *(edits.get(i, row) for i, row in enumerate(rows))]
        return "".join(f"{line}\n" for line in
                       ["# one", "# two", *lines] if line is not None)


class TestPatternSets:
    def test_pattern_sets_build_no_detection_pattern(self, config_path,
                                                     tmp_path, monkeypatch):
        # tables, the sampler, the records and compare --samples carry
        # their pattern sets as counts arrays, never as DetectionPatterns
        samples = tmp_path / "s.csv"
        assert main(["sample", "--config", config_path, "--n-max", "3",
                     "--pulses", "2000", "--out", str(samples)]) == 0
        config = load_config(config_path)
        source, transfer = source_from_config(config), \
            transfer_from_config(config)
        kernel = StateKernel.from_state(
            propagate(build_input_state(source, transfer.d), transfer))
        built = []
        post_init = DetectionPattern.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(DetectionPattern, "__post_init__", counted)
        distribution_from_kernel(kernel, 2, collision_free=False)
        sample_patterns(kernel, ModelSpec(), 1000, 3, seed=0)
        simulate_records(source, transfer, phi_grid=np.linspace(0, 6, 8),
                         include_collisions=True)
        assert main(["compare", "--config", config_path, "--model-b",
                     "korder(1)", "--samples", str(samples),
                     "--out", str(tmp_path / "cmp.json")]) == 0
        assert built == []
        DetectionPattern((1, 0, 1))   # the count sees a pattern built here
        assert len(built) == 1


class TestStartup:
    def test_cli_runs_without_scipy(self, config_path, tmp_path):
        # a fresh interpreter: the modules of this test process do not count
        import dgbs
        src = str(Path(dgbs.__file__).resolve().parents[1])
        code = (
            "import sys\n"
            "import dgbs, dgbs.cli\n"
            f"assert dgbs.cli.main(['probs', '--config', {config_path!r},"
            f" '--out', {str(tmp_path / 'p.json')!r}]) == 0\n"
            "print(sorted(m for m in sys.modules"
            " if m == 'scipy' or m.startswith('scipy.')))\n")
        out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                             env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"
        assert json.loads((tmp_path / "p.json").read_text())["command"] \
            == "probs"
