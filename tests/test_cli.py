import json
import math
import os
import subprocess
import sys
import threading
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

from conftest import haar_unitary
from dgbs import fock
from dgbs.cli import main
from dgbs.experiment import sample_patterns
from dgbs.probability import (ModelSpec, PatternDistribution, StateKernel,
                              all_patterns)
from dgbs.serialize import (canonical_json, config_hash, load_config,
                            matrix_from_json, matrix_to_json,
                            source_from_config, transfer_from_config)
from dgbs.states import build_classical_input, propagate


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


@pytest.fixture
def input_at(tmp_path):
    """``input_at(name, text, via)``: a path from which a reader reads
    ``text``, a file (``via="file"``) or a pipe that a thread fills
    (``via="pipe"``), which can be read once only: a second open of it
    reads nothing."""
    pipe_ends = []

    def put(name: str, text: str, via: str) -> str:
        if via == "file":
            (tmp_path / name).write_text(text)
            return str(tmp_path / name)
        read, write = os.pipe()
        pipe_ends.append(read)

        def fill():
            with open(write, "w") as f:
                f.write(text)

        threading.Thread(target=fill, daemon=True).start()
        return f"/dev/fd/{read}"

    yield put
    for fd in pipe_ends:
        os.close(fd)


VIAS = ("file", "pipe")


class TestSerialize:
    def test_matrix_round_trip(self):
        m = np.array([[1 + 2j, 0.5], [0, -1j]])
        assert np.array_equal(matrix_from_json(matrix_to_json(m)), m)

    def test_matrix_data_must_be_a_list(self):
        from dgbs.errors import SchemaError
        with pytest.raises(SchemaError, match="matrix data must be a list"):
            matrix_from_json({"shape": [1, 1], "data": 5})

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

    @pytest.mark.parametrize("kind", ["directory", "not_utf8"])
    def test_unreadable_config_is_usage_error(self, kind, tmp_path, capsys):
        path = tmp_path / "config.json"
        if kind == "directory":
            path.mkdir()
            message = f"[Errno 21] Is a directory: '{path}'"
        else:
            path.write_bytes(b'{"version": 1, "note": "\xff"}')
            message = f"cannot read {path}: "
        code = main(["probs", "--config", str(path),
                     "--out", str(tmp_path / "p.json")])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith(f"dgbs: {message}")
        assert err.count("\n") == 1 and ("0xff" in err or kind == "directory")


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

    @pytest.mark.parametrize("where", ["none", "leading", "between"])
    def test_samples_comment_lines_are_skipped(self, where, config_path,
                                               tmp_path):
        samples = tmp_path / "s.csv"
        main(["sample", "--config", config_path, "--pulses", "300",
              "--n-max", "2", "--out", str(samples)])
        lines = samples.read_text().splitlines(keepends=True)
        # a comment that csv would misread: its second field opens a quote
        comment = '# note,"unclosed\n'
        if where == "none":
            lines = lines[1:]
        elif where == "leading":
            lines = [comment] + lines
        else:
            lines[5:5] = [comment, comment]
            lines.append(comment)
        edited = tmp_path / "edited.csv"
        edited.write_text("".join(lines))
        outs = []
        for path in (samples, edited):
            out = tmp_path / f"cmp-{path.stem}.json"
            assert main(["compare", "--config", config_path, "--model",
                         "full", "--model-b", "korder(0)", "--n-max", "2",
                         "--samples", str(path), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["likelihood"]["samples"] > 200


    @pytest.mark.parametrize("text", [
        "# a\n# b\npulse,bitmask_hex,phi\n0,3,0\n",
        "# a\npulse,bitmask_hex,phi\n0,3,0\n# b\n1,1,0\n# c",
        "pulse,bitmask_hex,phi\n0,3,0\n",
        "# only a comment",
        "",
    ])
    def test_uncommented_lines_of_files_and_pipes(self, text, monkeypatch):
        # the text of a file or a pipe, read whole
        from dgbs import serialize
        lines = text.splitlines(keepends=True)
        want = [line for line in lines if not line.startswith("#")]
        # with keep_lines, a comment is an empty line: csv counts it
        kept = ["" if line.startswith("#") else line for line in lines]
        # blocks of one line each, of a few lines, and all in one
        for block in (1, 12, serialize.CSV_BLOCK_CHARS):
            monkeypatch.setattr(serialize, "CSV_BLOCK_CHARS", block)
            for keep_lines, lines in ((False, want), (True, kept)):
                blocks = serialize._uncommented(text, keep_lines)
                assert list(chain.from_iterable(blocks)) == lines


class TestSample:
    def test_classical_model_samples_the_surrogate(self, config_path,
                                                   tmp_path):
        config = load_config(config_path)
        transfer = transfer_from_config(config)
        state = propagate(build_classical_input(source_from_config(config),
                                                transfer.d), transfer)
        table = sample_patterns(StateKernel.from_state(state),
                                ModelSpec("classical"), 2000, 2, 7)
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

    def test_phi_column_is_the_coherent_phase(self, config_path, tmp_path):
        cfg = json.loads(open(config_path).read())
        cfg["source"]["phi"] = 0.4
        path = tmp_path / "phi.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "s.csv"
        assert main(["sample", "--config", str(path), "--pulses", "50",
                     "--out", str(out)]) == 0
        _, header, *rows = out.read_text().splitlines()
        assert header == "pulse,bitmask_hex,phi" and len(rows) == 50
        assert {row.rsplit(",", 1)[1] for row in rows} == \
            {"0.40000000000000002"}


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

    @pytest.mark.parametrize("extra", [
        ["--pattern", "2,1,1", "--cutoff", "3"],
        ["--pattern", "2,1,1", "--cutoff=-1"],
        ["--pattern", "1,1,0", "--cutoff", str(fock.MAX_CUTOFF + 1)],
        ["--pattern", "1,0"],
        ["--pattern", "1,0,0,1"],
        ["--pattern", "1,-1,0"],
    ])
    def test_bad_oracle_input_exits_2(self, extra, config_path, capsys,
                                      monkeypatch):
        # a cutoff below the pattern's photon total, a negative one or one
        # past MAX_CUTOFF, and a pattern of the wrong length or with a
        # negative count are refused before any expansion starts
        def no_expansion(*args, **kwargs):
            raise AssertionError("a Fock expansion started")

        monkeypatch.setattr(fock, "expand_inputs", no_expansion)
        code = main(["oracle", "--config", config_path, *extra])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("dgbs: bad --pattern")
        assert captured.err.count("\n") == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFinite:
    """A source beyond floating-point range is a numerical error (exit 1,
    one line), never a traceback or a non-finite number."""

    @pytest.mark.parametrize("field, value", [
        ("r", 400), ("alpha_mag", 1e154), ("alpha_mag", 1e308)])
    @pytest.mark.parametrize("command", [["probs", "--n-max", "2"],
                                         ["sample", "--pulses", "100"]])
    def test_out_of_range_source_exits_1(self, field, value, command,
                                         config_path, tmp_path, capsys):
        config = json.loads(Path(config_path).read_text())
        config["source"][field] = value
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        code = main([*command, "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("dgbs: ") and err.count("\n") == 1
        assert "finite" in err
        assert not out.exists()


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

    def test_drift_trace_is_bounded(self):
        # 6e10 steps would ask for hundreds of GiB; the check comes first
        from dgbs.errors import ConfigurationError
        from dgbs.experiment import MAX_DRIFT_STEPS, DriftModel
        rng = np.random.default_rng(0)
        drift = DriftModel(step_interval=1.0)
        assert len(drift.trace(MAX_DRIFT_STEPS, rng)) == MAX_DRIFT_STEPS
        for duration in (MAX_DRIFT_STEPS + 1.0, math.inf):
            with pytest.raises(ConfigurationError, match="drift steps"):
                drift.trace(duration, rng)
        with pytest.raises(ConfigurationError, match="drift steps"):
            DriftModel(step_interval=1e-9).trace(60.0, rng)

    @pytest.mark.parametrize("settings, message", [
        ({"lock_pairs": -1}, "lock_pairs must be a positive integer, got -1"),
        ({"lock_pairs": 0}, "lock_pairs must be a positive integer, got 0"),
        ({"lock_pairs": 2.7},
         "lock_pairs must be a positive integer, got 2.7"),
        ({"lock_pairs": True},
         "lock_pairs must be a positive integer, got True"),
        ({"lock_pairs": "abc"},
         "lock_pairs must be a positive integer, got 'abc'"),
        ({"pid": {"kp": "x"}},
         "bad pid config: kp must be a finite number, got 'x'"),
        ({"pid": {"kd": True}},
         "bad pid config: kd must be a finite number, got True"),
        pytest.param({"pid": {"setpoint": 10 ** 400}}, "bad pid config: "
                     f"setpoint must be a finite number, got {10 ** 400}",
                     id="int-beyond-float-range"),
        ({"pid": {"actuator_limit": -1}}, "bad pid config: update interval "
         "and actuator limit must be positive"),
        ({"pid": {"update_interval": 0}}, "bad pid config: update interval "
         "and actuator limit must be positive"),
        ({"drift": {"period": 0}}, "bad drift config: need sigma >= 0, "
         "period > 0 and step_interval > 0"),
        ({"drift": {"sigma": -0.1}}, "bad drift config: need sigma >= 0, "
         "period > 0 and step_interval > 0"),
        ({"drift": {"amplitude": "big"}},
         "bad drift config: amplitude must be a finite number, got 'big'"),
        ({"drift": {"kind": "brownian"}},
         "bad drift config: unknown drift kind 'brownian'"),
        ({"drift": {"step_interval": 1e-9}},
         "--duration 3.0 is more than 1000000 drift steps of 1e-09 s"),
        ({"drift": {"step_interval": 1e-5}}, "the 30.0 s gain tuning run (a "
         "config without pid) is more than 1000000 drift steps of 1e-05 s"),
    ])
    def test_bad_lock_settings_exit_2(self, settings, message, tmp_path,
                                      capsys):
        path = tmp_path / "d6.json"
        cfg = json.loads(open(write_config(
            tmp_path, 6, 0, {"r": 0.4, "alpha_mag": 0.8})).read())
        path.write_text(json.dumps({**cfg, **settings}))
        code = main(["lock", "--config", str(path), "--duration", "3",
                     "--out", str(tmp_path / "lock.json")])
        assert (code, capsys.readouterr().err) == (2, f"dgbs: {message}\n")

    @pytest.mark.parametrize("entry", [
        None, "x", [], {}, True, 0.5, [True, False], [1.0], [0.5, "0"],
        [0.5, 0.1, 0.2], [10 ** 400, 0]])
    def test_bad_matrix_entry_exits_2(self, entry, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        cfg = json.loads(open(write_config(
            tmp_path, 3, 0, {"r": 0.4, "alpha_mag": 0.8})).read())
        cfg["transfer"]["t"]["data"][4] = entry
        path.write_text(json.dumps(cfg))
        code = main(["probs", "--config", str(path), "--n-max", "1",
                     "--out", str(tmp_path / "probs.json")])
        assert (code, capsys.readouterr().err) == (
            2, "dgbs: matrix data entry 4 must be a [re, im] pair of real "
            f"numbers, got {entry!r}\n")

    @pytest.mark.parametrize("source, message", [
        pytest.param({"r": 10 ** 400}, "r must be a finite number, got "
                     f"{10 ** 400}", id="int-beyond-float-range"),
        ({"alpha_mag": True}, "alpha_mag must be a finite number, got True"),
        ({"phi": "0"}, "phi must be a finite number, got '0'"),
        ({"eta_d": 1.5}, "eta_d=1.5 outside [0,1]"),
        ({"r": -0.1}, "r and alpha_mag must be nonnegative"),
        ({"coherent_port": 1}, "input ports overlap: (0, 1, 1)"),
    ])
    def test_bad_source_exits_2(self, source, message, tmp_path, capsys):
        cfg = write_config(tmp_path, 6, 0, {"r": 0.4, "alpha_mag": 0.8,
                                            **source})
        code = main(["probs", "--config", cfg, "--n-max", "1",
                     "--out", str(tmp_path / "probs.json")])
        assert (code, capsys.readouterr().err) == (
            2, f"dgbs: bad source config: {message}\n")

    @pytest.mark.parametrize("kind", [
        "threefolds_not_json", "threefolds_no_total", "threefolds_bad_row",
        "threefolds_other_d", "threefolds_other_d_no_fallback",
        "records_bad_counts", "samples_not_hex", "samples_mask_beyond_d"])
    def test_malformed_file_exits_2(self, kind, config_path, tmp_path,
                                    input_at, capsys):
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
        if kind.startswith("samples"):   # from a file and from a pipe
            mask = "zz" if kind == "samples_not_hex" else "ff"
            runs = [["compare", "--config", config_path, "--model-b", "full",
                     "--samples", input_at("bad", header + f"1,{mask},0\n",
                                           via)]
                    for via in VIAS]
        else:
            runs = [["reconstruct", "--records", str(records)]]
            if kind.startswith("threefolds"):
                runs[0] += ["--threefolds", str(bad)]
        for argv in runs:
            code = main(argv + ["--out", str(tmp_path / "out.json")])
            err = capsys.readouterr().err
            assert code == 2
            assert err.startswith("dgbs:") and "Traceback" not in err
            assert err.count("\n") == 1

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
    """Every error of the records and samples readers, from a file and from
    a pipe: exit 2 and exactly one message line, whose line numbers count
    the comment lines."""

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
        ({9: f"input1,1.5,0,{'1' * 140000},500"},
         "line 13: field larger than field limit (131072)"),
        ({2: "# a comment between rows\nblocked,,1,40,1000",
          5: "input1,0,0,30,500,1"}, "line 10: expected 5 columns"),
    ])
    def test_records(self, edits, message, tmp_path, input_at, capsys):
        for via in VIAS:
            path = input_at("records.csv",
                            self.text(RECORDS_HEADER, RECORDS, edits), via)
            code = main(["reconstruct", "--records", path,
                         "--out", str(tmp_path / "out.json")])
            assert (via, code, capsys.readouterr().err) == \
                (via, 2, f"dgbs: {message}\n")

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
        ({2: f"2,{'f' * 140000},0"},
         "samples line 6: field larger than field limit (131072)"),
    ])
    def test_samples(self, edits, message, config_path, tmp_path, input_at,
                     capsys):
        for via in VIAS:
            path = input_at("samples.csv",
                            self.text(SAMPLES_HEADER, SAMPLES, edits), via)
            code = main(["compare", "--config", config_path, "--model-b",
                         "full", "--samples", path,
                         "--out", str(tmp_path / "out.json")])
            assert (via, code, capsys.readouterr().err) == \
                (via, 2, f"dgbs: {message}\n")

    @pytest.mark.parametrize("kind", ["directory", "not_utf8"])
    @pytest.mark.parametrize("reader", ["records", "samples"])
    def test_unreadable_input(self, reader, kind, config_path, tmp_path,
                              capsys):
        path = tmp_path / f"{reader}.csv"
        if kind == "directory":
            path.mkdir()
            message = f"[Errno 21] Is a directory: '{path}'"
        else:
            header = RECORDS_HEADER if reader == "records" else SAMPLES_HEADER
            path.write_bytes(f"# one\n{header}\n".encode() + b"\xff\n")
            message = f"cannot read {path}: "
        argv = (["reconstruct", "--records", str(path)] if reader == "records"
                else ["compare", "--config", config_path, "--model-b", "full",
                      "--samples", str(path)])
        code = main(argv + ["--out", str(tmp_path / "out.json")])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith(f"dgbs: {message}")
        assert err.count("\n") == 1 and ("0xff" in err or kind == "directory")

    @staticmethod
    def text(header: str, rows: list, edits: dict) -> str:
        """The file of ``rows`` after ``edits`` (row index or "header" ->
        new text, None to drop the row), after two comment lines."""
        lines = [edits.get("header", header),
                 *(edits.get(i, row) for i, row in enumerate(rows))]
        return "".join(f"{line}\n" for line in
                       ["# one", "# two", *lines] if line is not None)


class TestTracedRun:
    def test_tracer_runs_probs_oracle_and_sample(self, config_path, tmp_path):
        # the benchmark's tracer wraps functions and methods that it looks
        # up by name and reads some of their arguments, so a deleted name
        # or an argument it cannot read breaks a traced run
        import dgbs
        src = str(Path(dgbs.__file__).resolve().parents[1])
        bench = str(Path(__file__).resolve().parents[1] / "perfbench")
        runs = [["probs", "--n-max", "3", "--collisions"],
                ["oracle", "--pattern", "1,1,0"],
                ["sample", "--pulses", "500", "--n-max", "3"]]
        code = (
            "import sys\n"
            f"sys.path.insert(0, {bench!r})\n"
            "from tracer import Tracer\n"
            "tracer = Tracer()\n"
            "tracer.install()\n"
            "import dgbs.cli\n"
            f"for argv in {runs!r}:\n"
            f"    argv += ['--config', {config_path!r}, '--out', 'out']\n"
            "    assert dgbs.cli.main(argv) == 0, argv\n"
            "    tracer.end_command()\n"
            "print(len(tracer.layer_metrics()))\n")
        out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                             env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert int(out.stdout) > 0


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
