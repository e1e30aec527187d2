import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import benchmark_workloads, haar_unitary
from dgbs import cli, experiment, fock, serialize
from dgbs.cli import main
from dgbs.experiment import MAX_PULSES, sample_patterns, samples_from_csv
from dgbs.probability import (ModelSpec, PatternDistribution, StateKernel,
                              all_patterns, distribution_from_kernel)
from dgbs.reconstruction import records_from_csv
from dgbs.serialize import (canonical_json, config_hash, load_config,
                            matrix_from_json, matrix_to_json,
                            source_from_config, transfer_from_config)
from dgbs.states import build_classical_input, build_input_state, propagate


@pytest.fixture
def config_path(tmp_path):
    return d3_config(tmp_path)


def d3_config(directory) -> str:
    """The path of the README d=3 config, written into ``directory``."""
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
    path = directory / "config.json"
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

    @pytest.mark.parametrize("n_max, collisions", [(10, True), (3, False)])
    def test_pattern_labels_are_the_joined_counts(self, n_max, collisions,
                                                  config_path, tmp_path):
        # one-digit counts are rendered a column at a time, and a table
        # with a count of 10 or more ("0010" for (0, 0, 10)) by joining
        out = tmp_path / "p.json"
        assert main(["probs", "--config", config_path, "--n-max", str(n_max),
                     *(["--collisions"] if collisions else []),
                     "--out", str(out)]) == 0
        tables = json.loads(out.read_text())["distributions"]
        for total in range(1, n_max + 1):
            patterns = all_patterns(3, total, collision_free=not collisions)
            assert tables[str(total)]["patterns"] == [
                "".join(map(str, n)) for n in patterns.tolist()]
        assert "0010" in tables[str(n_max)]["patterns"] or not collisions

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
        # a comment is an empty line: csv counts it
        kept = ["" if line.startswith("#") else line for line in lines]
        # blocks of one line each, of a few lines, and all in one
        for block in (1, 12, serialize.CSV_BLOCK_CHARS):
            monkeypatch.setattr(serialize, "CSV_BLOCK_CHARS", block)
            blocks = serialize._uncommented(text)
            assert list(chain.from_iterable(blocks)) == kept
            # without the comment lines: the blocks that are text
            blocks = map(io.StringIO, filter(None, serialize._blocks(text)))
            assert list(chain.from_iterable(blocks)) == want


def _edited(text: str, edit: str) -> str:
    """``text`` with its CSV lines (not its ``#`` lines) written another way
    that csv reads to the same rows."""
    lines = text.splitlines()
    if edit == "crlf":
        return "".join(f"{line}\r\n" for line in lines)
    if edit == "quoted":
        lines = [line if line.startswith("#") else
                 ",".join(f'"{field}"' for field in line.split(","))
                 for line in lines]
    elif edit == "blank_lines":
        lines = [f"{line}\n" if not line.startswith("#") else line
                 for line in lines]
    elif edit == "quote_in_comment":
        lines[-1:-1] = ['# a "quoted, note']
    return "".join(f"{line}\n" for line in lines)


def _workload_output(directory, workload: str, command: str) -> str:
    """The output text of ``command`` in the seed-0 run of a benchmark
    workload, made by :func:`main` in ``directory`` from its config."""
    configs, commands = benchmark_workloads().build(workload, 0)
    for name, config in configs.items():
        (directory / name).write_text(json.dumps(config))
    cmd, = [cmd for cmd in commands if cmd["name"] == command]
    assert main([str(directory / arg) if arg in configs or arg == cmd["out"]
                 else arg for arg in cmd["argv"]]) == 0
    return (directory / cmd["out"]).read_text()


class TestCsvTokenisers:
    """The records and samples readers split plain text themselves and
    leave text that csv may read otherwise to csv: both must give the same
    result, bit for bit."""

    EDITS = ("crlf", "quoted", "blank_lines", "quote_in_comment")

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        """The records and samples texts of the d=3 config, of the seed-0
        fringes-d15 run and of the seed-0 tables-d15 run."""
        d3 = tmp_path_factory.mktemp("d3")
        config = d3_config(d3)
        for argv in (["simulate", "--out", str(d3 / "records.csv")],
                     ["sample", "--pulses", "2000", "--n-max", "3",
                      "--out", str(d3 / "samples.csv")]):
            assert main([*argv, "--config", config]) == 0
        fringes, tables = (
            _workload_output(tmp_path_factory.mktemp(workload), workload,
                             command)
            for workload, command in (("fringes-d15", "simulate"),
                                      ("tables-d15", "sample")))
        return {"records": [(d3 / "records.csv").read_text(), fringes],
                "samples": [((d3 / "samples.csv").read_text(), 3),
                            (tables, 15)]}

    @staticmethod
    def read_with_spy(monkeypatch, read, text):
        """``read(text)``, and whether csv.reader read any of it."""
        calls = []
        reader = csv.reader
        monkeypatch.setattr(csv, "reader",
                            lambda lines: calls.append(1) or reader(lines))
        result = read(text)
        monkeypatch.setattr(csv, "reader", reader)
        return result, bool(calls)

    @pytest.mark.parametrize("edit", EDITS)
    def test_records(self, edit, inputs, monkeypatch):
        for text in inputs["records"]:
            want, by_csv = self.read_with_spy(monkeypatch, records_from_csv,
                                              text)
            assert not by_csv
            got, by_csv = self.read_with_spy(monkeypatch, records_from_csv,
                                             _edited(text, edit))
            # a # line is dropped before csv or the splitting sees it
            assert by_csv == (edit != "quote_in_comment")
            assert list(got) == list(want)
            for name, rec in want.items():
                assert got[name].rates.tobytes() == rec.rates.tobytes()
                assert (got[name].d, got[name].pulses, got[name].pairs) == \
                    (rec.d, rec.pulses, rec.pairs)
                assert (got[name].phi is None and rec.phi is None) or \
                    got[name].phi.tobytes() == rec.phi.tobytes()

    @pytest.mark.parametrize("edit", EDITS)
    def test_samples(self, edit, inputs, monkeypatch):
        for text, d in inputs["samples"]:
            def read(text):   # the (S, d) counts and their photon numbers
                patterns, codes = samples_from_csv(text, d, 0)
                counts = patterns[codes]
                return counts, set(counts.sum(axis=1).tolist())
            (counts, totals), by_csv = self.read_with_spy(monkeypatch, read,
                                                          text)
            assert not by_csv and len(counts) > 1000
            (got, got_totals), by_csv = self.read_with_spy(
                monkeypatch, read, _edited(text, edit))
            assert by_csv == (edit != "quote_in_comment")
            assert (got.shape, got.dtype, got.tobytes(), got_totals) == \
                (counts.shape, counts.dtype, counts.tobytes(), totals)

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(text=st.one_of(
               # any text, and rows of one width, which plain splitting reads
               st.text(st.sampled_from(
                   list('ab1,,,\n\n#" \r\0\u00e9\u2028\x0b')), max_size=40),
               st.integers(1, 4).flatmap(lambda width: st.lists(st.lists(
                   st.text(st.sampled_from(list("ab1 #\u00e9")), max_size=3),
                   min_size=width, max_size=width), max_size=8)).map(
                   lambda rows: "".join(f"{','.join(row)}\n" for row in rows)),
               # rows of numbers, now and then one that is none
               st.integers(1, 4).flatmap(lambda width: st.lists(st.lists(
                   st.one_of(st.floats().map(repr), st.integers().map(str),
                             st.sampled_from(["-0.0", " 1", "1_0", "inf",
                                              "1e5", "", "x"])),
                   min_size=width, max_size=width), max_size=8)).map(
                   lambda rows: "".join(f"{','.join(row)}\n" for row in rows))),
           columns=st.sampled_from([(0,), (1,), (0, 1, 2), (2, 0)]),
           block=st.sampled_from([1, 3, 8, serialize.CSV_BLOCK_CHARS]),
           numeric=st.sets(st.sampled_from([0, 1, 2])))
    # a header too short for the columns, in one block and in two
    @example(text="a,b\nc,d\ne,f\n", columns=(0, 1, 2),
             block=serialize.CSV_BLOCK_CHARS, numeric=set())
    @example(text="a,b\nc,d\ne,f\n", columns=(2, 0), block=3, numeric=set())
    # the last column of two, its fields all distinct; and the first and
    # last columns of many rows, the last row's last field empty, in one
    # block and in several
    @example(text="pulse,mask\n0,a\n1,b\n2,a\n", columns=(1,),
             block=serialize.CSV_BLOCK_CHARS, numeric=set())
    @example(text="h,k\n" + "x,y\n" * 70 + "x,\n", columns=(2, 0),
             block=serialize.CSV_BLOCK_CHARS, numeric=set())
    @example(text="h,k,l\n" + "x,1,y\nz,2,y\n" * 70 + "w,3,\n",
             columns=(2, 0, 1), block=40, numeric={1})
    @example(text="h,k,l\n" + "1,x,2\n3,y,2\n" * 70, columns=(2, 0, 1),
             block=40, numeric={0, 2})
    # a header alone, with and without its line end
    @example(text="a,b,c\n", columns=(0, 1, 2),
             block=serialize.CSV_BLOCK_CHARS, numeric={1})
    @example(text="a,b,c", columns=(2, 0), block=serialize.CSV_BLOCK_CHARS,
             numeric={0})
    def test_columns_as_csv_reads_them(self, text, columns, block, numeric):
        # whatever the text, the header, coded columns and row lengths are
        # those of the rows csv reads, or csv's error.  A column in
        # ``numbers`` is the floats of csv's fields if each is a number;
        # else it is coded as the others are
        numbers = tuple(k for k in columns if k in numeric)

        def coded(read_columns):
            try:
                header, columns_read, widths = read_columns()
            except csv.Error as exc:
                return str(exc)
            return header, [column.tobytes() if isinstance(column, np.ndarray)
                            else (column[0], np.asarray(column[1]).tolist())
                            for column in columns_read], widths

        def by_csv(numbers):
            rows = list(csv.reader(chain.from_iterable(map(
                io.StringIO, filter(None, serialize._blocks(text))))))
            body = list(filter(None, rows[1:]))
            padded = [row + [""] * max(columns) for row in body]
            coded_columns = []
            for k in columns:   # codes in order of first appearance
                if k in numbers:
                    with contextlib.suppress(ValueError):
                        coded_columns.append(np.array(
                            [float(row[k]) for row in padded], float))
                        continue
                index = {}
                codes = [index.setdefault(row[k], len(index))
                         for row in padded]
                coded_columns.append((list(index), codes))
            return rows[0] if rows else [], coded_columns, \
                set(map(len, body))

        default = serialize.CSV_BLOCK_CHARS
        serialize.CSV_BLOCK_CHARS = block
        try:
            assert coded(lambda: serialize._coded_columns(text, columns)) \
                == coded(lambda: by_csv(()))
            assert coded(lambda: serialize._coded_columns(text, columns,
                                                          numbers)) \
                == coded(lambda: by_csv(numbers))
        finally:
            serialize.CSV_BLOCK_CHARS = default

    def test_count_that_is_no_number_names_its_setting(self):
        # a count that float cannot parse leaves the counts coded as text,
        # and the setting it is in names it
        text = "setting,phi,modes,counts,pulses\n" + "".join(
            f"blocked,,{label},{count},1e8\n" for label, count in
            (("vac", "9e7"), ("0", "1e6"), ("1", "many"), ("2", "2e6")))
        from dgbs.errors import SchemaError
        with pytest.raises(SchemaError) as info:
            records_from_csv(text)
        assert str(info.value) == \
            "blocked: could not convert string to float: 'many'"


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
            outs[model] = out.read_bytes()
        assert outs["classical"] == header.encode() + b"".join(table.to_csv())
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

    def test_sample_peak_memory_per_pulse(self, tmp_path):
        # the CSV goes to --out a block at a time, and the draw holds
        # 1-byte codes and one block of uniforms (16 bytes a pulse when
        # all the uniforms and int64 codes were held)
        path = write_config(tmp_path, 6, 0, {"r": 0.4, "alpha_mag": 0.8})
        argv = ["sample", "--config", path, "--n-max", "4",
                "--out", str(tmp_path / "samples.csv")]
        assert main([*argv, "--pulses", "100"]) == 0   # imports and caches
        pulses = 200_000
        tracemalloc.start()
        try:
            assert main([*argv, "--pulses", str(pulses)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / pulses < 24   # bytes; 38 when the text was joined


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

    @pytest.mark.parametrize("argv", [
        ["probs"], ["compare", "--model-b", "classical"],
        ["oracle", "--pattern", "1,1,0"], ["sample", "--pulses", "100"]])
    def test_each_command_parses_the_circuit_once(self, argv, config_path,
                                                  tmp_path, monkeypatch):
        # the kernels and the oracle take the source and transfer that the
        # command parsed
        calls = []

        def counted(config):
            calls.append(config)
            return serialize.circuit_from_config(config)

        monkeypatch.setattr(cli, "circuit_from_config", counted)
        assert main([*argv, "--config", config_path,
                     "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 1

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


class TestNonFinite:
    """A source beyond floating-point range is a numerical error (exit 1,
    one line), never a traceback, a non-finite number or a numpy warning.
    Each case runs in a fresh interpreter, so that its stderr is all that
    the command printed."""

    @pytest.mark.parametrize("field, value", [
        ("r", 400), ("alpha_mag", 1e154), ("alpha_mag", 1e308)])
    @pytest.mark.parametrize("command", [["probs", "--n-max", "2"],
                                         ["sample", "--pulses", "100"],
                                         ["lock", "--duration", "10"]])
    def test_out_of_range_source_exits_1(self, field, value, command,
                                         config_path, tmp_path):
        config = json.loads(Path(config_path).read_text())
        config["source"][field] = value
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        import dgbs
        src = str(Path(dgbs.__file__).resolve().parents[1])
        # -W default: a warnings filter in the environment cannot hide one
        run = subprocess.run(
            [sys.executable, "-W", "default", "-m", "dgbs.cli", *command,
             "--config", str(path), "--out", str(out)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True,
            text=True, timeout=120)
        assert run.returncode == 1, run.stderr
        assert run.stderr.startswith("dgbs: ")
        assert run.stderr.count("\n") == 1, run.stderr
        assert "finite" in run.stderr and "kp" not in run.stderr
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
        ["probs", "--model", "korder()"],
        ["probs", "--model", "k2"],
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
        if argv[-1] in ("korder", "korder()"):
            assert "korder model needs k" in err

    def test_korder_has_one_spelling(self, config_path, capsys):
        # korder(k) is the only way to give k; there is no --k flag
        with pytest.raises(SystemExit) as exc:
            main(["probs", "--config", config_path, "--model", "korder",
                  "--k", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --k 2" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["probs"],
        ["compare", "--model-b", "full"],
        ["oracle", "--pattern", "1,0,1"],
    ])
    def test_seed_only_where_something_is_drawn(self, argv, config_path,
                                                capsys):
        # probs, compare and oracle draw no random numbers
        with pytest.raises(SystemExit) as exc:
            main(argv[:1] + ["--config", config_path, "--seed", "3"]
                 + argv[1:])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


class TestOneCommandParser:
    """main builds only the parser of the command that starts its argv:
    that parser must parse, print and exit as the full one does."""

    @staticmethod
    def parse(parser, argv) -> tuple:
        """(namespace, stdout, stderr, exit code) of parsing ``argv``."""
        out, err = io.StringIO(), io.StringIO()
        args, code = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                args = vars(parser.parse_args(argv))
            except SystemExit as exc:
                code = exc.code
        return args, out.getvalue(), err.getvalue(), code

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_parses_as_the_full_parser(self, command, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")   # the width of help and usage
        workloads = benchmark_workloads()
        lines = [cmd["argv"] for workload in ("tables-d15", "fringes-d15",
                                              "lab-d6")
                 for cmd in workloads.build(workload, 0)[1]
                 if cmd["name"] == command]
        assert lines, command
        int_option = next(option for option, keywords
                          in cli.COMMANDS[command][2]
                          if keywords.get("type") is int)
        argvs = [*lines,
                 [command, "-h"],
                 [command],                          # a required option
                 [*lines[0], "--no-such-option"],
                 [*lines[0], int_option, "x"],
                 [*lines[0], "positional"],
                 [*lines[0], "--out"]]               # no value
        for argv in argvs:
            one = self.parse(cli.build_parser(command), argv)
            assert one == self.parse(cli.build_parser(), argv), argv
            assert (one[3] is None) == (argv in lines), argv


FUZZ_VALUES = (0, -1, 1e308, -1e308, 2 ** 70, -2 ** 70, 10 ** 400, "x", [],
               {}, None, True)
# each command with the inputs it reads: small sizes, so that no mutation
# that passes validation can start a large computation
FUZZ_COMMANDS = {
    "probs": ["probs", "--config", "config.json", "--n-max", "2"],
    "sample": ["sample", "--config", "config.json", "--pulses", "50",
               "--n-max", "2"],
    "compare": ["compare", "--config", "config.json", "--model-b",
                "korder(0)", "--n-max", "2", "--samples", "samples.csv"],
    "lock": ["lock", "--config", "config.json", "--duration", "1"],
    "simulate": ["simulate", "--config", "config.json"],
    "reconstruct": ["reconstruct", "--records", "records.csv"],
    "oracle": ["oracle", "--config", "config.json", "--pattern", "1,0,1"],
}


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """The README d=3 config, extended with drift, pid, a small phi grid,
    finite pulses per setting and a second input port, and a records CSV
    and a samples CSV written from it, as {file name: bytes}."""
    base = tmp_path_factory.mktemp("fuzz")
    config = json.loads(Path(d3_config(base)).read_text())
    config.update({
        "drift": {"kind": "composite", "sigma": 0.015, "amplitude": 1.8,
                  "period": 15.0, "step_interval": 0.1},
        "pid": {"kp": 0.5, "ki": 0.1, "kd": 0.0, "setpoint": 0.7,
                "actuator_limit": 12.0},
        "phi_grid": {"start": 0.0, "stop": 6.0, "num": 6},
        "pulses_per_setting": 1e6, "second_input_port": 2})
    (base / "config.json").write_text(json.dumps(config))
    for command, name in (("simulate", "records.csv"),
                          ("sample", "samples.csv")):
        assert main([*_fuzz_argv(command, base),
                     "--out", str(base / name)]) == 0
    return {name: (base / name).read_bytes()
            for name in ("config.json", "records.csv", "samples.csv")}


def _fuzz_argv(command: str, directory: Path) -> list:
    """The arguments of ``command``, its input files in ``directory``."""
    return [str(directory / a) if a.endswith((".json", ".csv")) else a
            for a in FUZZ_COMMANDS[command]]


def _config_leaves(node, path=()):
    """The paths of the scalar leaves of a JSON value, the matrix shape
    left out."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [leaf for key, value in items if key != "shape"
            for leaf in _config_leaves(value, (*path, key))]


@st.composite
def _mutations(draw, inputs):
    """(command, file name, mutation): a command and one change to one
    file that it reads, a config leaf set to one of ``FUZZ_VALUES`` or
    the file's bytes truncated, given a flipped or a non-UTF-8 byte, or
    replaced by a directory."""
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    argv = FUZZ_COMMANDS[command]
    name = draw(st.sampled_from(
        [a for a in argv if a.endswith((".json", ".csv"))]))
    kinds = ["truncate", "flip", "non_utf8", "directory"]
    if name == "config.json":   # most draws set a leaf: they reach further
        kinds = ["leaf"] * 8 + kinds
    kind = draw(st.sampled_from(kinds))
    if kind == "leaf":
        leaves = _config_leaves(json.loads(inputs[name]))
        return command, name, (kind, draw(st.sampled_from(leaves)),
                               draw(st.sampled_from(FUZZ_VALUES)))
    if kind == "directory":
        return command, name, (kind,)
    at = draw(st.integers(0, len(inputs[name]) - 1))
    return command, name, (kind, at, draw(st.integers(0, 7)))


def _mutated(data: bytes, mutation) -> bytes:
    kind, *rest = mutation
    if kind == "leaf":
        path, value = rest
        config = json.loads(data)
        node = config
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return json.dumps(config).encode()
    at, bit = rest
    if kind == "truncate":
        return data[:at]
    if kind == "flip":
        return data[:at] + bytes([data[at] ^ 1 << bit]) + data[at + 1:]
    return data[:at] + b"\xff" + data[at + 1:]


class TestExitCodeProperty:
    # 200 examples take about 1 s
    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data())
    def test_every_mutation_exits_0_1_or_2(self, fuzz_inputs, data):
        # the exit-code contract: 0 ok, 1 domain error, 2 usage error, never
        # a traceback, and one "dgbs:" line on a nonzero exit
        command, name, mutation = data.draw(_mutations(fuzz_inputs))
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            for file, content in fuzz_inputs.items():
                if file != name:
                    (work / file).write_bytes(content)
                elif mutation[0] == "directory":
                    (work / file).mkdir()
                else:
                    (work / file).write_bytes(_mutated(content, mutation))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([*_fuzz_argv(command, work),
                             "--out", str(work / "out")])
        err = err.getvalue()
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code:
            assert err.startswith("dgbs:") and err.count("\n") == 1, err


class TestOutPath:
    COMMANDS = {
        "probs": ["probs", "--n-max", "1"],
        "simulate": ["simulate"],
        "reconstruct": ["reconstruct"],
        "compare": ["compare", "--model-b", "classical", "--n-max", "1"],
        "sample": ["sample", "--pulses", "10", "--n-max", "1"],
        "lock": ["lock", "--duration", "3"],
        "oracle": ["oracle", "--pattern", "1,0,0"],
    }

    @staticmethod
    def argv(command, config_path, tmp_path) -> list:
        """The argv of a small run of ``command``; reconstruct reads the
        records that simulate writes."""
        if command != "reconstruct":
            return [*TestOutPath.COMMANDS[command], "--config", config_path]
        records = tmp_path / "records.csv"
        assert main(["simulate", "--config", config_path,
                     "--out", str(records)]) == 0
        return ["reconstruct", "--records", str(records)]

    @pytest.mark.parametrize("where", ["directory", "missing-directory"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_unwritable_out_exits_2(self, command, where, config_path,
                                    tmp_path, capsys):
        out = tmp_path if where == "directory" else tmp_path / "no" / "x"
        argv = self.argv(command, config_path, tmp_path)
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("dgbs: ") and err.count("\n") == 1
        assert str(out) in err and "Traceback" not in err
        assert not (tmp_path / "no").exists()

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_checks_run_before_out_is_opened(self, command, config_path,
                                             tmp_path, capsys):
        # a bad input names itself, not the --out that cannot be opened
        argv = self.argv(command, config_path, tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 0}')
        where = argv.index("--records" if command == "reconstruct"
                           else "--config")
        argv[where + 1] = str(bad)
        capsys.readouterr()
        assert main([*argv, "--out", str(tmp_path / "no" / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("dgbs: ") and err.count("\n") == 1
        assert "No such file" not in err and "Traceback" not in err

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_stdout_gets_the_bytes_of_the_file(self, command, config_path,
                                               tmp_path, capsysbinary):
        argv = self.argv(command, config_path, tmp_path)
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 0
        capsysbinary.readouterr()
        assert main([*argv, "--out", "-"]) == 0
        assert capsysbinary.readouterr().out == out.read_bytes() != b""


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
        pytest.param({"pid": {"actuator_limit": -1}},
                     "bad pid config: actuator limit must be positive",
                     id="pid-actuator-limit"),
        # the loop updates once per drift step, drift step_interval
        pytest.param({"pid": {"update_interval": 0.1}}, "bad pid config: "
                     "unknown field 'update_interval'",
                     id="pid-update-interval"),
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
        # a --duration of 200 s covers the step, the 30 s tuning run does not
        pytest.param({"drift": {"step_interval": 100}, "--duration": "200"},
                     "the 30.0 s gain tuning run (a config without pid) "
                     "covers no drift step of 100.0 s", id="tuning-step-100"),
        pytest.param({"drift": {"step_interval": 40}, "--duration": "200"},
                     "the 30.0 s gain tuning run (a config without pid) "
                     "covers no drift step of 40.0 s", id="tuning-step-40"),
        # one or two steps: the first has no error, so every gain cell
        # would tie and the first would win
        pytest.param({"drift": {"step_interval": 15}, "--duration": "200"},
                     "the 30.0 s gain tuning run (a config without pid) "
                     "covers fewer than 3 drift steps of 15.0 s",
                     id="tuning-step-15"),
        pytest.param({"drift": {"step_interval": 30}, "--duration": "200"},
                     "the 30.0 s gain tuning run (a config without pid) "
                     "covers fewer than 3 drift steps of 30.0 s",
                     id="tuning-step-30"),
    ])
    def test_bad_lock_settings_exit_2(self, settings, message, tmp_path,
                                      capsys):
        path = tmp_path / "d6.json"
        cfg = json.loads(open(write_config(
            tmp_path, 6, 0, {"r": 0.4, "alpha_mag": 0.8})).read())
        settings = dict(settings)
        duration = settings.pop("--duration", "3")
        path.write_text(json.dumps({**cfg, **settings}))
        code = main(["lock", "--config", str(path), "--duration", duration,
                     "--out", str(tmp_path / "lock.json")])
        assert (code, capsys.readouterr().err) == (2, f"dgbs: {message}\n")

    @staticmethod
    def run_with(config_path, tmp_path, capsys, settings: dict, command):
        """The exit code and stderr of ``command`` on the README d=3
        config with ``settings`` merged into its sections; ``--out`` must
        not exist after a failure."""
        config = json.loads(Path(config_path).read_text())
        for section, fields in settings.items():
            if isinstance(fields, dict):
                config.setdefault(section, {}).update(fields)
            else:
                config[section] = fields
        path = tmp_path / "settings.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        code = main([*command, "--config", str(path), "--out", str(out)])
        assert code == 0 or not out.exists()
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("settings, command, outcome", [
        pytest.param({"source": {"r": 2 ** 70}}, ["probs", "--n-max", "1"],
                     (1, "dgbs: covariance or displacement is not finite\n"),
                     id="source-r"),
        pytest.param({"pid": {"setpoint": 2 ** 70}},
                     ["lock", "--duration", "3"],
                     (1, "dgbs: the lock setpoint 1.1805916207174113e+21 is "
                         "too large to resolve the drift: its float spacing "
                         "2.62e+05 rad is coarser than the phase resolution "
                         "1e-09 rad\n"), id="pid-setpoint"),
        pytest.param({"drift": {"step_interval": 2 ** 70}},
                     ["lock", "--duration", "3"],
                     (2, "dgbs: --duration 3.0 covers no drift step of "
                         "1.1805916207174113e+21 s\n"),
                     id="drift-step-interval"),
    ])
    def test_int_past_int64_in_a_float_field(self, settings, command,
                                             outcome, config_path, tmp_path,
                                             capsys):
        # numpy made such an int an object array: a traceback, exit 1
        assert self.run_with(config_path, tmp_path, capsys, settings,
                             command) == outcome
        source = serialize.source_from_config(
            {"source": {"r": 2 ** 70, "alpha_mag": 1, "coherent_port": 2}})
        assert (source.r, source.alpha_mag, source.coherent_port) == \
            (2.0 ** 70, 1.0, 2)
        assert (type(source.r), type(source.coherent_port)) == (float, int)
        pid = serialize.pid_from_config({"pid": {"setpoint": 2 ** 70}})
        assert type(pid.setpoint) is float

    @pytest.mark.parametrize("setpoint, spacing", [
        pytest.param(1e17, "16", id="1e17"),
        pytest.param(2 ** 70, "2.62e+05", id="2**70"),
    ])
    def test_setpoint_too_coarse_to_resolve_the_drift_exits_1(
            self, setpoint, spacing, config_path, tmp_path, capsys):
        # setpoint + drift + correction rounded back to the setpoint, so the
        # lock reported a residual of 0 and no divergence
        assert self.run_with(config_path, tmp_path, capsys,
                             {"pid": {"setpoint": setpoint}},
                             ["lock", "--duration", "3"]) == (
            1, f"dgbs: the lock setpoint {float(setpoint)!r} is too large "
               f"to resolve the drift: its float spacing {spacing} rad is "
               "coarser than the phase resolution 1e-09 rad\n")

    @pytest.mark.parametrize("setpoint", [1e6, -1e6, 2 ** 20, 3.0])
    def test_setpoint_within_the_phase_resolution_locks(
            self, setpoint, config_path, tmp_path, capsys):
        assert self.run_with(config_path, tmp_path, capsys,
                             {"pid": {"setpoint": setpoint}},
                             ["lock", "--duration", "3"]) == (0, "")
        lock = json.loads((tmp_path / "out").read_text())
        assert lock["setpoint"] == setpoint
        assert lock["residual_std"] > 0

    @pytest.mark.parametrize("pulses", [
        2 ** 63, 2 ** 63 - 1, 2 ** 70, 2.0 ** 63, 1e308])
    def test_pulses_past_the_binomial_count_exit_2(self, pulses, config_path,
                                                   tmp_path, capsys):
        # int64 max becomes the float 2 ** 63, past what numpy can draw
        assert self.run_with(config_path, tmp_path, capsys,
                             {"pulses_per_setting": pulses},
                             ["simulate"]) == (
            2, "dgbs: pulses_per_setting must be at most "
               f"9223372036854775807, the largest count of the binomial "
               f"draw, got {pulses!r}\n")

    def test_largest_pulses_per_setting_is_drawn(self, config_path,
                                                 tmp_path, capsys):
        assert self.run_with(config_path, tmp_path, capsys,
                             {"pulses_per_setting": 2.0 ** 63 - 1024},
                             ["simulate"]) == (0, "")

    @pytest.mark.parametrize("settings, message", [
        pytest.param({"drift": {"sigma": 1e308}}, "the lock trace goes "
                     "beyond floating-point range: check the drift and pid "
                     "settings", id="drift-sigma"),
        pytest.param({"drift": {"amplitude": 1e308}}, "the lock phase "
                     "9.048270524660196e+307 is beyond the range of the "
                     "error signal", id="drift-amplitude"),
        pytest.param({"drift": {"amplitude": -1e308}}, "the lock phase "
                     "-9.048270524660196e+307 is beyond the range of the "
                     "error signal", id="drift-amplitude-negative"),
        pytest.param({"pid": {"setpoint": 1e308}}, "the lock phase 1e+308 is "
                     "beyond the range of the error signal",
                     id="pid-setpoint"),
    ])
    def test_lock_beyond_float_range_exits_1(self, settings, message,
                                             config_path, tmp_path, capsys):
        # before, a non-finite number reached the JSON writer, or cmath
        # raised "math domain error"
        assert self.run_with(config_path, tmp_path, capsys, settings,
                             ["lock", "--duration", "3"]) == (
            1, f"dgbs: {message}\n")

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

    @pytest.mark.parametrize("section, key, value, message", [
        ("source", "squeezer_ports", 5,
         "bad source config: squeezer_ports must be a list of 2 ports, "
         "got 5"),
        ("source", "squeezer_ports", [0, 1, 3],
         "bad source config: squeezer_ports must be a list of 2 ports, "
         "got [0, 1, 3]"),
        ("transfer", "input_ports", 7,
         "bad transfer config: input_ports must be a list of ports, got 7"),
        ("transfer", "input_ports", ["a", 1, 2],
         "bad transfer config: input port 'a' is not a mode of the 3-mode "
         "circuit"),
        ("transfer", "m", "x",
         "bad transfer config: m must be an integer, got 'x'"),
        ("transfer", "m", 5, "bad transfer config: transfer matrix shape "
         "(3, 3) != (5,3)"),
        ("transfer", "d", [3],
         "bad transfer config: d must be an integer, got [3]"),
        (None, "pulses_per_setting", "x",
         "pulses_per_setting must be a positive number or \"inf\", got 'x'"),
        (None, "pulses_per_setting", 0,
         "pulses_per_setting must be a positive number or \"inf\", got 0"),
        (None, "pulses_per_setting", True, "pulses_per_setting must be a "
         "positive number or \"inf\", got True"),
        ("source", "squeezer_ports", [[0], 1],
         "bad source config: input port [0] is not a mode of the 3-mode "
         "circuit"),
        ("source", "coherent_port", [2],
         "bad source config: input port [2] is not a mode of the 3-mode "
         "circuit"),
        # a misspelt key is refused, not read as absent
        (None, "pulses_per_settings", 1000,
         "unknown config key 'pulses_per_settings'"),
    ])
    def test_config_field_of_wrong_type_exits_2(
            self, section, key, value, message, config_path, tmp_path,
            capsys):
        # the README d=3 config (the lab-d6 d3.json of seed 0); only
        # simulate reads pulses_per_setting
        config = json.loads(Path(config_path).read_text())
        (config if section is None else config[section])[key] = value
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        commands = [["simulate"]] if section is None else [
            ["probs", "--n-max", "1"], ["simulate"],
            ["lock", "--duration", "3"]]
        for command in commands:
            code = main([*command, "--config", str(path), "--out", str(out)])
            assert (code, capsys.readouterr().err) == (
                2, f"dgbs: {message}\n"), command
            assert not out.exists()

    @pytest.mark.parametrize("grid, message", [
        (["a"], "entry 0 must be a real number, got 'a'"),
        ([[1, 2]], "entry 0 must be a real number, got [1, 2]"),
        ([0.5, True], "entry 1 must be a real number, got True"),
        ([], "the list is empty"),
        ("x", 'expected a list or an object with "start", "stop" and "num", '
         "got 'x'"),
        ({"start": 0, "num": 4}, 'expected a list or an object with '
         '"start", "stop" and "num", got {\'start\': 0, \'num\': 4}'),
        ({"start": "0", "stop": 1, "num": 4}, "start and stop must be real "
         "numbers, got '0' and 1"),
        ({"start": 0, "stop": 1, "num": 0},
         "num must be an integer from 1 to 100000, got 0"),
        ({"start": 0, "stop": 1, "num": 4.0},
         "num must be an integer from 1 to 100000, got 4.0"),
        ({"start": 0, "stop": 1, "num": 1e9},
         "num must be an integer from 1 to 100000, got 1000000000.0"),
        ({"start": 0, "stop": 1, "num": 100_001},
         "num must be an integer from 1 to 100000, got 100001"),
    ])
    def test_bad_phi_grid_exits_2(self, grid, message, config_path, tmp_path,
                                  monkeypatch, capsys):
        # a grid past the bound is refused before numpy allocates it
        def refuse(*args, **kw):
            raise AssertionError("a bad phi_grid reached np.linspace")

        monkeypatch.setattr(np, "linspace", refuse)
        config = json.loads(Path(config_path).read_text())
        config["phi_grid"] = grid
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(path), "--out", str(out)])
        assert (code, capsys.readouterr().err) == (
            2, f"dgbs: bad phi_grid: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("pulses", [MAX_PULSES + 1, 10 ** 13, 10 ** 20])
    def test_pulses_past_the_bound_exit_2(self, pulses, config_path,
                                          tmp_path, monkeypatch, capsys):
        # a draw past the bound is refused before it is made and before
        # --out is opened (10**13 pulses asked numpy for 72.8 TiB when a
        # draw held 16 B per pulse)
        def refuse(*args, **kw):
            raise AssertionError("a refused --pulses reached the sampler")

        monkeypatch.setattr(cli, "sample_patterns", refuse)
        out = tmp_path / "samples.csv"
        code = main(["sample", "--config", config_path, "--pulses",
                     str(pulses), "--out", str(out)])
        assert (code, capsys.readouterr().err) == (
            2, f"dgbs: --pulses must be at most {MAX_PULSES}, got {pulses}\n")
        assert not out.exists()

    def test_largest_pulses_reach_the_sampler(self, config_path, tmp_path,
                                              monkeypatch):
        asked = []

        def small_draw(kernel, model, pulses, *args, **kw):
            asked.append(pulses)
            return sample_patterns(kernel, model, 10, *args, **kw)

        monkeypatch.setattr(cli, "sample_patterns", small_draw)
        assert main(["sample", "--config", config_path, "--pulses",
                     str(MAX_PULSES), "--out", str(tmp_path / "s.csv")]) == 0
        assert asked == [MAX_PULSES]

    @pytest.mark.parametrize("argv", [
        ["probs"], ["sample", "--pulses", "50"],
        ["compare", "--model-b", "korder(0)"]], ids=lambda argv: argv[0])
    def test_n_max_past_d_stops_at_d(self, argv, config_path, tmp_path,
                                     monkeypatch):
        # no collision-free pattern has more photons than the 3 modes, so
        # --n-max 10**9 writes the bytes of --n-max 3, and no loop runs over
        # the empty sectors (at about 17 us each, 10**9 took hours; compare
        # built a set of them first)
        def short_range(*args):
            steps = range(*args)
            if len(steps) > 1000:
                raise AssertionError(f"{steps} reached a loop")
            return steps

        for module in (cli, experiment):
            monkeypatch.setattr(module, "range", short_range, raising=False)
        outs = []
        for n_max in ("3", str(10 ** 9)):
            out = tmp_path / f"out-{n_max}"
            assert main([*argv, "--config", config_path, "--n-max", n_max,
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    CAP = "--n-max 11 needs kernel size 22, past the cap 20"

    @pytest.mark.parametrize("argv, d, message", [
        pytest.param(["probs", "--collisions", "--n-max", "11"], 3, CAP,
                     id="probs-collisions"),
        pytest.param(["probs", "--n-max", "11"], 12, CAP, id="probs"),
        pytest.param(["sample", "--n-max", "11"], 12, CAP, id="sample"),
        pytest.param(["compare", "--model-b", "full", "--n-max", "11"], 12,
                     CAP, id="compare"),
        pytest.param(["probs", "--n-max", "10"], 21,
                     "--n-max 10 needs 352716 patterns of 10 photons, past "
                     "the budget 200000", id="probs-budget"),
        pytest.param(["probs", "--collisions", "--n-max", "8"], 15,
                     "--n-max 8 needs 319770 patterns of 8 photons, past "
                     "the budget 200000", id="probs-collisions-budget"),
    ])
    def test_n_max_past_the_kernel_cap_or_budget_exits_2(
            self, argv, d, message, tmp_path, monkeypatch, capsys):
        # refused before any table is built and before --out is opened; a
        # d=15 probs at --n-max 11 used to evaluate ten sectors (13.5 s)
        # and then exit 1, and compare left sector 11 out without a word
        def refuse(*args, **kw):
            raise AssertionError("a refused --n-max reached the evaluator")

        monkeypatch.setattr(StateKernel, "pattern_probabilities", refuse)
        config = write_config(tmp_path, d, 42, {
            "r": 0.35, "alpha_mag": 0.6, "phi": 0.0,
            "squeezer_ports": [0, 1], "coherent_port": 2})
        out = tmp_path / "out"
        code = main([*argv, "--config", config, "--out", str(out)])
        assert (code, capsys.readouterr().err) == (2, f"dgbs: {message}\n")
        assert not out.exists()

    def test_n_max_at_the_kernel_cap_runs(self, config_path, tmp_path):
        # kernel size 20, the cap, and at most 66 patterns per sector
        out = tmp_path / "probs.json"
        assert main(["probs", "--config", config_path, "--collisions",
                     "--n-max", "10", "--out", str(out)]) == 0
        tables = json.loads(out.read_text())["distributions"]
        assert sorted(map(int, tables)) == list(range(1, 11))
        assert len(tables["10"]["patterns"]) == 66

    @pytest.mark.parametrize("grid, size", [
        ([0.5], 1), ([0, 1.5, 3], 3), ({"start": 0, "stop": 1, "num": 1}, 1),
        ({"start": 0.0, "stop": 2.0, "num": serialize.MAX_PHI_POINTS},
         serialize.MAX_PHI_POINTS)])
    def test_phi_grid_bounds_accepted(self, grid, size):
        phis = serialize.phi_grid_from_config({"phi_grid": grid})
        assert phis.shape == (size,) and phis.dtype == float

    @pytest.mark.parametrize("grid", [
        pytest.param({"start": 0.0, "stop": 2 ** 70, "num": 4}, id="stop"),
        pytest.param({"start": 2 ** 70, "stop": 1.0, "num": 4}, id="start"),
        pytest.param({"start": -2 ** 70, "stop": 1.0, "num": 4},
                     id="start-negative"),
    ])
    def test_phi_grid_int_past_int64_is_read_as_float(
            self, grid, config_path, tmp_path, capsys):
        # numpy made such an int an object array: a traceback from
        # np.linspace, exit 1
        assert self.run_with(config_path, tmp_path, capsys,
                             {"phi_grid": grid}, ["simulate"]) == (0, "")
        phis = serialize.phi_grid_from_config({"phi_grid": grid})
        want = np.linspace(float(grid["start"]), float(grid["stop"]), 4,
                           endpoint=False)
        assert phis.dtype == float and phis.tobytes() == want.tobytes()

    @pytest.mark.parametrize("key", ["start", "stop"])
    def test_phi_grid_int_beyond_float_range_exits_2(
            self, key, config_path, tmp_path, capsys):
        grid = {"start": 0.0, "stop": 1.0, "num": 4, key: 10 ** 400}
        code, err = self.run_with(config_path, tmp_path, capsys,
                                  {"phi_grid": grid}, ["simulate"])
        assert code == 2
        assert err.startswith("dgbs: bad phi_grid: start and stop must be "
                              "real numbers, got ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("alpha_mag, shown", [
        pytest.param(100, "100", id="100"),
        pytest.param(2 ** 70, "1.18059e+21", id="2**70"),
    ])
    def test_oracle_too_bright_exits_1(self, alpha_mag, shown, config_path,
                                       tmp_path, capsys):
        # the input's photon-number tail overflowed a float: a traceback
        # with OverflowError, exit 1
        assert self.run_with(config_path, tmp_path, capsys,
                             {"source": {"alpha_mag": alpha_mag}},
                             ["oracle", "--pattern", "1,0,0"]) == (
            1, f"dgbs: no cutoff <= 18 serves the coherent amplitude "
               f"{shown}; the input is too bright for the Fock oracle\n")

    @pytest.mark.parametrize("ports, message", [
        ({"coherent_port": 5}, "input port 5 is not a mode of the 3-mode "
         "circuit"),
        ({"squeezer_ports": [-1, 0], "coherent_port": 1},
         "input port -1 is not a mode of the 3-mode circuit"),
        ({"coherent_port": 1.5}, "input port 1.5 is not a mode of the "
         "3-mode circuit"),
    ])
    @pytest.mark.parametrize("command", [
        ["probs", "--n-max", "1"], ["oracle", "--pattern", "1,0,0"],
        ["sample", "--pulses", "10"], ["lock", "--duration", "10"],
        ["simulate"]])
    def test_source_port_outside_the_circuit_exits_2(
            self, ports, message, command, config_path, tmp_path, capsys):
        # the README d=3 config (the lab-d6 d3.json of seed 0): its ports
        # are checked when the config is read, not when a state is built
        config = json.loads(Path(config_path).read_text())
        config["source"].update(ports)
        path = tmp_path / "ports.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        code = main([*command, "--config", str(path), "--out", str(out)])
        assert (code, capsys.readouterr().err) == (
            2, f"dgbs: bad source config: {message}\n")
        assert not out.exists()

    def test_second_input_port_outside_the_circuit_exits_2(
            self, config_path, tmp_path, capsys):
        config = json.loads(Path(config_path).read_text())
        config["second_input_port"] = 3
        path = tmp_path / "second.json"
        path.write_text(json.dumps(config))
        code = main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        assert (code, capsys.readouterr().err) == (
            2, "dgbs: bad source config: input port 3 is not a mode of the "
               "3-mode circuit\n")

    def test_second_input_port_on_a_squeezer_port_exits_2(
            self, config_path, tmp_path, capsys):
        # the second source's ports overlap: a domain error, exit 1, before
        config = json.loads(Path(config_path).read_text())
        config["second_input_port"] = 0
        path = tmp_path / "second.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(path), "--out", str(out)])
        assert (code, capsys.readouterr().err) == (
            2, "dgbs: bad source config: input ports overlap: (0, 1, 0)\n")
        assert not out.exists()

    @pytest.mark.parametrize("kind", [
        "threefolds_not_json", "threefolds_no_total", "threefolds_bad_row",
        "threefolds_other_d", "threefolds_other_d_no_fallback",
        "threefolds_fractional_row", "threefolds_bool_in_row",
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
        elif kind == "threefolds_fractional_row":   # not truncated to 1,1,1
            bad.write_text(json.dumps({"d": 3, "total": 3,
                                       "collision_free": True,
                                       "patterns": [[1.9, 1, 1]],
                                       "probabilities": [1.0]}))
        elif kind == "threefolds_bool_in_row":   # true is no count, not 1
            bad.write_text(json.dumps({"d": 3, "total": 3,
                                       "collision_free": True,
                                       "patterns": [[1, True, 1]],
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

    def test_subnormal_count_exits_1(self, config_path, tmp_path, capsys):
        # one pulse per setting and a subnormal twofold count: its Poisson
        # sigma squared underflows, so its fringe weight 1/sigma^2 overflows
        records = tmp_path / "recs.csv"
        assert main(["simulate", "--config", config_path,
                     "--out", str(records)]) == 0
        comment, header, *rows = records.read_text().splitlines()
        rows = [",".join([*row.split(",")[:3], "0", "1"]) for row in rows]
        rows = [row.replace(",0,1", ",1,1") if ",vac," in row else row
                for row in rows]
        i = next(i for i, row in enumerate(rows)
                 if row.startswith("input1,") and ",0:1," in row)
        rows[i] = rows[i].replace(",0,1", ",1e-320,1")
        records.write_text("\n".join([comment, header, *rows]) + "\n")
        code = main(["reconstruct", "--records", str(records),
                     "--out", str(tmp_path / "out.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("dgbs: fringe weights 1/sigma^2 overflow") \
            and "Traceback" not in err and err.count("\n") == 1

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

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_threefolds_exit_2(self, value, config_path,
                                          tmp_path, capsys):
        # a NaN passed the range and sum checks and ended in a traceback
        records, threefolds = tmp_path / "recs.csv", tmp_path / "three.json"
        assert main(["simulate", "--config", config_path,
                     "--out", str(records)]) == 0
        threefolds.write_text('{"d": 3, "total": 3, "collision_free": true, '
                              '"patterns": [[1, 1, 1]], '
                              f'"probabilities": [{value}]}}')
        code = main(["reconstruct", "--records", str(records),
                     "--threefolds", str(threefolds),
                     "--out", str(tmp_path / "out.json")])
        assert (code, capsys.readouterr().err) == (
            2, f"dgbs: bad threefolds file {threefolds}: ConfigurationError("
               "'probabilities must be finite, nonnegative and sum to 1')\n")

    def test_threefolds_not_utf8_exits_2(self, config_path, tmp_path,
                                         capsys):
        records, threefolds = tmp_path / "recs.csv", tmp_path / "three.json"
        assert main(["simulate", "--config", config_path,
                     "--out", str(records)]) == 0
        threefolds.write_bytes(b'{"d": 3, "model": "\xff"}')
        code = main(["reconstruct", "--records", str(records),
                     "--threefolds", str(threefolds),
                     "--out", str(tmp_path / "out.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"dgbs: cannot read {threefolds}: ")
        assert err.count("\n") == 1 and "0xff" in err

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None, []])
    def test_include_collisions_must_be_a_boolean(self, value, config_path,
                                                  tmp_path, capsys):
        # bool(value) read "false" as true
        assert self.run_with(config_path, tmp_path, capsys,
                             {"include_collisions": value},
                             ["simulate"]) == (
            2, f"dgbs: include_collisions must be true or false, got "
               f"{value!r}\n")

    @pytest.mark.parametrize("model", [
        "korder2", "korder)2(", "korder((2))", "korder(2", "korder2)",
        "korder(\u0662)", "korder(+2)", "korder( 2)", "korder(2_0)",
        "korder(-1)", "korder(2) "])
    def test_korder_needs_ascii_digits_in_parentheses(self, model,
                                                      config_path, tmp_path,
                                                      capsys):
        # each was read as korder(2), korder(20) or a negative order
        code = main(["probs", "--config", config_path, "--model", model,
                     "--out", str(tmp_path / "out.json")])
        assert (code, capsys.readouterr().err) == (
            2, f"dgbs: bad model {model!r}: expected korder(k) with k in "
               "ASCII digits\n")

    @pytest.mark.parametrize("model", [" full", "full ", " korder(2) "])
    def test_model_with_surrounding_space_exits_2(self, model, config_path,
                                                  tmp_path, capsys):
        # the text was stripped, so each ran as full or korder(2)
        code = main(["probs", "--config", config_path, "--model", model,
                     "--out", str(tmp_path / "out.json")])
        assert (code, capsys.readouterr().err) == (
            2, f"dgbs: bad model {model!r}: unknown model kind {model!r}\n")


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


def _csv_rejects_nul() -> bool:
    try:
        next(csv.reader(["\0\n"]))
    except csv.Error:
        return True
    return False


CSV_REJECTS_NUL = _csv_rejects_nul()


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
        # a blank line before the header is a header error
        ({"header": "\n" + RECORDS_HEADER},
         "records CSV must start with the standard header"),
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
        # a blank line before the header is a header error
        ({"header": "\n" + SAMPLES_HEADER},
         "samples CSV must have header pulse,bitmask_hex,phi"),
        # a fourth field is read past, the bad mask after it named
        ({1: "1,discard,0,extra", 3: "3,8,0"},
         "samples line 7: ['8'] is not a bitmask over 3 modes"),
        # csv rejects a NUL before Python 3.11 and reads it since
        ({2: "2,3,0\0", 3: "3,8,0"}, "samples line 6: line contains NUL"
         if CSV_REJECTS_NUL else
         "samples line 7: ['8'] is not a bitmask over 3 modes"),
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
    def test_tracer_runs_probs_oracle_sample_and_lock(self, config_path,
                                                      tmp_path):
        # the benchmark's tracer wraps functions and methods that it looks
        # up by name and reads some of their arguments and results (the
        # lock's error signal and its times), so a deleted name or a value
        # it cannot read breaks a traced run
        import dgbs
        src = str(Path(dgbs.__file__).resolve().parents[1])
        bench = str(Path(__file__).resolve().parents[1] / "perfbench")
        runs = [["probs", "--n-max", "3", "--collisions"],
                ["oracle", "--pattern", "1,1,0"],
                ["sample", "--pulses", "500", "--n-max", "3"],
                ["lock", "--duration", "3"]]
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
            "metrics = tracer.layer_metrics()\n"
            "print(len(metrics), metrics['experiment.pid_lock.steps'],\n"
            "      metrics['experiment.error_signal_evals'])\n")
        out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                             env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        count, steps, evals = map(int, out.stdout.split())
        assert count > 0
        # 30 steps of the 3 s lock; the 30 s tuning run's 300 steps, its
        # slope's 2 evaluations and each run's setpoint signal
        assert (steps, evals) == (30, 300 + 2 + 1 + 30 + 1)


class TestStartup:
    def test_cli_runs_without_scipy(self, config_path, tmp_path):
        # a fresh interpreter in which scipy cannot be imported runs probs,
        # and simulate and reconstruct through the threefold phase fallback
        # (a d=4 circuit without a second input leaves every Im C sign
        # unknown); the modules of this test process do not count
        import dgbs
        src = str(Path(dgbs.__file__).resolve().parents[1])
        cfg = json.loads(Path(config_path).read_text())
        cfg["source"].update(r=0.35, alpha_mag=0.7)
        cfg["transfer"] = {"t": matrix_to_json(
            math.sqrt(0.5) * haar_unitary(4, seed=3))}
        (tmp_path / "d4.json").write_text(json.dumps(cfg))
        config = load_config(str(tmp_path / "d4.json"))
        truth = StateKernel.from_state(propagate(build_input_state(
            source_from_config(config), 4), transfer_from_config(config)))
        (tmp_path / "three.json").write_text(
            distribution_from_kernel(truth, 3).to_json())
        runs = [["probs", "--config", config_path, "--out", "p.json"],
                ["simulate", "--config", "d4.json", "--out", "records.csv"],
                ["reconstruct", "--records", "records.csv",
                 "--threefolds", "three.json", "--out", "state.json"]]
        code = (
            "import sys\n"
            "class NoScipy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.partition('.')[0] == 'scipy':\n"
            "            raise ImportError('scipy is not installed')\n"
            "sys.meta_path.insert(0, NoScipy())\n"
            "import dgbs, dgbs.cli\n"
            f"for argv in {runs!r}:\n"
            "    assert dgbs.cli.main(argv) == 0, argv\n"
            "print(sorted(m for m in sys.modules"
            " if m.partition('.')[0] == 'scipy'))\n")
        out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                             env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"
        assert json.loads((tmp_path / "p.json").read_text())["command"] \
            == "probs"
        report = json.loads(
            (tmp_path / "state.json").read_text())["optimizer_report"]
        assert report["best_tvd"] < 1e-6
        # 4 threefold patterns fix at most 3 of the 6 phases, as each
        # normalised row of their Jacobian sums to 0
        assert len(report["entries"]) == 6
        assert report["free_phases"] >= 3
