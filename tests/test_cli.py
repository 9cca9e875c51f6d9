import argparse
import json
import math
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from latticemix import cli
from latticemix.cli import build_parser, main
from latticemix.output import format_value, write_csv, write_json, write_svg
from latticemix.spectral import LatticeSpec

from oracles import enumerated_spectral_gap


def run(*argv) -> int:
    return main(list(argv))


def read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _refuse_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def read_strict_json(path):
    """Parse like a strict JSON reader: NaN and Infinity are errors."""
    return json.loads(read(path), parse_constant=_refuse_constant)


class TestDeterminism:
    @pytest.mark.parametrize("job", [
        ("fig1", "--dims", "19,5", "--t-max", "30", "--out", "{out}.csv"),
        ("lemma2", "--n", "19", "--T", "100", "--offset", "0", "--out", "{out}.json"),
        ("conjecture", "--range", "10,60", "--pairs", "2", "--seed", "3",
         "--T-max", "100", "--out", "{out}.csv"),
        ("mix-repeated", "--dims", "19,5", "--T", "24", "--rounds", "3",
         "--out", "{out}.csv"),
        ("mix-repeated", "--dims", "7,5", "--T", "9", "--rounds", "2", "--mode",
         "sampled", "--trajectories", "2000", "--seed", "11", "--out", "{out}.json"),
        ("mix-coordinate", "--dims", "19,5", "--out", "{out}.json"),
        ("spectrum", "--dims", "5,3", "--out", "{out}.csv"),
        ("theorem3", "--n1", "19", "--n2", "5", "--relaxed", "--tier", "slow",
         "--out", "{out}.json"),
    ])
    def test_byte_identical_reruns(self, tmp_path, job):
        out = str(tmp_path / "artifact")
        argv = [part.format(out=out) for part in job]
        target = argv[argv.index("--out") + 1]
        assert run(*argv) == 0
        first = read(target)
        first_manifest = read(target + ".manifest.json")
        assert run(*argv) == 0
        assert read(target) == first
        assert read(target + ".manifest.json") == first_manifest


class TestExitCodes:
    def test_usage_error_is_one(self):
        with pytest.raises(SystemExit) as err:
            run("no-such-command", "--out", "x.csv")
        assert err.value.code == 1

    def test_missing_required_flag_is_one(self, tmp_path):
        assert run("lemma2", "--out", str(tmp_path / "r.json")) == 1

    @pytest.mark.parametrize("argv", [
        ("kernel", "--dims", "1,x"),
        ("conjecture", "--range", "10"),
        ("conjecture", "--range", "a,b", "--pairs", "1"),
    ])
    def test_bad_value_is_one_line_usage_error(self, tmp_path, capsys, argv):
        assert run(*argv, "--out", str(tmp_path / "a.csv")) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and argv[1] in err

    @pytest.mark.parametrize("argv", [
        ("mix-repeated", "--dims", "5,3", "--T", "2", "--mode", "sampled",
         "--trajectories", "0"),
        ("mix-classical", "--dims", "5", "--t-max", "-5"),
        ("conjecture", "--pairs", "0"),
        ("conjecture", "--pairs", "-3"),
        ("kernel", "--dims", "5,3", "--T", "2", "--power", "-1"),
        ("mix-coordinate", "--dims", "5,3", "--rounds", "-1"),
        ("mix-repeated", "--dims", "5,3", "--T", "2", "--mode", "sampled", "--seed", "-1"),
        ("conjecture", "--pairs", "1", "--seed", "-1"),
        ("mix-repeated", "--dims", "5,3", "--T", "2", "--trajectories", "-5"),
        ("mix-repeated", "--dims", "5,3", "--T", "2", "--rounds", "0"),
        ("conjecture", "--range", "10,20", "--pairs", "1", "--parallel", "0"),
        ("conjecture", "--range", "10,20", "--pairs", "1", "--parallel", "-3"),
    ])
    def test_out_of_range_count_is_one(self, tmp_path, capsys, argv):
        # refused when the flag is cast, so the one line names the flag
        out = str(tmp_path / "a.csv")
        assert run(*argv, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"bad {argv[-2]} value {argv[-1]!r}" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("argv", [
        ("kernel", "--dims", "5,3", "--T", "-1e3"),
        ("kernel", "--dims", "5,3", "--T", "-inf"),
        ("kernel", "--dims", "5,3", "--kind", "instant", "--t", "-2.5e1"),
    ])
    def test_negative_float_is_a_value_not_a_flag(self, tmp_path, capsys, argv):
        out = str(tmp_path / "k.csv")
        assert run(*argv, "--out", out) == 1
        assert capsys.readouterr().err.count("\n") == 1
        assert not os.path.exists(out)

    @pytest.mark.parametrize("argv, message", [
        (("mix-coordinate", "--dims", "1000000,2"), "exceeds dense limit"),
        (("kernel", "--dims", "395,165,3", "--kind", "averaged", "--T", "5"),
         "class-pair partial sums need 268726112 doubles (2.0 GiB)"),
        (("kernel", "--dims", "200000", "--kind", "instant", "--t", "1"),
         "cosines c_a(l) of Z_200000 need 10000200001 doubles (74.5 GiB)"),
        (("mix-coordinate", "--dims", "200000"),
         "cosines c_a(l) of Z_200000 need 10000200001 doubles (74.5 GiB)"),
        (("kernel", "--dims", "1501,3", "--kind", "averaged", "--T", "10"),
         "class-pair coefficients of Z_1501 need 423564751 doubles (3.2 GiB)"),
    ])
    def test_oversized_job_is_one_line(self, tmp_path, capsys, argv, message):
        out = str(tmp_path / "a.json")
        assert run(*argv, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("argv", [
        ("kernel", "--dims", "9", "--kind", "instant", "--t", "1e300"),
        ("mix-repeated", "--dims", "5,3", "--T", "1e300", "--mode", "sampled"),
        ("conjecture", "--range", "10,30", "--pairs", "1", "--T-max", "1e300"),
    ])
    def test_phase_past_the_limit_is_one_line(self, tmp_path, capsys, argv):
        out = str(tmp_path / "a.csv")
        assert run(*argv, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "past the phase limit 2**52" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("message", ["Unable to allocate 1.49 GiB for an array", ""],
                             ids=["numpy", "bare"])
    def test_out_of_memory_is_one_line(self, tmp_path, capsys, monkeypatch, message):
        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "coordinate_wise_run", exhausted)
        out = str(tmp_path / "a.json")
        assert run("mix-coordinate", "--dims", "9", "--out", out) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("latticemix mix-coordinate: out of memory")
        assert (message or "allocation failed") in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("bounds", ["100,10", "9,10"])
    @pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
    def test_empty_conjecture_range_is_one(self, tmp_path, capsys, monkeypatch, bounds, fmt):
        def must_not_run(*args, **kwargs):
            raise AssertionError("empty range reached the sweep")

        monkeypatch.setattr(cli, "bound_sweep", must_not_run)
        out = str(tmp_path / f"c.{fmt}")
        assert run("conjecture", "--range", bounds, "--pairs", "1", "--format", fmt,
                   "--out", out) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"range {bounds} holds no coprime odd pair" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("damage", ["no meta", "truncated", "text"])
    def test_malformed_checkpoint_is_one_line(self, tmp_path, capsys, damage):
        path = tmp_path / "partial.npz"
        if damage == "text":
            path.write_text("not a checkpoint\n")
        else:
            fields = {"next_block": 4, "partial": np.zeros((46, 3))}
            if damage == "truncated":
                fields["meta"] = np.array((3, 19, 5, 24.0, 256))
            np.savez(path, **fields)
            if damage == "truncated":
                path.write_bytes(path.read_bytes()[:-100])
        out = str(tmp_path / "t.json")
        assert run("theorem3", "--n1", "19", "--n2", "5", "--T", "24", "--relaxed",
                   "--tier", "slow", "--checkpoint", str(path), "--out", out) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"checkpoint {path} is not a readable partial-sum file" in err
        assert "delete it to start the run over" in err
        assert path.exists() and not os.path.exists(out)

    def test_slow_tier_refusal(self, tmp_path):
        assert run("theorem3", "--out", str(tmp_path / "t.json")) == 1
        assert run("conjecture", "--range", "10,20", "--out", str(tmp_path / "c.csv")) == 1

    def test_bound_violation_is_two_with_report_written(self, tmp_path):
        out = str(tmp_path / "coord.json")
        code = run("mix-coordinate", "--dims", "19,5", "--rounds", "0",
                   "--epsilon", "0.1", "--out", out)
        assert code == 2
        payload = json.loads(read(out))
        assert payload["verdicts"]["joint_within_epsilon"] is False

    def test_unwritable_output_is_one(self, tmp_path):
        assert run("lemma2", "--n", "19", "--T", "10",
                   "--out", str(tmp_path / "missing_dir" / "r.json")) == 1


class TestOutputs:
    def test_fig1_schema_and_uniform_level(self, tmp_path):
        out = str(tmp_path / "fig1.csv")
        assert run("fig1", "--dims", "19,5", "--t-max", "25", "--out", out) == 0
        lines = read(out).decode().splitlines()
        assert lines[0] == "T,quantum_return,classical_return,uniform_level"
        first = lines[1].split(",")
        assert float(first[3]) == 1.0 / 95.0
        assert len(lines) == 27

    @pytest.mark.parametrize("argv", [
        ("fig1", "--dims", "10,8", "--t-max", "20"),
        ("kernel", "--dims", "6,5", "--kind", "averaged", "--T", "12.5"),
    ])
    def test_even_cycles_take_the_exact_route(self, tmp_path, argv):
        out = str(tmp_path / "even.csv")
        assert run(*argv, "--out", out) == 0
        assert os.path.exists(out)

    def test_json_writes_numpy_values(self, tmp_path):
        out = tmp_path / "values.json"
        write_json(str(out), {
            "float": np.float64(0.1), "flag": np.bool_(True), "count": np.int64(7),
            "curve": np.array([1, 2]), "scalar": np.array(2.5), "pair": (np.float64(1.5), 2),
        })
        assert json.loads(read(out)) == {
            "count": 7, "curve": [1, 2], "flag": True, "float": 0.1, "pair": [1.5, 2],
            "scalar": 2.5,
        }
        assert read(out).decode().splitlines()[1] == '  "count": 7,'

    def test_json_refuses_other_objects(self, tmp_path):
        with pytest.raises(TypeError, match="set"):
            write_json(str(tmp_path / "bad.json"), {"x": {1}})

    @pytest.mark.parametrize("value", [math.nan, np.float64(math.inf), np.array([1.0, -math.inf])],
                             ids=["nan", "numpy-inf", "array"])
    def test_json_refuses_non_finite_floats(self, tmp_path, value):
        out = tmp_path / "bad.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_json(str(out), {"x": value})
        assert not out.exists()

    def test_fig1_gaps_past_t_max_are_null(self, tmp_path):
        # the mark n1 + n2 = 24 lies past t_max = 3
        out = str(tmp_path / "fig1.json")
        assert run("fig1", "--dims", "19,5", "--t-max", "3", "--format", "json",
                   "--out", out) == 0
        scalars = read_strict_json(out)["scalars"]
        assert scalars["quantum_gap_at_mark"] is None
        assert scalars["classical_gap_at_mark"] is None

    def test_lemma2_payload(self, tmp_path):
        out = str(tmp_path / "r.json")
        assert run("lemma2", "--n", "19", "--T", "100", "--offset", "0",
                   "--out", out) == 0
        payload = json.loads(read(out))
        assert payload["satisfied"] is True
        assert abs(payload["rhs"] - 100152.61586030496) < 1e-6
        assert payload["lhs"] <= payload["rhs"]

    def test_conjecture_schema(self, tmp_path):
        out = str(tmp_path / "c.csv")
        assert run("conjecture", "--range", "10,40", "--pairs", "2", "--seed", "5",
                   "--T-max", "100", "--out", out) == 0
        lines = read(out).decode().splitlines()
        assert lines[0] == "n1,n2,T,lhs,rhs,satisfied"
        assert all(line.endswith("true") for line in lines[1:])
        manifest = json.loads(read(out + ".manifest.json"))
        assert manifest["command"] == "conjecture"
        assert manifest["config"]["seed"] == 5

    def test_kernel_csv_roundtrip(self, tmp_path):
        out = str(tmp_path / "k.csv")
        assert run("kernel", "--dims", "19,5", "--kind", "averaged", "--T", "24",
                   "--out", out) == 0
        rows = read(out).decode().splitlines()[1:]
        probs = np.array([float(r.split(",")[-1]) for r in rows])
        assert probs.size == 95
        assert abs(probs.sum() - 1.0) < 1e-9

    def test_three_factor_averaged_kernel_matches_quadrature(self, tmp_path):
        columns = []
        for kind in ("averaged", "averaged-quad"):
            out = str(tmp_path / f"{kind}.csv")
            assert run("kernel", "--dims", "7,5,3", "--kind", kind, "--T", "9",
                       "--out", out) == 0
            rows = read(out).decode().splitlines()[1:]
            columns.append(np.array([float(r.split(",")[-1]) for r in rows]))
        assert columns[0].size == 105
        assert np.abs(columns[0] - columns[1]).max() <= 1e-6

    def test_kernel_power_zero_is_identity(self, tmp_path):
        out = str(tmp_path / "k.json")
        assert run("kernel", "--dims", "5,3", "--T", "2", "--power", "0",
                   "--format", "json", "--out", out) == 0
        payload = json.loads(read(out))
        assert payload["first_column"] == [1.0] + [0.0] * 14
        assert payload["column_distance"] == 1.0

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_spectrum_eigenvalues_mirror_bitwise(self, tmp_path, fmt):
        # lambda_j = lambda_{n-j} exactly, odd and even cycles alike
        out = str(tmp_path / f"s.{fmt}")
        dims = (19, 8, 2)
        assert run("spectrum", "--dims", ",".join(map(str, dims)), "--format", fmt,
                   "--out", out) == 0
        if fmt == "json":
            tables = [f["eigenvalues"] for f in json.loads(read(out))["factors"]]
        else:
            rows = [line.split(",") for line in read(out).decode().splitlines()[1:]]
            tables = [[row[3] for row in rows if row[0] == str(axis)]
                      for axis in range(len(dims))]
        for n, lam in zip(dims, tables):
            assert len(lam) == n and float(lam[0]) == 1.0
            assert all(lam[j] == lam[n - j] for j in range(1, n))

    def test_spectrum_past_the_dense_limit(self, tmp_path):
        # N = 1004003: the gap reads each cycle's eigenvalues, not the joint spectrum
        out = str(tmp_path / "s.csv")
        assert run("spectrum", "--dims", "1001,1003", "--out", out) == 0
        header, *rows = [line.split(",") for line in read(out).decode().splitlines()]
        assert len(rows) == 2004
        gaps = np.array([float(row[header.index("joint_gap")]) for row in rows])
        assert np.abs(gaps - enumerated_spectral_gap(LatticeSpec((1001, 1003)))).max() <= 1e-15

    def test_csv_columns_match_the_per_cell_format(self, tmp_path):
        # one formatter per column of one kind, format_value per cell otherwise
        columns = {
            "int": [1, np.int64(-2), 30, 0],
            "float": [0.1, np.float64(1.0 / 3.0), -0.0, math.inf],
            "bool": [True, np.bool_(False), False, np.bool_(True)],
            "text": ["a", "b c", "", "d"],
            "mixed": [1, 2.5, True, np.float32(0.1)],
            "other": [np.int32(3), np.float32(1e-3), None, np.uint8(7)],
        }
        rows = list(zip(*columns.values()))
        expected = "\n".join([",".join(columns)]
                             + [",".join(format_value(v) for v in row) for row in rows]) + "\n"
        out = tmp_path / "columns.csv"
        write_csv(str(out), list(columns), iter(rows))
        assert read(out).decode() == expected
        write_csv(str(out), ["empty"], [])
        assert read(out) == b"empty\n"

    def test_svg_points_match_the_per_point_format(self, tmp_path):
        rng = np.random.default_rng(4)
        x = np.cumsum(rng.random(300))
        series = {"a": rng.random(300), "b": list(rng.normal(size=300)), "c": np.zeros(300)}
        out = tmp_path / "plot.svg"
        write_svg(str(out), "x", "y", x, series)
        ys = np.concatenate([np.asarray(y, dtype=float) for y in series.values()])
        x_lo, x_span = x.min(), x.max() - x.min()
        y_lo, y_span = ys.min(), ys.max() - ys.min()
        for ys in series.values():
            points = " ".join(f"{60.0 + (float(xv) - x_lo) / x_span * 680.0:.2f},"
                              f"{440.0 - (float(yv) - y_lo) / y_span * 380.0:.2f}"
                              for xv, yv in zip(x, ys))
            assert f'points="{points}"' in read(out).decode()

    def test_svg_output(self, tmp_path):
        out = str(tmp_path / "fig1.svg")
        assert run("fig1", "--dims", "19,5", "--t-max", "25", "--format", "svg",
                   "--out", out) == 0
        body = read(out).decode()
        assert body.startswith("<svg")
        assert body.count("<polyline") == 3

    def test_mix_classical_verdict(self, tmp_path):
        out = str(tmp_path / "mc.csv")
        assert run("mix-classical", "--dims", "9,5", "--epsilon", "0.25",
                   "--t-max", "60", "--out", out) == 0
        manifest = json.loads(read(out + ".manifest.json"))
        assert manifest["config"]["epsilon"] == 0.25

    def test_theorem3_relaxed_json(self, tmp_path):
        out = str(tmp_path / "t3.json")
        assert run("theorem3", "--n1", "19", "--n2", "5", "--relaxed",
                   "--tier", "slow", "--out", out) == 0
        payload = json.loads(read(out))
        assert payload["mode"] == "relaxed"
        assert len(payload["reports"]) == 6


class TestConfigResolution:
    def test_config_file_fills_unset_flags(self, tmp_path):
        config = tmp_path / "job.cfg"
        config.write_text("n=19\nT=100\noffset=0\n")
        out = str(tmp_path / "r.json")
        assert run("lemma2", "--config", str(config), "--out", out) == 0
        payload = json.loads(read(out))
        assert payload["n"] == 19 and payload["T"] == 100.0

    def test_flags_beat_config_file(self, tmp_path):
        config = tmp_path / "job.cfg"
        config.write_text("n=19\nT=100\n")
        out = str(tmp_path / "r.json")
        assert run("lemma2", "--config", str(config), "--T", "10", "--out", out) == 0
        payload = json.loads(read(out))
        assert payload["T"] == 10.0

    @pytest.mark.parametrize("argv, line, key", [
        (("lemma2", "--n", "19", "--T", "10"), "Tmax=5", "Tmax"),
        (("lemma2", "--n", "19", "--T", "10"), "format=xml", "format"),
        (("kernel", "--dims", "5,3", "--T", "2"), "kind=exact", "kind"),
        (("mix-repeated", "--dims", "5,3", "--T", "2"), "mode=lazy", "mode"),
        (("conjecture", "--pairs", "1"), "tier=medium", "tier"),
        (("conjecture", "--pairs", "1"), "halving=1", "halving"),
        (("theorem3", "--tier", "slow"), "relaxed=yes", "relaxed"),
    ])
    def test_strict_config_file(self, tmp_path, capsys, monkeypatch, argv, line, key):
        def must_not_run(resolved):
            raise AssertionError("bad config reached the runner")

        name = argv[0]
        monkeypatch.setitem(cli._COMMANDS, name, cli._COMMANDS[name]._replace(run=must_not_run))
        config = tmp_path / "job.cfg"
        config.write_text(line + "\n")
        assert run(*argv, "--config", str(config), "--out", str(tmp_path / "a.out")) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and key in err

    def test_config_line_without_equals_is_one_line(self, tmp_path, capsys):
        config = tmp_path / "job.cfg"
        config.write_text("n=19\nT 100\n")
        assert run("lemma2", "--config", str(config), "--out", str(tmp_path / "a.json")) == 1
        err = capsys.readouterr().err
        assert err == (f"latticemix lemma2: bad config line 'T 100' in {config} "
                       f"(expected key=value)\n")

    def test_shared_parser_matches_fresh_parser(self, tmp_path):
        config = tmp_path / "job.cfg"
        config.write_text("n=19\nT=100\n")
        jobs = [
            ("mix-classical", "--dims", "7,4", "--t-max", "50", "--out", "{out}.csv"),
            ("lemma2", "--config", str(config), "--offset", "2", "--out", "{out}.json"),
            ("kernel", "--dims", "5,3", "--T", "-1", "--out", "{out}.csv"),
            ("spectrum", "--dims", "5,3", "--out", "{out}.csv"),
            ("fig1", "--dims", "9,5", "--t-max", "20", "--out", "{out}.svg"),
        ]

        def run_all(tag, fresh):
            results = []
            for index, job in enumerate(jobs):
                if fresh:
                    build_parser.cache_clear()
                out = str(tmp_path / f"{tag}{index}")
                argv = [part.format(out=out) for part in job]
                code = run(*argv)
                target = argv[argv.index("--out") + 1]
                results.append((code, read(target) if os.path.exists(target) else None))
            return results

        shared = run_all("shared", fresh=False)
        assert [code for code, _ in shared] == [0, 0, 1, 0, 2]
        assert shared == run_all("fresh", fresh=True)

    @pytest.mark.parametrize("value", ["nan", "-inf"])
    @pytest.mark.parametrize("argv, key", [
        (("kernel", "--dims", "5,3", "--kind", "instant"), "t"),
        (("kernel", "--dims", "5,3"), "T"),
        (("kernel", "--dims", "5,3", "--T", "2"), "dt"),
        (("mix-classical", "--dims", "5"), "epsilon"),
        (("mix-coordinate", "--dims", "5,3"), "epsilon"),
        (("mix-repeated", "--dims", "5,3"), "T"),
        (("lemma2", "--n", "5"), "T"),
        (("conjecture", "--pairs", "1"), "dt"),
        (("theorem3", "--tier", "slow"), "T"),
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_non_finite_float_refused(self, tmp_path, capsys, monkeypatch, argv, key,
                                      value, source):
        def must_not_run(resolved):
            raise AssertionError("non-finite value reached the runner")

        name = argv[0]
        monkeypatch.setitem(cli._COMMANDS, name, cli._COMMANDS[name]._replace(run=must_not_run))
        if source == "flag":
            extra = (f"--{key}={value}",)
            named = f"--{key}"
        else:
            config = tmp_path / "job.cfg"
            config.write_text(f"{key}={value}\n")
            extra = ("--config", str(config))
            named = f"config key {key}"
        out = tmp_path / "a.out"
        assert run(*argv, *extra, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"bad {named} value" in err and "must be finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("horizon", ["inf", "nan"])
    def test_non_finite_horizon_refused_before_sweep(self, tmp_path, capsys, monkeypatch,
                                                     horizon):
        def must_not_run(*args, **kwargs):
            raise AssertionError("non-finite horizon reached the sweep")

        monkeypatch.setattr(cli, "bound_sweep", must_not_run)
        assert run("conjecture", "--pairs", "1", "--T-max", horizon,
                   "--out", str(tmp_path / "c.csv")) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--T-max" in err

    def test_worker_count_capped_at_cores(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert cli._workers(None) == 2
        assert cli._workers(10_000) == 2
        assert cli._workers(0) == 1


# Option strings of each subcommand besides --config, --out and --format.
SURFACE = {
    "spectrum": "--dims",
    "kernel": "--dims --kind --t --T --dt --power",
    "mix-classical": "--dims --epsilon --t-max",
    "mix-coordinate": "--dims --epsilon --rounds",
    "mix-repeated": "--dims --T --rounds --mode --trajectories --seed",
    "lemma2": "--n --T --offset",
    "conjecture": "--range --pairs --seed --T-max --dt --offset --halving --parallel --tier",
    "theorem3": "--n1 --n2 --T --relaxed --checkpoint --tier",
    "fig1": "--dims --t-max",
}


class TestSurface:
    def test_option_strings(self):
        parser = build_parser()
        subparsers = next(
            action.choices for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert set(subparsers) == set(SURFACE)
        for name, flags in SURFACE.items():
            strings = {s for action in subparsers[name]._actions for s in action.option_strings}
            expected = set(flags.split()) | {"--config", "--out", "--format", "-h", "--help"}
            assert strings == expected, name

    @pytest.mark.parametrize("argv, config", [
        (("spectrum", "--dims", "5,3"), {"dims": [5, 3], "format": "csv"}),
        (("kernel", "--dims", "5,3", "--T", "2"),
         {"dims": [5, 3], "kind": "averaged", "t": None, "T": 2.0, "dt": 0.02,
          "power": 1, "format": "csv"}),
        (("mix-classical", "--dims", "5"),
         {"dims": [5], "epsilon": 0.1, "t_max": None, "format": "csv"}),
        (("mix-coordinate", "--dims", "5,3"),
         {"dims": [5, 3], "epsilon": 0.1, "rounds": None, "format": "json"}),
        (("mix-repeated", "--dims", "5,3", "--T", "2"),
         {"dims": [5, 3], "T": 2.0, "rounds": 3, "mode": "exact",
          "trajectories": 100_000, "seed": 0, "format": "csv"}),
        (("lemma2", "--n", "5", "--T", "2"),
         {"n": 5, "T": 2.0, "offset": 0, "format": "json"}),
        (("conjecture", "--pairs", "1", "--T-max", "20"),
         {"range": [10, 100], "pairs": 1, "seed": 0, "T_max": 20.0, "dt": 0.02,
          "offset": [0, 0], "halving": False, "tier": "fast", "parallel": None,
          "format": "csv"}),
        (("theorem3", "--tier", "slow"),
         {"n1": 95, "n2": 93, "T": None, "relaxed": False, "checkpoint": None,
          "tier": "slow", "format": "json"}),
        (("fig1",), {"dims": [19, 5], "t_max": None, "format": "csv"}),
    ])
    def test_manifest_config_defaults(self, tmp_path, monkeypatch, argv, config):
        # the (95, 93) desk check takes seconds; its defaults are all this pins
        monkeypatch.setattr(cli, "uniformity_case_check", lambda *args, **kwargs: [])
        out = str(tmp_path / "artifact")
        assert run(*argv, "--out", out) in (0, 2)
        manifest = json.loads(read(out + ".manifest.json"))
        assert manifest["config"] == {**config, "out": out}


# Per case: the argv, the CSV header, the JSON top-level keys and the SVG legend
# names (None: no svg format).  These are the names downstream readers look up.
SCHEMAS = {
    "spectrum": (
        ("spectrum", "--dims", "5,3"),
        "factor,n,j,eigenvalue,joint_gap",
        {"dims", "spectral_gap", "factors"},
        None),
    "kernel": (
        ("kernel", "--dims", "5,3", "--T", "2"),
        "index,l1,l2,probability",
        {"dims", "kind", "first_column", "tv_to_uniform", "column_distance"},
        ["probability"]),
    "mix-classical": (
        ("mix-classical", "--dims", "9,5", "--t-max", "20"),
        "t,tv",
        {"dims", "epsilon", "bound_steps", "tv_at_bound", "satisfied", "curve"},
        ["tv to uniform"]),
    "mix-coordinate": (
        ("mix-coordinate", "--dims", "9,5"),
        "sweep,tv_factor1,tv_factor2",
        {"config", "scalars", "verdicts", "warnings", "factor_tv"},
        ["factor 1", "factor 2"]),
    "mix-repeated-exact": (
        ("mix-repeated", "--dims", "7,5", "--T", "9", "--rounds", "2"),
        "rounds,tv_to_uniform,column_distance,submultiplicative_cap",
        {"config", "scalars", "verdicts", "curves"},
        ["tv to uniform", "column distance"]),
    "mix-repeated-sampled": (
        ("mix-repeated", "--dims", "7,5", "--T", "9", "--rounds", "2", "--mode", "sampled",
         "--trajectories", "500"),
        "index,empirical,exact",
        {"config", "scalars", "verdicts", "curves"},
        ["empirical", "exact"]),
    "lemma2": (
        ("lemma2", "--n", "19", "--T", "10"),
        "n,offset,T,lhs,rhs,satisfied",
        {"n", "offset", "T", "lhs", "rhs", "satisfied"},
        None),
    "conjecture": (
        ("conjecture", "--range", "10,30", "--pairs", "1", "--T-max", "20", "--parallel", "1"),
        "n1,n2,T,lhs,rhs,satisfied",
        {"pair_count", "range", "T_grid", "reports"},
        ["lhs", "rhs"]),
    "conjecture-halving": (
        ("conjecture", "--range", "10,30", "--pairs", "1", "--T-max", "20", "--parallel", "1",
         "--halving"),
        "n1,n2,T,lhs,rhs,satisfied,halving_rel",
        {"pair_count", "range", "T_grid", "reports"},
        ["lhs", "rhs"]),
    "theorem3": (
        ("theorem3", "--n1", "19", "--n2", "5", "--T", "24", "--relaxed", "--tier", "slow"),
        "case,lhs,rhs,satisfied",
        {"n1", "n2", "mode", "reports"},
        None),
    "fig1": (
        ("fig1", "--dims", "19,5", "--t-max", "30"),
        "T,quantum_return,classical_return,uniform_level",
        {"config", "scalars", "verdicts", "curves"},
        ["quantum", "classical", "uniform"]),
}


def _svg_legend(path) -> list[str]:
    # legend labels are the only text elements without a text-anchor
    texts = ET.parse(path).getroot().iter("{http://www.w3.org/2000/svg}text")
    return [text.text for text in texts if text.get("text-anchor") is None]


class TestSchemas:
    @pytest.mark.parametrize("argv, header, keys, legend, fmt", [
        pytest.param(argv, header, keys, legend, fmt, id=f"{name}-{fmt}")
        for name, (argv, header, keys, legend) in SCHEMAS.items()
        for fmt in ("csv", "json", "svg")
        if fmt != "svg" or legend is not None
    ])
    def test_artifact_names(self, tmp_path, argv, header, keys, legend, fmt):
        out = str(tmp_path / f"artifact.{fmt}")
        assert run(*argv, "--format", fmt, "--out", out) == 0
        if fmt == "csv":
            assert read(out).decode().splitlines()[0] == header
        elif fmt == "json":
            assert set(read_strict_json(out)) == keys
        else:
            assert _svg_legend(out) == legend
        assert read_strict_json(out + ".manifest.json")["command"] == argv[0]
