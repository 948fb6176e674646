import json
import math
import subprocess
import sys
import threading

import numpy as np
import pytest

from conftest import child_env
from pfzeros import oracle
from pfzeros.cli import DEFAULT_WINDOWS, RunConfig, _meta_line, main, write_grid_csv
from pfzeros.model import build_cylinder
from pfzeros.oracle import correlation


def run(args):
    return main([str(a) for a in args])


class TestCounts:
    def test_counts_table(self, tmp_path, capsys):
        out = tmp_path / "counts"
        assert run(["--task", "counts", "--out", out]) == 0
        doc = json.loads((tmp_path / "counts.json").read_text())
        rows = {(r["n_circ"], r["l_len"]): r for r in doc["table"]}
        r33 = rows[(3, 3)]
        assert r33["general"]["n_qubits"] == 24 and r33["general"]["n_gates"] == 45
        assert r33["kicked"]["n_qubits"] == 18 and r33["kicked"]["n_gates"] == 45
        for r in rows.values():
            assert r["general"]["n_qubits"] == r["formula_general_qubits"]
            assert r["kicked"]["n_qubits"] == r["formula_kicked_qubits"]
            assert r["general"]["n_gates"] == r["formula_gates"]


class TestScan:
    def test_scan_deterministic_rerun(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        args = ["--task", "scan", "--model", "cylinder:3x2", "--plane", "K",
                "--res", "16x14", "--out", a, "--threads", "1"]
        assert run(args) == 0
        assert run(["--rerun-from", f"{a}.csv", "--out", b, "--threads", "3"]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_scan_csv_shape(self, tmp_path):
        out = tmp_path / "s"
        assert run(["--task", "scan", "--model", "chain:4", "--plane", "x",
                    "--res", "7x5", "--out", out]) == 0
        lines = (tmp_path / "s.csv").read_text().splitlines()
        assert lines[0].startswith("# pfzeros config=")
        assert lines[1] == "re,im,value"
        assert len(lines) == 2 + 7 * 5

    def test_one_spin_lee_yang_via_circuit_backend(self, tmp_path):
        # L of the compiled circuit vanishes at H = i pi/2
        out = tmp_path / "ly"
        assert run(["--task", "scan", "--model", "chain:1", "--plane", "H",
                    "--backend", "full", "--window=-0.6,0.6,0.8,2.4",
                    "--res", "13x17", "--out", out]) == 0
        rows = [ln.split(",") for ln in (tmp_path / "ly.csv").read_text().splitlines()[2:]]
        best = min(rows, key=lambda r: float(r[2]))
        assert abs(float(best[0])) < 0.11
        assert abs(float(best[1]) - math.pi / 2) < 0.11


class TestCsvBytes:
    """The CSV writers write one string per grid row, with the bytes of the
    line-at-a-time writers they replaced."""

    @staticmethod
    def line_at_a_time(path, cfg, spec, values, extra_columns):
        # write_grid_csv as it was, frozen
        cols = {"value": values}
        cols.update(extra_columns)
        re = [repr(x) for x in spec.re_points().tolist()]
        arrays = [np.asarray(c, dtype=np.float64) for c in cols.values()]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_meta_line(cfg) + "\n")
            fh.write("re,im," + ",".join(cols) + "\n")
            for iy, y in enumerate(spec.im_points().tolist()):
                cells = map(",".join, zip(*(map(repr, a[iy].tolist()) for a in arrays)))
                fh.writelines(f"{x},{y!r},{cell}\n" for x, cell in zip(re, cells))

    def test_grid_csv(self, tmp_path):
        cfg = RunConfig(model="chain:3", task="scan", window=(-1e-3, 2.5, -0.7, 0.0), res=(9, 6))
        spec = cfg.grid_spec()
        special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.5e-310, 1e308, 1e-7, 3.0,
                   1 / 3, -12.75]
        rng = np.random.default_rng(11)
        columns = [rng.permutation(np.resize(special + rng.normal(size=20).tolist(), 54)).reshape(6, 9)
                   for _ in range(3)]
        for extra in ({}, {"estimate": columns[1], "other": columns[2]}):
            write_grid_csv(str(tmp_path / "new.csv"), cfg, spec, columns[0], extra)
            self.line_at_a_time(str(tmp_path / "old.csv"), cfg, spec, columns[0], extra)
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_noise_cut_csv(self, tmp_path):
        # the cut row holds the true and noisy CSVs' cells of its grid row, as the
        # line-at-a-time writer wrote them: re, exp(ln L) and the estimate
        assert run(["--task", "noise", "--model", "cylinder:3x3", "--window=-1,1,-1,1",
                    "--res", "11x9", "--shots", "200", "--cut", "im=0", "--out", tmp_path / "n"]) == 0
        true = [ln.split(",") for ln in (tmp_path / "n_true.csv").read_text().splitlines()[2:]]
        noisy = [ln.split(",") for ln in (tmp_path / "n_noisy.csv").read_text().splitlines()[2:]]
        row = [i for i, t in enumerate(true) if float(t[1]) == 0.0]
        expected = "".join(f"{float(true[i][0])!r},{math.exp(float(true[i][2]))!r},"
                           f"{float(noisy[i][3])!r}\n" for i in row)
        cut = (tmp_path / "n_cut.csv").read_text()
        assert len(row) == 11 and cut.split("\n", 2)[2] == expected


class TestZeros:
    def test_zeros_pipeline(self, tmp_path):
        out = tmp_path / "z"
        assert run(["--task", "zeros", "--model", "cylinder:3x3", "--plane", "K",
                    "--window=-0.62,0.63,-1.45,1.47", "--res", "80x80",
                    "--out", out]) == 0
        doc = json.loads((tmp_path / "z.json").read_text())
        assert doc["zero_family"] == "fisher"
        assert len(doc["roots_in_window"]) == doc["n_minima"] == 8
        assert doc["discs_disjoint"] is True
        assert len(doc["inclusion_radius"]) == len(doc["polynomial_roots"])
        assert max(doc["inclusion_radius"]) < 1e-8
        for m in doc["matches"]:
            assert m["minimum_cell_distance"] <= 1.0
        roots = [tuple(r) for r in doc["roots_in_window"]]
        assert len(doc["refined"]) == doc["n_minima"]
        for r in doc["refined"]:
            assert tuple(r["location"]) in roots and r["cell_distance"] <= 1.0
            assert r["method"] == "polynomial" and r["iterations"] == 0
        assert doc["rescale_variable"] == "sinh_2k"
        assert doc["origin_root_multiplicity"] == 3

    def test_zeros_empty_window(self, tmp_path):
        out = tmp_path / "ze"
        assert run(["--task", "zeros", "--model", "cylinder:3x2", "--plane", "K",
                    "--window", "2.0,2.5,2.0,2.5", "--res", "12x12", "--out", out]) == 0
        doc = json.loads((tmp_path / "ze.json").read_text())
        assert doc["roots_in_window"] == []


class TestVerify:
    def test_verify_passes(self, tmp_path, capsys):
        out = tmp_path / "v"
        assert run(["--task", "verify", "--draws", "2", "--out", out]) == 0
        text = capsys.readouterr().out
        assert "PASS" in text and "FAIL" not in text
        doc = json.loads((tmp_path / "v.json").read_text())
        assert doc["passed"] is True
        assert doc["kicked_calibration"]["tanh_sign"] == -1.0
        assert doc["kicked_calibration"]["two_power_matches_nominal"] is True
        assert 0 < doc["worst_errors"]["effective"] <= 1e-12

    def test_verify_effective_sees_a_faulty_configuration_sum(self, tmp_path, monkeypatch):
        # run_effective is the configuration sum, so its column must not compare it with itself
        weighted_sums = oracle._weighted_sums

        def scaled(*args, **kwargs):
            z, obs, scale = weighted_sums(*args, **kwargs)
            return z * (1 + 1e-9), obs, scale

        monkeypatch.setattr(oracle, "_weighted_sums", scaled)
        out = tmp_path / "ve"
        assert run(["--task", "verify", "--draws", "1", "--out", out]) == 3
        doc = json.loads((tmp_path / "ve.json").read_text())
        assert doc["worst_errors"]["effective"] > 1e-12

    def test_verify_injected_failure(self, tmp_path, capsys):
        out = tmp_path / "vf"
        assert run(["--task", "verify", "--draws", "2", "--inject-error",
                    "--out", out]) == 3
        assert "FAIL" in capsys.readouterr().out


class TestNoise:
    def test_noise_outputs(self, tmp_path):
        out = tmp_path / "n"
        assert run(["--task", "noise", "--model", "cylinder:3x3", "--plane", "K",
                    "--window=-0.62,0.63,-0.80,0.82", "--res", "60x60",
                    "--shots", "5000", "--seed", "5", "--cut", "im=0.3",
                    "--out", out]) == 0
        doc = json.loads((tmp_path / "n_report.json").read_text())
        assert doc["n_shots"] == 5000
        assert doc["fraction_within_radius"] >= 0.8
        assert (tmp_path / "n_true.csv").exists()
        assert (tmp_path / "n_noisy.csv").exists()
        cut = (tmp_path / "n_cut.csv").read_text().splitlines()
        assert cut[1] == "re,true_L,estimate"
        assert len(cut) == 2 + 60

    def test_noise_keeps_an_undefined_cell_nan(self, tmp_path):
        # at K = 0 the kick field is infinite and ln L is NaN: the measured map
        # and the cut say nan there, not a zero
        assert run(["--task", "noise", "--model", "cylinder:3x3", "--window=-1,1,-1,1",
                    "--res", "11x11", "--shots", "200", "--cut", "im=0",
                    "--out", tmp_path / "n"]) == 0
        assert "0.0,0.0,nan\n" in (tmp_path / "n_true.csv").read_text()
        noisy = (tmp_path / "n_noisy.csv").read_text().splitlines()
        cut = (tmp_path / "n_cut.csv").read_text().splitlines()
        assert "0.0,0.0,nan,nan" in noisy and "0.0,nan,nan" in cut
        assert sum("nan" in line for line in cut[2:]) == 1

    def test_shots_past_int64_is_config_error(self, tmp_path, capsys):
        # the counts are int64: 2^63 shots fails before any scan, not in the draw
        assert run(["--task", "noise", "--model", "cylinder:3x3", "--shots", str(2**63),
                    "--out", tmp_path / "n"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--shots must be in [1, 2^63 - 1]" in err
        assert not list(tmp_path.iterdir())

    def test_noise_rerun_bytes(self, tmp_path):
        a, b = tmp_path / "na", tmp_path / "nb"
        args = ["--task", "noise", "--model", "cylinder:3x2", "--plane", "K",
                "--window=-0.62,0.63,-0.80,0.82", "--res", "20x20",
                "--shots", "200", "--seed", "5", "--out"]
        assert run(args + [a, "--threads", "1"]) == 0
        assert run(["--rerun-from", f"{a}_true.csv", "--out", b, "--threads", "4"]) == 0
        for suffix in ("_true.csv", "_noisy.csv", "_report.json"):
            assert (tmp_path / f"na{suffix}").read_bytes() == \
                (tmp_path / f"nb{suffix}").read_bytes()


class TestCorr:
    def test_same_row_report(self, tmp_path):
        out = tmp_path / "c"
        assert run(["--task", "corr", "--model", "cylinder:3x2",
                    "--fixed-k=-0.25,0.1", "--sites", "0,0;2,0",
                    "--delta", "0.01", "--out", out]) == 0
        doc = json.loads((tmp_path / "c.json").read_text())
        assert doc["method"] == "same_row"
        assert doc["abs_error_vs_oracle"] < 1e-3
        assert doc["probe_signs"]["same_row_real"] == -1.0

    def test_cross_row_report(self, tmp_path):
        out = tmp_path / "cc"
        assert run(["--task", "corr", "--model", "cylinder:3x2",
                    "--fixed-k=-0.25", "--sites", "0,0;1,1",
                    "--backend", "kicked", "--out", out]) == 0
        doc = json.loads((tmp_path / "cc.json").read_text())
        assert doc["method"] == "cross_row"
        assert doc["abs_error_vs_oracle"] < 1e-3

    @pytest.mark.parametrize("backend", ["oracle", "kicked"])
    def test_same_row_with_field(self, tmp_path, backend):
        out = tmp_path / "cf"
        assert run(["--task", "corr", "--model", "cylinder:3x2", "--backend", backend,
                    "--fixed-k=-0.25,0.1", "--fixed-h=0.2,0.05", "--sites", "0,0;2,0",
                    "--out", out]) == 0
        doc = json.loads((tmp_path / "cf.json").read_text())
        field_free = correlation(build_cylinder(3, 2, -0.25 + 0.1j, -0.25 + 0.1j), 0, 2)
        assert abs(complex(*doc["oracle"]) - field_free) > 1e-2  # the field is applied
        assert doc["abs_error_vs_oracle"] < 1e-3

    def test_cross_row_with_field_is_config_error(self, tmp_path, capsys):
        assert run(["--task", "corr", "--model", "cylinder:3x2", "--fixed-k=-0.25",
                    "--fixed-h=0.2", "--sites", "0,0;1,1", "--out", tmp_path / "x"]) == 2
        assert "longitudinal" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_kicked_past_enumeration_cap_omits_norm_ratio(self, tmp_path):
        # 30 spins: the kicked estimate runs, the norm ratio's 2^N enumeration does not
        out = tmp_path / "big"
        assert run(["--task", "corr", "--backend", "kicked", "--model", "cylinder:6x5",
                    "--fixed-k=-0.3,0.05", "--sites", "0,0;2,0", "--out", out]) == 0
        doc = json.loads((tmp_path / "big.json").read_text())
        assert all(math.isfinite(v) for v in doc["value"])
        assert "norm_ratio" not in doc and "oracle" not in doc

    @pytest.mark.parametrize("backend, sites", [
        ("kicked", "0,0;2,0"), ("kicked", "0,0;1,1"), ("effective", "0,0;1,1"),
    ])
    def test_rerun_bytes(self, tmp_path, backend, sites):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["--task", "corr", "--backend", backend, "--model", "cylinder:3x2",
                    "--fixed-k=-0.25,0.1", "--sites", sites, "--out", a]) == 0
        assert run(["--rerun-from", f"{a}.json", "--out", b]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestErrors:
    def test_bad_model_is_config_error(self, tmp_path):
        assert run(["--task", "scan", "--model", "nosuchfile.json",
                    "--out", tmp_path / "x"]) == 2

    @pytest.mark.parametrize("doc", [
        '{"version": 1, "n_spins": 2}',
        '[1, 2]',
        '{"version": 1, "n_spins": 2, "bonds": [[0, 1, "a", 0]]}',
        '{"version": 1, "n_spins": 2, "bonds": [[0, 1, 0.2]]}',
        '{"version": 1, "n_spins": 2, "bonds": [], "fields": [[0, 0.1]]}',
        '{"version": 1, "n_spins": 2, "bonds": [], "lattice": [1]}',
    ], ids=["no-bonds", "not-an-object", "non-numeric", "bond-arity", "field-arity",
            "lattice-not-an-object"])
    def test_malformed_model_file_is_config_error(self, tmp_path, capsys, doc):
        (tmp_path / "m.json").write_text(doc)
        assert run(["--task", "scan", "--model", tmp_path / "m.json", "--res", "4x4",
                    "--out", tmp_path / "x"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

    def test_missing_task(self):
        with pytest.raises(SystemExit) as exc:
            run(["--model", "chain:3"])
        assert exc.value.code == 2

    def test_bad_window(self, tmp_path):
        assert run(["--task", "scan", "--model", "chain:3",
                    "--window", "1,0,0,1", "--out", tmp_path / "y"]) == 2

    @pytest.mark.parametrize("args", [
        ["--task", "zeros", "--model", "cylinder:3x3", "--window=0,inf,0,1"],
        ["--task", "corr", "--model", "cylinder:3x2", "--fixed-k", "nan"],
        ["--task", "zeros", "--model", "cylinder:3x3", "--fixed-h", "nan"],
    ], ids=["window-inf", "fixed-k-nan", "fixed-h-nan"])
    def test_non_finite_number_is_config_error(self, tmp_path, monkeypatch, capsys, args):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the config was checked")
        monkeypatch.setattr("pfzeros.cli.parse_model", refuse)
        assert run(args + ["--out", tmp_path / "o"]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not list(tmp_path.glob("o*"))

    def test_rerun_config_with_non_finite_number_is_config_error(self, tmp_path, monkeypatch,
                                                                 capsys):
        assert run(["--task", "scan", "--model", "chain:3", "--res", "4x4",
                    "--out", tmp_path / "a"]) == 0
        doc = json.loads((tmp_path / "a.json").read_text())
        doc["config"]["fixed_h"] = [math.nan, 0.0]
        (tmp_path / "bad.json").write_text(json.dumps(doc))

        def refuse(*args, **kwargs):
            raise AssertionError("work started before the config was checked")
        monkeypatch.setattr("pfzeros.cli.parse_model", refuse)
        assert run(["--rerun-from", tmp_path / "bad.json", "--out", tmp_path / "rerun"]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not list(tmp_path.glob("rerun*"))

    def test_cylinder_without_length_is_config_error(self, tmp_path, capsys):
        assert run(["--task", "scan", "--model", "cylinder:3",
                    "--out", tmp_path / "c"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_rerun_config_with_unknown_key_is_config_error(self, tmp_path, capsys):
        assert run(["--task", "scan", "--model", "chain:3", "--res", "4x4",
                    "--out", tmp_path / "a"]) == 0
        doc = json.loads((tmp_path / "a.json").read_text())
        doc["config"]["bogus"] = 1
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        assert run(["--rerun-from", tmp_path / "bad.json", "--out", tmp_path / "b"]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "b.csv").exists()

    @pytest.mark.parametrize("version", [2, 0, "1", True, None],
                             ids=["2", "0", "string", "bool", "null"])
    @pytest.mark.parametrize("suffix, sep", [(".json", ": "), (".csv", ":")])  # CSV: compact line
    def test_rerun_unknown_format_version_is_config_error(self, tmp_path, capsys, version, suffix,
                                                          sep):
        assert run(["--task", "scan", "--model", "chain:3", "--res", "4x4",
                    "--out", tmp_path / "a"]) == 0
        text = (tmp_path / f"a{suffix}").read_text()
        assert f'"format_version"{sep}1' in text
        text = text.replace(f'"format_version"{sep}1', f'"format_version"{sep}{json.dumps(version)}', 1)
        (tmp_path / f"bad{suffix}").write_text(text)
        capsys.readouterr()
        assert run(["--rerun-from", tmp_path / f"bad{suffix}", "--out", tmp_path / "rerun"]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not list(tmp_path.glob("rerun*"))

    def test_rerun_json_without_config_is_config_error(self, tmp_path, capsys):
        (tmp_path / "bare.json").write_text('{"format_version": 1}')
        assert run(["--rerun-from", tmp_path / "bare.json", "--out", tmp_path / "b"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("changes", [
        {"task": "bogus"},
        {"plane": "bogus", "window": None},
        {"backend": "bogus"},
        {"plane": None},
    ], ids=["task", "plane", "backend", "plane-null"])
    def test_rerun_config_with_unknown_choice_is_config_error(self, tmp_path, monkeypatch, capsys,
                                                             changes):
        assert run(["--task", "scan", "--model", "chain:3", "--res", "4x4",
                    "--out", tmp_path / "a"]) == 0
        doc = json.loads((tmp_path / "a.json").read_text())
        doc["config"].update(changes)
        (tmp_path / "bad.json").write_text(json.dumps(doc))

        def refuse(*args, **kwargs):
            raise AssertionError("work started before the config was checked")
        monkeypatch.setattr("pfzeros.cli.parse_model", refuse)
        assert run(["--rerun-from", tmp_path / "bad.json", "--out", tmp_path / "rerun"]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not list(tmp_path.glob("rerun*"))

    @pytest.mark.parametrize("task", [
        ["--task", "noise", "--shots", "50"],
        ["--task", "zeros", "--backend", "kicked", "--plane", "K"],
    ], ids=["noise", "zeros-kicked"])
    def test_kicked_k_plane_refuses_ring_of_two(self, tmp_path, monkeypatch, capsys, task):
        # a ring of 2 carries one merged bond of 2K, so the kicked K plane does not
        # share its zeros with the density of states, which counts that bond as K
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the ring was checked")
        monkeypatch.setattr("pfzeros.cli.scan", refuse)
        if task[1] == "noise":
            monkeypatch.setattr("pfzeros.cli.density_of_states", refuse)
        assert run(task + ["--model", "cylinder:2x1", "--res", "6x6",
                           "--out", tmp_path / "r"]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("tag", [
        {"kind": "cylinder", "n_circ": 3, "l_len": 3},
        {"kind": "cylinder"},
    ], ids=["3x3-cylinder", "without-n_circ"])
    def test_model_file_lattice_tag_is_not_read(self, tmp_path, capsys, tag):
        # one bond between two spins, whatever the tag claims
        doc = {"version": 1, "n_spins": 2, "bonds": [[0, 1, -0.3, 0.0]], "lattice": tag}
        (tmp_path / "m.json").write_text(json.dumps(doc))
        assert run(["--task", "zeros", "--plane", "x", "--model", tmp_path / "m.json",
                    "--res", "8x8", "--out", tmp_path / "z"]) == 0
        assert "Traceback" not in capsys.readouterr().err
        roots = json.loads((tmp_path / "z.json").read_text())["polynomial_roots"]
        assert len(roots) == 1  # Z = e^K (1 + x), degree 1 in x

    @pytest.mark.parametrize("task", [
        ["--task", "noise", "--shots", "50"],
        ["--task", "scan", "--backend", "kicked"],
        ["--task", "zeros", "--backend", "kicked"],
        ["--task", "scan", "--plane", "kickH"],
    ], ids=["noise", "scan-kicked", "zeros-kicked", "kickH"])
    def test_kicked_maps_refuse_field(self, tmp_path, monkeypatch, capsys, task):
        # the kicked maps are computed at H = 0, so a field would be recorded but not applied
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the field was checked")
        monkeypatch.setattr("pfzeros.cli.scan", refuse)
        monkeypatch.setattr("pfzeros.cli.density_of_states", refuse)
        assert run(task + ["--model", "cylinder:3x3", "--fixed-h=0.3", "--res", "6x6",
                           "--out", tmp_path / "f"]) == 2
        assert "longitudinal field" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("backend", ["effective", "full", "streamed"])
    def test_noise_refuses_circuit_backends(self, tmp_path, monkeypatch, capsys, backend):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the backend was checked")
        monkeypatch.setattr("pfzeros.cli.parse_model", refuse)
        assert run(["--task", "noise", "--model", "cylinder:3x3", "--backend", backend,
                    "--res", "6x6", "--shots", "50", "--out", tmp_path / "n"]) == 2
        assert "oracle or kicked backend" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_bad_noise_cut_rejected_before_work(self, tmp_path):
        out = tmp_path / "n"
        assert run(["--task", "noise", "--model", "cylinder:3x2", "--res", "6x6",
                    "--shots", "50", "--cut", "re=1", "--out", out]) == 2
        assert not (tmp_path / "n_true.csv").exists()
        assert not (tmp_path / "n_noisy.csv").exists()

    @pytest.mark.parametrize("cut, window", [
        ("im=9", DEFAULT_WINDOWS["K"]),  # im spans [-1.45, 1.47]
        ("im=-0.81", (-0.62, 0.63, -0.80, 0.82)),
        ("im=nan", DEFAULT_WINDOWS["K"]),
    ])
    def test_noise_cut_outside_window_rejected_before_work(self, tmp_path, monkeypatch, capsys,
                                                          cut, window):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the cut was checked")
        monkeypatch.setattr("pfzeros.cli.density_of_states", refuse)
        monkeypatch.setattr("pfzeros.cli.scan", refuse)
        assert run(["--task", "noise", "--model", "cylinder:3x2", "--res", "6x6",
                    "--window=" + ",".join(map(str, window)), "--shots", "50",
                    f"--cut={cut}", "--out", tmp_path / "n"]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("cut", ["im=nan", "im=inf", "im=-inf"])
    def test_noise_cut_not_finite_rejected_before_model(self, tmp_path, monkeypatch, capsys, cut):
        def refuse(*args, **kwargs):
            raise AssertionError("the model was built before the cut was checked")
        monkeypatch.setattr("pfzeros.cli.parse_model", refuse)
        assert run(["--task", "noise", "--model", "cylinder:3x2", "--res", "6x6",
                    "--shots", "50", f"--cut={cut}", "--out", tmp_path / "n"]) == 2
        err = capsys.readouterr().err
        assert f"cut {cut} is not finite" in err and "window" not in err
        assert list(tmp_path.iterdir()) == []

    def test_noise_shots_checked_before_scan(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the scan ran before --shots was checked")
        monkeypatch.setattr("pfzeros.cli.scan", refuse)
        assert run(["--task", "noise", "--model", "cylinder:3x2", "--res", "6x6",
                    "--shots", "0", "--out", tmp_path / "n"]) == 2
        assert list(tmp_path.iterdir()) == []

    def test_noise_dos_failure_before_scan(self, tmp_path, monkeypatch, capsys):
        # 8x8 counts pass the exact float64 range; that is known before any scan
        def refuse(*args, **kwargs):
            raise AssertionError("the scan ran before the exact zeros were found")
        monkeypatch.setattr("pfzeros.cli.scan", refuse)
        assert run(["--task", "noise", "--model", "cylinder:8x8", "--res", "100x100",
                    "--out", tmp_path / "n"]) == 4
        assert capsys.readouterr().err.startswith("numerical failure:")
        assert not (tmp_path / "n_true.csv").exists()

    def test_zeros_backend_plane_checked_before_dos(self, tmp_path, capsys):
        # 8x8 counts pass the exact float64 range, but the plane is a config error first
        assert run(["--task", "zeros", "--backend", "kicked", "--plane", "x",
                    "--model", "cylinder:8x8", "--out", tmp_path / "k"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "kicked backend needs plane K" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("draws", ["0", "-1"])
    def test_verify_without_draws_is_config_error(self, tmp_path, capsys, draws):
        assert run(["--task", "verify", "--draws", draws, "--out", tmp_path / "v"]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "v.json").exists()

    @pytest.mark.parametrize("task", [
        ["--task", "noise", "--model", "cylinder:3x2", "--res", "6x6", "--shots", "50"],
        ["--task", "verify"],
    ], ids=["noise", "verify"])
    def test_negative_seed_is_config_error_before_work(self, tmp_path, monkeypatch, capsys, task):
        def refuse(*args, **kwargs):
            raise AssertionError("the task started before the seed was checked")
        monkeypatch.setattr("pfzeros.cli.cmd_noise", refuse)
        monkeypatch.setattr("pfzeros.cli.cmd_verify", refuse)
        assert run(task + ["--seed", "-1", "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == "error: config field 'seed' must be >= 0, got -1\n"
        assert list(tmp_path.iterdir()) == []

    def test_rerun_config_with_negative_seed_is_config_error(self, tmp_path, monkeypatch, capsys):
        assert run(["--task", "noise", "--model", "cylinder:3x2", "--res", "4x4",
                    "--shots", "10", "--out", tmp_path / "a"]) == 0
        doc = json.loads((tmp_path / "a_report.json").read_text())
        doc["config"]["seed"] = -5
        (tmp_path / "bad.json").write_text(json.dumps(doc))

        def refuse(*args, **kwargs):
            raise AssertionError("the task started before the seed was checked")
        monkeypatch.setattr("pfzeros.cli.cmd_noise", refuse)
        assert run(["--rerun-from", tmp_path / "bad.json", "--out", tmp_path / "rerun"]) == 2
        assert "config field 'seed' must be >= 0" in capsys.readouterr().err
        assert not list(tmp_path.glob("rerun*"))

    @pytest.mark.parametrize("task, expected", [
        (["--task", "scan", "--model", "cylinder:3x2", "--res", "4x4", "--cut", "im=0.3"],
         "config field 'cut' is read by the noise task only, not scan"),
        (["--task", "verify", "--draws", "1", "--model", "cylinder:9x9"],
         "the verify task checks its own models and takes no 'model'"),
    ], ids=["scan-cut", "verify-model"])
    def test_unread_config_field_is_config_error_before_work(self, tmp_path, monkeypatch, capsys,
                                                             task, expected):
        def refuse(*args, **kwargs):
            raise AssertionError("the task started with a config field it does not read")
        monkeypatch.setattr("pfzeros.cli.cmd_scan", refuse)
        monkeypatch.setattr("pfzeros.cli.cmd_verify", refuse)
        assert run(task + ["--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == f"error: {expected}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key, value, expected", [
        ("cut", "im=0.3", "config field 'cut' is read by the noise task only, not verify"),
        ("model", "cylinder:9x9", "the verify task checks its own models and takes no 'model'"),
    ], ids=["cut", "model"])
    def test_rerun_config_with_unread_field_is_config_error(self, tmp_path, monkeypatch, capsys,
                                                            key, value, expected):
        assert run(["--task", "verify", "--draws", "1", "--out", tmp_path / "v"]) == 0
        doc = json.loads((tmp_path / "v.json").read_text())
        doc["config"][key] = value
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        capsys.readouterr()

        def refuse(*args, **kwargs):
            raise AssertionError("the task started with a config field it does not read")
        monkeypatch.setattr("pfzeros.cli.cmd_verify", refuse)
        assert run(["--rerun-from", tmp_path / "bad.json", "--out", tmp_path / "rerun"]) == 2
        assert capsys.readouterr().err == f"error: {expected}\n"
        assert not list(tmp_path.glob("rerun*"))

    @pytest.mark.parametrize("backend, model", [
        ("full", "cylinder:4x4"),  # 44 qubits in one register
        ("streamed", "cylinder:6x6"),  # 36 physical qubits plus the ancilla
        ("effective", "cylinder:6x6"),  # 2^36 configurations to enumerate
    ])
    def test_circuit_scan_cap_is_numerical_failure(self, tmp_path, capsys, backend, model):
        # the cap holds at every point, so the scan fails at once instead of writing NaN
        assert run(["--task", "scan", "--backend", backend, "--model", model, "--res", "2x2",
                    "--out", tmp_path / "cap"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:")
        assert "Traceback" not in err
        assert not (tmp_path / "cap.csv").exists()

    @pytest.mark.parametrize("key, value", [
        ("res", ["a", "b"]),
        ("res", [3.5, 4]),
        ("window", [-0.6, "0.6", -1.4, 1.4]),
        ("shots", "5"),
    ])
    def test_rerun_config_with_wrong_type_is_config_error(self, tmp_path, capsys, key, value):
        assert run(["--task", "noise", "--model", "cylinder:3x2", "--res", "4x4",
                    "--shots", "10", "--out", tmp_path / "a"]) == 0
        doc = json.loads((tmp_path / "a_report.json").read_text())
        doc["config"][key] = value
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        assert run(["--rerun-from", tmp_path / "bad.json", "--out", tmp_path / "rerun"]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not list(tmp_path.glob("rerun*"))

    def test_grid_over_point_cap_is_numerical_failure(self, tmp_path, capsys):
        # the cap is checked when the grid is specified, before its mesh is allocated
        assert run(["--task", "scan", "--model", "chain:3", "--res", "2049x2048",
                    "--out", tmp_path / "g"]) == 4
        assert capsys.readouterr().err.startswith("numerical failure:")
        assert not (tmp_path / "g.csv").exists()

    def test_dos_count_range_is_numerical_failure(self, tmp_path):
        # from 8x8 on, density-of-states counts pass 2^53, the exact float64 range
        proc = subprocess.run(
            [sys.executable, "-m", "pfzeros", "--task", "zeros", "--model", "cylinder:8x8",
             "--plane", "K", "--res", "10x10", "--out", str(tmp_path / "big")],
            capture_output=True, text=True, env=child_env(), timeout=120,
        )
        assert proc.returncode == 4
        assert proc.stderr.startswith("numerical failure:")
        assert "Traceback" not in proc.stderr


class TestOneThread:
    """Every task runs on the calling thread, whatever --threads says."""

    @pytest.fixture(autouse=True)
    def no_thread_start(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a worker thread was started")
        monkeypatch.setattr(threading.Thread, "start", refuse)

    def test_pointwise_scan(self, tmp_path):
        out = tmp_path / "e"
        assert run(["--task", "scan", "--backend", "effective", "--model", "cylinder:3x2",
                    "--plane", "K", "--res", "6x5", "--threads", "4", "--out", out]) == 0
        assert len((tmp_path / "e.csv").read_text().splitlines()) == 2 + 6 * 5

    def test_noise(self, tmp_path):
        out = tmp_path / "n"
        assert run(["--task", "noise", "--model", "cylinder:3x2", "--res", "8x6",
                    "--shots", "100", "--threads", "4", "--out", out]) == 0
        for suffix in ("_true.csv", "_noisy.csv", "_report.json"):
            assert (tmp_path / f"n{suffix}").exists()


class TestViewPlanes:
    def test_tanh_k_scan(self, tmp_path):
        out = tmp_path / "tk"
        assert run(["--task", "scan", "--model", "cylinder:3x2", "--plane", "tanhK",
                    "--res", "12x12", "--out", out]) == 0
        lines = (tmp_path / "tk.csv").read_text().splitlines()
        assert len(lines) == 2 + 144
        assert json.loads((tmp_path / "tk.json").read_text())["value_kind"] == "ln |Z / cosh^B K|^2"

    def test_tanh_k_zeros_match_scan_minima(self, tmp_path):
        # the scan is |Z / cosh^B K|^2, free of the pole at tanh K = -1 that
        # |P(x)|^2 carries, so every in-window root sits within a cell of a minimum
        assert run(["--task", "zeros", "--model", "cylinder:3x3", "--plane", "tanhK",
                    "--out", tmp_path / "tz"]) == 0
        matches = json.loads((tmp_path / "tz.json").read_text())["matches"]
        assert len(matches) == 8
        assert all(m["minimum_cell_distance"] <= 1.0 for m in matches)

    def test_kick_field_plane_scan(self, tmp_path):
        out = tmp_path / "kh"
        assert run(["--task", "scan", "--model", "cylinder:3x2", "--plane", "kickH",
                    "--fixed-k=-0.25", "--res", "11x13", "--out", out]) == 0
        rows = (tmp_path / "kh.csv").read_text().splitlines()[2:]
        values = [float(r.split(",")[2]) for r in rows]
        assert all(v <= 0.0 or math.isnan(v) for v in values)  # ln L <= 0
        assert json.loads((tmp_path / "kh.json").read_text())["value_kind"] == "ln L"
        assert run(["--task", "scan", "--model", "cylinder:3x2", "--plane", "kickH",
                    "--fixed-k=-0.25", "--res", "11x13", "--backend", "kicked",
                    "--out", tmp_path / "kk"]) == 0
        assert (tmp_path / "kk.csv").read_text().splitlines()[2:] == rows

    @pytest.mark.parametrize("backend", ["effective", "full", "streamed"])
    def test_kick_field_plane_rejects_circuit_backends(self, tmp_path, capsys, backend):
        assert run(["--task", "scan", "--model", "cylinder:3x2", "--plane", "kickH",
                    "--backend", backend, "--out", tmp_path / "x"]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert list(tmp_path.iterdir()) == []

    def test_kick_field_plane_rejects_zeros_task(self, tmp_path):
        assert run(["--task", "zeros", "--model", "cylinder:3x2", "--plane", "kickH",
                    "--out", tmp_path / "x"]) == 2
        # rejected before any scan or root-finding work, so nothing is written
        assert not (tmp_path / "x.csv").exists()
        assert not (tmp_path / "x.json").exists()


_NUMPY_ONLY_CHILD = """
import json, sys
for name in ("scipy", "mpmath", "matplotlib", "hypothesis"):
    sys.modules[name] = None  # any import of these now raises ImportError
from pfzeros.cli import main
out = sys.argv[1]
runs = {
    "zeros": ["--task", "zeros", "--model", "cylinder:3x3", "--res", "10x10"],
    "noise": ["--task", "noise", "--model", "cylinder:3x2", "--res", "6x6", "--shots", "50"],
    "corr": ["--task", "corr", "--model", "cylinder:3x2", "--backend", "kicked",
             "--fixed-k=-0.25", "--sites", "0,0;1,1"],
    "verify": ["--task", "verify", "--draws", "1"],
    "counts": ["--task", "counts"],
    "scan": ["--task", "scan", "--backend", "streamed", "--model", "cylinder:3x2",
             "--res", "4x4"],
}
print(json.dumps({task: main(args + ["--out", out + "/" + task]) for task, args in runs.items()}))
"""


def test_cli_runs_on_numpy_alone(tmp_path):
    # the runtime declares numpy as its only dependency; the test extra brings more
    proc = subprocess.run([sys.executable, "-c", _NUMPY_ONLY_CHILD, str(tmp_path)],
                          capture_output=True, text=True, env=child_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stdout.splitlines()[-1])
    assert codes == dict.fromkeys(("zeros", "noise", "corr", "verify", "counts", "scan"), 0)
