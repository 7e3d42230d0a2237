import ast
import hashlib
import importlib
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from semilind import ode
from semilind.gaussian import GridSpec, WignerGrid, coherent, eval_wigner
from semilind.harness.cli import main as cli_main
from semilind.harness.compare import (
    ComparisonReport,
    ObservableSeries,
    compare_dirs,
    compare_series,
    read_observables,
    write_frame,
    write_observables,
)
from semilind.harness.config import (ConfigError, ExperimentConfig, TimesSection, dump_config,
                                     load_config)
from semilind.harness.experiments import (
    EXPERIMENTS,
    SolverRun,
    _event_entries,
    _g12_with_stderr,
    _wigner_frames,
    default_config,
    run_experiment,
    run_portrait,
)
from semilind.semiclassical import drift_x
from semilind.symbols import Chart


ROOT = Path(__file__).resolve().parents[1]


def tiny_cat_config(tmp_path, **times):
    d = default_config("cat_anharmonic")
    d["times"] = times or {"t_end": 0.2, "n_out": 5, "frames": [0.2]}
    d["grid"] = {"q_min": -9.0, "q_max": 9.0, "n_q": 40, "p_min": -9.0, "p_max": 9.0, "n_p": 40}
    d["fock_levels"] = 55
    # the relative moment check divides by a near-zero signal on this short
    # window; the full-scale tolerance is exercised in the acceptance suite
    d["tolerances"]["moment_rms_rel"] = 0.2
    d["output_dir"] = str(tmp_path)
    return ExperimentConfig.from_dict(d)


def tiny_config(name, tmp_path, solvers=None):
    """A registered experiment cut to a run of about a second."""
    if name == "cat_anharmonic":
        d = tiny_cat_config(tmp_path).to_dict()
    else:
        d = default_config(name)
        d["times"] = {"t_end": 0.5, "n_out": 5, "frames": []}
        d.pop("grid", None)
        d["output_dir"] = str(tmp_path)
        if name == "bose_hubbard_losses":
            d.update(n_trajectories=20, fock_levels=10)
    if solvers is not None:
        d["solvers"] = solvers
    return ExperimentConfig.from_dict(d)


def recording(monkeypatch, name):
    """Replace ``name`` in the experiments module by a wrapper that keeps each result."""
    import semilind.harness.experiments as experiments

    real, results = getattr(experiments, name), []

    def recorded(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(experiments, name, recorded)
    return results


class TestConfig:
    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_defaults_round_trip(self, name):
        d = default_config(name)
        cfg = ExperimentConfig.from_dict(d)
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_key_rejected_top_level(self):
        d = default_config("limit_cycle")
        d["surprise"] = 1
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)

    def test_unknown_key_rejected_nested(self):
        d = default_config("limit_cycle")
        d["model"]["extra"] = "nope"
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)

    def test_missing_required_key(self):
        d = default_config("limit_cycle")
        del d["model"]["hamiltonian"]
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)

    def test_bad_chart_rejected(self):
        d = default_config("limit_cycle")
        d["model"]["chart"] = "polar"
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)

    def test_frames_must_lie_on_grid(self):
        d = default_config("cat_anharmonic")
        d["times"]["frames"] = [0.333]
        cfg = ExperimentConfig.from_dict(d)
        with pytest.raises(ConfigError, match=r"^times\.frames: frame time 0\.333 is not on "
                                              r"the output grid$"):
            cfg.times.frame_indices()

    @pytest.mark.parametrize("times, first, second, name", [
        ({"t_end": 200.0, "n_out": 2000001, "frames": [100.0001, 100.0002]},
         "100.0001", "100.0002", "wigner_t100.npy"),
        ({"t_end": 2.5, "n_out": 126, "frames": [0.5, 1.5, 0.5]}, "0.5", "0.5",
         "wigner_t0.5.npy"),
    ], ids=["print-alike", "duplicate"])
    def test_frames_sharing_a_file_name_rejected(self, times, first, second, name):
        with pytest.raises(ConfigError, match=f"^times\\.frames: frame times {first} and "
                                              f"{second} both write {re.escape(name)}"):
            TimesSection.from_dict(times)

    @pytest.mark.parametrize("t_end", [0.0, -1.0, float("nan"), float("inf")])
    def test_times_t_end_must_be_finite_and_positive(self, t_end):
        d = default_config("limit_cycle")
        d["times"]["t_end"] = t_end
        with pytest.raises(ConfigError, match="times.t_end"):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize("key, value", [("t_end", 0.0), ("t_end", -1.0),
                                            ("t_end", float("nan")), ("n_out", 1)])
    def test_portrait_span_validated(self, key, value):
        d = default_config("portrait_limit_cycle")
        d["portrait"][key] = value
        with pytest.raises(ConfigError, match=f"portrait.{key}"):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize("key, value", [("q_max", -9.0), ("p_min", 9.0), ("n_q", 0),
                                            ("n_p", -1), ("q_min", float("nan"))])
    def test_portrait_degenerate_grid_rejected(self, key, value):
        d = default_config("portrait_limit_cycle")
        d["portrait"][key] = value
        with pytest.raises(ConfigError, match="^portrait: degenerate grid"):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_file_round_trip(self, name, tmp_path):
        cfg = ExperimentConfig.from_dict(default_config(name))
        path = tmp_path / "cfg.json"
        dump_config(cfg, path)
        assert load_config(path) == cfg

    @pytest.mark.parametrize("key, value", [("q_max", -9.0), ("q_max", -8.0), ("p_min", 8.0),
                                            ("n_q", 0), ("n_p", -1), ("q_min", float("nan")),
                                            ("q_max", float("inf"))])
    def test_degenerate_grid_rejected(self, key, value):
        d = default_config("cat_anharmonic")
        d["grid"][key] = value
        with pytest.raises(ConfigError, match="^grid: degenerate grid"):
            ExperimentConfig.from_dict(d)

    def test_seed_override(self):
        cfg = ExperimentConfig.from_dict(default_config("bose_hubbard_losses"))
        assert cfg.with_seed(99).seed == 99
        assert cfg.with_seed(2**64 - 1).seed == 2**64 - 1  # not rounded through a float

    @pytest.mark.parametrize("key, value", [("grid", None), ("times", None), ("initial", None),
                                            ("fock_levels", None), ("tolerances", [1]),
                                            ("solvers", 3)])
    def test_value_of_wrong_type_is_config_error(self, key, value, tmp_path, capsys):
        d = default_config("cat_anharmonic")
        d[key] = value
        with pytest.raises(ConfigError, match=rf"^config\.{key}: "):
            ExperimentConfig.from_dict(d)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        assert cli_main(["run", str(path)]) == 1
        assert f"config.{key}: " in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [[1], None, "x", 3], ids=["list", "null", "string", "number"])
    def test_document_that_is_not_a_mapping_is_config_error(self, doc, tmp_path, capsys):
        with pytest.raises(ConfigError, match=r"^config: the document must be a mapping"):
            ExperimentConfig.from_dict(doc)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config: the document must be a mapping")
        assert "Traceback" not in err


    @pytest.mark.parametrize("name, path, value, message", [
        ("limit_cycle", ("hbar",), float("nan"), "config.hbar: must be a finite number"),
        ("limit_cycle", ("ode_rtol",), float("nan"), "config.ode_rtol: must be a finite number"),
        ("limit_cycle", ("ode_atol",), float("nan"), "config.ode_atol: must be a finite number"),
        ("cat_anharmonic", ("tolerances", "moment_rms_rel"), float("inf"),
         "config.tolerances.moment_rms_rel: must be a finite number"),
        ("cat_anharmonic", ("tolerances", "moment_rms_rel"), float("nan"),
         "config.tolerances.moment_rms_rel: must be a finite number"),
        ("cat_anharmonic", ("times", "frames"), [0.5, float("nan")],
         "times.frames: must be a finite number"),
        ("limit_cycle", ("initial", "amplitudes"), [[float("nan"), 0.0]],
         "initial.amplitudes: must be a finite number"),
        ("cat_anharmonic", ("initial", "centres"), [[4.0, float("inf")], [4.0, -3.0]],
         "initial.centres: must be a finite number"),
        ("cat_anharmonic", ("initial", "coefficients"), [[1.0, 0.0], [-float("inf"), 0.0]],
         "initial.coefficients: must be a finite number"),
        ("cat_anharmonic", ("initial", "width"), [0.0, float("inf")],
         "initial.width: must be a finite number"),
        ("portrait_limit_cycle", ("portrait", "starts"), [[4.0, float("nan")]],
         "portrait.starts: must be a finite number"),
        ("limit_cycle", ("seed",), float("inf"), "config.seed: cannot convert"),
        ("limit_cycle", ("fock_levels",), float("inf"), "config.fock_levels: cannot convert"),
        ("limit_cycle", ("times", "n_out"), float("inf"), "times.n_out: cannot convert"),
        ("limit_cycle", ("grid", "n_q"), float("inf"), "grid.n_q: cannot convert"),
    ])
    def test_non_finite_number_is_config_error(self, name, path, value, message, tmp_path,
                                               capsys):
        # json.load reads NaN and Infinity; a NaN tolerance of the ODE solver
        # never finishes a step, an infinite bound passes any error, and
        # int(Infinity) raises OverflowError
        d = default_config(name)
        d["output_dir"] = str(tmp_path / "out")
        section = d
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        with pytest.raises(ConfigError, match=rf"^{re.escape(message)}"):
            ExperimentConfig.from_dict(d)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(d))
        assert cli_main(["run", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_single_trajectory_is_config_error(self, tmp_path, capsys):
        # the ensemble stderr is a sample standard deviation, undefined for one trajectory
        d = default_config("bose_hubbard_losses")
        d["n_trajectories"] = 1
        with pytest.raises(ConfigError, match=r"^config\.n_trajectories: must be at least 2, got 1"):
            ExperimentConfig.from_dict(d)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        assert cli_main(["run", str(path)]) == 1
        assert "n_trajectories: must be at least 2" in capsys.readouterr().err

    @pytest.mark.parametrize("path, value, message", [
        (("fock_levels",), 3.9, "config.fock_levels: must be an integer, got 3.9"),
        (("seed",), True, "config.seed: must be a number, got True"),
        (("fock_levels",), "3", "config.fock_levels: must be a number, got '3'"),
        (("hbar",), "1", "config.hbar: must be a number, got '1'"),
        (("times", "t_end"), True, "times.t_end: must be a number, got True"),
        (("grid", "q_min"), "-8", "grid.q_min: must be a number, got '-8'"),
        (("model", "lindblads"), "1", "model.lindblads: must be a list, got '1'"),
        (("times", "frames"), "12", "times.frames: must be a list, got '12'"),
        (("solvers",), "master", "config.solvers: must be a list, got 'master'"),
        (("ode_rtol",), 0, "config.ode_rtol: must be positive, got 0"),
        (("fock_levels",), 1, "config.fock_levels: must be at least 2, got 1"),
        (("seed",), 2**64, f"config.seed: must be at most {2**64 - 1}, got {2**64}"),
    ], ids=["fractional", "boolean", "numeric-string", "string-scale", "boolean-time",
            "string-bound", "lindblads-string", "frames-string", "solvers-string", "zero-rtol",
            "one-level", "seed-above-64-bits"])
    def test_value_of_wrong_type_or_range_is_config_error(self, path, value, message, tmp_path,
                                                          capsys):
        # each was once truncated, read one character at a time or passed on
        # to a solver; reading the config, which runs no solver, refuses it
        d = default_config("cat_anharmonic")
        d["output_dir"] = str(tmp_path / "out")
        section = d
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        with pytest.raises(ConfigError, match=rf"^{re.escape(message)}"):
            ExperimentConfig.from_dict(d)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(d))
        assert cli_main(["run", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestRegisteredDefaults:
    """A top-level key a document leaves out takes the experiment's registered value."""

    def test_limit_cycle_without_fock_levels_or_rtol(self, tmp_path):
        d = tiny_config("limit_cycle", tmp_path, solvers=["master"]).to_dict()
        del d["fock_levels"], d["ode_rtol"]
        _, outdir = run_experiment(ExperimentConfig.from_dict(d))
        written = json.loads((Path(outdir) / "config.json").read_text())
        assert (written["fock_levels"], written["ode_rtol"]) == (56, 1e-8)

    def test_lattice_without_seed_or_times(self, tmp_path, monkeypatch):
        import semilind.harness.experiments as experiments

        real, seeds = experiments.quantum_jump, []

        def recorded(*args, **kwargs):
            seeds.append(kwargs["seed"])
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "quantum_jump", recorded)
        d = default_config("bose_hubbard_losses")
        del d["seed"], d["times"]
        d.update(solvers=["jumps"], n_trajectories=20, fock_levels=10, output_dir=str(tmp_path))
        _, outdir = run_experiment(ExperimentConfig.from_dict(d))
        assert seeds == [20260810]
        written = json.loads((Path(outdir) / "config.json").read_text())
        assert written["times"] == default_config("bose_hubbard_losses")["times"]


class TestObservableCsv:
    def test_round_trip_with_and_without_stderr(self, tmp_path):
        t = np.linspace(0, 1, 5)
        series = {
            "plain": ObservableSeries(t, np.sin(t)),
            "noisy": ObservableSeries(t, np.cos(t), stderr=0.1 * np.ones(5)),
        }
        path = tmp_path / "observables.csv"
        write_observables(series, path)
        back = read_observables(path)
        assert set(back) == {"plain", "noisy"}
        assert np.array_equal(back["plain"].values, series["plain"].values)
        assert back["plain"].stderr is None
        assert np.array_equal(back["noisy"].stderr, series["noisy"].stderr)

    def test_reader_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,name,val\n")
        with pytest.raises(ValueError):
            read_observables(path)


class TestCsvFormats:
    def test_every_csv_artifact_keeps_the_format(self, tmp_path):
        """Each CSV kind of a tiny run of every registered experiment has
        distinct header names, rows as wide as the header, and each number
        written as the repr of its float; the integer trajectory index, the
        observable name and an empty stderr field are the exceptions."""
        kinds = set()
        for name in sorted(EXPERIMENTS):
            _, outdir = run_experiment(tiny_config(name, tmp_path / name))
            for path in sorted(outdir.rglob("*.csv")):
                kinds.add(re.sub(r"_\d+\.csv$", "_*.csv", path.name))
                header, *rows = path.read_text().splitlines()
                names = header.split(",")
                assert len(set(names)) == len(names), path
                assert rows, path
                for row in rows:
                    fields = row.split(",")
                    assert len(fields) == len(names), (path, row)
                    for col, text in zip(names, fields):
                        if col == "trajectory":
                            assert text == str(int(text)), (path, row)
                        elif col == "obs_name" or (col == "stderr" and text == ""):
                            continue
                        else:
                            assert text == repr(float(text)), (path, col, row)
        assert kinds == {"observables.csv", "trajectory.csv", "component_*.csv", "field.csv",
                         "trajectories.csv"}


class TestFrameFiles:
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_write_frame_keeps_every_bit(self, dtype, tmp_path):
        vals = np.array([[0.1, -0.0, 5e-324, 1.0 / 3.0],
                         [-2.5e-310, 0.0, 1e300, -7.0],
                         [np.pi, -1e-17, 2.0**-1074, -1e300]], dtype=dtype)
        if dtype is complex:
            vals = vals + 1j * vals[::-1].real
        path = tmp_path / "solver" / "wigner_t0.5.npy"
        write_frame(path, vals)
        back = np.load(path)
        assert back.dtype == vals.dtype and back.shape == vals.shape
        assert np.array_equal(back, vals)
        assert np.array_equal(np.signbit(back.real), np.signbit(vals.real))
        assert np.array_equal(np.signbit(back.imag), np.signbit(vals.imag))

    def test_frame_axes_come_from_config_json(self, tmp_path):
        d = default_config("limit_cycle")
        d.update(solvers=["semiclassical"], output_dir=str(tmp_path))
        d["times"] = {"t_end": 0.5, "n_out": 5, "frames": [0.0]}
        d["grid"] = {"q_min": -1.0, "q_max": 9.0, "n_q": 40, "p_min": 1.0, "p_max": 8.0,
                     "n_p": 28}
        _, outdir = run_experiment(ExperimentConfig.from_dict(d))
        spec = GridSpec(**json.loads((outdir / "config.json").read_text())["grid"])
        q, p = spec.axes()
        frame = np.load(outdir / "semiclassical" / "wigner_t0.npy")
        assert frame.shape == (q.size, p.size) == (40, 28)
        # the initial coherent state peaks at its centre
        iq, ip = np.unravel_index(np.argmax(frame), frame.shape)
        centre = coherent(1, complex(*d["initial"]["amplitudes"][0])).x
        assert abs(q[iq] - centre[0]) <= spec.dq and abs(p[ip] - centre[1]) <= spec.dp


class TestCompare:
    def test_identical_series_zero_error(self):
        t = np.linspace(0, 2, 9)
        s = ObservableSeries(t, np.sin(t))
        m = compare_series(s, s)
        assert m["sup_error"] == 0 and m["rms_error"] == 0

    def test_resampling_overlap(self):
        ta = np.linspace(0, 2, 21)
        tb = np.linspace(0.5, 3, 26)
        a = ObservableSeries(ta, 2 * ta)
        b = ObservableSeries(tb, 2 * tb)
        m = compare_series(a, b)
        assert m["sup_error"] < 1e-12
        assert m["n_points"] < ta.size

    def test_disjoint_ranges_error(self):
        a = ObservableSeries(np.array([0.0, 1.0]), np.zeros(2))
        b = ObservableSeries(np.array([2.0, 3.0]), np.zeros(2))
        with pytest.raises(ValueError):
            compare_series(a, b)

    def test_compare_dirs_with_tolerances(self, tmp_path):
        t = np.linspace(0, 1, 11)
        da, db = tmp_path / "a", tmp_path / "b"
        write_observables({"x": ObservableSeries(t, t)}, da / "observables.csv")
        write_observables({"x": ObservableSeries(t, t + 0.01)}, db / "observables.csv")
        rep = compare_dirs(da, db, {"x": {"sup": 0.02}})
        assert rep.passed
        rep = compare_dirs(da, db, {"x": {"sup": 0.005}})
        assert not rep.passed

    def test_compare_dirs_rejects_unmatched_tolerances(self, tmp_path):
        t = np.linspace(0, 1, 11)
        da, db = tmp_path / "a", tmp_path / "b"
        write_observables({"x": ObservableSeries(t, t)}, da / "observables.csv")
        write_observables({"x": ObservableSeries(t, t + 0.5)}, db / "observables.csv")
        with pytest.raises(ValueError, match=r"\['X'\]"):
            compare_dirs(da, db, {"X": {"sup": 1e-6}})
        with pytest.raises(ValueError, match=r"\['max'\]"):
            compare_dirs(da, db, {"x": {"max": 1e-6}})

    @pytest.mark.parametrize("tolerances, entry", [({"x": 0.1}, r"tolerances\['x'\] "),
                                                   ({"x": {"sup": "a"}}, r"\['x'\]\['sup'\]"),
                                                   ([1], "tolerances must map")],
                             ids=["bare-number", "string-bound", "list"])
    def test_compare_dirs_rejects_malformed_tolerances(self, tolerances, entry, tmp_path):
        t = np.linspace(0, 1, 11)
        da, db = tmp_path / "a", tmp_path / "b"
        write_observables({"x": ObservableSeries(t, t)}, da / "observables.csv")
        write_observables({"x": ObservableSeries(t, t)}, db / "observables.csv")
        with pytest.raises(ValueError, match=entry):
            compare_dirs(da, db, tolerances)


class TestRunners:
    def test_cat_runner_artifacts_and_determinism(self, tmp_path):
        cfg = tiny_cat_config(tmp_path)
        report, outdir = run_experiment(cfg)
        assert report.passed
        files = sorted(p.relative_to(outdir).as_posix() for p in Path(outdir).rglob("*")
                       if p.is_file())
        assert files == sorted(
            ["config.json", "report.json", "master/observables.csv", "master/wigner_t0.2.npy",
             "doubled/observables.csv", "doubled/wigner_t0.2.npy"]
            + [f"doubled/component_{i}.csv" for i in range(4)])

        def digests():
            return {name: hashlib.sha256((Path(outdir) / name).read_bytes()).hexdigest()
                    for name in files if name != "report.json"}

        before = digests()
        run_experiment(cfg)
        assert digests() == before

    def test_master_leakage_reaches_report(self, tmp_path):
        d = default_config("cat_anharmonic")
        d.update(solvers=["master"], fock_levels=20, output_dir=str(tmp_path))
        d["initial"]["centres"] = [[2.0, 1.0], [2.0, -1.0]]
        d["times"] = {"t_end": 0.5, "n_out": 6, "frames": []}
        del d["grid"]
        with pytest.warns(UserWarning, match="truncation leakage") as caught:
            report, _ = run_experiment(ExperimentConfig.from_dict(d))
        (warning,) = [w for w in caught if "truncation leakage" in str(w.message)]
        count, first = re.search(r"at (\d+) output times.*first at t=(\S+)$",
                                 str(warning.message)).groups()
        events = [e for e in report.entries if e["check"] == "solver_events"]
        assert events == [{"check": "solver_events", "solver": "master", "kind": "leakage",
                           "count": int(count), "first_t": pytest.approx(float(first)),
                           "passed": True}]
        assert int(count) > 0

    def test_event_entries_one_per_kind(self):
        events = [{"t": 0.4, "kind": "component_collapse"}, {"t": 0.1, "kind": "physicality"},
                  {"t": 0.2, "kind": "component_collapse"}]
        assert _event_entries("doubled", events) == [
            {"check": "solver_events", "solver": "doubled", "kind": "component_collapse",
             "count": 2, "first_t": 0.2, "passed": True},
            {"check": "solver_events", "solver": "doubled", "kind": "physicality",
             "count": 1, "first_t": 0.1, "passed": True},
        ]
        assert _event_entries("jumps", []) == []

    def test_report_is_valid_json(self, tmp_path):
        cfg = tiny_cat_config(tmp_path)
        _, outdir = run_experiment(cfg)
        doc = json.loads((Path(outdir) / "report.json").read_text())
        assert "entries" in doc and "passed" in doc

    @pytest.mark.parametrize("name", ["limit_cycle", "cat_anharmonic"])
    def test_master_solver_stats_reach_report(self, name, tmp_path, monkeypatch):
        if name == "cat_anharmonic":
            cfg = tiny_cat_config(tmp_path)
        else:
            d = default_config(name)
            d["times"] = {"t_end": 1.0, "n_out": 5, "frames": []}
            del d["grid"]
            d["output_dir"] = str(tmp_path)
            cfg = ExperimentConfig.from_dict(d)
        import semilind.harness.experiments as experiments

        real, trajs = experiments.integrate_master, []

        def recorded(*args, **kwargs):
            trajs.append(real(*args, **kwargs))
            return trajs[-1]

        monkeypatch.setattr(experiments, "integrate_master", recorded)
        report, outdir = run_experiment(cfg)
        doc = json.loads((Path(outdir) / "report.json").read_text())
        solver = [e for e in doc["entries"] if e["check"] == "master_solver"]
        (mtraj,) = trajs
        assert solver == [{"check": "master_solver", "method": mtraj.method, "nfev": mtraj.nfev,
                           "steps": mtraj.steps, "rejected": mtraj.rejected,
                           "superoperator": "real_hermitian", "nnz": mtraj.nnz,
                           "blocks": mtraj.blocks, "max_block": mtraj.max_block, "passed": True}]
        assert mtraj.nnz > 0
        if name == "limit_cycle":  # the band pairs m - n = +-k, propagated exactly
            assert (mtraj.method, mtraj.nfev, mtraj.steps, mtraj.rejected, mtraj.blocks,
                    mtraj.max_block) == ("block_expm", 0, 0, 0, 56, 110)
        else:  # two parity blocks of the 55-level q^4 model
            assert (mtraj.method, mtraj.blocks, mtraj.max_block) == ("dop853", 2, 1513)
            assert mtraj.nfev > 0 and mtraj.steps > 0
        others = [e["passed"] for e in doc["entries"] if e["check"] != "master_solver"]
        assert others
        assert doc["passed"] == report.passed == all(others)

    @pytest.mark.parametrize("name, traced, check", [
        ("limit_cycle", "integrate", "semiclassical_solver"),
        ("cat_anharmonic", "propagate_superposition", "doubled_solver"),
    ])
    def test_gaussian_solver_stats_reach_report(self, name, traced, check, tmp_path, monkeypatch):
        results = recording(monkeypatch, traced)
        _, outdir = run_experiment(tiny_config(name, tmp_path))
        doc = json.loads((Path(outdir) / "report.json").read_text())
        (result,) = results
        assert [e for e in doc["entries"] if e["check"] == check] == [
            {"check": check, "nfev": result.nfev, "steps": result.steps,
             "rejected": result.rejected, "passed": True}]
        assert result.nfev > 0 and result.steps > 0

    def test_unknown_solver_rejected(self, tmp_path):
        cfg = tiny_config("cat_anharmonic", tmp_path, solvers=["dubled", "mastr"])
        with pytest.raises(ConfigError, match=r"'dubled'.*'mastr'.*'doubled', 'master'"):
            run_experiment(cfg)
        assert not (tmp_path / "cat_anharmonic").exists()

    def test_no_solver_rejected(self, tmp_path):
        cfg = tiny_config("cat_anharmonic", tmp_path, solvers=[])
        with pytest.raises(ConfigError, match=r"runs no solver.*'doubled', 'master'"):
            run_experiment(cfg)
        assert not (tmp_path / "cat_anharmonic").exists()

    def test_unknown_tolerance_rejected_before_any_solver(self, tmp_path):
        d = tiny_config("cat_anharmonic", tmp_path).to_dict()
        d["tolerances"] = {"moment_rms_rl": 0.05}
        with pytest.raises(ConfigError, match=r"'moment_rms_rl'.*'moment_rms_rel'"):
            run_experiment(ExperimentConfig.from_dict(d))
        assert not (tmp_path / "cat_anharmonic").exists()

    def test_wigner_sup_is_unknown_tolerance(self, tmp_path):
        # every tolerance a check reads has a registered default; the frames
        # are compared by the wigner_fringe_info entries and by the tests
        d = tiny_cat_config(tmp_path).to_dict()
        d["tolerances"]["wigner_sup"] = 10.0
        with pytest.raises(ConfigError, match=r"unknown tolerance\(s\) \['wigner_sup'\] for "
                                              r"'cat_anharmonic'; known: \['moment_rms_rel', "
                                              r"'t_short', 'cross_monotone_slack'\]"):
            run_experiment(ExperimentConfig.from_dict(d))
        assert not (tmp_path / "cat_anharmonic").exists()

    def test_missing_tolerances_take_registered_values(self, tmp_path):
        d = tiny_config("cat_anharmonic", tmp_path).to_dict()
        d["tolerances"] = {}
        report, outdir = run_experiment(ExperimentConfig.from_dict(d))
        registered = default_config("cat_anharmonic")["tolerances"]
        bounds = {e["check"]: e["tolerance"] for e in report.entries if "tolerance" in e}
        assert bounds == {"q_mean_rms_relative_error": registered["moment_rms_rel"],
                          "p_mean_rms_relative_error": registered["moment_rms_rel"]}
        assert json.loads((Path(outdir) / "config.json").read_text())["tolerances"] == registered

    def test_unknown_experiment_rejected(self):
        d = default_config("cat_anharmonic")
        d["experiment"] = "not_a_thing"
        cfg = ExperimentConfig.from_dict(d)
        with pytest.raises(ConfigError):
            run_experiment(cfg)

    def test_output_root_env_override(self, tmp_path, monkeypatch):
        cfg = tiny_cat_config(tmp_path / "ignored")
        monkeypatch.setenv("SEMILIND_OUTPUT_ROOT", str(tmp_path / "redirected"))
        _, outdir = run_experiment(cfg)
        assert Path(outdir).parent == tmp_path / "redirected"


    def test_non_finite_frame_raises_before_writing(self, tmp_path):
        spec = GridSpec(-1.0, 1.0, 4, -1.0, 1.0, 4)
        run = SolverRun(frames=lambda ks: [WignerGrid(spec, np.full((4, 4), np.nan)) for k in ks])
        with pytest.raises(ValueError, match=r"master.*t=0\.5.*non-finite"):
            _wigner_frames(tmp_path / "master", np.array([0.0, 0.5]), [1], run)
        assert not (tmp_path / "master").exists()

    def test_boundary_clipping_event(self, tmp_path):
        # the vacuum on a grid of +-1 keeps exp(-1) of its peak at the border;
        # the frame check records it as an event instead of a warning
        small = GridSpec(-1, 1, 21, -1, 1, 21)
        run = SolverRun(frames=lambda ks: [eval_wigner(coherent(1, 0.0), small) for k in ks])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _wigner_frames(tmp_path / "semiclassical", np.array([0.0, 0.5]), [0, 1], run)
        assert run.events == [{"t": 0.0, "kind": "grid_clipping"},
                              {"t": 0.5, "kind": "grid_clipping"}]
        assert _event_entries("semiclassical", run.events) == [
            {"check": "solver_events", "solver": "semiclassical", "kind": "grid_clipping",
             "count": 2, "first_t": 0.0, "passed": True}]
        wide = GridSpec(-8, 8, 41, -8, 8, 41)
        run = SolverRun(frames=lambda ks: [eval_wigner(coherent(1, 0.0), wide) for k in ks])
        _wigner_frames(tmp_path / "semiclassical", np.array([0.0, 0.5]), [0, 1], run)
        assert run.events == []

    def test_clipped_cat_frames_are_one_event_per_solver(self, tmp_path):
        d = tiny_cat_config(tmp_path).to_dict()
        d["times"]["frames"] = [0.1, 0.2]
        # the cat's packets start at (4, +-3), outside a grid of +-2
        d["grid"] = {"q_min": -2.0, "q_max": 2.0, "n_q": 20, "p_min": -2.0, "p_max": 2.0,
                     "n_p": 20}
        report, outdir = run_experiment(ExperimentConfig.from_dict(d))
        written = json.loads((Path(outdir) / "report.json").read_text())["entries"]
        clipped = [e for e in written if e.get("kind") == "grid_clipping"]
        assert clipped == [{"check": "solver_events", "solver": solver, "kind": "grid_clipping",
                            "count": 2, "first_t": 0.1, "passed": True}
                           for solver in ("doubled", "master")]
        assert report.passed

    @pytest.mark.parametrize("name, key, value, message", [
        ("limit_cycle", "hbar", 0.5, "defined at hbar = 1"),
        ("cat_anharmonic", "initial", {"width": [0.0, 2.0]}, "unit packet width only"),
    ])
    def test_error_in_a_later_row_writes_no_file(self, name, key, value, message, tmp_path):
        d = default_config(name)
        d[key] = {**d[key], **value} if isinstance(value, dict) else value
        with pytest.raises(ValueError, match=message):
            run_experiment(ExperimentConfig.from_dict(d), root=tmp_path)
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []

    def test_cat_frames_computed_once_and_fringe_entries(self, tmp_path, monkeypatch):
        d = tiny_cat_config(tmp_path).to_dict()
        d["times"]["frames"] = [0.1, 0.2]
        cfg = ExperimentConfig.from_dict(d)
        import semilind.harness.experiments as experiments

        real, calls = experiments.wigner_of_density, []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "wigner_of_density", counted)
        _, outdir = run_experiment(cfg)
        # one call draws both master frames, from one set of rotation blocks
        # and Hermite tables
        assert [len(args[0]) for args in calls] == [2]
        doc = json.loads((Path(outdir) / "report.json").read_text())
        fringes = [e for e in doc["entries"] if e["check"] == "wigner_fringe_info"]
        assert [e["at_time"] for e in fringes] == [0.1, 0.2]
        assert all(e["passed"] for e in fringes)
        master = np.load(Path(outdir) / "master" / "wigner_t0.2.npy")
        doubled = np.load(Path(outdir) / "doubled" / "wigner_t0.2.npy")
        diff = doubled - master
        assert fringes[1]["sup_rel_error"] == pytest.approx(
            np.max(np.abs(diff)) / np.max(np.abs(master)), rel=1e-12)
        assert fringes[1]["l2_rel_error"] == pytest.approx(
            np.linalg.norm(diff) / np.linalg.norm(master), rel=1e-12)
        assert fringes[1]["min_master"] == master.min()
        assert fringes[1]["min_doubled"] == doubled.min()


class TestLatticeG12:
    def test_stderr_matches_delta_method(self):
        rng = np.random.default_rng(12)
        n_traj = 400
        o1 = rng.gamma(4.0, 1.0, size=(3, n_traj))
        o2 = rng.gamma(5.0, 1.0, size=(3, n_traj))
        re12 = 0.6 * np.sqrt(o1 * o2) + rng.normal(scale=0.3, size=(3, n_traj))
        im12 = 0.2 * o1 + rng.normal(scale=0.3, size=(3, n_traj))
        g12, err = _g12_with_stderr(o1, o2, re12, im12)

        def g_of(m):
            return np.hypot(m[2], m[3]) / np.sqrt(m[0] * m[1])

        for k in range(3):
            samples = np.stack([o1[k], o2[k], re12[k], im12[k]])
            m = samples.mean(axis=1)
            grad = np.array([(g_of(m + h) - g_of(m - h)) / 2e-6 for h in 1e-6 * np.eye(4)])
            want = np.sqrt(grad @ np.cov(samples) @ grad / n_traj)
            assert g12[k] == pytest.approx(g_of(m), rel=1e-14)
            assert err[k] == pytest.approx(want, rel=1e-6)

    def test_jump_csv_carries_g12_stderr(self, tmp_path):
        d = default_config("bose_hubbard_losses")
        d.update(solvers=["jumps"], n_trajectories=20, fock_levels=12, output_dir=str(tmp_path))
        d["times"] = {"t_end": 0.2, "n_out": 5, "frames": []}
        _, outdir = run_experiment(ExperimentConfig.from_dict(d))
        g12 = read_observables(Path(outdir) / "jumps" / "observables.csv")["g12"]
        assert g12.stderr is not None
        assert g12.stderr[0] < 1e-12 and np.all(g12.stderr[1:] > 0)

    def test_jump_solver_stats_reach_report(self, tmp_path, monkeypatch):
        d = default_config("bose_hubbard_losses")
        d.update(n_trajectories=20, fock_levels=10, output_dir=str(tmp_path))
        d["times"] = {"t_end": 0.5, "n_out": 5, "frames": []}
        import semilind.harness.experiments as experiments

        real, ensembles = experiments.quantum_jump, []

        def recorded(*args, **kwargs):
            ensembles.append(real(*args, **kwargs))
            return ensembles[-1]

        monkeypatch.setattr(experiments, "quantum_jump", recorded)
        report, outdir = run_experiment(ExperimentConfig.from_dict(d))
        doc = json.loads((Path(outdir) / "report.json").read_text())
        (ens,) = ensembles
        solver = [e for e in doc["entries"] if e["check"] == "jump_solver"]
        assert solver == [{"check": "jump_solver", "jumps_per_traj": float(ens.jump_counts.mean()),
                           "norm_evals_per_jump": ens.norm_evals / ens.jump_counts.sum(),
                           "max_norm_evals": ens.max_norm_evals,
                           "n_blocks": 19, "max_block": 10, "max_leakage": ens.max_leakage,
                           "passed": True}]
        assert ens.jump_counts.sum() > 0 and 0 < ens.max_leakage < 1  # 10 levels leak heavily
        # every crossing takes at least one norm evaluation
        assert ens.norm_evals >= ens.jump_counts.sum() and ens.max_norm_evals >= 1


# The library function each solver row calls, by its name in the experiments
# module: the name perfbench/tracing.py wraps.
SOLVER_CALLS = {
    ("limit_cycle", "semiclassical"): "integrate",
    ("limit_cycle", "master"): "integrate_master",
    ("bose_hubbard_losses", "semiclassical"): "integrate",
    ("bose_hubbard_losses", "jumps"): "quantum_jump",
    ("cat_anharmonic", "doubled"): "propagate_superposition",
    ("cat_anharmonic", "master"): "integrate_master",
    ("portrait_limit_cycle", "flow"): "drift_x",
    ("portrait_nonlinear_loss", "flow"): "drift_x",
}


class TestSolverTable:
    def test_every_solver_row_is_listed(self):
        rows = {(name, s) for name, exp in EXPERIMENTS.items() for s in exp.solvers}
        assert rows == set(SOLVER_CALLS)

    @pytest.mark.parametrize("name, solver", sorted(SOLVER_CALLS))
    def test_row_calls_the_library_at_run_time(self, name, solver, tmp_path, monkeypatch):
        results = recording(monkeypatch, SOLVER_CALLS[name, solver])
        report, _ = run_experiment(tiny_config(name, tmp_path, solvers=[solver]))
        assert len(results) >= 1 if solver == "flow" else len(results) == 1
        assert set(report.runtime_s) == {solver, "total"}

    @pytest.mark.parametrize("name, solver, checks", [
        # the doubled frame at t = 0.2 reaches the +-9 grid's border: a
        # grid_clipping event
        ("cat_anharmonic", "doubled",
         {"doubled_solver", "cross_magnitude_monotone", "solver_events"}),
        ("bose_hubbard_losses", "jumps",
         {"jump_solver", "total_number_monotone_decay", "g12_decay"}),
        ("limit_cycle", "semiclassical", {"semiclassical_solver", "physicality_min_eig"}),
    ])
    def test_subset_runs_its_solver_and_single_solver_checks(self, name, solver, checks,
                                                             tmp_path):
        report, outdir = run_experiment(tiny_config(name, tmp_path, solvers=[solver]))
        written = {p.name for p in Path(outdir).iterdir() if p.is_dir()}
        assert written == {solver}
        assert {e["check"] for e in report.entries} == checks


class TestRowKinds:
    def test_rows_report_their_experiments_map(self, tmp_path):
        names = {}
        for name in ("limit_cycle", "bose_hubbard_losses", "cat_anharmonic"):
            cfg = tiny_config(name, tmp_path / name)
            _, outdir = run_experiment(cfg)
            names[name] = {solver: set(read_observables(outdir / solver / "observables.csv"))
                           for solver in cfg.solvers}
        ring, lattice, cat = (names[n] for n in
                              ("limit_cycle", "bose_hubbard_losses", "cat_anharmonic"))
        assert ring["master"] == {"re_a", "im_a", "abs_a_sq", "alpha_cov"}
        assert ring["semiclassical"] == ring["master"] | {"min_eig_physicality"}
        assert lattice["jumps"] == {"occ_1", "occ_2", "total_number", "imbalance", "g12"}
        assert lattice["semiclassical"] == lattice["jumps"] | {"total_number_gauss",
                                                               "min_eig_physicality"}
        assert cat["master"] == {"q_mean", "p_mean"}
        assert cat["doubled"] == cat["master"] | {"raw_norm", "cross_magnitude"}

    @pytest.mark.parametrize("name, rows", [
        ("limit_cycle", 2), ("cat_anharmonic", 2), ("bose_hubbard_losses", 1)])
    def test_each_moment_row_builds_one_record(self, name, rows, tmp_path, monkeypatch):
        # a moment-returning row's outputs are one `Moments` stacked over its
        # output times, which the experiment's map reads by column
        import semilind.gaussian as gaussian

        real, built = gaussian.Moments.__init__, []

        def counted(self, *args, **kwargs):
            real(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(gaussian.Moments, "__init__", counted)
        cfg = tiny_config(name, tmp_path)
        run_experiment(cfg)
        assert [m.x.shape[0] for m in built] == [cfg.times.n_out] * rows

    @pytest.mark.parametrize("name, kind, solvers, message", [
        ("limit_cycle", "cat", None,
         r"the semiclassical row takes a 'coherent' initial state, not 'cat'"),
        ("bose_hubbard_losses", "cat", None,
         r"the semiclassical row takes a 'coherent' initial state, not 'cat'"),
        ("bose_hubbard_losses", "cat", ["jumps"],
         r"the jumps row takes a 'cat' initial state only on a single-mode model"),
        ("cat_anharmonic", "coherent", None,
         r"the doubled row takes a 'cat' initial state, not 'coherent'"),
        ("cat_anharmonic", "coherent", ["master"], None),
    ], ids=["ring-cat", "lattice-cat", "lattice-jumps-cat", "cat-coherent", "cat-master-coherent"])
    def test_initial_state_a_row_cannot_take(self, name, kind, solvers, message, tmp_path,
                                              monkeypatch):
        """A row given an initial state it cannot take is a ConfigError that
        names the row and the kind, before it solves, and leaves no file; the
        master row takes both kinds."""
        d = tiny_config(name, tmp_path, solvers=solvers).to_dict()
        other = "cat_anharmonic" if kind == "cat" else "limit_cycle"
        d["initial"] = default_config(other)["initial"]
        cfg = ExperimentConfig.from_dict(d)
        if message is None:
            report, outdir = run_experiment(cfg)
            assert report.passed
            assert set(read_observables(outdir / "master" / "observables.csv")) == {
                "q_mean", "p_mean"}
            return
        solves = [recording(monkeypatch, fn) for fn in
                  ("integrate", "propagate_superposition", "quantum_jump", "integrate_master")]
        with pytest.raises(ConfigError, match=message):
            run_experiment(cfg)
        assert solves == [[], [], [], []]
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []

    def test_grid_on_a_multi_mode_experiment_is_rejected_before_any_solver(self, tmp_path,
                                                                           monkeypatch):
        d = tiny_config("bose_hubbard_losses", tmp_path).to_dict()
        d["times"]["frames"] = [0.25]
        d["grid"] = {"q_min": -5.0, "q_max": 5.0, "n_q": 20, "p_min": -5.0, "p_max": 5.0,
                     "n_p": 20}
        solves = recording(monkeypatch, "integrate")
        with pytest.raises(ConfigError,
                           match=r"single-mode models; 'bose_hubbard_losses' has 2 modes"):
            run_experiment(ExperimentConfig.from_dict(d))
        assert solves == []
        assert not (tmp_path / "bose_hubbard_losses").exists()

    @pytest.mark.parametrize("name, path, value, message", [
        ("limit_cycle", ("hbar",), 0.5, "hbar: the master row solves in a Fock basis, "
                                        "defined at hbar = 1, got 0.5"),
        ("cat_anharmonic", ("initial", "width"), [0.0, 2.0],
         "initial.width: the master row takes unit packet width only"),
        ("bose_hubbard_losses", ("model",),
         {"n_modes": 1, "chart": "complex", "hamiltonian": "0.025*a1^2 a1bar^2",
          "lindblads": ["0.2*a1^2"]},
         "model.n_modes: 'bose_hubbard_losses' is written for 2 modes, got 1"),
        ("limit_cycle", ("initial", "amplitudes"), [[1.0, 0.0], [0.0, 1.0]],
         "initial.amplitudes: the semiclassical row needs one amplitude per mode, 1 in all, "
         "got 2"),
        ("limit_cycle", ("initial", "amplitudes"), "ab",
         "initial.amplitudes: complex values are [re, im] pairs, got 'a'"),
        ("cat_anharmonic", ("tolerances", "t_short"), -1.0,
         "config.tolerances.t_short: must be positive, got -1.0"),
        ("limit_cycle", ("tolerances", "t_short"), 0.1,
         "config.tolerances.t_short: 0.1 holds no output time after t = 0; the first is 0.5"),
        ("limit_cycle", ("tolerances", "slope_window"), 0.1,
         "config.tolerances.slope_window: 0.1 holds fewer than two output times"),
        ("limit_cycle", ("tolerances", "alpha_rel_short"), 0.0,
         "config.tolerances.alpha_rel_short: must be positive, got 0.0"),
        ("bose_hubbard_losses", ("tolerances", "g12_min_decay"), -0.05,
         "config.tolerances.g12_min_decay: must be positive, got -0.05"),
        ("cat_anharmonic", ("tolerances", "cross_monotone_slack"), -1e-9,
         "config.tolerances.cross_monotone_slack: must not be negative, got -1e-09"),
        ("cat_anharmonic", ("fock_levels",), 20,
         "fock_levels: the master row's initial state puts 4.36e-02 in the top of 20 levels, "
         "above the 1e-10 the master equation starts from"),
    ], ids=["fock-hbar", "fock-cat-width", "lattice-one-mode", "amplitude-count",
            "amplitudes-string", "negative-t-short", "t-short-below-step",
            "slope-window-below-step", "zero-bound", "negative-decay", "negative-slack",
            "master-truncation"])
    def test_config_a_run_cannot_use_fails_before_any_solve(self, name, path, value, message,
                                                            tmp_path, monkeypatch):
        """A value no row can run with, or outside a tolerance's meaning, is a
        ConfigError naming its key (and the row that needs it) before any row
        solves, and leaves no file."""
        d = default_config(name)
        d["times"] = {"t_end": 2.0, "n_out": 5, "frames": []}
        d.pop("grid", None)
        d["output_dir"] = str(tmp_path)
        section = d
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        calls = []
        for modname in ("semilind.semiclassical", "semilind.doubled", "semilind.quantum"):
            module = importlib.import_module(modname)
            monkeypatch.setattr(module, "solve_ivp",
                                lambda *a, _mod=modname, **k: calls.append(_mod))
        for fn in ("quantum_jump", "integrate_master"):
            monkeypatch.setattr(f"semilind.harness.experiments.{fn}",
                                lambda *a, _fn=fn, **k: calls.append(_fn))
        with pytest.raises(ConfigError, match=rf"^{re.escape(message)}"):
            run_experiment(ExperimentConfig.from_dict(d))
        assert calls == []
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []


ODE_MODULES =("semilind.semiclassical", "semilind.doubled", "semilind.quantum",
               "semilind.harness.experiments")


class TestOneIntegrator:
    def test_every_adaptive_solve_is_dop853_at_the_config_tolerances(self, tmp_path,
                                                                     monkeypatch):
        """Every adaptive solve of every registered run is `semilind.ode.solve_ivp`,
        the package's one DOP853, called at the config's rtol and atol."""
        calls = []
        for modname in ODE_MODULES:
            module = importlib.import_module(modname)
            assert module.solve_ivp is ode.solve_ivp, modname

            def recorded(*args, _mod=modname, **kwargs):
                calls.append((_mod, kwargs))
                return ode.solve_ivp(*args, **kwargs)

            monkeypatch.setattr(module, "solve_ivp", recorded)
        seen = set()
        for name in sorted(EXPERIMENTS):
            calls.clear()
            cfg = tiny_config(name, tmp_path / name)
            run_experiment(cfg)
            assert calls, name
            for modname, kwargs in calls:
                assert (kwargs.get("rtol"), kwargs.get("atol")) == (
                    cfg.ode_rtol, cfg.ode_atol), (name, modname)
            seen.update(modname for modname, _ in calls)
        assert seen == set(ODE_MODULES)

    @pytest.mark.parametrize("name, check", [
        ("limit_cycle", "semiclassical_solver"), ("cat_anharmonic", "doubled_solver"),
        ("cat_anharmonic", "master_solver"), ("portrait_limit_cycle", "flow_solver")])
    def test_evaluation_budget_of_each_solve(self, name, check, tmp_path, monkeypatch):
        """Each DOP853 solve of a registered run costs 2 evaluations for the
        initial step, 12 per accepted or rejected step and 3 per step whose
        interpolant is built; its row's report entry sums the steps of its solves."""
        results = []
        for modname in ODE_MODULES:
            def recorded(*args, _mod=modname, **kwargs):
                results.append((_mod, ode.solve_ivp(*args, **kwargs)))
                return results[-1][1]

            monkeypatch.setattr(importlib.import_module(modname), "solve_ivp", recorded)
        modname = {"semiclassical_solver": "semilind.semiclassical",
                   "doubled_solver": "semilind.doubled", "master_solver": "semilind.quantum",
                   "flow_solver": "semilind.harness.experiments"}[check]
        report, _ = run_experiment(tiny_config(name, tmp_path))
        sols = [sol for mod, sol in results if mod == modname]
        assert sols
        for sol in sols:
            assert sol.success and sol.steps > 0 and sol.dense_steps > 0
            assert sol.nfev == 2 + 12 * (sol.steps + sol.rejected) + 3 * sol.dense_steps
        (entry,) = [e for e in report.entries if e["check"] == check]
        assert (entry["nfev"], entry["steps"], entry["rejected"]) == (
            sum(s.nfev for s in sols), sum(s.steps for s in sols), sum(s.rejected for s in sols))


class TestPortrait:
    def test_nonlinear_loss_field_and_lines(self, tmp_path):
        d = default_config("portrait_nonlinear_loss")
        d["output_dir"] = str(tmp_path)
        d["portrait"]["n_q"] = 9
        d["portrait"]["n_p"] = 9
        d["portrait"]["t_end"] = 3.0
        d["portrait"]["n_out"] = 31
        d["portrait"]["starts"] = [[2.0, 1.0], [1.0, 2.0]]
        cfg = ExperimentConfig.from_dict(d)
        report, outdir = run_portrait(cfg)
        assert report.passed
        field = (Path(outdir) / "field.csv").read_text().splitlines()
        assert field[0] == "q,p,dq,dp,speed"
        gamma = 0.1
        # spot-check the sampled field against the closed-form drift
        for row in field[1:10]:
            qv, pv, dq, dp, _ = (float(x) for x in row.split(","))
            assert dq == pytest.approx(-2 * gamma * qv**2 * pv, abs=1e-12)
            assert dp == pytest.approx(-2 * gamma * qv * pv**2, abs=1e-12)
        # trajectories conserve p/q: straight lines through the origin
        rows = (Path(outdir) / "trajectories.csv").read_text().splitlines()[1:]
        data = {}
        for row in rows:
            idx, t, qv, pv = row.split(",")
            data.setdefault(int(idx), []).append((float(qv), float(pv)))
        for pts in data.values():
            ratios = [p / q for q, p in pts if abs(q) > 1e-6]
            assert np.max(np.abs(np.diff(ratios))) < 1e-6

    def test_field_matches_pointwise_drift(self, tmp_path):
        d = default_config("portrait_limit_cycle")
        d["output_dir"] = str(tmp_path)
        d["portrait"].update(n_q=7, n_p=6, t_end=0.5, n_out=3, starts=[[1.0, 0.5]])
        cfg = ExperimentConfig.from_dict(d)
        _, outdir = run_portrait(cfg)
        model = cfg.model.build(cfg.hbar).to_chart(Chart.REAL_QP)
        rows = (Path(outdir) / "field.csv").read_text().splitlines()[1:]
        assert len(rows) == 7 * 6
        for row in rows:
            qv, pv, dq, dp, speed = (float(x) for x in row.split(","))
            want = drift_x(model, [qv, pv])
            assert np.allclose([dq, dp], want, rtol=1e-15, atol=0)
            assert speed == pytest.approx(np.hypot(*want), rel=1e-15)

    @pytest.mark.parametrize("name, want", [
        ("portrait_limit_cycle", [("gradient_holomorphic", -1), ("gradient_holomorphic", -1),
                                  ("gradient_holomorphic", 1)]),
        ("portrait_nonlinear_loss", [("general", None)]),
    ])
    def test_flow_class_of_each_lindblad_symbol(self, name, want, tmp_path):
        # damping a, two-photon loss a^2 and amplification abar are each a
        # gradient flow; q^2 + i p^2 is the registered non-gradient case
        d = default_config(name)
        d["output_dir"] = str(tmp_path)
        d["portrait"].update(n_q=3, n_p=3, t_end=0.5, n_out=3)
        _, outdir = run_experiment(ExperimentConfig.from_dict(d))
        entries = json.loads((Path(outdir) / "report.json").read_text())["entries"]
        got = [e for e in entries if e["check"] == "flow_class"]
        assert [e["lindblad"] for e in got] == d["model"]["lindblads"]
        assert [(e["kind"], e["sign"]) for e in got] == want
        assert all(e["passed"] for e in got)

    def test_portrait_writes_its_config(self, tmp_path):
        d = default_config("portrait_limit_cycle")
        d["output_dir"] = str(tmp_path)
        d["portrait"].update(n_q=4, n_p=3, t_end=0.2, n_out=3, starts=[[1.0, 0.5]])
        cfg = ExperimentConfig.from_dict(d)
        _, outdir = run_portrait(cfg)
        assert sorted(p.name for p in Path(outdir).iterdir()) == ["field.csv", "trajectories.csv"]
        assert sorted(p.name for p in Path(outdir).parent.iterdir()) == [
            "config.json", "flow", "report.json"]
        assert load_config(Path(outdir).parent / "config.json") == cfg

    def test_portrait_uses_config_ode_tolerances(self, tmp_path):
        d = default_config("portrait_limit_cycle")
        d["portrait"].update(n_q=3, n_p=3, t_end=5.0, n_out=11, starts=[[1.0, 0.5]])
        written = []
        for rtol in (1e-9, 1e-3):
            d["output_dir"] = str(tmp_path / str(rtol))
            d["ode_rtol"] = rtol
            _, outdir = run_portrait(ExperimentConfig.from_dict(d))
            written.append((Path(outdir) / "trajectories.csv").read_text())
        assert written[0] != written[1]

    def test_portrait_config_needed(self, tmp_path):
        d = default_config("cat_anharmonic")
        d["output_dir"] = str(tmp_path)
        cfg = ExperimentConfig.from_dict(d)
        with pytest.raises(ConfigError):
            run_portrait(cfg)

    def test_trajectory_stopped_early_raises_and_writes_no_row(self, tmp_path):
        d = default_config("portrait_nonlinear_loss")
        d["output_dir"] = str(tmp_path)
        d["model"].update(hamiltonian="1.0*q1^2 p1", lindblads=[])  # dq/dt = q^2
        # q(t) = q0 / (1 - q0 t): the second start blows up at t = 1
        d["portrait"].update(n_q=3, n_p=3, t_end=2.0, n_out=21, starts=[[0.25, 0.0], [1.0, 0.0]])
        with pytest.raises(RuntimeError, match=r"trajectory 1 .* t=1 of 2: \S"):
            run_portrait(ExperimentConfig.from_dict(d))
        assert not (tmp_path / "portrait_nonlinear_loss" / "flow").exists()


def tiny_portrait_doc(tmp_path):
    d = default_config("portrait_limit_cycle")
    d["output_dir"] = str(tmp_path)
    d["portrait"].update(n_q=4, n_p=3, t_end=0.5, n_out=6, starts=[[1.0, 0.5], [-2.0, 0.0]])
    return d


class TestPortraitBenchmarkContract:
    """What perfbench/worker.py and perfbench/checks.py read of a portrait run."""

    def test_run_portrait_returns_the_two_csvs(self, tmp_path):
        _, outdir = run_portrait(ExperimentConfig.from_dict(tiny_portrait_doc(tmp_path)))
        assert sorted(p.name for p in Path(outdir).iterdir()) == ["field.csv", "trajectories.csv"]
        field = (Path(outdir) / "field.csv").read_text().splitlines()
        traj = (Path(outdir) / "trajectories.csv").read_text().splitlines()
        assert (field[0], len(field)) == ("q,p,dq,dp,speed", 1 + 4 * 3)
        assert (traj[0], len(traj)) == ("trajectory,t,q,p", 1 + 2 * 6)

    def test_run_and_portrait_verbs_write_the_same_bytes(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_portrait_doc(tmp_path / "out")))
        root = tmp_path / "out" / "portrait_limit_cycle"
        written = []
        for verb in ("run", "portrait"):
            assert cli_main([verb, str(path)]) == 0
            written.append({p.relative_to(root).as_posix(): p.read_bytes()
                            for p in root.rglob("*") if p.is_file() and p.name != "report.json"})
        assert sorted(written[0]) == ["config.json", "flow/field.csv", "flow/trajectories.csv"]
        assert written[0] == written[1]

    def test_run_experiment_times_the_flow_row(self, tmp_path, monkeypatch):
        solutions = recording(monkeypatch, "solve_ivp")
        report, _ = run_experiment(ExperimentConfig.from_dict(tiny_portrait_doc(tmp_path)))
        assert set(report.runtime_s) == {"flow", "total"}
        (entry,) = [e for e in report.entries if e["check"] == "flow_solver"]
        assert len(solutions) == 2
        assert entry == {"check": "flow_solver", "nfev": sum(s.nfev for s in solutions),
                         "steps": sum(s.steps for s in solutions),
                         "rejected": sum(s.rejected for s in solutions), "passed": True}
        assert entry["nfev"] > 0


class TestCli:
    def test_list_experiments(self, capsys):
        assert cli_main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_list_experiments_names_solver_rows(self, capsys):
        assert cli_main(["list-experiments"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "portrait_limit_cycle [flow]" in out
        assert "cat_anharmonic [doubled, master]" in out

    def test_list_single_prints_config(self, capsys):
        assert cli_main(["list-experiments", "cat_anharmonic"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["experiment"] == "cat_anharmonic"

    def test_selftest(self, capsys):
        assert cli_main(["selftest"]) == 0

    def test_run_roundtrip_exit_codes(self, tmp_path, capsys):
        cfg = tiny_cat_config(tmp_path)
        path = tmp_path / "cfg.json"
        dump_config(cfg, path)
        assert cli_main(["run", str(path)]) == 0

    def test_run_unknown_solver_is_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        dump_config(tiny_config("cat_anharmonic", tmp_path, solvers=["dubled", "mastr"]), path)
        assert cli_main(["run", str(path)]) == 1
        assert "dubled" in capsys.readouterr().err

    def test_run_no_solver_is_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        dump_config(tiny_config("cat_anharmonic", tmp_path, solvers=[]), path)
        assert cli_main(["run", str(path)]) == 1
        assert "runs no solver" in capsys.readouterr().err
        assert not (tmp_path / "cat_anharmonic").exists()

    def test_run_unknown_tolerance_is_error(self, tmp_path, capsys):
        d = tiny_config("cat_anharmonic", tmp_path).to_dict()
        d["tolerances"] = {"moment_rms_rl": 0.05}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        assert cli_main(["run", str(path)]) == 1
        assert "moment_rms_rl" in capsys.readouterr().err
        assert not (tmp_path / "cat_anharmonic").exists()

    def test_run_missing_file_is_error(self, capsys):
        assert cli_main(["run", "/nonexistent/cfg.json"]) == 1

    def test_unknown_experiment_is_one_error_naming_the_known(self, tmp_path, capsys):
        d = tiny_config("cat_anharmonic", tmp_path).to_dict()
        d["experiment"] = "nope"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        errors = []
        for argv in (["list-experiments", "nope"], ["run", str(path)]):
            assert cli_main(argv) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0] == f"error: unknown experiment 'nope'; known: {sorted(EXPERIMENTS)}\n"
        assert not (tmp_path / "nope").exists()

    def test_compare_cli(self, tmp_path, capsys):
        t = np.linspace(0, 1, 11)
        da, db = tmp_path / "a", tmp_path / "b"
        write_observables({"x": ObservableSeries(t, t)}, da / "observables.csv")
        write_observables({"x": ObservableSeries(t, t + 0.1)}, db / "observables.csv")
        tolfile = tmp_path / "tol.json"
        tolfile.write_text(json.dumps({"x": {"sup": 0.2}}))
        assert cli_main(["compare", str(da), str(db), "--tol", str(tolfile)]) == 0
        tolfile.write_text(json.dumps({"x": {"sup": 0.01}}))
        assert cli_main(["compare", str(da), str(db), "--tol", str(tolfile)]) == 2
        tolfile.write_text(json.dumps({"X": {"sup": 1e-6}}))
        capsys.readouterr()
        assert cli_main(["compare", str(da), str(db), "--tol", str(tolfile)]) == 1
        assert "['X']" in capsys.readouterr().err
        for doc, entry in (({"x": 0.1}, "tolerances['x'] "), ({"x": {"sup": "a"}}, "['x']['sup']"),
                           ([1], "tolerances must map")):
            tolfile.write_text(json.dumps(doc))
            assert cli_main(["compare", str(da), str(db), "--tol", str(tolfile)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and entry in err and "Traceback" not in err

    def test_portrait_cli(self, tmp_path):
        d = default_config("portrait_nonlinear_loss")
        d["output_dir"] = str(tmp_path)
        d["portrait"]["n_q"] = 5
        d["portrait"]["n_p"] = 5
        d["portrait"]["n_out"] = 11
        d["portrait"]["t_end"] = 1.0
        d["portrait"]["starts"] = [[1.0, 1.0]]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        assert cli_main(["portrait", str(path)]) == 0


class TestBenchmarkImports:
    """The benchmark imports names from the package; a renamed or deleted one
    breaks it without failing any other test."""

    def test_every_imported_name_resolves(self):
        files = sorted((ROOT / "perfbench").glob("*.py"))
        files += sorted((ROOT / "perfbench" / "tests").glob("*.py"))
        imported, missing = [], []
        for path in files:
            for node in ast.walk(ast.parse(path.read_text())):
                if not (isinstance(node, ast.ImportFrom) and node.level == 0
                        and node.module.split(".")[0] == "semilind"):
                    continue
                module = importlib.import_module(node.module)
                for alias in node.names:
                    imported.append((path.name, node.module, alias.name))
                    if not hasattr(module, alias.name):
                        missing.append(f"{path.name}: {node.module}.{alias.name}")
        assert ("worker.py", "semilind.harness.experiments", "run_portrait") in imported
        assert ("workloads.py", "semilind.harness.experiments", "default_config") in imported
        assert missing == []

    def test_every_traced_name_resolves(self):
        """The benchmark tracer skips a name it cannot find, dropping its metric.
        Its TARGETS and ODE_TARGETS are read from its source without importing it."""
        tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
        lists = {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
                 and node.targets[0].id in ("TARGETS", "ODE_TARGETS")}
        assert ("semilind.symbols", "PolyBatch.__call__", "symbols.PolyBatch") in lists["TARGETS"]
        assert lists["ODE_TARGETS"]
        names = [(module, attr) for module, attr, _ in lists["TARGETS"]]
        names += [(module, "solve_ivp") for module, _ in lists["ODE_TARGETS"]]
        names.append(("semilind.harness.experiments", "quantum_jump"))
        missing = []
        for module, attr in names:
            owner = importlib.import_module(module)
            for part in attr.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{module}.{attr}")
        assert missing == []
