"""The artifact tools under tools/, run on small hand-made output roots."""

import importlib.util
import json
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_root(root: Path, value: float, fringe: float, runtime: float, extra=False):
    (root / "exp" / "row").mkdir(parents=True)
    (root / "exp" / "row" / "observables.csv").write_text(
        f"t,obs_name,value,stderr\n0.0,q,1.0,\n0.5,q,{value!r},\n")
    np.save(root / "exp" / "row" / "wigner_t0.5.npy", np.array([[0.25, fringe], [0.5, 1.0]]))
    report = {"entries": [{"check": "q_error", "passed": True, "value": value}],
              "runtime_s": {"row": runtime}}
    (root / "exp" / "report.json").write_text(json.dumps(report))
    if extra:
        (root / "exp" / "row" / "component_0.csv").write_text("t,X_1\n0.0,1.0\n")


class TestArtifactDiff:
    def test_identical_roots(self, tmp_path, capsys):
        write_root(tmp_path / "a", 2.0, 1e-17, 0.1)
        write_root(tmp_path / "b", 2.0, 1e-17, 0.7)  # run times are left out
        assert load_tool("artifact_diff").main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
        assert capsys.readouterr().out == "no differences\n"

    def test_each_differing_file_and_entry(self, tmp_path, capsys):
        write_root(tmp_path / "a", 2.0, 1e-17, 0.1)
        write_root(tmp_path / "b", 2.0 + 2e-9, 2e-17, 0.1, extra=True)
        load_tool("artifact_diff").main([str(tmp_path / "a"), str(tmp_path / "b")])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"exp/row/component_0.csv: only under {tmp_path / 'b'}"
        assert lines[1] == "exp/report.json:"
        assert lines[2] == "  entries[0:q_error].value: 2.0 -> 2.000000002 (rel 1e-09)"
        assert lines[3] == ("exp/row/observables.csv: 1 of 4 values differ, max abs 2e-09 "
                            "(1e-09 of max |A|), max rel 1e-09 (at A = 2)")
        # the largest relative difference sits at a near-zero value
        assert lines[4] == ("exp/row/wigner_t0.5.npy: 1 of 4 values differ, max abs 1e-17 "
                            "(1e-17 of max |A|), max rel 1 (at A = 1e-17)")
        # over both files, the largest share of a file's largest value
        assert lines[5] == "largest share of max |A|: 1e-09 (exp/row/observables.csv)"
        assert len(lines) == 6

    def test_largest_share_names_its_file(self, tmp_path, capsys):
        # 0.5 of the frame's largest value 1.0 outweighs 1e-6 of the series' 2.0
        write_root(tmp_path / "a", 2.0, 0.0, 0.1)
        write_root(tmp_path / "b", 2.0 + 2e-6, 0.5, 0.1)
        load_tool("artifact_diff").main([str(tmp_path / "a"), str(tmp_path / "b")])
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "largest share of max |A|: 0.5 (exp/row/wigner_t0.5.npy)"

    def test_report_only_differences(self, tmp_path, capsys):
        write_root(tmp_path / "a", 2.0, 1e-17, 0.1)
        write_root(tmp_path / "b", 2.0, 1e-17, 0.1)
        report = tmp_path / "b" / "exp" / "report.json"
        report.write_text(report.read_text().replace("true", "false"))
        load_tool("artifact_diff").main([str(tmp_path / "a"), str(tmp_path / "b")])
        assert capsys.readouterr().out.splitlines() == [
            "exp/report.json:", "  entries[0:q_error].passed: True -> False",
            "largest share of max |A|: no .csv or .npy values compared"]

    def test_bad_arguments(self, tmp_path):
        assert load_tool("artifact_diff").main([str(tmp_path)]) == 2
        assert load_tool("artifact_diff").main([str(tmp_path), str(tmp_path / "absent")]) == 2
