"""The scripts under ``scripts/`` run on the library as it stands."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_comparison_reports_three_models(tmp_path, capsys):
    run_comparison = load_script("run_comparison")
    assert run_comparison.main(["--n", "200", "--seed", "3", "--out", str(tmp_path / "r")]) == 0
    rows = (tmp_path / "r.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["glm", "gam", "ann"]
    assert "# Model comparison" in capsys.readouterr().out
