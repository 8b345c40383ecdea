"""tools/compare_runs.py: one tiny config run from two source trees, one
subprocess at a time."""

import importlib.util
import json
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

spec = importlib.util.spec_from_file_location("compare_runs", ROOT / "tools" / "compare_runs.py")
compare_runs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_runs)

TINY = {
    "seed": 3,
    "output_dir": "out",
    "synthetic": {"n": 80, "anomaly_fraction": 0.5, "seed": 12},
    "cv_folds": 3,
    "importance_repeats": 2,
    "grids": {"random_forest": {"n_trees": [5]}, "grad_boost": {"n_trees": [5]},
              "mlp": {"hidden": [4]}, "adaboost": {"rounds": [5]}},
}


def test_compare_runs_finds_identical_and_changed_outputs(tmp_path, capsys):
    """The same tree against itself writes the same bytes, though each
    side's manifest records its own output directory; a copy whose MLP
    trains one epoch less writes other bytes, and the tool says which
    files and exits 1."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY))
    args = ["--config", str(config), "--phases", "1"]
    assert compare_runs.main([str(SRC), str(SRC), *args]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith(" 0 differ")

    changed = tmp_path / "changed" / "src"
    shutil.copytree(SRC, changed, ignore=shutil.ignore_patterns("__pycache__"))
    mlp = changed / "headerscan" / "learners" / "mlp.py"
    text = mlp.read_text()
    assert "_EPOCHS, _BATCH = 100, 32" in text
    mlp.write_text(text.replace("_EPOCHS, _BATCH = 100, 32", "_EPOCHS, _BATCH = 99, 32"))
    assert compare_runs.main([str(SRC), str(changed), *args]) == 1
    printed = capsys.readouterr().out.splitlines()
    assert "differs: manifest.json" in printed
    assert not printed[-1].endswith(" 0 differ")


def test_output_files_mask_only_the_recorded_output_directory(tmp_path):
    out = tmp_path / "out"
    (out / "reports").mkdir(parents=True)
    manifest = {"config": {"output_dir": str(out)}, "tables": str(out / "reports" / "a.txt")}
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1))
    (out / "reports" / "a.txt").write_bytes(b"x")
    files = compare_runs.output_files(str(out))
    assert sorted(files) == ["manifest.json", "reports/a.txt"]
    assert json.loads(files["manifest.json"]) == {"config": {"output_dir": None},
                                                  "tables": str(out / "reports" / "a.txt")}
