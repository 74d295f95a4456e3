"""The comparison step of tools/compare_outputs.py, on stand-in outputs (no CLI runs)."""

import importlib.util
import pathlib

import pytest

PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
spec = importlib.util.spec_from_file_location("compare_outputs", PATH)
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)

OLD = {"stdout/00-gen-data.txt": "wrote 96 images\n", "run_tkp/loss.tsv": "1\t0.693\n"}


@pytest.mark.parametrize("new, status, verdict, count", [
    (OLD, 0, "run_tkp/loss.tsv: identical", "2 of 2 outputs identical"),
    ({**OLD, "run_tkp/loss.tsv": "1\t0.701\n"}, 0,
     "run_tkp/loss.tsv: max |d| 0.008 over 2 numbers", "1 of 2 outputs identical"),
    ({**OLD, "run_tkp/extra.txt": "x 1\n"}, 1,
     "run_tkp/extra.txt: only in the new tree's outputs", "2 of 3 outputs identical"),
], ids=["identical", "moved-number", "one-side-only"])
def test_count_line_and_exit_status(new, status, verdict, count, tmp_path, monkeypatch, capsys):
    def run_tree(tree, work):
        for rel, text in {"old": OLD, "new": new}[tree].items():
            path = pathlib.Path(work) / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        return []

    monkeypatch.setattr(compare_outputs, "run_tree", run_tree)
    assert compare_outputs.compare("old", "new", str(tmp_path / "old"), str(tmp_path / "new")) == status
    lines = capsys.readouterr().out.splitlines()
    assert verdict in lines
    assert lines[-1] == count
