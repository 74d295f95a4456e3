"""Command-line interface: subcommands, config files, and exit codes."""

import json
import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

from localfocus import read_manifest
from localfocus.cli import main, read_config_file

REPO_ROOT = Path(__file__).resolve().parents[1]
TINY_MODEL_FLAGS = ["--num-conv-layers", "3", "--channel-plan", "8,16,64",
                    "--pool-after", "1,2", "--k", "4"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated dataset plus one trained run, shared by the tests."""
    root = tmp_path_factory.mktemp("cliws")
    data_dir = str(root / "data")
    run_dir = str(root / "run_a")
    rc = main(["gen-data", "--out", data_dir, "--n-train", "8",
               "--n-test", "4", "--size", "32", "--seed", "5"])
    assert rc == 0
    rc = main(["train", "--manifest", os.path.join(data_dir, "train_manifest.tsv"),
               "--out", run_dir, "--epochs", "2", "--batch-size", "4",
               "--seed", "3", "--lr", "1e-3"] + TINY_MODEL_FLAGS)
    assert rc == 0
    return {"root": root, "data": data_dir, "run": run_dir,
            "train_manifest": os.path.join(data_dir, "train_manifest.tsv"),
            "test_manifest": os.path.join(data_dir, "test_manifest.tsv"),
            "best": os.path.join(run_dir, "checkpoint_best.lfm"),
            "last": os.path.join(run_dir, "checkpoint_last.lfm")}


class TestEndToEnd:
    def test_gen_data_outputs(self, workspace):
        manifest = read_manifest(workspace["train_manifest"])
        assert len(manifest.entries) == 8
        assert [e[1] for e in manifest.entries] == [0, 1] * 4
        for name, _label, _tag in manifest.entries:
            assert os.path.exists(os.path.join(workspace["data"], name))
        assert os.path.exists(os.path.join(workspace["data"], "config_used.cfg"))
        assert len(read_manifest(workspace["test_manifest"]).entries) == 4

    def test_train_artifacts(self, workspace):
        run = workspace["run"]
        assert os.path.exists(workspace["last"])
        assert os.path.exists(workspace["best"])
        curve = open(os.path.join(run, "loss_curve.tsv")).read().splitlines()
        assert len(curve) == 2  # one line per epoch
        cfg = read_config_file(os.path.join(run, "config_used.cfg"))
        assert cfg["epochs"] == "2"
        assert cfg["channel_plan"] == "8,16,64"
        assert cfg["rbld"] == "true" and cfg["rks"] == "true"

    def test_eval_writes_json_report(self, workspace, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        rc = main(["eval", "--checkpoint", workspace["best"],
                   "--manifest", workspace["test_manifest"], "--out", out])
        assert rc == 0
        text = capsys.readouterr().out
        report = json.loads(text)
        assert list(report) == ["acc", "ap", "n_real", "n_fake", "params"]
        assert report["n_real"] == 2 and report["n_fake"] == 2
        assert open(out).read() == text

    def test_eval_is_deterministic(self, workspace, capsys):
        outputs = []
        for _ in range(2):
            rc = main(["eval", "--checkpoint", workspace["best"],
                       "--manifest", workspace["test_manifest"]])
            assert rc == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_infer_line_format(self, workspace, capsys):
        image = os.path.join(workspace["data"], "test_real_00000.ppm")
        rc = main(["infer", "--checkpoint", workspace["best"], "--image", image])
        assert rc == 0
        line = capsys.readouterr().out.rstrip("\n")
        path, prob, label = line.split("\t")
        assert path == image
        assert 0.0 <= float(prob) <= 1.0
        assert label in ("0", "1")
        assert (label == "1") == (float(prob) >= 0.5)

    def test_config_round_trip_reproduces_checkpoint(self, workspace):
        run_b = str(workspace["root"] / "run_b")
        rc = main(["train", "--config", os.path.join(workspace["run"], "config_used.cfg"),
                   "--out", run_b])
        assert rc == 0
        blob_a = open(workspace["last"], "rb").read()
        blob_b = open(os.path.join(run_b, "checkpoint_last.lfm"), "rb").read()
        assert blob_a == blob_b

    def test_flag_overrides_config_file(self, workspace, capsys):
        run_c = str(workspace["root"] / "run_c")
        rc = main(["train", "--config", os.path.join(workspace["run"], "config_used.cfg"),
                   "--out", run_c, "--epochs", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "epoch 0: loss" in out and "epoch 1:" not in out
        assert read_config_file(os.path.join(run_c, "config_used.cfg"))["epochs"] == "1"

    def test_bench_needs_enough_images(self, workspace, capsys):
        rc = main(["bench", "--checkpoint", workspace["best"],
                   "--manifest", workspace["test_manifest"]])
        assert rc == 2
        assert "100" in capsys.readouterr().err

    def test_bench_rejects_bad_env_workers(self, workspace, monkeypatch, capsys):
        monkeypatch.setenv("LOCALFOCUS_WORKERS", "lots")
        rc = main(["bench", "--checkpoint", workspace["best"],
                   "--manifest", workspace["test_manifest"]])
        assert rc == 2
        assert "LOCALFOCUS_WORKERS" in capsys.readouterr().err


class TestExitCodes:
    def test_no_command(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag(self, capsys):
        assert main(["gen-data", "--bogus", "x"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["train"]) == 1
        assert "--manifest" in capsys.readouterr().err

    def test_non_integer_flag_value(self, capsys):
        assert main(["train", "--epochs", "soon"]) == 1

    def test_bad_flag_domain_is_exit_2(self, tmp_path, capsys):
        rc = main(["gen-data", "--out", str(tmp_path / "d"), "--n-train", "3"])
        assert rc == 2
        assert "even" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, capsys):
        rc = main(["train", "--manifest", str(tmp_path / "nope.tsv"),
                   "--out", str(tmp_path / "r")])
        assert rc == 2

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 1\n")
        rc = main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d")])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err

    def test_malformed_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("novalue\n")
        rc = main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d")])
        assert rc == 2

    def test_duplicate_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("seed = 1\nseed = 2\n")
        rc = main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d")])
        assert rc == 2
        assert "duplicate" in capsys.readouterr().err

    def test_bad_config_value_type(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epochs = soon\n")
        rc = main(["train", "--config", str(cfg), "--manifest", "m", "--out", "o"])
        assert rc == 2


class TestHelp:
    def test_top_level_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for command in ("gen-data", "train", "eval", "infer", "bench"):
            assert command in out

    def test_subcommand_help_lists_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--manifest", "--epochs", "--k", "--pooling", "--config"):
            assert flag in out

    def test_console_script_installed(self):
        """The `localfocus` command that an install creates resolves and runs.

        The entry point is read from pyproject.toml and run in a fresh
        interpreter the way pip's generated wrapper runs it, so the check
        holds whether or not the package is installed. Where an installed
        `localfocus` script is on PATH, that script is run as well.
        """
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")
        with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        entry = EntryPoint("localfocus", scripts["localfocus"], "console_scripts")
        assert entry.load() is main

        wrapper = ("import sys\n"
                   "from importlib.metadata import EntryPoint\n"
                   f"sys.exit(EntryPoint({entry.name!r}, {entry.value!r}, "
                   f"{entry.group!r}).load()())")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p)
        runs = [([sys.executable, "-c", wrapper, "--help"], env)]
        installed = shutil.which("localfocus")
        if installed is not None:
            runs.append(([installed, "--help"], None))
        for command, run_env in runs:
            proc = subprocess.run(command, capture_output=True, text=True,
                                  env=run_env, timeout=120)
            assert proc.returncode == 0, f"{command[0]} failed:\n{proc.stderr}"
            assert "gen-data" in proc.stdout, proc.stderr
