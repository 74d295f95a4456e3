"""Run the same fixed command set in two localfocus source trees and say how
far each output moved.

    python3 tools/compare_outputs.py OLD_TREE NEW_TREE [--work DIR]

Each tree runs its own ``src/localfocus`` CLI, in its own work directory,
with relative paths:

    gen-data --n-train 64 --n-test 32 --size 64 --seed 7
    train --pooling tkp|gap|gmp --epochs 3 --batch-size 16 --seed 3 --lr 0.001
    eval of each run's best and last checkpoint; infer of two test images
    train --config <run>/config_used.cfg, for each of the three runs
    train --pooling tkp --batch-size 21, whose last batch (64 = 3*21 + 1)
        holds one image

Then every file either side wrote gets one line: ``identical``, or the
largest difference, and a last line counts them (``153 of 153 outputs
identical``). A checkpoint (read by its own tree's loader) gives
max |d| per parameter array, an eval report d(acc) and d(ap), and any other
text file (stdout, loss curves, infer lines) max |d| over its numbers.

Exit status 1 when a command fails, a file exists on one side only, or
a file differs in kind: array count or shapes, eval keys, a non-numeric
token (the lines only one side has are named, up to three), or the bytes
of a file with no numbers to compare (images, manifests, configs).
Otherwise 0, however far the numbers moved.

Byte equality is a same-machine contract: the BLAS build and its thread
count decide summation order, so compare trees on one machine.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import re
import subprocess
import sys
import tempfile

import numpy as np

RUN = "--epochs 3 --batch-size 16 --seed 3 --lr 0.001".split()
IMAGES = ("data/test_real_00000.ppm", "data/test_fake_00000.ppm")


def commands() -> list[tuple[str, list[str]]]:
    """(name, argv) pairs in run order; names label the saved stdout."""
    cmds = [("gen-data", "gen-data --out data --n-train 64 --n-test 32 --size 64 --seed 7".split())]
    for pool in ("tkp", "gap", "gmp"):
        run = f"run_{pool}"
        cmds.append((f"train-{pool}", ["train", "--manifest", "data/train_manifest.tsv",
                                        "--out", run, "--pooling", pool] + RUN))
        for which in ("best", "last"):
            cmds.append((f"eval-{pool}-{which}", ["eval", "--checkpoint", f"{run}/checkpoint_{which}.lfm",
                                                   "--manifest", "data/test_manifest.tsv",
                                                   "--out", f"{run}/eval_{which}.json"]))
        for i, image in enumerate(IMAGES):
            cmds.append((f"infer-{pool}-{i}", ["infer", "--checkpoint", f"{run}/checkpoint_best.lfm",
                                                "--image", image]))
        cmds.append((f"retrain-{pool}", ["train", "--config", f"{run}/config_used.cfg",
                                          "--out", f"re{run}"]))
    # Last, so the stdout files above keep their indices.
    cmds.append(("train-tkp-b21", "train --manifest data/train_manifest.tsv --out run_tkp_b21 --pooling tkp "
                                  "--epochs 3 --batch-size 21 --seed 3 --lr 0.001".split()))
    return cmds


def run_tree(tree: str, work: str) -> list[str]:
    """Run every command in ``work`` against ``tree``'s source; return
    the names of commands that failed."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    os.makedirs(os.path.join(work, "stdout"))
    failed = []
    for i, (name, argv) in enumerate(commands()):
        proc = subprocess.run([sys.executable, "-m", "localfocus.cli"] + argv, cwd=work, env=env,
                              capture_output=True, text=True)
        with open(os.path.join(work, "stdout", f"{i:02d}-{name}.txt"), "w", encoding="utf-8") as fh:
            fh.write(proc.stdout)
        if proc.returncode != 0:
            failed.append(f"{name} (exit {proc.returncode}: {proc.stderr.strip()})")
    return failed


def load_arrays(tree: str, paths: list[str]) -> list[list[np.ndarray]]:
    """Parameter arrays of each checkpoint, read by ``tree``'s own loader
    in a child process."""
    script = ("import sys, numpy as np\n"
              "from localfocus.checkpoint import load_checkpoint\n"
              "for path, out in zip(sys.argv[1::2], sys.argv[2::2]):\n"
              "    np.savez(out, *[p.data for p in load_checkpoint(path).parameters()])\n")
    outs = [p + ".npz" for p in paths]
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    subprocess.run([sys.executable, "-c", script] + [a for pair in zip(paths, outs) for a in pair],
                   env=env, check=True)
    arrays = []
    for out in outs:
        with np.load(out) as z:
            arrays.append([z[f"arr_{i}"] for i in range(len(z.files))])
        os.remove(out)
    return arrays


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan)")
_NAMED_LINES = 3


def one_sided_lines(a: str, b: str) -> str:
    """The first three lines only one text has, as ``-old`` / ``+new``."""
    diff = difflib.ndiff(a.splitlines(), b.splitlines())
    lines = [line[0] + line[2:] for line in diff if line[:2] in ("- ", "+ ")]
    more = f" (and {len(lines) - _NAMED_LINES} more)" if len(lines) > _NAMED_LINES else ""
    return ", ".join(repr(line) for line in lines[:_NAMED_LINES]) + more


def compare_text(a: str, b: str) -> tuple[str, bool]:
    """(verdict, same kind) for two text files: numbers compared by value,
    everything else must match exactly."""
    ta, tb = _NUMBER.split(a), _NUMBER.split(b)
    na, nb = _NUMBER.findall(a), _NUMBER.findall(b)
    if ta != tb or len(na) != len(nb):
        return "differs in its non-numeric text: " + one_sided_lines(a, b), False
    if not na:
        return "differs", False
    delta = max(abs(float(x) - float(y)) for x, y in zip(na, nb))
    return f"max |d| {delta:.3g} over {len(na)} numbers", True


def compare_eval(a: str, b: str) -> tuple[str, bool]:
    ra, rb = json.loads(a), json.loads(b)
    if ra.keys() != rb.keys() or any(ra[k] != rb[k] for k in ra if k not in ("acc", "ap")):
        return f"report fields differ: {ra} vs {rb}", False
    return f"d(acc) {rb['acc'] - ra['acc']:+.6g}, d(ap) {rb['ap'] - ra['ap']:+.6g}", True


def compare_checkpoints(a: list[np.ndarray], b: list[np.ndarray]) -> tuple[str, bool]:
    if [x.shape for x in a] != [y.shape for y in b]:
        return "parameter arrays differ in count or shape", False
    deltas = [float(np.max(np.abs(x - y), initial=0.0)) for x, y in zip(a, b)]
    return "max |d| per array " + " ".join(f"{d:.2g}" for d in deltas), True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_tree")
    parser.add_argument("new_tree")
    parser.add_argument("--work", help="keep the outputs under this new directory "
                                       "(default: a temporary directory, removed at the end)")
    args = parser.parse_args(argv)
    for tree in (args.old_tree, args.new_tree):
        if not os.path.isdir(os.path.join(tree, "src", "localfocus")):
            parser.error(f"{tree} holds no src/localfocus")
    with tempfile.TemporaryDirectory() as tmp:
        base = args.work or tmp
        return compare(args.old_tree, args.new_tree, os.path.join(base, "old"), os.path.join(base, "new"))


def compare(old_tree: str, new_tree: str, old_work: str, new_work: str) -> int:
    ok = True
    for tree, work in ((old_tree, old_work), (new_tree, new_work)):
        for failure in run_tree(tree, work):
            print(f"{tree}: command failed: {failure}")
            ok = False

    def files(root):
        return {os.path.relpath(os.path.join(d, f), root) for d, _, fs in os.walk(root) for f in fs}

    old_files, new_files = files(old_work), files(new_work)
    checkpoints = sorted(p for p in old_files & new_files if p.endswith(".lfm"))
    arrays = {}
    if checkpoints:
        olds = load_arrays(old_tree, [os.path.join(old_work, p) for p in checkpoints])
        news = load_arrays(new_tree, [os.path.join(new_work, p) for p in checkpoints])
        arrays = dict(zip(checkpoints, zip(olds, news)))
    outputs, identical = sorted(old_files | new_files), 0
    for rel in outputs:
        if rel not in old_files or rel not in new_files:
            print(f"{rel}: only in the {'new' if rel in new_files else 'old'} tree's outputs")
            ok = False
            continue
        with open(os.path.join(old_work, rel), "rb") as fa, open(os.path.join(new_work, rel), "rb") as fb:
            a, b = fa.read(), fb.read()
        if a == b:
            print(f"{rel}: identical")
            identical += 1
            continue
        if rel.endswith(".lfm"):
            verdict, same = compare_checkpoints(*arrays[rel])
        elif rel.endswith(".ppm"):
            verdict, same = "image bytes differ", False
        elif rel.endswith(".json"):
            verdict, same = compare_eval(a.decode(), b.decode())
        else:
            verdict, same = compare_text(a.decode(), b.decode())
        print(f"{rel}: {verdict}")
        ok = ok and same
    print(f"{identical} of {len(outputs)} outputs identical")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
