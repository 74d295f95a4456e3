"""Command line interface.

Subcommands: gen-data, train, eval, infer. Every option can also
be supplied through a plain-text config file (``--config``) holding
``key = value`` lines with ``#`` comments; explicit flags override file
values, which override defaults. Unknown config keys are fatal.

Exit codes: 0 success, 1 usage error (bad flag, missing required
option), 2 data error (malformed or unreadable file, out-of-range
config value).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass

from .checkpoint import load_checkpoint, save_checkpoint
from .data import (DatasetManifest, gen_fake, gen_real, load_dataset,
                   read_lines, read_manifest, write_manifest)
from .errors import ConfigError, DomainError, ParseError, ShapeError, StateError, require_int
from .model import DEFAULT_ALPHA, DEFAULT_THRESHOLD, _check_settings
from .npr import NprConfig
from .pooling import TkpConfig
from .ppm import load_ppm, save_ppm
from .snet import SNetConfig
from .train import TrainConfig, _check_dataset, build_model, evaluate, save_loss_curve, train

PROG = "localfocus"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route to exit code 1 instead of argparse's 2
        raise _UsageError(f"{self.prog}: {message}")


def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(raw)


def _intlist(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in raw.split(",") if tok.strip() != "")


@dataclass(frozen=True)
class Field:
    """One CLI option that doubles as a config-file key. ``parse`` turns
    flag and file text alike into the value, raising ValueError."""

    name: str
    parse: Callable[[str], object]
    default: object
    help: str
    required: bool = False


def _format_value(value, parse) -> str:
    if parse is _bool:
        return "true" if value else "false"
    if parse is _intlist:
        return ",".join(str(v) for v in value)
    return str(value)


def read_config_file(path: str) -> dict[str, tuple[str, int]]:
    """Parse ``key = value`` lines into key -> (value, byte offset of its
    line); blank lines and ``#`` comments skipped."""
    entries: dict[str, tuple[str, int]] = {}
    for lineno, offset, line in read_lines(path):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(f"{path}:{lineno}: expected 'key = value'", offset=offset)
        key, _, val = stripped.partition("=")
        key, val = key.strip(), val.strip()
        if not key:
            raise ParseError(f"{path}:{lineno}: empty key", offset=offset)
        if key in entries:
            raise ParseError(f"{path}:{lineno}: duplicate key {key!r}", offset=offset)
        entries[key] = (val, offset)
    return entries


def _add_arguments(parser: argparse.ArgumentParser, fields: list[Field]) -> None:
    parser.add_argument("--config", metavar="FILE",
                        help="config file with 'key = value' lines; flags override it")
    for f in fields:
        flag = "--" + f.name.replace("_", "-")
        if f.parse is _bool:
            parser.add_argument(flag, dest=f.name, action=argparse.BooleanOptionalAction,
                                default=None, help=f.help)
        else:
            parser.add_argument(flag, dest=f.name, default=None, type=f.parse, help=f.help,
                                metavar="N,N,..." if f.parse is _intlist else None)


def _merge(fields: list[Field], ns: argparse.Namespace, prog: str) -> dict:
    file_cfg = read_config_file(ns.config) if ns.config else {}
    known = {f.name for f in fields}
    for key, (_, offset) in file_cfg.items():
        if key not in known:
            raise ParseError(f"unknown config key {key!r} (valid keys: {', '.join(sorted(known))})",
                             offset=offset)
    resolved = {}
    for f in fields:
        value = getattr(ns, f.name)
        if value is None and f.name in file_cfg:
            raw, offset = file_cfg[f.name]
            try:
                value = f.parse(raw)
            except ValueError:
                raise ParseError(f"config key {f.name!r}: cannot parse {raw!r} as "
                                 f"{f.parse.__name__.lstrip('_')}", offset=offset) from None
        if value is None:
            value = f.default
        if f.required and value is None:
            raise _UsageError(f"{prog}: missing required option --{f.name.replace('_', '-')}")
        resolved[f.name] = value
    return resolved


def emit_config(fields: list[Field], resolved: dict) -> str:
    """Render the effective configuration as a re-ingestable file."""
    return "".join(f"{f.name} = {_format_value(resolved[f.name], f.parse)}\n"
                   for f in sorted(fields, key=lambda f: f.name))


# -- field registries ----------------------------------------------------------

_MODEL_FIELDS = [
    Field("take_abs", _bool, NprConfig.take_abs, "feed |residual| instead of the signed residual"),
    Field("channel_plan", _intlist, SNetConfig.channel_plan, "conv output channels, one entry per layer"),
    Field("pool_after", _intlist, tuple(sorted(SNetConfig.pool_after)),
          "1-based conv indices followed by a 2x2 max-pool"),
    Field("pooling", str, TrainConfig.pooling, "pooling variant: tkp, gap, or gmp"),
    Field("k", int, TkpConfig.k, "activations kept per channel by top-k pooling"),
    Field("p_min", float, TkpConfig.p_min, "dropout probability at the lowest kept rank"),
    Field("p_max", float, TkpConfig.p_max, "dropout probability at the highest kept rank"),
    Field("rbld", _bool, TrainConfig.rbld, "rank-based dropout during training (default: on for tkp)"),
    Field("rks", _bool, TrainConfig.rks, "random-sample auxiliary vector during training (default: on for tkp)"),
    Field("decision_threshold", float, DEFAULT_THRESHOLD, "probability cutoff for the fake label"),
    Field("alpha", float, DEFAULT_ALPHA, "weight of the auxiliary loss term"),
]

_TRAIN_FIELDS = [
    Field("manifest", str, None, "training manifest (path<TAB>label<TAB>tag)", required=True),
    Field("out", str, None, "output directory for checkpoints and logs", required=True),
    Field("lr", float, TrainConfig.lr, "Adam learning rate"),
    Field("batch_size", int, TrainConfig.batch_size, "samples per optimizer step"),
    Field("epochs", int, TrainConfig.epochs, "passes over the training set"),
    Field("seed", int, TrainConfig.seed, "run seed; fixes init, shuffles, and dropout"),
] + _MODEL_FIELDS

_GEN_FIELDS = [
    Field("out", str, None, "output directory for images and manifests", required=True),
    Field("n_train", int, 2000, "total training samples (half real, half fake)"),
    Field("n_test", int, 500, "total test samples (half real, half fake)"),
    Field("size", int, 64, "image side length in pixels"),
    Field("seed", int, 0, "generator seed"),
]

_EVAL_FIELDS = [
    Field("checkpoint", str, None, "model checkpoint to evaluate", required=True),
    Field("manifest", str, None, "evaluation manifest", required=True),
    Field("out", str, None, "also write the JSON report here"),
]

_INFER_FIELDS = [
    Field("checkpoint", str, None, "model checkpoint", required=True),
    Field("image", str, None, "PPM image to score", required=True),
]


# -- subcommands ---------------------------------------------------------------


def _cmd_gen_data(opts: dict) -> int:
    import numpy as np

    for key in ("n_train", "n_test"):
        require_int(key, opts[key], minimum=2)
        if opts[key] % 2:
            raise ConfigError(f"{key} must be even, got {opts[key]}")
    seed, size = opts["seed"], opts["size"]
    require_int("seed", seed, minimum=0)
    out_dir = opts["out"]

    splits = []
    for split, total, tag in (("train", opts["n_train"], 10), ("test", opts["n_test"], 20)):
        reals = gen_real(total // 2, size, np.random.default_rng((seed, tag)))
        # Made only once gen_real has accepted the size, so a refused run leaves no directory.
        os.makedirs(out_dir, exist_ok=True)
        fakes = gen_fake(reals, np.random.default_rng((seed, tag + 1)))
        entries = []
        for i, (r, f) in enumerate(zip(reals, fakes)):
            rname = f"{split}_real_{i:05d}.ppm"
            fname = f"{split}_fake_{i:05d}.ppm"
            save_ppm(r.image, os.path.join(out_dir, rname))
            save_ppm(f.image, os.path.join(out_dir, fname))
            entries.append((rname, r.label, r.source_tag))
            entries.append((fname, f.label, f.source_tag))
        write_manifest(DatasetManifest(root=out_dir, entries=entries),
                       os.path.join(out_dir, f"{split}_manifest.tsv"))
        splits.append((split, total))

    with open(os.path.join(out_dir, "config_used.cfg"), "w", encoding="utf-8") as fh:
        fh.write(emit_config(_GEN_FIELDS, opts))
    for split, total in splits:
        print(f"wrote {total} {split} samples ({total // 2} real + {total // 2} fake)")
    print(f"manifests and images under {out_dir}")
    return 0


def _config(cls, opts: dict):
    """Build the config dataclass ``cls`` from the options named like its fields."""
    return cls(**{f.name: opts[f.name] for f in dataclasses.fields(cls) if f.name in opts})


def _cmd_train(opts: dict) -> int:
    npr_cfg, snet_cfg, train_cfg, tkp_cfg = (
        _config(cls, opts) for cls in (NprConfig, SNetConfig, TrainConfig, TkpConfig))
    # Settings are refused before any image loads, and the data before the
    # model (whose head is 64*k wide) is allocated.
    _check_settings(train_cfg.pooling, opts["decision_threshold"], opts["alpha"], train_cfg.seed)
    dataset = load_dataset(read_manifest(opts["manifest"]))
    _check_dataset(dataset, snet_cfg, train_cfg.pooling, tkp_cfg.k)
    model = build_model(train_cfg, npr_cfg=npr_cfg, snet_cfg=snet_cfg, tkp_cfg=tkp_cfg,
                        decision_threshold=opts["decision_threshold"], alpha=opts["alpha"])
    result = train(model, dataset, train_cfg)

    out_dir = opts["out"]
    os.makedirs(out_dir, exist_ok=True)
    save_checkpoint(result.model, os.path.join(out_dir, "checkpoint_last.lfm"))
    save_checkpoint(result.best_model, os.path.join(out_dir, "checkpoint_best.lfm"))
    save_loss_curve(result.epoch_losses, os.path.join(out_dir, "loss_curve.tsv"))

    resolved = dict(opts, rbld=model.tkp_cfg.rbld_enabled, rks=model.tkp_cfg.rks_enabled,
                    pool_after=tuple(sorted(snet_cfg.pool_after)))
    with open(os.path.join(out_dir, "config_used.cfg"), "w", encoding="utf-8") as fh:
        fh.write(emit_config(_TRAIN_FIELDS, resolved))

    for epoch, loss in enumerate(result.epoch_losses):
        print(f"epoch {epoch}: loss {loss!r}")
    print(f"best epoch {result.best_epoch}; artifacts under {out_dir}")
    return 0


def _cmd_eval(opts: dict) -> int:
    model = load_checkpoint(opts["checkpoint"])
    dataset = load_dataset(read_manifest(opts["manifest"]))
    report = evaluate(model, dataset)
    text = report.to_json()
    sys.stdout.write(text)
    if opts["out"]:
        with open(opts["out"], "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return 0


def _cmd_infer(opts: dict) -> int:
    model = load_checkpoint(opts["checkpoint"])
    image = load_ppm(opts["image"])
    prob, label = model.infer(image)
    print(f"{opts['image']}\t{prob!r}\t{label}")
    return 0


_COMMANDS = [
    ("gen-data", _GEN_FIELDS, _cmd_gen_data, "generate a synthetic real/fake dataset"),
    ("train", _TRAIN_FIELDS, _cmd_train, "train a detector and write checkpoints"),
    ("eval", _EVAL_FIELDS, _cmd_eval, "score a manifest and report accuracy / average precision"),
    ("infer", _INFER_FIELDS, _cmd_infer, "score one image"),
]


def build_parser() -> _Parser:
    parser = _Parser(prog=PROG, description="local-artifact deepfake detector")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, fields, handler, help_text in _COMMANDS:
        p = sub.add_parser(name, help=help_text, description=help_text)
        _add_arguments(p, fields)
        p.set_defaults(fields=fields, handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.command is None:
            parser.print_usage(sys.stderr)
            return 1
        return ns.handler(_merge(ns.fields, ns, f"{PROG} {ns.command}"))
    except _UsageError as e:
        print(str(e), file=sys.stderr)
        return 1
    except (ParseError, ConfigError, DomainError, ShapeError, StateError, OSError) as e:
        print(f"{PROG}: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
