"""Byte-mutation fuzzing of every file boundary.

Valid PPM, manifest, config and checkpoint files are truncated,
bit-flipped, and given an inserted or a deleted byte at seeded positions.
Each mutant must load or raise one of the package's typed errors, and
every ParseError must carry an integer byte offset inside the file. Config
mutants also run through ``localfocus train``, which must exit 1 or 2
without a traceback before it ever trains.
"""

import numpy as np

from localfocus import (ConfigError, DatasetManifest, DomainError, LfmModel,
                        ParseError, SNetConfig, ShapeError, TkpConfig,
                        load_checkpoint, load_ppm, read_manifest, save_checkpoint,
                        save_ppm, write_manifest)
from localfocus import cli

SEED = 20261018
MUTANTS = 1000
# Headers are short next to what follows them; aim half the positions at
# the first bytes so header fields are hit as often as payload bytes.
HEAD_BYTES = 96


def mutants(raw: bytes, rng: np.random.Generator, count: int = MUTANTS):
    """Yield ``count`` one-edit mutants of ``raw``: a truncation, a bit
    flip, an inserted byte or a deleted byte."""
    for n in range(count):
        limit = min(len(raw), HEAD_BYTES) if n % 2 else len(raw)
        i = int(rng.integers(0, limit))
        kind = n % 4
        if kind == 0:
            yield raw[:i]
        elif kind == 1:
            yield raw[:i] + bytes([raw[i] ^ (1 << int(rng.integers(0, 8)))]) + raw[i + 1:]
        elif kind == 2:
            yield raw[:i] + bytes([int(rng.integers(0, 256))]) + raw[i:]
        else:
            yield raw[:i] + raw[i + 1:]


def check_typed(load, blob: bytes, path, typed=(ParseError, ConfigError, DomainError, ShapeError)):
    """Write ``blob`` to ``path`` and load it; anything but success or a
    typed error fails the test, as does a ParseError without its offset."""
    path.write_bytes(blob)
    try:
        load(str(path))
    except ParseError as e:
        assert type(e.offset) is int and 0 <= e.offset <= len(blob), (blob, e)
        assert str(e).endswith(f"(at byte {e.offset})"), (blob, e)
    except typed:
        pass


def tiny_model():
    return LfmModel(snet_cfg=SNetConfig(num_conv_layers=3, channel_plan=(4, 8, 64),
                                        pool_after=frozenset({1})),
                    tkp_cfg=TkpConfig(k=2), seed=1)


def valid_ppm(tmp_path):
    path = tmp_path / "valid.ppm"
    save_ppm(np.random.default_rng(0).random((3, 4, 5)), str(path))
    return path.read_bytes()


def test_ppm_mutants(tmp_path):
    rng = np.random.default_rng(SEED)
    raw = valid_ppm(tmp_path)
    commented = raw.replace(b"P6\n", b"P6 # made by a test\n", 1)
    for blob in [*mutants(raw, rng), *mutants(commented, rng)]:
        check_typed(load_ppm, blob, tmp_path / "m.ppm")


def test_manifest_mutants(tmp_path):
    rng = np.random.default_rng(SEED + 1)
    entries = [(f"img_{i}.ppm", i % 2, "synth-fake" if i % 2 else "synth-real") for i in range(4)]
    write_manifest(DatasetManifest(root=str(tmp_path), entries=entries), str(tmp_path / "v.tsv"))
    for blob in mutants((tmp_path / "v.tsv").read_bytes(), rng):
        check_typed(read_manifest, blob, tmp_path / "m.tsv")


def test_checkpoint_mutants(tmp_path):
    rng = np.random.default_rng(SEED + 2)
    save_checkpoint(tiny_model(), str(tmp_path / "v.lfm"))
    for blob in mutants((tmp_path / "v.lfm").read_bytes(), rng):
        check_typed(load_checkpoint, blob, tmp_path / "m.lfm")


def resolve_train_config(path: str) -> dict:
    """Resolve ``localfocus train --config path`` the way the CLI does."""
    ns = cli.build_parser().parse_args(["train", "--config", path])
    return cli._merge(ns.fields, ns, "localfocus train")


def test_config_mutants(tmp_path, monkeypatch, capsys):
    def never_train(*args, **kwargs):
        raise AssertionError("a mutated config started training")

    monkeypatch.setattr(cli, "train", never_train)
    rng = np.random.default_rng(SEED + 3)
    # The manifest does not exist, so no mutant that resolves can train.
    text = (f"manifest = {tmp_path / 'missing.tsv'}\nout = {tmp_path / 'run'}\n"
            "# a tiny model\nepochs = 1\nbatch_size = 4\nseed = 3\nlr = 0.001\n"
            "channel_plan = 8,16,64\npool_after = 1,2\nk = 4\npooling = tkp\nrbld = true\n")
    path = tmp_path / "m.cfg"
    for blob in mutants(text.encode("utf-8"), rng):
        check_typed(resolve_train_config, blob, path, (ParseError, cli._UsageError))
        rc = cli.main(["train", "--config", str(path)])
        err = capsys.readouterr().err
        assert rc in (1, 2), (blob, rc, err)
        assert "Traceback" not in err and err.count("\n") == 1, (blob, err)

