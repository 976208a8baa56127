"""The one checkpoint format, pinned by a committed file.

tests/data/canonlite_format4.json is a small untrained CanonLite checkpoint
of format version 4. A change to the parameters a checkpoint stores must bump
training.CHECKPOINT_VERSION and write a new file; until it does, loading the
committed one fails here. Regenerate it from the repository root with

    PYTHONPATH=src python tests/test_checkpoint_format.py
"""

import json
from pathlib import Path

import numpy as np

from conftest import random_molecule
from gaugeflow import sampler
from gaugeflow.flowcore import training
from gaugeflow.flowcore.nets import CanonLiteConfig, CanonLiteNet
from gaugeflow.flowcore.training import FlowModel, TrainConfig

CHECKPOINT = Path(__file__).parent / "data" / f"canonlite_format{training.CHECKPOINT_VERSION}.json"


def build_model() -> FlowModel:
    """An untrained CanonLite of the smallest test widths, two layers so that
    both a rank-updating and a last layer are stored, with priors fitted to
    three random molecules."""
    rng = np.random.default_rng(0)
    mols = [random_molecule(rng, n, charged=True) for n in (3, 4, 5)]
    vocab = training.build_vocab(mols)
    scale = training.fit_coord_scale(mols)
    cfg = TrainConfig(n_rank_bins=2)
    net = CanonLiteNet(CanonLiteConfig(
        n_atom_classes=len(vocab["atom_classes"]), n_charge_classes=len(vocab["charge_classes"]),
        d_model=8, n_coord_sets=2, d_rank=4, n_layers=2, d_pe=4, d_proj=4, d_msg_hidden=8,
        d_edge=4), rng)
    priors = training.fit_molecular_priors(training.encode_molecules(mols, vocab, scale),
                                           vocab, cfg)
    ema = {k: p.data.copy() for k, p in net.parameters().items()}
    return FlowModel(kind="canonlite", net=net, train_config=cfg, priors=priors, ema=ema,
                     meta={"vocab": vocab}, coord_scale=scale)


def test_committed_checkpoint_loads_and_samples():
    assert json.loads(CHECKPOINT.read_text())["format_version"] == training.CHECKPOINT_VERSION
    model = FlowModel.load(CHECKPOINT)
    assert model.kind == "canonlite"
    model.load_ema()
    cfg = sampler.SampleConfig(steps=3, regime="b", cfg_scale=2.0)
    mols, info = sampler.sample(model, [3, 5], 2, cfg, np.random.default_rng(0))
    assert [m.n_atoms for m in mols] == [3, 5]
    assert all(np.isfinite(m.coords).all() for m in mols)
    assert info["clipped_coords"] == 0


if __name__ == "__main__":
    CHECKPOINT.parent.mkdir(exist_ok=True)
    build_model().save(CHECKPOINT)
    print(f"wrote {CHECKPOINT} ({CHECKPOINT.stat().st_size} bytes)")
