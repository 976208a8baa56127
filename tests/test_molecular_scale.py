"""Molecular training at the angstrom scale the CLI reads.

Molecules are built as the benchmark's inputs are: a Gaussian cloud of std
n^(1/3) angstrom, each atom bonded to its nearest predecessor, n // 8 extra
double bonds and n // 16 charged atoms, canonicalized as `gaugeflow train`
does. Before coordinates were divided by a fitted scale and CanonLite's
coordinate weights were bounded, the coordinate loss of this run grew to
1e19-1e23 and every sampled coordinate sat at the clip.
"""

import numpy as np

from gaugeflow import sampler
from gaugeflow.canonicalizer import canonicalize
from gaugeflow.flowcore.training import TrainConfig, train
from gaugeflow.molecule import MoleculeState

ELEMENTS = np.array([1, 6, 6, 6, 7, 8, 9, 16])


def angstrom_molecule(rng: np.random.Generator, n: int) -> MoleculeState:
    coords = n ** (1.0 / 3.0) * rng.standard_normal((n, 3))
    bonds = np.zeros((n, n), dtype=np.int64)
    for i in range(1, n):
        j = int(np.argmin(np.linalg.norm(coords[:i] - coords[i], axis=1)))
        bonds[i, j] = bonds[j, i] = 1
    for _ in range(n // 8):
        i, j = rng.choice(n, 2, replace=False)
        if bonds[i, j] == 0:
            bonds[i, j] = bonds[j, i] = 2
    charges = np.zeros(n, dtype=np.int64)
    charges[rng.choice(n, n // 16, replace=False)] = rng.choice([-1, 1], n // 16)
    return MoleculeState(coords, rng.choice(ELEMENTS, n), charges, bonds)


def test_angstrom_scale_training_converges_and_samples_unclipped():
    rng = np.random.default_rng(7)
    sizes = [8 + 24 * i // 63 for i in range(64)]
    mols = [canonicalize(angstrom_molecule(rng, n), group="perm_so3").representative
            for n in sizes]
    cfg = TrainConfig(epochs=6, steps_per_epoch=20, batch_size=16)
    model, trace = train(mols, cfg)
    coord_losses = [row["loss_coord"] for row in trace]
    assert all(np.isfinite(v) and v < 10.0 for v in coord_losses), coord_losses
    assert coord_losses[-1] < coord_losses[0], coord_losses
    assert all(np.isfinite(row["val_energy_distance"]) and np.isfinite(row["grad_norm"])
               for row in trace)

    model.load_ema()
    _, info = sampler.sample(model, 16, 8, sampler.SampleConfig(steps=10),
                             np.random.default_rng(3))
    assert info["clipped_coords"] == 0
