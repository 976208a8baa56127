"""Shared random-structure generators for the suite."""

import numpy as np

from gaugeflow.canonicalizer import canonicalize
from gaugeflow.molecule import MoleculeState

ELEMENTS = np.array([1, 6, 7, 8, 9, 16, 17], dtype=np.int64)


def random_molecule(rng: np.random.Generator, n_atoms: int,
                    charged: bool = False) -> MoleculeState:
    """Random connected molecule: Gaussian coords, tree bonds plus extras."""
    coords = 2.5 * rng.standard_normal((n_atoms, 3))
    types = rng.choice(ELEMENTS, n_atoms)
    charges = np.zeros(n_atoms, dtype=np.int64)
    if charged and n_atoms > 2:
        k = int(rng.integers(1, max(2, n_atoms // 4)))
        idx = rng.choice(n_atoms, k, replace=False)
        charges[idx] = rng.choice([-1, 1], k)
    bonds = np.zeros((n_atoms, n_atoms), dtype=np.int64)
    for i in range(1, n_atoms):
        j = int(rng.integers(0, i))
        order = int(rng.integers(1, 4))
        bonds[i, j] = bonds[j, i] = order
    for _ in range(int(rng.integers(0, n_atoms // 3 + 1))):
        i, j = rng.choice(n_atoms, 2, replace=False)
        if bonds[i, j] == 0:
            bonds[i, j] = bonds[j, i] = 1
    return MoleculeState(coords, types, charges, bonds)


def nondegenerate_molecule(rng: np.random.Generator, n_atoms: int,
                           group: str = "perm_so3", tries: int = 50) -> MoleculeState:
    for _ in range(tries):
        m = random_molecule(rng, n_atoms)
        if not canonicalize(m, group=group).degenerate:
            return m
    raise RuntimeError(f"no non-degenerate molecule found at N={n_atoms}")


# (group, key, value) edits that make a checkpoint not fit its architecture;
# value None deletes the entry
CHECKPOINT_DAMAGE = [
    ("params", "head_atom.bias", {"shape": [1], "data": [0.0]}),   # would broadcast silently
    ("ema", "head_vel", None),                                      # load_ema would skip it
    ("ema", "cs_weights", {"shape": [2], "data": [0.0, 0.0]}),
    ("net_config", "d_hidden", 8),
    ("train_config", "learning_rate", 0.1),
    ("train_config", "epochs", "1"),                                # would fail in range()
]


def damage_checkpoint(doc: dict, group: str, key: str, value) -> dict:
    if value is None:
        del doc[group][key]
    else:
        doc[group][key] = value
    return doc
