"""Shared random-structure generators and fixtures for the suite."""

import base64
import dataclasses

import numpy as np
import pytest

from gaugeflow.canonicalizer import canonicalize
from gaugeflow.flowcore import tape
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


def minmax_reference(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One molecule's rank head min-max normalized, (x - min) / max(max - min,
    1e-6), and its Jacobian, with the min's and the max's derivative at their
    first entries (np.argmin, np.argmax)."""
    lo, hi = np.argmin(x), np.argmax(x)
    width = x[hi] - x[lo]
    span = np.maximum(width, 1e-6)
    shifted = x - x[lo]
    jac = np.eye(len(x)) / span
    jac[:, lo] -= 1 / span
    if width > 1e-6:
        jac[:, hi] -= shifted / span ** 2
        jac[:, lo] += shifted / span ** 2
    return shifted / span, jac


def tanh(a: tape.Tensor) -> tape.Tensor:
    """tanh as a tape op, for references composed from single ops (the nets
    apply tanh only inside tape.pair_stage)."""
    out = np.tanh(a.data)
    return tape._make(out, (a,), lambda g: tape._accum(a, g * (1.0 - np.square(out))))


def assert_frozen(cfg) -> None:
    """Assigning to any field of the config raises: a config is checked once,
    when it is built, so it may not change afterwards."""
    for f in dataclasses.fields(cfg):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, f.name, getattr(cfg, f.name))


@pytest.fixture
def float64_tape():
    """Run the test on the float64 tape: central differences and 1e-10
    reference comparisons need more digits than float32 holds."""
    with tape.precision(np.float64):
        yield


def nondegenerate_molecule(rng: np.random.Generator, n_atoms: int,
                           group: str = "perm_so3", tries: int = 50) -> MoleculeState:
    for _ in range(tries):
        m = random_molecule(rng, n_atoms)
        if not canonicalize(m, group=group).degenerate:
            return m
    raise RuntimeError(f"no non-degenerate molecule found at N={n_atoms}")


def b64_entry(values, shape: list, dtype: str = "<f4") -> dict:
    """A checkpoint's stored array: the values' little-endian bytes in base64."""
    raw = np.asarray(values, dtype=dtype).tobytes()
    return {"shape": shape, "dtype": dtype, "data": base64.b64encode(raw).decode("ascii")}


# (group, key, value) edits that make a checkpoint not fit its architecture;
# value None deletes the entry
CHECKPOINT_DAMAGE = [
    ("params", "head_atom.bias", b64_entry([0.0], [1])),           # would broadcast silently
    ("ema", "head_vel", None),                                      # load_ema would skip it
    ("ema", "cs_weights", b64_entry([0.0, 0.0], [2])),
    ("net_config", "d_hidden", 8),
    ("train_config", "learning_rate", 0.1),
    ("train_config", "epochs", "1"),                                # would fail in range()
    # stored arrays that cannot be read
    ("params", "head_charge.bias", {"shape": [1], "data": {"0": 0.0}}),      # not a string
    ("params", "head_charge.bias", {"shape": [1], "dtype": "<f4", "data": "not base64!"}),
    ("params", "head_charge.bias", {"shape": [1], "dtype": "<f4", "data": "AA!AA AA=="}),  # junk
    ("params", "head_charge.bias", {"shape": [1], "dtype": "<f4", "data": "AAAA"}),  # 3 bytes
    ("ema", "fake_pe", b64_entry([0.0] * 15, [1, 16])),                    # 60 bytes of 64
    ("ema", "head_charge.bias", {"dtype": "<f4", "data": "AAAAAA=="}),     # no shape
    ("params", "head_charge.bias", {"shape": [1], "dtype": "<i4", "data": "AAAAAA=="}),
    ("ema", "head_charge.bias", b64_entry([float("nan")], [1])),          # would fail in decode
    # top-level entries that are not JSON objects, and the whole document
    (None, "top level", []),
    (None, "top level", "x"),
    (None, "train_config", []),
    (None, "priors", []),
    (None, "meta", []),
    # a CanonLite checkpoint must carry the vocab the sampler decodes with
    ("meta", "vocab", None),
    ("meta", "vocab", []),
    ("meta", "vocab", {"atom_classes": [6, 8], "charge_classes": [0]}),   # no bond_classes
    # the priors the sampler draws from: exactly coord, atom and charge, of the
    # kind, shape and values it reads (a function edits the stored entry)
    ("priors", "coord", None),
    ("priors", "atom", None),
    ("priors", "noise", {"kind": "gaussian", "mean": [0.0], "cov": [[1.0]], "sqrt": [[1.0]]}),
    ("priors", "charge", []),
    ("priors", "coord", {"kind": "positional_categorical", "bin_probs": [[1.0]], "base": [1.0],
                         "beta": 0.1}),
    ("priors", "atom", lambda p: dict(p, bin_probs=[r + [0.5] for r in p["bin_probs"]],
                                      base=p["base"] + [0.5])),           # a class too many
    ("priors", "coord", lambda p: dict(p, bin_means=[r[:2] for r in p["bin_means"]],
                                       bin_stds=[r[:2] for r in p["bin_stds"]])),  # 2-D
    ("priors", "coord", lambda p: dict(p, bin_means=[[float("nan")] * 3] + p["bin_means"][1:])),
    ("priors", "coord", lambda p: dict(p, bin_stds=[[-s for s in r] for r in p["bin_stds"]])),
    ("priors", "charge", lambda p: dict(p, bin_probs=[[0.0] * len(r) for r in p["bin_probs"]])),
    # decimal lists, as format 2 stored arrays
    ("params", "head_charge.bias", {"shape": [1], "dtype": "<f4", "data": [0.0]}),
    # configs their own classes refuse, and a prior key the kind lacks
    ("train_config", "ot_mode", "sinkhorn"),                        # no longer a choice
    ("train_config", "lr", -5.0),
    ("net_config", "d_pe", 3),                                      # would fail in the forward
    ("net_config", "pe_scale", 0.0),                                # a PE of NaN
    ("net_config", "d_edge", 0),
    ("priors", "coord", lambda p: dict(p, beta=0.0)),               # format 3 carried it
]


def damage_checkpoint(doc: dict, group: str | None, key: str, value) -> dict:
    """Apply one CHECKPOINT_DAMAGE edit: doc[group][key] = value (a top-level
    entry when group is None; the whole document when key is "top level"),
    deleting the entry when value is None and storing value(entry) when
    value is a function."""
    if key == "top level":
        return value
    target = doc if group is None else doc[group]
    if value is None:
        del target[key]
    else:
        target[key] = value(target[key]) if callable(value) else value
    return doc
