"""Sampling from trained flow models.

Euler integration runs from t = 1 (noise) down to t = 0 (data) on a uniform
grid. Coordinates follow the predicted velocity; each categorical entry is
resampled from the predicted data-class distribution with probability
(t_from - t_to) / t_from per step (proportional to the step toward t = 0,
reaching 1 at the final step), else it keeps its current class.

Regimes:
  "a"  ranks frozen at i/N for the whole trajectory; the aligned noise prior
       is rank-indexed, so index ranks are exact at t = 1 and the
       canonicalizer is never invoked during integration.
  "b"  the state or its ranks refreshed after every step. Default is
       predict mode: the ranks become the conditional copy's rank_pred,
       which the rank loss also reads. canonicalize_mode=True instead
       re-canonicalizes the intermediate state, so its rows stay in
       canonical order and the index ranks i/N stay exact.

The noise is drawn from the checkpoint's priors, the ones training fitted
and trained against, and every draw comes from the caller's generator.
Integration runs on the net's unit-scale coordinates, all samples of a
request as one MoleculeBatch from one noise draw; finished samples are
decoded with the checkpoint's coord_scale. A regime-b canonicalization
(pcs_step) runs the stacked canonicalizer on each run of same-size molecules
of that batch, in data units, and permutes and rotates the batch's rows in
place: it decodes and encodes nothing.

After integration an optional Haar randomization pushes the canonical
samples back to the ambient space (config group: none / perm / perm_so3).
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import priors as priors_mod
from . import symgroup
from .canonicalizer import canonicalize_stack
from .flowcore import training
from .flowcore.nets import MoleculeBatch
from .flowcore.training import (COORD_CLIP, FlowModel, decode_molecules, euler_step,
                                index_ranks, sample_molecular_noise)
from .molecule import MoleculeState

REGIMES = ("a", "b")
HAAR_GROUPS = ("none", "perm", "perm_so3")


@dataclass(frozen=True)
class SampleConfig:
    steps: int = 10
    regime: str = "a"
    cfg_scale: float = 1.0          # v = v_u + w (v_c - v_u); 1 = conditional only
    group: str = "none"             # final Haar randomization
    canonicalize_mode: bool = False  # regime b only; predict mode is the default

    def __post_init__(self):
        if isinstance(self.steps, bool) or not isinstance(self.steps, int) or self.steps < 1:
            raise ValueError(f"steps must be an int >= 1, got {self.steps!r}")
        if not 0 <= self.cfg_scale < float("inf"):     # False for NaN too
            raise ValueError("cfg_scale must be finite and >= 0")
        if self.regime not in REGIMES:
            raise ValueError(f"regime must be one of {REGIMES}")
        if self.group not in HAAR_GROUPS:
            raise ValueError(f"group must be one of {HAAR_GROUPS}")
        if self.canonicalize_mode and self.regime != "b":
            raise ValueError("canonicalize_mode applies to regime 'b' only")

    def to_dict(self) -> dict:
        return asdict(self)


# the SampleConfig fields sample_vectors never reads; they steer molecular sampling only
VECTOR_UNREAD = ("regime", "cfg_scale", "group", "canonicalize_mode")


def pcs_step(state: MoleculeBatch, vocab: dict, coord_scale: float,
             counts: dict) -> MoleculeBatch:
    """Regime-b re-canonicalization of the packed state, in place.

    Each run of same-size molecules (state.layout.blocks) goes through
    canonicalize_stack as one stack, in data units: coordinates times
    coord_scale, atom classes decoded through the vocab, and the bond class
    indices mirrored from the upper triangle as they are (a vocab's bond
    classes are training.BOND_CLASSES, the indices themselves). A molecule
    that canonicalizes has its rows permuted and rotated to its
    representative (coordinates back over coord_scale); one outside the
    map's domain keeps its rows. Either way the caller's index ranks i/N
    stay as they are. Returns state, the object passed in, and adds to the
    counts `sample` documents."""
    atom_classes = np.asarray(vocab["atom_classes"])
    full_bonds = state.layout.symmetric(state.bond_idx)
    for k, n, nodes, pairs in state.layout.blocks:
        coords = state.coords[nodes].reshape(k, n, 3)
        types = state.type_idx[nodes].reshape(k, n)
        charges = state.charge_idx[nodes].reshape(k, n)
        bonds = full_bonds[pairs].reshape(k, n, n)
        st = canonicalize_stack(coords * coord_scale, atom_classes[types], bonds,
                                group="perm_so3")
        ok = st.failed == 0
        counts["canonicalize_calls"] += k
        counts["degenerate_steps"] += k - int(ok.sum())
        counts["degenerate_orderings"] += int(st.degenerate[ok].sum())
        order = st.order[ok]
        rows = np.arange(len(order))[:, None]
        coords[ok] = st.coords[ok] / coord_scale
        types[ok] = types[ok][rows, order]
        charges[ok] = charges[ok][rows, order]
        bonds[ok] = bonds[ok][rows[:, :, None], order[:, :, None], order[:, None, :]]
    state.bond_idx[:] = full_bonds[state.layout.upper]
    return state


def sample(model: FlowModel, n_atoms, n_samples: int, cfg: SampleConfig,
           rng: np.random.Generator) -> tuple[list[MoleculeState], dict]:
    """Draw molecules from a trained canonical model.

    All samples are integrated together: each Euler step is one packed
    forward over the request (training.euler_step). n_atoms: an int (all
    samples share a size) or a sequence of per-sample sizes. The noise comes
    from the checkpoint's priors (model.priors, the ones training fitted) and
    every draw from rng. Returns (molecules, info). info counts:
      canonicalize_calls    canonicalizer invocations during integration
                            (zero in regime "a");
      degenerate_steps      regime-b steps whose state could not be
                            canonicalized (all atoms coincide, or one is
                            far from all others); the step keeps its state
                            and ranks;
      degenerate_orderings  regime-b steps whose canonicalization succeeded
                            but flagged its ordering degenerate (near-tied
                            keys); its ranks are used all the same;
      clipped_coords        coordinate entries at the +-COORD_CLIP bound after
                            an Euler step, summed over steps and samples. The
                            bound acts on the net's unit-scale coordinates, so
                            a decoded sample sits at +-COORD_CLIP * coord_scale.
    """
    if model.kind != "canonlite":
        raise ValueError("molecular sampling needs a canonlite model")
    sizes = np.full(n_samples, n_atoms) if np.isscalar(n_atoms) else np.asarray(n_atoms)
    if len(sizes) != n_samples:
        raise ValueError("n_atoms sequence length must equal n_samples")
    if (sizes < 1).any():
        raise ValueError(f"molecule sizes must be >= 1, got {sizes[sizes < 1][0]}")
    vocab = model.meta["vocab"]
    net = model.net
    n_bond = net.cfg.n_bond_classes

    counts = dict.fromkeys(("canonicalize_calls", "degenerate_steps",
                            "degenerate_orderings", "clipped_coords"), 0)
    mols = []
    if n_samples:
        state = sample_molecular_noise(sizes, model.priors, n_bond, rng)
        ranks = index_ranks(sizes)
        for k in range(cfg.steps, 0, -1):
            state, rank_pred = euler_step(net, state, k / cfg.steps, (k - 1) / cfg.steps,
                                          ranks, cfg.cfg_scale, rng)
            counts["clipped_coords"] += int((np.abs(state.coords) == COORD_CLIP).sum())
            if cfg.regime == "b" and cfg.canonicalize_mode:
                state = pcs_step(state, vocab, model.coord_scale, counts)
            elif cfg.regime == "b":
                ranks = rank_pred
        mols = decode_molecules(state, vocab, model.coord_scale)
    mols = haar_randomize(mols, cfg.group, rng)
    info = dict(counts, regime=cfg.regime, steps=cfg.steps, haar_group=cfg.group)
    return mols, info


def sample_vectors(model: FlowModel, n_samples: int, cfg: SampleConfig,
                   rng: np.random.Generator) -> np.ndarray:
    """Integrate the toy vector field from the checkpoint's prior, drawn with
    rng. Only cfg.steps applies; a VECTOR_UNREAD setting away from its
    default is a training.ConfigError (a ValueError)."""
    if model.kind != "vector_field":
        raise ValueError("vector sampling needs a vector_field model")
    training.reject_unread(cfg, VECTOR_UNREAD, "sample setting", "vector_field checkpoints")
    z1 = priors_mod.sample_gaussian(model.priors["noise"], n_samples, rng)
    return training.integrate_vector_field(model.net, z1, cfg.steps)


def haar_randomize(mols: list[MoleculeState], group: str,
                   rng: np.random.Generator) -> list[MoleculeState]:
    """Push canonical molecules to the ambient space with independent gauges.

    group "perm" draws a uniform atom permutation, "perm_so3" additionally a
    uniform rotation, "none" returns the input list unchanged. Translations
    stay at zero. Any orientation- or order-dependent statistic of the output
    is then distributed as under the invariant completion of the slice model.
    """
    if group == "none":
        return mols
    if group not in ("perm", "perm_so3"):
        raise ValueError(f"group must be one of {HAAR_GROUPS}")
    out = []
    for m in mols:
        g = symgroup.haar_sample(m.n_atoms, rng)
        if group == "perm":
            g = symgroup.GroupElement(g.perm, np.eye(3), np.zeros(3))
        out.append(symgroup.act(g, m))
    return out


def finite_group_randomize(z: np.ndarray, spec: symgroup.FiniteGroupSpec,
                           rng: np.random.Generator) -> np.ndarray:
    """Apply an independent uniform group element to each row."""
    return spec.randomize(rng, np.atleast_2d(np.asarray(z, dtype=np.float64)))[1]
