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
  "b"  ranks refreshed after every step. Default is predict mode (rank head,
       min-max normalized); canonicalize_mode=True instead re-canonicalizes
       the intermediate state and reads ranks off the new ordering.

After integration an optional Haar randomization pushes the canonical
samples back to the ambient space (config group: none / perm / perm_so3).
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import priors as priors_mod
from . import symgroup
from .canonicalizer import CanonicalizationError, canonicalize
from .flowcore import training
from .flowcore.nets import LatentMolecule, MoleculeBatch
from .flowcore.training import (COORD_CLIP, FlowModel, decode_molecule, encode_molecule,
                                euler_step, index_ranks, sample_molecular_noise)
from .molecule import MoleculeState

RANK_SPAN_TOL = 1e-6

REGIMES = ("a", "b")
HAAR_GROUPS = ("none", "perm", "perm_so3")
PRIOR_CHOICES = ("isotropic", "aligned")


@dataclass
class SampleConfig:
    steps: int = 10
    regime: str = "a"
    cfg_scale: float = 1.0          # v = v_u + w (v_c - v_u); 1 = conditional only
    prior: str = "aligned"
    group: str = "none"             # final Haar randomization
    seed: int = 0
    canonicalize_mode: bool = False  # regime b only; predict mode is the default

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.cfg_scale < 0:
            raise ValueError("cfg_scale must be >= 0")
        if self.regime not in REGIMES:
            raise ValueError(f"regime must be one of {REGIMES}")
        if self.group not in HAAR_GROUPS:
            raise ValueError(f"group must be one of {HAAR_GROUPS}")
        if self.prior not in PRIOR_CHOICES:
            raise ValueError(f"prior must be one of {PRIOR_CHOICES}")
        if self.canonicalize_mode and self.regime != "b":
            raise ValueError("canonicalize_mode applies to regime 'b' only")

    def to_dict(self) -> dict:
        return asdict(self)


def rank_estimate(rank_raw: np.ndarray) -> np.ndarray:
    """Min-max normalize the rank head; index ranks when the span collapses."""
    rank_raw = np.asarray(rank_raw, dtype=np.float64)
    n = rank_raw.shape[0]
    span = rank_raw.max() - rank_raw.min()
    if span < RANK_SPAN_TOL:
        return np.arange(n) / n
    return (rank_raw - rank_raw.min()) / span


def pcs_step(latent: LatentMolecule, vocab: dict) -> tuple[LatentMolecule, np.ndarray, bool]:
    """Re-canonicalize an intermediate state; returns (state, ranks, degenerate)."""
    mol = decode_molecule(latent, vocab)
    result = canonicalize(mol, group="perm_so3")
    return encode_molecule(result.representative, vocab), result.ranks, result.degenerate


def _isotropic_coord_prior(aligned: priors_mod.RankBinnedGaussianPrior
                           ) -> priors_mod.RankBinnedGaussianPrior:
    """Zero-mean prior with one pooled scale, for the mismatch ablation."""
    scale = float(np.sqrt((aligned.bin_stds ** 2).mean()))
    return priors_mod.RankBinnedGaussianPrior(
        np.zeros_like(aligned.bin_means), np.full_like(aligned.bin_stds, scale))


def sample(model: FlowModel, n_atoms, n_samples: int, cfg: SampleConfig,
           rng: np.random.Generator | None = None,
           priors: dict | None = None) -> tuple[list[MoleculeState], dict]:
    """Draw molecules from a trained canonical model.

    All samples are integrated together: each Euler step is one packed
    forward over the request (training.euler_step). n_atoms: an int (all
    samples share a size) or a sequence of per-sample sizes. priors overrides
    the checkpoint's fitted priors. Returns (molecules, info). info counts:
      canonicalize_calls    canonicalizer invocations during integration
                            (zero in regime "a");
      degenerate_steps      regime-b steps whose state could not be
                            canonicalized (e.g. all atoms coincide); the step
                            keeps its state and ranks;
      degenerate_orderings  regime-b steps whose canonicalization succeeded
                            but flagged its ordering degenerate (near-tied
                            keys); its ranks are used all the same;
      clipped_coords        coordinate entries at the +-COORD_CLIP bound after
                            an Euler step, summed over steps and samples.
    """
    if model.kind != "canonlite":
        raise ValueError("molecular sampling needs a canonlite model")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    sizes = np.full(n_samples, n_atoms) if np.isscalar(n_atoms) else np.asarray(n_atoms)
    if len(sizes) != n_samples:
        raise ValueError("n_atoms sequence length must equal n_samples")
    if (sizes < 1).any():
        raise ValueError(f"molecule sizes must be >= 1, got {sizes[sizes < 1][0]}")
    if priors is None:
        priors = model.priors
    if cfg.prior == "isotropic":
        priors = dict(priors)
        priors["coord"] = _isotropic_coord_prior(priors["coord"])
    vocab = model.meta["vocab"]
    net = model.net
    n_bond = net.cfg.n_bond_classes

    counts = dict.fromkeys(("canonicalize_calls", "degenerate_steps",
                            "degenerate_orderings", "clipped_coords"), 0)
    mols = []
    if n_samples:
        state = MoleculeBatch.pack(sample_molecular_noise(int(n), priors, n_bond, rng)
                                   for n in sizes)
        ranks = index_ranks(sizes)
        for k in range(cfg.steps, 0, -1):
            state, rank_raw = euler_step(net, state, k / cfg.steps, (k - 1) / cfg.steps,
                                         ranks, cfg.cfg_scale, rng)
            counts["clipped_coords"] += int((np.abs(state.coords) == COORD_CLIP).sum())
            if cfg.regime != "b":
                continue
            if cfg.canonicalize_mode:
                state, ranks = _recanonicalize(state, ranks, vocab, counts)
            else:
                ranks = np.concatenate([rank_estimate(r) for r in
                                        np.split(rank_raw, state.layout.node_start[1:])])
        mols = [decode_molecule(latent, vocab) for latent in state.unpack()]
    mols = haar_randomize(mols, cfg.group, rng)
    info = dict(counts, regime=cfg.regime, steps=cfg.steps, haar_group=cfg.group)
    return mols, info


def _recanonicalize(state: MoleculeBatch, ranks: np.ndarray, vocab: dict,
                    counts: dict) -> tuple[MoleculeBatch, np.ndarray]:
    """Regime-b canonicalization of each molecule in turn, counted in `counts`."""
    latents = state.unpack()
    rank_list = np.split(ranks, state.layout.node_start[1:])
    for b, latent in enumerate(latents):
        counts["canonicalize_calls"] += 1
        try:
            latents[b], rank_list[b], degenerate = pcs_step(latent, vocab)
        except CanonicalizationError:
            counts["degenerate_steps"] += 1
            continue
        counts["degenerate_orderings"] += int(degenerate)
    return MoleculeBatch.pack(latents), np.concatenate(rank_list)


def sample_vectors(model: FlowModel, n_samples: int, cfg: SampleConfig,
                   rng: np.random.Generator | None = None) -> np.ndarray:
    """Integrate the toy vector field from prior draws."""
    if model.kind != "vector_field":
        raise ValueError("vector sampling needs a vector_field model")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
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
