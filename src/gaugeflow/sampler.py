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
from .flowcore.nets import CanonLiteNet, LatentMolecule
from .flowcore.training import FlowModel, decode_molecule, encode_molecule, sample_molecular_noise
from .molecule import MoleculeState

RANK_SPAN_TOL = 1e-6
COORD_CLIP = 1e3                # Euler steps clip coordinates to +-COORD_CLIP

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

    def to_dict(self) -> dict:
        return asdict(self)


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


_HEADS = ("velocity", "atom_logits", "charge_logits", "bond_logits", "rank_raw")


def _forward(net: CanonLiteNet, latent: LatentMolecule, t: float, ranks: np.ndarray,
             w: float) -> dict[str, np.ndarray]:
    """Guided forward pass; w=1 is conditional only, w=0 rank-dropped only."""
    if w == 1.0:
        preds = net(latent, t, ranks)
        return {k: getattr(preds, k).data for k in _HEADS}
    if w == 0.0:
        preds = net(latent, t, ranks, pe_dropped=True)
        return {k: getattr(preds, k).data for k in _HEADS}
    cond = net(latent, t, ranks)
    unc = net(latent, t, ranks, pe_dropped=True)
    out = {}
    for k in ("velocity", "atom_logits", "charge_logits", "bond_logits"):
        c, u = getattr(cond, k).data, getattr(unc, k).data
        out[k] = u + w * (c - u)
    out["rank_raw"] = cond.rank_raw.data
    return out


def rank_estimate(rank_raw: np.ndarray) -> np.ndarray:
    """Min-max normalize the rank head; index ranks when the span collapses."""
    rank_raw = np.asarray(rank_raw, dtype=np.float64)
    n = rank_raw.shape[0]
    span = rank_raw.max() - rank_raw.min()
    if span < RANK_SPAN_TOL:
        return np.arange(n) / n
    return (rank_raw - rank_raw.min()) / span


def euler_step(net: CanonLiteNet, latent: LatentMolecule, t_from: float, t_to: float,
               ranks: np.ndarray, cfg_scale: float,
               rng: np.random.Generator) -> tuple[LatentMolecule, np.ndarray]:
    """One molecular Euler step; returns the new state and the raw rank scores."""
    if not 0.0 <= t_to < t_from <= 1.0:
        raise ValueError("expected 0 <= t_to < t_from <= 1")
    n = latent.n_atoms
    out = _forward(net, latent, t_from, ranks, cfg_scale)
    coords = latent.coords + (t_to - t_from) * out["velocity"]
    # an untrained or over-guided field can blow up the rollout; keep it finite
    coords = np.clip(coords, -COORD_CLIP, COORD_CLIP)

    p = (t_from - t_to) / t_from
    type_idx = latent.type_idx.copy()
    mask = rng.random(n) < p
    if mask.any():
        type_idx[mask] = priors_mod.draw_categorical(_softmax(out["atom_logits"][mask]), rng)
    charge_idx = latent.charge_idx.copy()
    mask = rng.random(n) < p
    if mask.any():
        charge_idx[mask] = priors_mod.draw_categorical(_softmax(out["charge_logits"][mask]), rng)

    iu = np.triu_indices(n, k=1)
    flat = iu[0] * n + iu[1]
    upper = latent.bond_idx[iu].copy()
    mask = rng.random(len(flat)) < p
    if mask.any():
        upper[mask] = priors_mod.draw_categorical(_softmax(out["bond_logits"][flat][mask]), rng)
    bond_idx = np.zeros((n, n), dtype=np.int64)
    bond_idx[iu] = upper
    bond_idx = bond_idx + bond_idx.T

    return LatentMolecule(coords, type_idx, charge_idx, bond_idx), out["rank_raw"]


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

    n_atoms: an int (all samples share a size) or a sequence of per-sample
    sizes. priors overrides the checkpoint's fitted priors. Returns
    (molecules, info). info counts:
      canonicalize_calls  canonicalizer invocations during integration
                          (zero in regime "a");
      degenerate_steps    regime-b steps whose state could not be
                          canonicalized (e.g. all atoms coincide); the step
                          keeps its state and ranks;
      clipped_coords      coordinate entries at the +-COORD_CLIP bound after
                          an Euler step, summed over steps and samples.
    """
    if model.kind != "canonlite":
        raise ValueError("molecular sampling needs a canonlite model")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    sizes = np.full(n_samples, n_atoms) if np.isscalar(n_atoms) else np.asarray(n_atoms)
    if len(sizes) != n_samples:
        raise ValueError("n_atoms sequence length must equal n_samples")
    if priors is None:
        priors = model.priors
    if cfg.prior == "isotropic":
        priors = dict(priors)
        priors["coord"] = _isotropic_coord_prior(priors["coord"])
    vocab = model.meta["vocab"]
    net = model.net
    n_bond = net.cfg.n_bond_classes

    mols = []
    canonicalize_calls = degenerate_steps = clipped_coords = 0
    for size in sizes:
        size = int(size)
        latent = sample_molecular_noise(size, priors, n_bond, rng)
        ranks = np.arange(size) / size
        for k in range(cfg.steps, 0, -1):
            t_from = k / cfg.steps
            t_to = (k - 1) / cfg.steps
            latent, rank_raw = euler_step(net, latent, t_from, t_to, ranks,
                                          cfg.cfg_scale, rng)
            clipped_coords += int((np.abs(latent.coords) == COORD_CLIP).sum())
            if cfg.regime == "b":
                if cfg.canonicalize_mode:
                    canonicalize_calls += 1
                    try:
                        latent, ranks, _ = pcs_step(latent, vocab)
                    except CanonicalizationError:
                        degenerate_steps += 1
                else:
                    ranks = rank_estimate(rank_raw)
        mols.append(decode_molecule(latent, vocab))
    mols = haar_randomize(mols, cfg.group, rng)
    info = {"canonicalize_calls": canonicalize_calls, "degenerate_steps": degenerate_steps,
            "clipped_coords": clipped_coords, "regime": cfg.regime,
            "steps": cfg.steps, "haar_group": cfg.group}
    return mols, info


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
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    idx = rng.integers(0, spec.order, size=z.shape[0])
    mats = spec.elements[idx]
    return np.einsum("nij,nj->ni", mats, z)
