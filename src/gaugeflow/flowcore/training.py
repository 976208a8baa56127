"""Flow-matching training on the canonical slice.

Time convention, fixed globally: t = 0 is data, t = 1 is noise. Paths are
z_t = (1 - t) z0 + t z1 (+ sigma * eps for coordinates); the regression target
for coordinates is the straight-line velocity z1 - z0; categorical entries
keep the data class with probability (1 - t), else a prior draw; categorical
heads predict the data class. Samplers integrate from t = 1 down to 0.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from .. import coupling as coupling_mod
from .. import priors as priors_mod
from ..molecule import MoleculeState
from . import tape
from .nets import CanonLiteConfig, CanonLiteNet, LatentMolecule, MoleculeBatch, VectorFieldMLP
from .tape import Tensor

CHECKPOINT_VERSION = 1
COORD_CLIP = 1e3                # molecular Euler steps clip coordinates to +-COORD_CLIP


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; carries the offending epoch and loss parts."""


class ConfigError(ValueError):
    """A TrainConfig key is set away from its default for data that never reads it."""


# TrainConfig field annotation -> the JSON value types from_dict accepts for it
_CONFIG_TYPES = {"int": (int,), "float": (int, float), "str": (str,), "bool": (bool,)}


@dataclass
class TrainConfig:
    epochs: int = 10
    steps_per_epoch: int = 50
    batch_size: int = 128
    lr: float = 3e-4
    warmup_steps: int = 100
    beta1: float = 0.9
    beta2: float = 0.999
    ema_decay: float = 0.999
    time_dist: str = "beta"          # Beta(2,1), or "uniform"
    coord_noise: float = 0.2
    rank_noise: float = 0.05
    p_drop: float = 0.1              # PE-drop probability
    lambda_type: float = 0.2
    lambda_bond: float = 1.0
    lambda_charge: float = 1.0
    lambda_rank: float = 0.1
    ot_mode: str = "none"            # "none" | "exact" | "sinkhorn"
    ot_anneal: bool = False
    prior_mode: str = "aligned"      # molecular coordinate prior: "aligned" | "isotropic"
    n_rank_bins: int = 8
    seed: int = 0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        """The config a dict holds. A key TrainConfig does not have, or a value
        not of its field's type, is a ValueError; an int passes for a float
        field, a bool for no numeric field."""
        types = {f.name: f.type for f in fields(cls)}
        unknown = sorted(set(doc) - set(types))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        for key, value in doc.items():
            allowed = _CONFIG_TYPES[types[key]]
            if not isinstance(value, allowed) or (isinstance(value, bool) and bool not in allowed):
                raise ValueError(f"config key {key} must be {types[key]}, got {value!r}")
        return cls(**doc)


# ---------------------------------------------------------------------------
# Optimizer / EMA


class Adam:
    def __init__(self, params: dict[str, Tensor], lr: float = 3e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
                 warmup_steps: int = 0):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.warmup_steps = warmup_steps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self) -> None:
        self.t += 1
        lr_t = self.lr
        if self.warmup_steps > 0:
            lr_t *= min(1.0, self.t / self.warmup_steps)   # linear warmup, then constant
        b1, b2 = self.beta1, self.beta2
        for k, p in self.params.items():
            if p.grad is None:
                continue
            self.m[k] = b1 * self.m[k] + (1 - b1) * p.grad
            self.v[k] = b2 * self.v[k] + (1 - b2) * p.grad ** 2
            mhat = self.m[k] / (1 - b1 ** self.t)
            vhat = self.v[k] / (1 - b2 ** self.t)
            p.data -= lr_t * mhat / (np.sqrt(vhat) + self.eps)


class EMA:
    def __init__(self, params: dict[str, Tensor], decay: float = 0.999):
        self.decay = decay
        self.shadow = {k: p.data.copy() for k, p in params.items()}

    def update(self, params: dict[str, Tensor]) -> None:
        d = self.decay
        for k, p in params.items():
            self.shadow[k] = d * self.shadow[k] + (1 - d) * p.data

    def state(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.shadow.items()}


# ---------------------------------------------------------------------------
# Paths


@dataclass
class PathSample:
    t: np.ndarray
    z_t: np.ndarray
    target_velocity: np.ndarray


def sample_times(n: int, dist: str, rng: np.random.Generator) -> np.ndarray:
    if dist == "beta":
        return rng.beta(2.0, 1.0, size=n)
    if dist == "uniform":
        return rng.uniform(0.0, 1.0, size=n)
    raise ValueError(f"unknown time distribution {dist!r}")


def interpolate(z0: np.ndarray, z1: np.ndarray, t: np.ndarray, sigma: float,
                rng: np.random.Generator) -> PathSample:
    """Linear path with additive Gaussian path noise; velocity target z1 - z0."""
    t = np.asarray(t, dtype=np.float64).reshape(-1, 1)
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise ValueError("path times must lie in [0, 1]")
    z_t = (1.0 - t) * z0 + t * z1
    if sigma > 0:
        z_t = z_t + sigma * rng.standard_normal(z0.shape)
    return PathSample(t.ravel(), z_t, z1 - z0)


def mix_categorical(data_idx: np.ndarray, noise_idx: np.ndarray, t: float,
                    rng: np.random.Generator) -> np.ndarray:
    """Each entry keeps the data class with probability (1 - t)."""
    keep = rng.random(data_idx.shape) < (1.0 - t)
    return np.where(keep, data_idx, noise_idx)


def rank_noise(ranks: np.ndarray, t: float, sigma_r: float,
               rng: np.random.Generator) -> np.ndarray:
    """Noised ranks r + N(0, sigma_r^2) * (1 - t); exact at t = 1."""
    return ranks + sigma_r * (1.0 - t) * rng.standard_normal(ranks.shape)


# ---------------------------------------------------------------------------
# Metrics


def energy_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Statistical energy distance 2 E||x-y|| - E||x-x'|| - E||y-y'||."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))

    def mean_cross(x, y):
        return float(np.sqrt(((x[:, None, :] - y[None, :, :]) ** 2).sum(-1)).mean())

    return 2.0 * mean_cross(a, b) - mean_cross(a, a) - mean_cross(b, b)


def integrate_vector_field(net: VectorFieldMLP, z_start: np.ndarray, n_steps: int) -> np.ndarray:
    """Euler integration from t = 1 (noise) to t = 0 (data) on a uniform grid."""
    if n_steps < 1:
        raise ValueError("need at least one step")
    z = np.asarray(z_start, dtype=np.float64).copy()
    for k in range(n_steps, 0, -1):
        t_from = k / n_steps
        t_to = (k - 1) / n_steps
        v = net(z, np.full(z.shape[0], t_from)).data
        z = z + (t_to - t_from) * v
    return z


# ---------------------------------------------------------------------------
# Model container


def _arrays_to_doc(arrays: dict[str, np.ndarray]) -> dict:
    return {k: {"shape": list(a.shape), "data": a.ravel().tolist()}
            for k, a in arrays.items()}


def _doc_to_arrays(doc: dict) -> dict[str, np.ndarray]:
    return {k: np.array(v["data"], dtype=np.float64).reshape(v["shape"])
            for k, v in doc.items()}


@dataclass
class FlowModel:
    kind: str                        # "vector_field" | "canonlite"
    net: object
    train_config: TrainConfig
    priors: dict
    ema: dict
    meta: dict = field(default_factory=dict)
    step: int = 0

    def parameters(self) -> dict[str, Tensor]:
        return self.net.parameters()

    def load_ema(self) -> None:
        """Overwrite live weights with the EMA shadow (inference setting)."""
        params = self.net.parameters()
        for k, v in self.ema.items():
            params[k].data = v.copy()

    def save(self, path) -> None:
        if self.kind == "vector_field":
            net_cfg = self.net.config_dict()
        else:
            net_cfg = self.net.cfg.to_dict()
        doc = {
            "format_version": CHECKPOINT_VERSION,
            "kind": self.kind,
            "net_config": net_cfg,
            "train_config": self.train_config.to_dict(),
            "params": _arrays_to_doc({k: p.data for k, p in self.net.parameters().items()}),
            "ema": _arrays_to_doc(self.ema),
            "priors": {k: priors_mod.prior_to_dict(v) for k, v in self.priors.items()},
            "meta": self.meta,
            "step": self.step,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, sort_keys=True)

    @classmethod
    def load(cls, path) -> "FlowModel":
        """Read a checkpoint. A file whose configs, parameter or EMA names, or
        stored shapes do not fit the architecture it names is a ValueError."""
        with open(path) as fh:
            doc = json.load(fh)
        version = doc.get("format_version")
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version!r}")
        kind = doc["kind"]
        if kind not in ("vector_field", "canonlite"):
            raise ValueError(f"unknown model kind {kind!r}")
        try:
            net = (VectorFieldMLP(**doc["net_config"]) if kind == "vector_field"
                   else CanonLiteNet(CanonLiteConfig(**doc["net_config"])))
        except TypeError as exc:        # a net_config key the architecture lacks, or misses
            raise ValueError(f"checkpoint net_config does not fit {kind}: {exc}") from None
        params = net.parameters()
        stored = _doc_to_arrays(doc["params"])
        ema = _doc_to_arrays(doc["ema"])
        for what, arrays in (("parameters", stored), ("EMA", ema)):
            odd = sorted(set(arrays) ^ set(params))
            if odd:
                raise ValueError(f"checkpoint {what} do not match the architecture: "
                                 f"{', '.join(odd)}")
            for k, arr in arrays.items():
                if arr.shape != params[k].data.shape:
                    raise ValueError(f"checkpoint {what} {k} has shape {arr.shape}, "
                                     f"the architecture needs {params[k].data.shape}")
        for k, arr in stored.items():
            params[k].data = arr
        return cls(
            kind=kind,
            net=net,
            train_config=TrainConfig.from_dict(doc["train_config"]),
            priors={k: priors_mod.prior_from_dict(v) for k, v in doc["priors"].items()},
            ema=ema,
            meta=doc.get("meta", {}),
            step=int(doc.get("step", 0)),
        )


def trace_to_csv(trace: list[dict], path) -> None:
    if not trace:
        raise ValueError("empty trace")
    fields = list(trace[0].keys())
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(trace)


# ---------------------------------------------------------------------------
# The training loop


def _ot_prob(cfg: TrainConfig, epoch: int) -> float:
    if cfg.ot_mode == "none":
        return 0.0
    if cfg.ot_anneal:
        return coupling_mod.ot_probability(epoch, cfg.epochs)
    return 1.0


def _check_finite(value: float, parts: dict, epoch: int, step: int) -> None:
    if not np.isfinite(value):
        raise TrainingDiverged(
            f"non-finite loss at epoch {epoch} step {step}: "
            + ", ".join(f"{k}={v:.4g}" for k, v in parts.items())
        )


def _fit(net, cfg: TrainConfig, step_loss, epoch_stats) -> tuple[dict, list[dict]]:
    """Adam with warmup and an EMA shadow over cfg.epochs x cfg.steps_per_epoch steps.

    step_loss(epoch) draws one batch and returns (loss Tensor, parts),
    parts being named float loss terms averaged into the trace. After each
    epoch epoch_stats(epoch) returns the validation columns; it runs under
    no_grad. Returns (EMA state, trace), one trace row per epoch: epoch, loss,
    the validation columns, then the parts.
    """
    params = net.parameters()
    opt = Adam(params, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2,
               warmup_steps=cfg.warmup_steps)
    ema = EMA(params, cfg.ema_decay)
    trace = []
    for epoch in range(cfg.epochs):
        losses, part_sums = [], {}
        for step in range(cfg.steps_per_epoch):
            tape.zero_grads(params)
            loss, parts = step_loss(epoch)
            loss_val = loss.item()
            _check_finite(loss_val, {"loss": loss_val, **parts}, epoch, step)
            tape.backward(loss)
            del loss            # release the recorded graph before the next forward
            opt.step()
            ema.update(params)
            losses.append(loss_val)
            for k, v in parts.items():
                part_sums[k] = part_sums.get(k, 0.0) + v
        with tape.no_grad():
            row = {"epoch": epoch, "loss": float(np.mean(losses)), **epoch_stats(epoch)}
        for k, v in part_sums.items():
            row[k] = v / cfg.steps_per_epoch
        trace.append(row)
    return ema.state(), trace


def _train_vectors(data: np.ndarray, cfg: TrainConfig, prior, val_data):
    data = np.asarray(data, dtype=np.float64)
    n, dim = data.shape
    rng = np.random.default_rng(cfg.seed)
    if prior is None:
        prior = priors_mod.isotropic_prior(dim)
    if val_data is None:
        n_val = max(16, n // 10)
        val_data = data[-n_val:]
        data = data[:-n_val] if n - n_val >= 2 else data
    net = VectorFieldMLP(dim, rng=np.random.default_rng([cfg.seed, 1]))

    # frozen validation path set: reused every epoch so rows are comparable
    val_rng = np.random.default_rng([cfg.seed, 2])
    v_noise = priors_mod.sample_gaussian(prior, len(val_data), val_rng)
    v_t = sample_times(len(val_data), cfg.time_dist, val_rng)
    v_path = interpolate(val_data, v_noise, v_t, cfg.coord_noise, val_rng)

    def step_loss(epoch):
        p_ot = _ot_prob(cfg, epoch)
        idx = rng.integers(0, data.shape[0], cfg.batch_size)
        z0 = data[idx]
        z1 = priors_mod.sample_gaussian(prior, cfg.batch_size, rng)
        if p_ot > 0 and rng.random() < p_ot:
            plan = coupling_mod.ot_pair(z0, z1, "exact" if cfg.ot_mode != "sinkhorn" else "sinkhorn")
            z1 = z1[plan.noise_permutation()]
        t = sample_times(cfg.batch_size, cfg.time_dist, rng)
        path = interpolate(z0, z1, t, cfg.coord_noise, rng)
        return tape.mse(net(path.z_t, path.t), path.target_velocity), {}

    def epoch_stats(epoch):
        ed_rng = np.random.default_rng([cfg.seed, 3, epoch])
        z_start = priors_mod.sample_gaussian(prior, min(256, 2 * len(val_data)), ed_rng)
        gen = integrate_vector_field(net, z_start, 10)
        return {"val_loss": tape.mse(net(v_path.z_t, v_path.t), v_path.target_velocity).item(),
                "val_energy_distance": energy_distance(gen, val_data)}

    ema, trace = _fit(net, cfg, step_loss, epoch_stats)
    model = FlowModel(
        kind="vector_field", net=net, train_config=cfg, priors={"noise": prior},
        ema=ema, meta={"dim": dim}, step=cfg.epochs * cfg.steps_per_epoch,
    )
    return model, trace


# ---------------------------------------------------------------------------
# Training: molecules


def build_vocab(mols: list[MoleculeState]) -> dict:
    atoms = sorted({int(z) for m in mols for z in m.atom_types})
    charges = sorted({int(c) for m in mols for c in m.charges} | {0})
    return {"atom_classes": atoms, "charge_classes": charges, "bond_classes": [0, 1, 2, 3, 4]}


def encode_molecule(m: MoleculeState, vocab: dict) -> LatentMolecule:
    atom_lut = {z: i for i, z in enumerate(vocab["atom_classes"])}
    charge_lut = {c: i for i, c in enumerate(vocab["charge_classes"])}
    return LatentMolecule(
        coords=m.coords.copy(),
        type_idx=np.array([atom_lut[int(z)] for z in m.atom_types], dtype=np.int64),
        charge_idx=np.array([charge_lut[int(c)] for c in m.charges], dtype=np.int64),
        bond_idx=m.bonds.copy(),
    )


def decode_molecule(latent: LatentMolecule, vocab: dict) -> MoleculeState:
    atoms = np.array(vocab["atom_classes"])[latent.type_idx]
    charges = np.array(vocab["charge_classes"])[latent.charge_idx]
    bonds = latent.bond_idx.copy()
    np.fill_diagonal(bonds, 0)
    bonds = np.minimum(bonds, bonds.T)  # guard: decoded matrix must be symmetric
    return MoleculeState(latent.coords.copy(), atoms, charges, bonds)


def fit_molecular_priors(mols: list[MoleculeState], vocab: dict, cfg: TrainConfig) -> dict:
    """Rank-conditioned priors for coordinates / types / charges."""
    all_ranks, all_coords, type_obs, charge_obs = [], [], [], []
    atom_lut = {z: i for i, z in enumerate(vocab["atom_classes"])}
    charge_lut = {c: i for i, c in enumerate(vocab["charge_classes"])}
    for m in mols:
        n = m.n_atoms
        ranks = np.arange(n) / n
        all_ranks.append(ranks)
        all_coords.append(m.coords)
        type_obs.extend(zip(ranks, (atom_lut[int(z)] for z in m.atom_types)))
        charge_obs.extend(zip(ranks, (charge_lut[int(c)] for c in m.charges)))
    ranks_cat = np.concatenate(all_ranks)
    coords_cat = np.concatenate(all_coords)
    if cfg.prior_mode == "aligned":
        coord_prior = priors_mod.fit_rank_gaussian(ranks_cat, coords_cat, cfg.n_rank_bins)
    elif cfg.prior_mode == "isotropic":
        scale = float(coords_cat.std())
        k = cfg.n_rank_bins
        coord_prior = priors_mod.RankBinnedGaussianPrior(
            np.zeros((k, 3)), np.full((k, 3), max(scale, 1e-4)))
    else:
        raise ValueError(f"unknown prior_mode {cfg.prior_mode!r}")
    return {
        "coord": coord_prior,
        "atom": priors_mod.fit_positional(type_obs, cfg.n_rank_bins, len(vocab["atom_classes"])),
        "charge": priors_mod.fit_positional(charge_obs, cfg.n_rank_bins, len(vocab["charge_classes"])),
    }


def sample_molecular_noise(n_atoms: int, priors: dict, n_bond_classes: int,
                           rng: np.random.Generator) -> LatentMolecule:
    """Draw the noise endpoint: rank-conditioned coords/types/charges, uniform bonds."""
    ranks = np.arange(n_atoms) / n_atoms
    coords = priors_mod.sample_rank_gaussian(priors["coord"], ranks, rng)
    type_idx = priors_mod.sample_positional(priors["atom"], ranks, rng)
    charge_idx = priors_mod.sample_positional(priors["charge"], ranks, rng)
    bonds = np.zeros((n_atoms, n_atoms), dtype=np.int64)
    iu = np.triu_indices(n_atoms, k=1)
    draws = rng.integers(0, n_bond_classes, size=len(iu[0]))
    bonds[iu] = draws
    bonds = bonds + bonds.T
    return LatentMolecule(coords, type_idx, charge_idx, bonds)


def molecular_path(latent0: LatentMolecule, latent1: LatentMolecule, t: float,
                   cfg: TrainConfig, rng: np.random.Generator) -> LatentMolecule:
    """Interpolated state: linear+noise coords, (1 - t)-keep categorical mixing."""
    n = latent0.n_atoms
    coords_t = (1.0 - t) * latent0.coords + t * latent1.coords
    if cfg.coord_noise > 0:
        coords_t = coords_t + cfg.coord_noise * rng.standard_normal(coords_t.shape)
    type_t = mix_categorical(latent0.type_idx, latent1.type_idx, t, rng)
    charge_t = mix_categorical(latent0.charge_idx, latent1.charge_idx, t, rng)
    iu = np.triu_indices(n, k=1)
    keep = rng.random(len(iu[0])) < (1.0 - t)
    mixed = np.where(keep, latent0.bond_idx[iu], latent1.bond_idx[iu])
    bonds_t = np.zeros((n, n), dtype=np.int64)
    bonds_t[iu] = mixed
    bonds_t = bonds_t + bonds_t.T
    return LatentMolecule(coords_t, type_t, charge_t, bonds_t)


def index_ranks(sizes) -> np.ndarray:
    """Ranks i/n_b of every atom row of molecules of the given sizes, packed."""
    return np.concatenate([np.arange(n) / n for n in sizes])


@dataclass
class FlowExample:
    """One molecule's training draws around its data state latent0."""

    latent0: LatentMolecule
    latent1: LatentMolecule     # noise endpoint
    t: float
    z_t: LatentMolecule         # path state at t
    ranks: np.ndarray           # noised index ranks fed to the net
    pe_dropped: bool


def draw_example(latent0: LatentMolecule, priors: dict, n_bond_classes: int,
                 cfg: TrainConfig, rng: np.random.Generator) -> FlowExample:
    """Draw in stream order: noise endpoint, time, path state, rank noise, PE drop."""
    n = latent0.n_atoms
    latent1 = sample_molecular_noise(n, priors, n_bond_classes, rng)
    t = float(sample_times(1, cfg.time_dist, rng)[0])
    z_t = molecular_path(latent0, latent1, t, cfg, rng)
    noisy_ranks = rank_noise(np.arange(n) / n, t, cfg.rank_noise, rng)
    pe_dropped = bool(rng.random() < cfg.p_drop)
    return FlowExample(latent0, latent1, t, z_t, noisy_ranks, pe_dropped)


def molecular_fm_loss(net: CanonLiteNet, examples: list[FlowExample], cfg: TrainConfig):
    """Flow-matching loss of a batch from one packed forward; returns (total
    Tensor, parts dict).

    Each term is the mean over molecules of the molecule's own mean (row
    weights 1 / (B n_b), off-diagonal pair weights 1 / (B n_b (n_b - 1))), so
    the total and the parts equal the mean of single-molecule losses. A
    one-atom molecule has no bond to predict and adds zero bond loss.
    """
    n_mols = len(examples)
    state = MoleculeBatch.pack(ex.z_t for ex in examples)
    data = MoleculeBatch.pack(ex.latent0 for ex in examples)
    lay = state.layout
    preds = net(state, [ex.t for ex in examples], np.concatenate([ex.ranks for ex in examples]),
                pe_dropped=[ex.pe_dropped for ex in examples])

    row_w = 1.0 / (n_mols * lay.row_size)
    target_velocity = np.concatenate([ex.latent1.coords for ex in examples]) - data.coords
    l_coord = tape.mse(preds.velocity, target_velocity, weights=row_w)
    l_type = tape.softmax_cross_entropy(preds.atom_logits, data.type_idx, weights=row_w)
    l_charge = tape.softmax_cross_entropy(preds.charge_logits, data.charge_idx, weights=row_w)
    n_bonded = int((lay.sizes > 1).sum())
    if n_bonded:
        pair_w = (lay.pair_i != lay.pair_j) * (row_w / np.maximum(lay.row_size - 1, 1))[lay.pair_i]
        l_bond = tape.mul(Tensor(n_bonded / n_mols), tape.softmax_cross_entropy(
            preds.bond_logits, data.bond_idx, weights=pair_w))
    else:
        l_bond = Tensor(0.0)
    rank_err = tape.square(tape.sub(preds.rank_pred, Tensor(index_ranks(lay.sizes))))
    l_rank = tape.tsum(tape.mul(rank_err, Tensor(row_w)))
    total = l_coord
    for lam, term in ((cfg.lambda_type, l_type), (cfg.lambda_bond, l_bond),
                      (cfg.lambda_charge, l_charge), (cfg.lambda_rank, l_rank)):
        total = tape.add(total, tape.mul(Tensor(lam), term))
    parts = {
        "loss_coord": l_coord.item(), "loss_type": l_type.item(),
        "loss_bond": l_bond.item(), "loss_charge": l_charge.item(),
        "loss_rank": l_rank.item(),
    }
    return total, parts


# ---------------------------------------------------------------------------
# Molecular Euler rollout, shared by the sampler and the training preview


_HEADS = ("velocity", "atom_logits", "charge_logits", "bond_logits", "rank_raw")


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def guided_forward(net: CanonLiteNet, batch: MoleculeBatch, t: float, ranks: np.ndarray,
                   w: float) -> dict[str, np.ndarray]:
    """Guided heads v_u + w (v_c - v_u) as arrays, with no tape recorded.

    The unconditional copy drops the PE; w = 1 runs the conditional copy only,
    w = 0 the unconditional one only, and any other w runs both copies as one
    packed forward. rank_raw comes from the conditional copy when one runs.
    """
    with tape.no_grad():
        if w == 1.0 or w == 0.0:
            preds = net(batch, t, ranks, pe_dropped=(w == 0.0))
            return {k: getattr(preds, k).data for k in _HEADS}
        n_mols = len(batch.layout.sizes)
        both = MoleculeBatch(
            *(np.concatenate([x, x]) for x in (batch.coords, batch.type_idx,
                                              batch.charge_idx, batch.bond_idx)),
            tape.PairLayout(np.tile(batch.layout.sizes, 2)))
        preds = net(both, np.tile(np.broadcast_to(t, (n_mols,)), 2), np.tile(ranks, 2),
                    pe_dropped=np.repeat([False, True], n_mols))
    out = {}
    for k in _HEADS[:-1]:
        cond, unc = np.split(getattr(preds, k).data, 2)
        out[k] = unc + w * (cond - unc)
    out["rank_raw"] = np.split(preds.rank_raw.data, 2)[0]
    return out


def euler_step(net: CanonLiteNet, batch: MoleculeBatch, t_from: float, t_to: float,
               ranks: np.ndarray, cfg_scale: float, rng: np.random.Generator):
    """One molecular Euler step of a MoleculeBatch.

    Returns the new MoleculeBatch and the raw rank scores.
    Coordinates follow the guided velocity, clipped to +-COORD_CLIP; each
    categorical entry is redrawn from its predicted class distribution with
    probability (t_from - t_to) / t_from. Draws come in the order: atom-type
    mask and classes, charge mask and classes, then bond mask and classes over
    each molecule's upper-triangle pairs, all molecules at once.
    """
    if not 0.0 <= t_to < t_from <= 1.0:
        raise ValueError("expected 0 <= t_to < t_from <= 1")
    lay = batch.layout
    out = guided_forward(net, batch, t_from, ranks, cfg_scale)
    coords = batch.coords + (t_to - t_from) * out["velocity"]
    # an untrained or over-guided field can blow up the rollout; keep it finite
    coords = np.clip(coords, -COORD_CLIP, COORD_CLIP)

    p = (t_from - t_to) / t_from
    type_idx = batch.type_idx.copy()
    mask = rng.random(batch.n_atoms) < p
    if mask.any():
        type_idx[mask] = priors_mod.draw_categorical(_softmax(out["atom_logits"][mask]), rng)
    charge_idx = batch.charge_idx.copy()
    mask = rng.random(batch.n_atoms) < p
    if mask.any():
        charge_idx[mask] = priors_mod.draw_categorical(_softmax(out["charge_logits"][mask]), rng)

    upper = np.flatnonzero(lay.pair_i < lay.pair_j)
    values = batch.bond_idx[upper]
    mask = rng.random(len(upper)) < p
    if mask.any():
        values[mask] = priors_mod.draw_categorical(
            _softmax(out["bond_logits"][upper[mask]]), rng)
    bond_idx = np.zeros_like(batch.bond_idx)
    bond_idx[upper] = values
    bond_idx[lay.transpose[upper]] = values

    return MoleculeBatch(coords, type_idx, charge_idx, bond_idx, lay), out["rank_raw"]


def _molecular_energy_distance(net, encoded_val, priors, n_bond_classes,
                               rng, n_gen=4, k_steps=5) -> float:
    """Pooled-atom energy distance between short-rollout samples and held-out data.

    A trace diagnostic only: conditional forwards, index ranks, Euler in t,
    all n_gen molecules stepped together.
    """
    target = np.concatenate([e.coords for e in encoded_val], axis=0)[:512]
    sizes = [encoded_val[j % len(encoded_val)].n_atoms for j in range(n_gen)]
    state = MoleculeBatch.pack(sample_molecular_noise(n, priors, n_bond_classes, rng)
                               for n in sizes)
    ranks = index_ranks(sizes)
    for k in range(k_steps, 0, -1):
        state, _ = euler_step(net, state, k / k_steps, (k - 1) / k_steps, ranks, 1.0, rng)
    return energy_distance(state.coords, target)


def _train_molecules(mols: list[MoleculeState], cfg: TrainConfig, net_config, val_data):
    rng = np.random.default_rng(cfg.seed)
    vocab = build_vocab(mols)
    priors = fit_molecular_priors(mols, vocab, cfg)
    if val_data is None:
        n_val = max(1, len(mols) // 10)
        val_mols = mols[-n_val:]
        train_mols = mols[:-n_val] if len(mols) - n_val >= 1 else mols
    else:
        train_mols, val_mols = mols, list(val_data)
    encoded = [encode_molecule(m, vocab) for m in train_mols]
    encoded_val = [encode_molecule(m, vocab) for m in val_mols]

    if net_config is None:
        net_config = CanonLiteConfig(
            n_atom_classes=len(vocab["atom_classes"]),
            n_charge_classes=len(vocab["charge_classes"]),
        )
    net = CanonLiteNet(net_config, rng=np.random.default_rng([cfg.seed, 1]))
    batch = max(1, min(cfg.batch_size, len(encoded)))
    n_bond = net_config.n_bond_classes

    def step_loss(epoch):
        idx = rng.integers(0, len(encoded), batch)
        examples = [draw_example(encoded[i], priors, n_bond, cfg, rng) for i in idx]
        return molecular_fm_loss(net, examples, cfg)

    def epoch_stats(epoch):
        val_rng = np.random.default_rng([cfg.seed, 2, epoch])
        val_examples = [draw_example(latent0, priors, n_bond, cfg, val_rng)
                        for latent0 in encoded_val]
        val_loss = molecular_fm_loss(net, val_examples, cfg)[0].item()
        ed_rng = np.random.default_rng([cfg.seed, 3, epoch])
        val_ed = _molecular_energy_distance(net, encoded_val, priors, n_bond, ed_rng)
        return {"val_loss": val_loss, "val_energy_distance": float(val_ed)}

    ema, trace = _fit(net, cfg, step_loss, epoch_stats)
    model = FlowModel(
        kind="canonlite", net=net, train_config=cfg, priors=priors,
        ema=ema, meta={"vocab": vocab}, step=cfg.epochs * cfg.steps_per_epoch,
    )
    return model, trace


# TrainConfig keys that only one kind of data reads
_VECTOR_ONLY = ("ot_mode", "ot_anneal")
_MOLECULE_ONLY = ("prior_mode", "lambda_type", "lambda_bond", "lambda_charge",
                  "lambda_rank", "p_drop", "rank_noise", "n_rank_bins")


def _reject_unused_keys(cfg: TrainConfig, keys: tuple, kind: str) -> None:
    default = TrainConfig()
    for key in keys:
        value = getattr(cfg, key)
        if value != getattr(default, key):
            raise ConfigError(f"config key {key!r} = {value!r} does not apply to "
                              f"{kind} data (default {getattr(default, key)!r})")


def train(data, cfg: TrainConfig, prior=None, net_config=None, val_data=None):
    """Train a flow model on canonical states.

    data: (n, d) array of slice vectors, or a list of canonicalized
    MoleculeState. Returns (FlowModel, trace); trace rows are per-epoch dicts.
    Identical seeds give identical traces and checkpoints. A config key the
    data kind does not read, set away from its default, raises ConfigError
    before any work is done.
    """
    if isinstance(data, np.ndarray):
        _reject_unused_keys(cfg, _MOLECULE_ONLY, "vector")
        return _train_vectors(data, cfg, prior, val_data)
    if isinstance(data, (list, tuple)) and data and isinstance(data[0], MoleculeState):
        _reject_unused_keys(cfg, _VECTOR_ONLY, "molecule")
        return _train_molecules(list(data), cfg, net_config, val_data)
    raise TypeError("data must be an (n, d) array or a list of MoleculeState")
