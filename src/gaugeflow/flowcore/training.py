"""Flow-matching training on the canonical slice.

Time convention, fixed globally: t = 0 is data, t = 1 is noise. Paths are
z_t = (1 - t) z0 + t z1 (+ sigma * eps for coordinates); the regression target
for coordinates is the straight-line velocity z1 - z0; categorical entries
keep the data class with probability (1 - t), else a prior draw; categorical
heads predict the data class. Samplers integrate from t = 1 down to 0.

Molecules enter as one packed MoleculeBatch (encode_molecules) and leave
through decode_molecules; in between, every draw is batch-major: one draw per
quantity over the whole batch, in the order each drawing function documents.

Molecular coordinates are trained at unit scale: fit_coord_scale gives one
scale from the training set, encode_molecules divides by it and
decode_molecules multiplies back, and the priors, the loss, the preview and
the Euler rollout all see scaled coordinates. The scale is stored in the
checkpoint next to the priors.

A checkpoint (format_version 4) is one JSON document. Configs, vocab, priors
and the coordinate scale are plain JSON; each parameter and EMA array is
{"shape", "dtype", "data"}, with data its little-endian bytes in base64 and
dtype "<f4" or "<f8", the array's own. FlowModel.load reads this format only.

The nets run on the tape's compute dtype (float32 unless inside
tape.precision); this module's own state (data, priors, rollout coordinates)
stays float64 and is cast where it enters a Tensor. After each
backward the global gradient norm is checked, so a float32 overflow fails
at the step that made it instead of poisoning Adam and the EMA.
"""

from __future__ import annotations

import binascii
import csv
import json
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from .. import coupling as coupling_mod
from .. import priors as priors_mod
from ..molecule import MoleculeState
from . import tape
from .nets import CanonLiteConfig, CanonLiteNet, MoleculeBatch, ParamBuffer, VectorFieldMLP
from .tape import Tensor

CHECKPOINT_VERSION = 4          # the only format load reads; 4: CanonLite's last layer
                                # has no rank weights (3 stored them)
ARRAY_DTYPES = ("<f4", "<f8")   # the dtypes a stored array may declare
COORD_CLIP = 1e3                # molecular Euler steps clip coordinates to +-COORD_CLIP
OT_MODES = ("none", "exact", "anneal")  # TrainConfig.ot_mode values
PRIOR_MODES = ("aligned", "isotropic")  # TrainConfig.prior_mode values
BOND_CLASSES = (0, 1, 2, 3, 4)  # a CanonLite vocab's bond orders; class 0, no bond, is the diagonal

# fixed training hyperparameters; path times are always Beta(2, 1) (sample_times)
ADAM_BETAS = (0.9, 0.999)
EMA_DECAY = 0.999
COORD_NOISE = 0.2               # coordinate path noise sigma
RANK_NOISE = 0.05               # rank noise sigma at t = 0
LAMBDA_TYPE, LAMBDA_BOND, LAMBDA_CHARGE = 0.2, 1.0, 1.0    # categorical loss weights


class TrainingDiverged(RuntimeError):
    """Loss or gradient norm became non-finite; names the epoch and step."""


class ConfigError(ValueError):
    """A config holds a key it does not have, a value not of its field's type
    or outside the range training can use, or a key set away from its
    default for data that never reads it."""


# TrainConfig field annotation -> the value types it accepts
_CONFIG_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


@dataclass(frozen=True)
class TrainConfig:
    """Training settings, checked when built: a value not of its field's type
    (an int passes for a float field, a bool for no field), outside its range
    or set, or OT, exact or annealed, over more than coupling.MAX_EXACT rows,
    is a ConfigError naming the key. NaN is out of every range."""

    epochs: int = 10
    steps_per_epoch: int = 50
    batch_size: int = 128
    lr: float = 3e-4
    warmup_steps: int = 100
    p_drop: float = 0.1              # PE-drop probability
    lambda_rank: float = 0.1
    ot_mode: str = "none"            # one of OT_MODES
    prior_mode: str = "aligned"      # molecular coordinate prior: "aligned" | "isotropic"
    n_rank_bins: int = 8
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, _CONFIG_TYPES[f.type]) or isinstance(value, bool):
                raise ConfigError(f"config key {f.name} must be {f.type}, got {value!r}")
        inf = float("inf")
        ranges = (
            ("ot_mode", self.ot_mode in OT_MODES, f"one of {OT_MODES}"),
            ("prior_mode", self.prior_mode in PRIOR_MODES, f"one of {PRIOR_MODES}"),
            ("epochs", 0 <= self.epochs, ">= 0"),
            ("steps_per_epoch", 1 <= self.steps_per_epoch, ">= 1"),
            ("batch_size", 1 <= self.batch_size, ">= 1"),
            ("lr", 0 < self.lr < inf, "finite and > 0"),
            ("warmup_steps", 0 <= self.warmup_steps, ">= 0"),
            ("p_drop", 0 <= self.p_drop <= 1, "in [0, 1]"),
            ("lambda_rank", 0 <= self.lambda_rank < inf, "finite and >= 0"),
            ("n_rank_bins", 1 <= self.n_rank_bins, ">= 1"),
        )
        for key, ok, rule in ranges:
            if not ok:
                raise ConfigError(f"config key {key!r} = {getattr(self, key)!r} must be {rule}")
        if self.ot_mode != "none" and self.batch_size > coupling_mod.MAX_EXACT:
            raise ConfigError(f"config key 'batch_size' = {self.batch_size} exceeds exact OT's "
                              f"limit of {coupling_mod.MAX_EXACT} rows")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        """The config a dict holds. A document that is not a dict, or a key
        TrainConfig does not have, is a ConfigError; so is any value the
        constructor refuses."""
        if not isinstance(doc, dict):
            raise ConfigError(f"config must be a JSON object, got {type(doc).__name__}")
        unknown = sorted(set(doc) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**doc)


def reject_unread(cfg, keys: tuple, what: str, where: str) -> None:
    """ConfigError naming the first of keys that cfg sets away from its
    type's default: a setting `where` never reads. what names a key in the
    message ("config key", "sample setting")."""
    default = type(cfg)()
    for key in keys:
        value, usual = getattr(cfg, key), getattr(default, key)
        if value != usual:
            raise ConfigError(f"{what} {key!r} = {value!r} does not apply to {where} "
                              f"(default {usual!r})")


# ---------------------------------------------------------------------------
# Optimizer / EMA


class Adam:
    """Adam (Kingma & Ba 2015) with betas ADAM_BETAS and a linear
    learning-rate warmup, over a ParamBuffer: m and v are vectors of the
    buffer's layout, and a step is a fixed number of in-place passes over
    whole vectors, through two preallocated scratch vectors. It reads the
    gradients ParamBuffer.collect_grads left in the buffer; a parameter the
    backward pass did not reach (ParamBuffer.unreached) keeps its value, m
    and v bit for bit."""

    def __init__(self, buffer: ParamBuffer, lr: float = 3e-4, warmup_steps: int = 0):
        self.buffer = buffer
        self.lr = lr
        self.warmup_steps = warmup_steps
        self.t = 0
        self.m = np.zeros_like(buffer.data)
        self.v = np.zeros_like(buffer.data)
        self._step = np.empty_like(buffer.data)
        self._scale = np.empty_like(buffer.data)

    def step(self) -> None:
        self.t += 1
        lr_t = self.lr
        if self.warmup_steps > 0:
            lr_t *= min(1.0, self.t / self.warmup_steps)   # linear warmup, then constant
        b1, b2 = ADAM_BETAS
        data, g, m, v, step, scale = (self.buffer.data, self.buffer.grad, self.m, self.v,
                                      self._step, self._scale)
        kept = [(s, data[s].copy(), m[s].copy(), v[s].copy()) for s in self.buffer.unreached]
        m *= b1                                     # m = b1 m + (1 - b1) g
        np.multiply(g, 1 - b1, out=step)
        m += step
        v *= b2                                     # v = b2 v + (1 - b2) g^2
        np.square(g, out=step)
        step *= 1 - b2
        v += step
        np.divide(m, 1 - b1 ** self.t, out=step)    # lr_t mhat / (sqrt(vhat) + 1e-8)
        step *= lr_t
        np.divide(v, 1 - b2 ** self.t, out=scale)
        np.sqrt(scale, out=scale)
        scale += 1e-8
        step /= scale
        data -= step
        for s, value, m_s, v_s in kept:
            data[s], m[s], v[s] = value, m_s, v_s


class EMA:
    """Shadow weights: one vector of a ParamBuffer's layout. Update t (from 0)
    uses the warm-up decay min(decay, (1 + t) / (10 + t)), so a short run's
    shadow is not the init, and makes three in-place whole-vector passes."""

    def __init__(self, buffer: ParamBuffer, decay: float):
        self.buffer = buffer
        self.decay = decay
        self.t = 0
        self.shadow = buffer.data.copy()
        self._scratch = np.empty_like(buffer.data)

    def update(self) -> None:
        d = min(self.decay, (1 + self.t) / (10 + self.t))
        self.t += 1
        self.shadow *= d
        np.multiply(self.buffer.data, 1 - d, out=self._scratch)
        self.shadow += self._scratch

    def state(self) -> dict[str, np.ndarray]:
        """The shadow as one array per parameter name, copied."""
        return {k: v.copy() for k, v in self.buffer.views(self.shadow).items()}


# ---------------------------------------------------------------------------
# Paths


@dataclass
class PathSample:
    t: np.ndarray
    z_t: np.ndarray
    target_velocity: np.ndarray


def sample_times(n: int, rng: np.random.Generator) -> np.ndarray:
    """n path times from Beta(2, 1), which weights times near the noise end."""
    return rng.beta(2.0, 1.0, size=n)


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


def mix_categorical(data_idx: np.ndarray, noise_idx: np.ndarray, t,
                    rng: np.random.Generator) -> np.ndarray:
    """Each entry keeps the data class with probability (1 - t); t is a scalar
    or one time per entry."""
    keep = rng.random(data_idx.shape) < (1.0 - t)
    return np.where(keep, data_idx, noise_idx)


def rank_noise(ranks: np.ndarray, t, sigma_r: float,
               rng: np.random.Generator) -> np.ndarray:
    """Noised ranks r + N(0, sigma_r^2) * (1 - t); exact at t = 1. t is a
    scalar or one time per rank."""
    return ranks + sigma_r * (1.0 - t) * rng.standard_normal(ranks.shape)


# ---------------------------------------------------------------------------
# Metrics


def energy_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Statistical energy distance 2 E||x-y|| - E||x-x'|| - E||y-y'||.

    The pairwise distances add one coordinate's squared differences at a
    time, with no (n, m, d) temporary; below 8 dimensions that is the order
    numpy's row sum takes, so the values are bitwise those of the broadcast
    sqrt(((x[:, None] - y[None]) ** 2).sum(-1)). scipy's cdist would import
    scipy.spatial, some 36 MB of resident memory, into molecular training."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))

    def mean_cross(x, y):
        dist = np.zeros((len(x), len(y)))
        for xk, yk in zip(x.T, y.T):
            dist += np.subtract.outer(xk, yk) ** 2
        return float(np.sqrt(dist, out=dist).mean())

    return 2.0 * mean_cross(a, b) - mean_cross(a, a) - mean_cross(b, b)


def integrate_vector_field(net: VectorFieldMLP, z_start: np.ndarray, n_steps: int) -> np.ndarray:
    """Euler integration from t = 1 (noise) to t = 0 (data) on a uniform grid,
    with the tape off: the net records no backward closures and keeps no
    layer inputs or SiLU slopes."""
    if n_steps < 1:
        raise ValueError("need at least one step")
    z = np.asarray(z_start, dtype=np.float64).copy()
    with tape.no_grad():
        for k in range(n_steps, 0, -1):
            t_from = k / n_steps
            t_to = (k - 1) / n_steps
            v = net(z, np.full(z.shape[0], t_from)).data
            z = z + (t_to - t_from) * v
    return z


# ---------------------------------------------------------------------------
# Model container


def _arrays_to_doc(arrays: dict[str, np.ndarray]) -> dict:
    doc = {}
    for k, a in arrays.items():
        a = a.astype(a.dtype.newbyteorder("<"), copy=False)
        doc[k] = {"shape": list(a.shape), "dtype": a.dtype.str,
                  "data": binascii.b2a_base64(a.tobytes(), newline=False).decode("ascii")}
    return doc


def _doc_to_arrays(group: str, doc: dict) -> dict[str, np.ndarray]:
    """Stored arrays in the tape's compute dtype. An entry's data is a base64
    string of little-endian bytes of its dtype; an entry whose data is not,
    does not fill its shape, or holds a value not finite in the compute dtype,
    is a ValueError naming the group and the key."""
    if not isinstance(doc, dict):
        raise ValueError(f"checkpoint {group} must map names to arrays")
    arrays = {}
    for k, entry in doc.items():
        where = f"checkpoint {group} {k}"
        if not isinstance(entry, dict):
            raise ValueError(f"{where} must hold shape and data")
        shape = entry.get("shape")
        if not (isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)):
            raise ValueError(f"{where} needs a shape, a list of sizes; got {shape!r}")
        data = entry.get("data")
        if not isinstance(data, str):
            raise ValueError(f"{where} data must be a base64 string, got {type(data).__name__}")
        dtype = entry.get("dtype")
        if dtype not in ARRAY_DTYPES:
            raise ValueError(f"{where} dtype must be one of {', '.join(ARRAY_DTYPES)}, "
                             f"got {dtype!r}")
        try:    # a2b_base64 skips characters outside base64; the length test catches them
            raw = binascii.a2b_base64(data)
        except binascii.Error as exc:
            raise ValueError(f"{where} data is not base64: {exc}") from None
        need = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
        if len(raw) != need or len(data) != 4 * -(-need // 3):
            raise ValueError(f"{where} holds {len(raw)} bytes in {len(data)} base64 "
                             f"characters, its shape {shape} needs {need} bytes")
        flat = np.frombuffer(raw, dtype=dtype)
        with np.errstate(over="ignore"):    # values past the dtype's range become inf
            arr = flat.astype(tape.compute_dtype())
        if not np.isfinite(arr).all():      # training never saves one; sampling would fail late
            raise ValueError(f"{where} holds values that are not finite in {arr.dtype}")
        arrays[k] = arr.reshape(shape)
    return arrays


def _load_priors(kind: str, doc: dict, net, vocab: dict | None) -> dict:
    """A checkpoint's priors, exactly the ones its kind samples from: noise, a
    gaussian of the net's dimension; or coord, a rank_gaussian of 3-D means
    and stds > 0, and atom and charge, positional tables of the vocab's class
    counts with non-negative rows (and base) of positive sum. All finite, over
    at least one rank bin; a ValueError names the key that does not fit."""
    table = priors_mod.PositionalCategoricalPrior
    need = ({"noise": (priors_mod.GaussianPrior, net.dim)} if kind == "vector_field" else
            {"coord": (priors_mod.RankBinnedGaussianPrior, 3),
             **{k: (table, len(vocab[f"{k}_classes"])) for k in ("atom", "charge")}})
    if sorted(doc) != sorted(need):
        raise ValueError(f"checkpoint priors must be exactly {', '.join(need)}, got {sorted(doc)}")
    out = {}
    for key, (cls, width) in need.items():
        try:
            p = out[key] = priors_mod.prior_from_dict(doc[key])
        except ValueError as exc:           # a rule the prior's own type states
            raise ValueError(f"checkpoint prior {key}: {exc}") from None
        except (AttributeError, KeyError, TypeError):   # not an object, or malformed
            p = None
        fits = isinstance(p, cls) and all(np.isfinite(v).all() for v in vars(p).values())
        if fits and cls is table:
            rows = np.vstack([p.bin_probs, p.base])
            fits = p.n_bins > 0 and p.n_classes == width and (rows >= 0).all() and all(rows.sum(1))
        elif fits and cls is priors_mod.RankBinnedGaussianPrior:
            fits = p.n_bins > 0 and p.bin_means.shape[1] == width and (p.bin_stds > 0).all()
        elif fits:
            fits = p.dim == width
        if not fits:
            raise ValueError(f"checkpoint prior {key} must be a finite {cls.__name__} of width "
                             f"{width}, with stds > 0 or class rows non-negative of positive sum")
    return out


@dataclass
class FlowModel:
    kind: str                        # "vector_field" | "canonlite"
    net: object
    train_config: TrainConfig
    priors: dict
    ema: dict
    meta: dict = field(default_factory=dict)
    step: int = 0
    coord_scale: float = 1.0         # molecular coordinates enter the net divided by it

    def parameters(self) -> dict[str, Tensor]:
        return self.net.parameters()

    def load_ema(self) -> None:
        """Overwrite live weights with the EMA shadow (inference setting),
        in place in the net's ParamBuffer."""
        params = self.net.parameters()
        for k, v in self.ema.items():
            params[k].data[...] = v

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
            "coord_scale": self.coord_scale,
            "meta": self.meta,
            "step": self.step,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, sort_keys=True)

    @classmethod
    def load(cls, path) -> "FlowModel":
        """Read a checkpoint of format version CHECKPOINT_VERSION; parameters
        and EMA come back in the tape's compute dtype. A file of any other
        format version (older ones store parameters this architecture lacks,
        or weights that would mean another model), or whose top level,
        configs, priors or meta are not JSON objects, whose CanonLite meta
        lacks the vocab's class lists or holds a class that is not an integer,
        bond classes other than BOND_CLASSES (decoding maps bond class 0 to
        the empty diagonal) or a class list whose length is not its head's
        class count, whose train_config or net_config its config class
        refuses (TrainConfig, CanonLiteConfig), whose step is not an int >= 0
        or coordinate scale not a positive number (a bool is neither), or whose
        parameter or EMA names, arrays, shapes or priors do not fit, is a ValueError."""
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"checkpoint top level must be a JSON object, "
                             f"got {type(doc).__name__}")
        for key in ("train_config", "priors", "meta"):
            if not isinstance(doc.get(key, {}), dict):
                raise ValueError(f"checkpoint {key} must be a JSON object, "
                                 f"got {type(doc[key]).__name__}")
        version = doc.get("format_version")
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version!r}: this gaugeflow "
                             f"reads version {CHECKPOINT_VERSION} only")
        kind = doc["kind"]
        if kind not in ("vector_field", "canonlite"):
            raise ValueError(f"unknown model kind {kind!r}")
        meta = doc.get("meta", {})
        if kind == "canonlite":
            vocab = meta.get("vocab")
            if not isinstance(vocab, dict):
                raise ValueError("checkpoint meta needs a vocab object")
            lists = ("atom_classes", "charge_classes", "bond_classes")
            missing = [k for k in lists if not isinstance(vocab.get(k), list)]
            if missing:
                raise ValueError(f"checkpoint meta vocab needs class lists {', '.join(missing)}")
            for key in lists:
                if not all(type(v) is int for v in vocab[key]):
                    raise ValueError(f"checkpoint meta vocab {key} must hold integers, "
                                     f"got {vocab[key]!r}")
            if tuple(vocab["bond_classes"]) != BOND_CLASSES:
                raise ValueError(f"checkpoint meta vocab bond_classes must be {list(BOND_CLASSES)}, "
                                 f"got {vocab['bond_classes']!r}")
        try:
            net = (VectorFieldMLP(**doc["net_config"]) if kind == "vector_field"
                   else CanonLiteNet(CanonLiteConfig(**doc["net_config"])))
        except TypeError as exc:        # a net_config key the architecture lacks, or misses
            raise ValueError(f"checkpoint net_config does not fit {kind}: {exc}") from None
        if kind == "canonlite":
            heads = {"atom_classes": net.cfg.n_atom_classes,
                     "charge_classes": net.cfg.n_charge_classes,
                     "bond_classes": net.cfg.n_bond_classes}
            for key, n in heads.items():
                if len(vocab[key]) != n:
                    raise ValueError(f"checkpoint meta vocab {key} holds {len(vocab[key])} "
                                     f"classes, the net's head has {n}")
        coord_scale = doc.get("coord_scale")
        if not (type(coord_scale) in (int, float) and 0.0 < coord_scale < np.inf):
            raise ValueError(f"checkpoint coord_scale must be a positive number, "
                             f"got {coord_scale!r}")
        step = doc.get("step")
        if not (type(step) is int and step >= 0):
            raise ValueError(f"checkpoint step must be an integer >= 0, got {step!r}")
        params = net.parameters()
        stored = _doc_to_arrays("params", doc["params"])
        ema = _doc_to_arrays("ema", doc["ema"])
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
            params[k].data[...] = arr
        return cls(
            kind=kind,
            net=net,
            train_config=TrainConfig.from_dict(doc["train_config"]),
            priors=_load_priors(kind, doc.get("priors", {}), net, meta.get("vocab")),
            ema=ema,
            meta=meta,
            step=step,
            coord_scale=float(coord_scale),
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
    if cfg.ot_mode == "anneal":
        return coupling_mod.ot_probability(epoch, cfg.epochs)
    return 1.0 if cfg.ot_mode == "exact" else 0.0


def _check_finite(value: float, parts: dict, epoch: int, step: int) -> None:
    if not np.isfinite(value):
        raise TrainingDiverged(
            f"non-finite loss at epoch {epoch} step {step}: "
            + ", ".join(f"{k}={v:.4g}" for k, v in parts.items())
        )


def _grad_norm(grads: list[np.ndarray]) -> float:
    """Global L2 norm of the parameter gradients (ParamBuffer.collect_grads's
    views). Each view's square sum is one dot product in the gradient's dtype,
    so a gradient whose square would overflow Adam's second moment reads inf
    here too; the sum runs per parameter because one float32 dot over the
    whole vector rounds differently."""
    return float(np.sqrt(sum(float(np.vdot(g, g)) for g in grads)))


def _fit(net, cfg: TrainConfig, step_loss, epoch_stats) -> tuple[dict, list[dict]]:
    """Adam with warmup and an EMA shadow over cfg.epochs x cfg.steps_per_epoch steps.

    step_loss(epoch) draws one batch and returns (loss Tensor, parts),
    parts being named float loss terms averaged into the trace. A non-finite
    loss, or a non-finite global gradient norm after backward, raises
    TrainingDiverged before the optimizer or the EMA sees the step. After each
    epoch epoch_stats(epoch) returns the validation columns; it runs under
    no_grad. Returns (EMA state, trace), one trace row per epoch: epoch, loss,
    grad_norm (the epoch mean), the validation columns, then the parts.
    """
    buffer = net.buffer
    opt = Adam(buffer, lr=cfg.lr, warmup_steps=cfg.warmup_steps)
    ema = EMA(buffer, EMA_DECAY)
    trace = []
    for epoch in range(cfg.epochs):
        losses, norms, part_sums = [], [], {}
        for step in range(cfg.steps_per_epoch):
            tape.zero_grads(buffer.params)
            loss, parts = step_loss(epoch)
            loss_val = loss.item()
            _check_finite(loss_val, {"loss": loss_val, **parts}, epoch, step)
            tape.backward(loss)
            del loss            # release the recorded graph before the next forward
            norm = _grad_norm(buffer.collect_grads())
            if not np.isfinite(norm):
                raise TrainingDiverged(f"non-finite gradient norm at epoch {epoch} "
                                       f"step {step}: grad_norm={norm:.4g}")
            opt.step()
            ema.update()
            losses.append(loss_val)
            norms.append(norm)
            for k, v in parts.items():
                part_sums[k] = part_sums.get(k, 0.0) + v
        with tape.no_grad():
            row = {"epoch": epoch, "loss": float(np.mean(losses)),
                   "grad_norm": float(np.mean(norms)), **epoch_stats(epoch)}
        for k, v in part_sums.items():
            row[k] = v / cfg.steps_per_epoch
        trace.append(row)
    return ema.state(), trace


def _train_vectors(data: np.ndarray, cfg: TrainConfig):
    data = np.asarray(data, dtype=np.float64)
    n, dim = data.shape
    rng = np.random.default_rng(cfg.seed)
    prior = priors_mod.GaussianPrior(np.zeros(dim), np.eye(dim))
    n_val = max(16, n // 10)
    val_data = data[-n_val:]
    data = data[:-n_val] if n - n_val >= 2 else data
    net = VectorFieldMLP(dim, rng=np.random.default_rng([cfg.seed, 1]))

    # frozen validation path set: reused every epoch so rows are comparable
    val_rng = np.random.default_rng([cfg.seed, 2])
    v_noise = priors_mod.sample_gaussian(prior, len(val_data), val_rng)
    v_t = sample_times(len(val_data), val_rng)
    v_path = interpolate(val_data, v_noise, v_t, COORD_NOISE, val_rng)

    def step_loss(epoch):
        p_ot = _ot_prob(cfg, epoch)
        idx = rng.integers(0, data.shape[0], cfg.batch_size)
        z0 = data[idx]
        z1 = priors_mod.sample_gaussian(prior, cfg.batch_size, rng)
        if p_ot > 0 and rng.random() < p_ot:
            z1 = z1[coupling_mod.ot_pair(z0, z1)]
        t = sample_times(cfg.batch_size, rng)
        path = interpolate(z0, z1, t, COORD_NOISE, rng)
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
    return {"atom_classes": atoms, "charge_classes": charges, "bond_classes": list(BOND_CLASSES)}


def fit_coord_scale(mols: list[MoleculeState]) -> float:
    """Root mean square of all coordinate entries (1 when they are all 0):
    coordinates divided by it have unit scale, whatever unit the data use."""
    rms = float(np.sqrt(np.mean(np.concatenate([m.coords for m in mols]) ** 2)))
    return rms if rms > 0.0 else 1.0


def _class_index(classes, values: np.ndarray, what: str) -> np.ndarray:
    """Position of each value in the vocab's class list; a value the list
    does not hold is a ValueError."""
    classes = np.asarray(classes)
    order = np.argsort(classes)
    idx = order[np.minimum(np.searchsorted(classes, values, sorter=order), len(classes) - 1)]
    missing = classes[idx] != values
    if missing.any():
        raise ValueError(f"{what} class {values[missing][0]} is not in the vocab "
                         f"{classes.tolist()}")
    return idx


def encode_molecules(mols: list[MoleculeState], vocab: dict, coord_scale: float) -> MoleculeBatch:
    """The molecules packed into one MoleculeBatch: class indices from the
    vocab (bonds at each pair i < j), coordinates divided by coord_scale."""
    lay = tape.PairLayout([m.n_atoms for m in mols])
    bonds = np.concatenate([m.bonds.ravel() for m in mols])[lay.upper]
    return MoleculeBatch(
        np.concatenate([m.coords for m in mols]) / coord_scale,
        _class_index(vocab["atom_classes"], np.concatenate([m.atom_types for m in mols]), "atom"),
        _class_index(vocab["charge_classes"], np.concatenate([m.charges for m in mols]), "charge"),
        _class_index(vocab["bond_classes"], bonds, "bond"), lay)


def decode_molecules(batch: MoleculeBatch, vocab: dict, coord_scale: float) -> list[MoleculeState]:
    """Inverse of encode_molecules: one MoleculeState per molecule, classes
    from the vocab, coordinates times coord_scale, each bond matrix mirrored
    from its upper triangle."""
    lay = batch.layout
    coords = batch.coords * coord_scale
    atoms = np.asarray(vocab["atom_classes"])[batch.type_idx]
    charges = np.asarray(vocab["charge_classes"])[batch.charge_idx]
    bonds = np.asarray(vocab["bond_classes"])[lay.symmetric(batch.bond_idx)]
    return [MoleculeState(coords[a:a + n], atoms[a:a + n], charges[a:a + n],
                          bonds[p:p + n * n].reshape(n, n))
            for a, n, p in zip(lay.node_start, lay.sizes, lay.block_start[lay.node_start])]


def index_ranks(sizes) -> np.ndarray:
    """Ranks i/n_b of every atom row of molecules of the given sizes, packed."""
    sizes = np.asarray(sizes, dtype=np.int64)
    return tape.concat_aranges(np.zeros_like(sizes), sizes) / np.repeat(sizes, sizes)


def fit_molecular_priors(batch: MoleculeBatch, vocab: dict, cfg: TrainConfig) -> dict:
    """Rank-conditioned priors for the coordinates / types / charges of an
    encoded batch, at index ranks; coordinates are fitted in the batch's
    unit scale."""
    ranks = index_ranks(batch.layout.sizes)
    k = cfg.n_rank_bins
    if cfg.prior_mode == "aligned":
        coord_prior = priors_mod.fit_rank_gaussian(ranks, batch.coords, k)
    else:                       # "isotropic"
        scale = float(batch.coords.std())
        coord_prior = priors_mod.RankBinnedGaussianPrior(
            np.zeros((k, 3)), np.full((k, 3), max(scale, 1e-4)))
    return {
        "coord": coord_prior,
        "atom": priors_mod.fit_positional(ranks, batch.type_idx, k, len(vocab["atom_classes"])),
        "charge": priors_mod.fit_positional(ranks, batch.charge_idx, k,
                                            len(vocab["charge_classes"])),
    }


def sample_molecular_noise(sizes, priors: dict, n_bond_classes: int,
                           rng: np.random.Generator) -> MoleculeBatch:
    """The noise endpoint of molecules of the given sizes, as one batch.

    Draws come in the order: coordinates, atom types and charges of all atom
    rows (rank-conditioned at index ranks), then uniform bond classes over
    all upper-triangle pairs.
    """
    lay = tape.PairLayout(sizes)
    ranks = index_ranks(lay.sizes)
    coords = priors_mod.sample_rank_gaussian(priors["coord"], ranks, rng)
    type_idx = priors_mod.sample_positional(priors["atom"], ranks, rng)
    charge_idx = priors_mod.sample_positional(priors["charge"], ranks, rng)
    bonds = rng.integers(0, n_bond_classes, size=len(lay.upper))
    return MoleculeBatch(coords, type_idx, charge_idx, bonds, lay)


@dataclass
class MolecularPath:
    """One batch's training draws around its data state."""

    data: MoleculeBatch
    z_t: MoleculeBatch           # path state at t, in data's layout
    t: np.ndarray                # (B,) one time per molecule
    target_velocity: np.ndarray  # (sum N, 3) noise minus data coordinates
    ranks: np.ndarray            # (sum N,) noised index ranks fed to the net
    pe_dropped: np.ndarray       # (B,) bool


def draw_path(data: MoleculeBatch, priors: dict, n_bond_classes: int, cfg: TrainConfig,
              rng: np.random.Generator) -> MolecularPath:
    """Training draws for a whole batch, in stream order: the noise endpoint
    (sample_molecular_noise), one time per molecule, coordinate path noise,
    type, charge and upper-pair bond keep masks, rank noise, one PE drop per
    molecule. Coordinates follow interpolate's path from the data to the
    noise, at each molecule's time on its rows."""
    lay = data.layout
    noise = sample_molecular_noise(lay.sizes, priors, n_bond_classes, rng)
    t = sample_times(len(lay.sizes), rng)
    t_rows = np.repeat(t, lay.sizes)
    coord_path = interpolate(data.coords, noise.coords, t_rows, COORD_NOISE, rng)
    type_idx = mix_categorical(data.type_idx, noise.type_idx, t_rows, rng)
    charge_idx = mix_categorical(data.charge_idx, noise.charge_idx, t_rows, rng)
    bonds = mix_categorical(data.bond_idx, noise.bond_idx, t_rows[lay.upper_i], rng)
    ranks = rank_noise(index_ranks(lay.sizes), t_rows, RANK_NOISE, rng)
    pe_dropped = rng.random(len(lay.sizes)) < cfg.p_drop
    z_t = MoleculeBatch(coord_path.z_t, type_idx, charge_idx, bonds, lay)
    return MolecularPath(data, z_t, t, coord_path.target_velocity, ranks, pe_dropped)


def bond_loss(bond_logits: Tensor, data: MoleculeBatch) -> Tensor:
    """Bond cross-entropy of (upper pairs, Cb) logits against data's bond
    classes: the mean over molecules of each molecule's mean over its
    n_b (n_b - 1) / 2 upper pairs (row weight 1 / (B n_b) over n_b - 1, then
    renormalized). The logits are symmetric, so this equals the mean over both
    mirrors of every off-diagonal pair. A one-atom molecule adds zero."""
    lay = data.layout
    n_mols = len(lay.sizes)
    n_bonded = int((lay.sizes > 1).sum())
    if not n_bonded:
        return Tensor(0.0)
    n_b = lay.row_size[lay.upper_i]
    weights = 1.0 / (n_mols * n_b) / (n_b - 1)
    return tape.mul(Tensor(n_bonded / n_mols), tape.softmax_cross_entropy(
        bond_logits, data.bond_idx, weights=weights))


def molecular_fm_loss(net: CanonLiteNet, path: MolecularPath, cfg: TrainConfig):
    """Flow-matching loss of a drawn batch from one packed forward; returns
    (total Tensor, parts dict).

    Each term is the mean over molecules of the molecule's own mean (row
    weights 1 / (B n_b), upper-pair weights 1 / (B n_b (n_b - 1) / 2); see
    bond_loss), so the total and the parts equal the mean of single-molecule
    losses. A one-atom molecule has no bond to predict and adds zero bond loss.
    """
    data = path.data
    lay = data.layout
    n_mols = len(lay.sizes)
    preds = net(path.z_t, path.t, path.ranks, pe_dropped=path.pe_dropped)

    row_w = 1.0 / (n_mols * lay.row_size)
    l_coord = tape.mse(preds.velocity, path.target_velocity, weights=row_w)
    l_type = tape.softmax_cross_entropy(preds.atom_logits, data.type_idx, weights=row_w)
    l_charge = tape.softmax_cross_entropy(preds.charge_logits, data.charge_idx, weights=row_w)
    l_bond = bond_loss(preds.bond_logits, data)
    rank_err = tape.square(tape.sub(preds.rank_pred, Tensor(index_ranks(lay.sizes))))
    l_rank = tape.tsum(tape.mul(rank_err, Tensor(row_w)))
    total = l_coord
    for lam, term in ((LAMBDA_TYPE, l_type), (LAMBDA_BOND, l_bond),
                      (LAMBDA_CHARGE, l_charge), (cfg.lambda_rank, l_rank)):
        total = tape.add(total, tape.mul(Tensor(lam), term))
    parts = {
        "loss_coord": l_coord.item(), "loss_type": l_type.item(),
        "loss_bond": l_bond.item(), "loss_charge": l_charge.item(),
        "loss_rank": l_rank.item(),
    }
    return total, parts


# ---------------------------------------------------------------------------
# Molecular Euler rollout, shared by the sampler and the training preview


_HEADS = ("velocity", "atom_logits", "charge_logits", "bond_logits", "rank_pred")


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def guided_forward(net: CanonLiteNet, batch: MoleculeBatch, t: float, ranks: np.ndarray,
                   w: float) -> dict[str, np.ndarray]:
    """Guided heads v_u + w (v_c - v_u) as float64 arrays, with no tape recorded.

    The unconditional copy drops the PE; w = 1 runs the conditional copy only,
    w = 0 the unconditional one only, and any other w runs both copies as one
    packed forward. rank_pred comes from the conditional copy when one runs.
    """
    with tape.no_grad():
        if w == 1.0 or w == 0.0:
            preds = net(batch, t, ranks, pe_dropped=(w == 0.0))
            return {k: getattr(preds, k).data.astype(np.float64) for k in _HEADS}
        n_mols = len(batch.layout.sizes)
        both = batch.select(np.tile(np.arange(n_mols), 2))
        preds = net(both, np.tile(np.broadcast_to(t, (n_mols,)), 2), np.tile(ranks, 2),
                    pe_dropped=np.repeat([False, True], n_mols))
    out = {}
    for k in _HEADS:
        cond, unc = np.split(getattr(preds, k).data.astype(np.float64), 2)
        out[k] = cond if k == "rank_pred" else unc + w * (cond - unc)
    return out


def euler_step(net: CanonLiteNet, batch: MoleculeBatch, t_from: float, t_to: float,
               ranks: np.ndarray, cfg_scale: float, rng: np.random.Generator):
    """One molecular Euler step of a MoleculeBatch.

    Returns the new MoleculeBatch and guided_forward's normalized rank_pred.
    Coordinates follow the guided velocity, clipped to +-COORD_CLIP; each
    categorical entry is redrawn from its predicted class distribution with
    probability (t_from - t_to) / t_from. Draws come in the order: atom-type
    mask and classes, charge mask and classes, then bond mask and classes over
    each molecule's upper-triangle pairs, all molecules at once.
    """
    if not 0.0 <= t_to < t_from <= 1.0:
        raise ValueError("expected 0 <= t_to < t_from <= 1")
    out = guided_forward(net, batch, t_from, ranks, cfg_scale)
    coords = batch.coords + (t_to - t_from) * out["velocity"]
    # an untrained or over-guided field can blow up the rollout; keep it finite
    coords = np.clip(coords, -COORD_CLIP, COORD_CLIP)

    p = (t_from - t_to) / t_from
    type_idx = _redraw(batch.type_idx, out["atom_logits"], p, rng)
    charge_idx = _redraw(batch.charge_idx, out["charge_logits"], p, rng)
    bonds = _redraw(batch.bond_idx, out["bond_logits"], p, rng)
    return MoleculeBatch(coords, type_idx, charge_idx, bonds, batch.layout), out["rank_pred"]


def _redraw(idx: np.ndarray, logits: np.ndarray, p: float, rng: np.random.Generator) -> np.ndarray:
    """Each entry redrawn from softmax(logits) of its row with probability p:
    one mask draw over all entries, then one class draw per masked entry."""
    idx = idx.copy()
    mask = rng.random(len(idx)) < p
    if mask.any():
        idx[mask] = priors_mod.draw_categorical(_softmax(logits[mask]), rng)
    return idx


def _molecular_energy_distance(net, val: MoleculeBatch, priors, n_bond_classes, rng) -> float:
    """Pooled-atom energy distance between short-rollout samples and held-out data.

    A trace diagnostic only: 4 molecules, sized as the validation molecules in
    turn, stepped together through 5 conditional Euler steps at index ranks.
    """
    target = val.coords[:512]
    sizes = val.layout.sizes[np.arange(4) % len(val.layout.sizes)]
    state = sample_molecular_noise(sizes, priors, n_bond_classes, rng)
    ranks = index_ranks(sizes)
    for k in range(5, 0, -1):
        state, _ = euler_step(net, state, k / 5, (k - 1) / 5, ranks, 1.0, rng)
    return energy_distance(state.coords, target)


def _train_molecules(mols: list[MoleculeState], cfg: TrainConfig):
    rng = np.random.default_rng(cfg.seed)
    vocab = build_vocab(mols)
    scale = fit_coord_scale(mols)
    encoded = encode_molecules(mols, vocab, scale)
    priors = fit_molecular_priors(encoded, vocab, cfg)
    n = len(mols)
    n_val = max(1, n // 10)     # the last tenth validates; the rest (all of one) trains
    n_train, val_set = max(n - n_val, 1), encoded.select(np.arange(n - n_val, n))

    net_config = CanonLiteConfig(
        n_atom_classes=len(vocab["atom_classes"]),
        n_charge_classes=len(vocab["charge_classes"]),
    )
    net = CanonLiteNet(net_config, rng=np.random.default_rng([cfg.seed, 1]))
    batch = max(1, min(cfg.batch_size, n_train))
    n_bond = net_config.n_bond_classes

    def step_loss(epoch):
        data = encoded.select(rng.integers(0, n_train, batch))
        return molecular_fm_loss(net, draw_path(data, priors, n_bond, cfg, rng), cfg)

    def epoch_stats(epoch):
        val_rng = np.random.default_rng([cfg.seed, 2, epoch])
        val_loss = molecular_fm_loss(net, draw_path(val_set, priors, n_bond, cfg, val_rng),
                                     cfg)[0].item()
        ed_rng = np.random.default_rng([cfg.seed, 3, epoch])
        val_ed = _molecular_energy_distance(net, val_set, priors, n_bond, ed_rng)
        return {"val_loss": val_loss, "val_energy_distance": float(val_ed)}

    ema, trace = _fit(net, cfg, step_loss, epoch_stats)
    model = FlowModel(
        kind="canonlite", net=net, train_config=cfg, priors=priors,
        ema=ema, meta={"vocab": vocab}, step=cfg.epochs * cfg.steps_per_epoch,
        coord_scale=scale,
    )
    return model, trace


# TrainConfig keys that only one kind of data reads
_VECTOR_ONLY = ("ot_mode",)
_MOLECULE_ONLY = ("prior_mode", "lambda_rank", "p_drop", "n_rank_bins")


def check_data_kind(cfg: TrainConfig, molecules: bool) -> None:
    """ConfigError naming a key cfg sets away from its default that the data kind never reads."""
    reject_unread(cfg, _VECTOR_ONLY if molecules else _MOLECULE_ONLY, "config key",
                  "molecule data" if molecules else "vector data")


def train(data, cfg: TrainConfig):
    """Train a flow model on canonical states.

    data: (n, d) array of slice vectors, or a list of canonicalized
    MoleculeState. Returns (FlowModel, trace); trace rows are per-epoch dicts.
    Vector data train against the isotropic N(0, I) prior and molecules under
    the default CanonLiteConfig sized to the data's vocab; either kind
    validates on its own last tenth (at least 16 vectors or one molecule).
    Identical seeds give identical traces and checkpoints. cfg checked its
    own values when it was built (TrainConfig); a key the data kind does not
    read set away from its default raises ConfigError before any work is done.
    """
    if isinstance(data, np.ndarray):
        check_data_kind(cfg, molecules=False)
        return _train_vectors(data, cfg)
    if isinstance(data, (list, tuple)) and data and isinstance(data[0], MoleculeState):
        check_data_kind(cfg, molecules=True)
        return _train_molecules(list(data), cfg)
    raise TypeError("data must be an (n, d) array or a list of MoleculeState")
