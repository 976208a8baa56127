"""Networks on the tape: a plain MLP vector field for low-dimensional toys and
CanonLite, a three-stream message-passing net over canonicalized molecules.
Each of the two packs its parameters into one ParamBuffer when it is built,
so the optimizer and the EMA work on whole vectors.

CanonLite keeps separate node (H), coordinate-set (CS) and rank (R) streams.
Every layer builds a message for each ordered pair (i, j) with a two-layer MLP
over [p_i, p_j, q_i, q_j, <cs_i, cs_j>, e_ij] (p, q: projected node and rank
features; Gram entries per coordinate set; edge features), aggregates it by
mean over j (no attention), and applies residual updates to all streams. No
head reads R, so the last layer updates only H, CS and the edges: it has no
rank_update, and its message MLP has no rank outputs.

The message MLP is evaluated in factorized form, as in the EGNN edge function
(Satorras et al. 2021): the first layer's p and q row blocks act on the N node
rows (from_i, from_j), and only the Gram and edge rows are multiplied on the
N^2 pair rows. The node and rank outputs are used only through their mean
over j, so the hidden layer is averaged first and their output columns are
applied on N rows; pair rows carry only the coordinate and edge outputs.
Parameters keep the shapes of the plain MLP over the concatenated input, and
both forms agree up to rounding.

Each layer's pair stage is one tape op, tape.pair_stage, evaluated block by
block over runs of same-size molecules viewed as dense (k, n, n, .) arrays:
the Gram of the coordinate sets is a batched matmul written into the first
layer's pair input, from_i[i] and from_j[j] are broadcast-added into that
layer's output, SiLU runs in place, the mean over j is a sum over the j axis
of the block, the coordinate and edge outputs are one matmul, and the
coordinate mix is a batched matmul. The edge stream stays inside the op: the
layer's edge_update is linear and is folded into the edge output columns, so
the op returns the next layer's edge features with the residual added. The
first layer gathers its edge features from edge_in's rows by bond class,
mirrored to all pair rows. No pair-row Tensor is built outside the op, except
the bond head's upper-triangle rows. Every Linear is the fused
matmul-plus-bias tape.linear.

The coordinate weights are bounded: the coordinate mix reads tanh of the
coordinate message, the EGNN-family remedy, so a layer's coordinate update is
linear in the coordinates it mixes instead of growing as a power of their
scale (the message MLP sees Gram entries, quadratic in the coordinates).
Training feeds unit-scale coordinates (training.fit_coord_scale).

Heads: coordinate velocity (mix of coordinate sets), atom/charge logits, bond
logits for each molecule's N (N - 1) / 2 pairs i < j only (the last edge
features symmetrized at those rows, (e_ij + e_ji) / 2, then head_bond), and a
rank head min-max normalized to [0, 1] per molecule by tape.minmax_normalize
(no bias: the normalization cancels any shift). The rank loss and regime-b
predict sampling both read that rank_pred.

The net takes a MoleculeBatch only and runs one graph for it: the atom rows
of all molecules are concatenated, and so are their pair rows, each
molecule's n_b^2 ordered pairs in i-major order (tape.PairLayout); its bonds
are one class per pair i < j, like the bond head. Matmuls see the packed
rows; only the pair stage, the bond head's upper-triangle rows and the rank
normalization know where molecules end, so messages never cross molecules
and each molecule's heads equal those of its own forward up to rounding.
Time, ranks and the PE drop are per molecule. Molecules enter as a
MoleculeBatch from training.encode_molecules and leave through
training.decode_molecules.
"""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import tape
from .tape import Tensor


def canonical_pe(ranks: np.ndarray, d_pe: int, scale: float = 10000.0) -> np.ndarray:
    """Sinusoidal encoding of normalized ranks.

    PE(r, 2k) = sin(r * scale / scale^(2k/d_pe)), PE(r, 2k+1) = cos(same).
    Distinct ranks on grids i/N stay collision-free for d_pe >= 4 up to N=256.
    d_pe is even and positive, as CanonLiteConfig checks.
    """
    ranks = np.asarray(ranks, dtype=np.float64)
    out = np.zeros((ranks.shape[0], d_pe))
    for k in range(d_pe // 2):
        arg = ranks * scale / scale ** (2 * k / d_pe)
        out[:, 2 * k] = np.sin(arg)
        out[:, 2 * k + 1] = np.cos(arg)
    return out


class Module:
    """Minimal parameter container; named_parameters walks attributes in
    insertion order so optimizer state is deterministic."""

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Tensor]]:
        out = []
        for name, value in self.__dict__.items():
            full = f"{prefix}{name}"
            if isinstance(value, Tensor) and value.requires_grad:
                out.append((full, value))
            elif isinstance(value, Module):
                out.extend(value.named_parameters(full + "."))
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        out.extend(item.named_parameters(f"{full}.{i}."))
                    elif isinstance(item, Tensor) and item.requires_grad:
                        out.append((f"{full}.{i}", item))
        return out

    def parameters(self) -> dict[str, Tensor]:
        return dict(self.named_parameters())


class ParamBuffer:
    """Named parameters packed into one contiguous vector `data` of the
    compute dtype, in the dict's order, with a gradient vector `grad` of the
    same layout beside it.

    Packing copies each parameter into its slice of `data` and binds p.data
    to that slice's view, once. From then on code writes into the views
    (p.data[...] = ...) and never rebinds p.data, so a whole-vector pass over
    `data` (Adam, the EMA) moves every parameter."""

    def __init__(self, params: dict[str, Tensor]):
        self.params = params
        self.slices, start = {}, 0
        for k, p in params.items():
            self.slices[k] = slice(start, start + p.data.size)
            start += p.data.size
        self.data = np.empty(start, dtype=tape.compute_dtype())
        self.grad = np.zeros_like(self.data)
        self.unreached: list[slice] = []
        for view, p in zip(self.views(self.data).values(), params.values()):
            view[...] = p.data
            p.data = view
        self._grad_views = list(self.views(self.grad).values())

    def __deepcopy__(self, memo) -> ParamBuffer:
        """A copy that stays packed: `data` and `grad` are copied once and the
        copied parameters (the same objects the copied net holds, through
        memo) are re-bound to views of the copied `data`, so Adam and the EMA
        on the copy move the copy's weights and never the original's."""
        new = copy.copy(self)
        memo[id(self)] = new
        new.params = copy.deepcopy(self.params, memo)
        new.data, new.grad = self.data.copy(), self.grad.copy()
        new.unreached = list(self.unreached)
        for view, p in zip(new.views(new.data).values(), new.params.values()):
            p.data = view
        new._grad_views = list(new.views(new.grad).values())
        return new

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Each parameter's view, in its shape, into `flat`, a vector of this layout."""
        return {k: flat[s].reshape(self.params[k].data.shape) for k, s in self.slices.items()}

    def collect_grads(self) -> list[np.ndarray]:
        """Copy each parameter's tape gradient into its view of `grad` and
        return those views. A parameter the backward pass did not reach
        (grad None) gets zeros there, and its slice is listed in `unreached`."""
        self.unreached = []
        for (k, p), g in zip(self.params.items(), self._grad_views):
            if p.grad is None:
                g[...] = 0.0
                self.unreached.append(self.slices[k])
            else:
                g[...] = p.grad
        return self._grad_views


class Projection(Module):
    """Linear map with no bias."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        self.weight = Tensor(rng.standard_normal((n_in, n_out)) / np.sqrt(n_in), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return tape.matmul(x, self.weight)


class Linear(Projection):
    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        super().__init__(n_in, n_out, rng)
        self.bias = Tensor(np.zeros(n_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return tape.linear(x, self.weight, self.bias)


class MLP(Module):
    """Linear stack with SiLU between layers, run as one tape op (tape.mlp)."""

    def __init__(self, sizes: list[int], rng: np.random.Generator):
        self.layers = [Linear(a, b, rng) for a, b in zip(sizes[:-1], sizes[1:])]

    def __call__(self, x: Tensor) -> Tensor:
        return tape.mlp(x, [layer.weight for layer in self.layers],
                        [layer.bias for layer in self.layers])


# ---------------------------------------------------------------------------
# Toy vector field


class VectorFieldMLP(Module):
    """Velocity field on R^d: input [z, t, sin(2 pi t), cos(2 pi t)]."""

    def __init__(self, dim: int, width: int = 64, depth: int = 2,
                 rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.dim = dim
        self.width = width
        self.depth = depth
        sizes = [dim + 3] + [width] * depth + [dim]
        self.net = MLP(sizes, rng)
        self.buffer = ParamBuffer(self.parameters())

    def __call__(self, z: np.ndarray, t: np.ndarray) -> Tensor:
        z = np.atleast_2d(np.asarray(z, dtype=np.float64))
        t = np.broadcast_to(np.asarray(t, dtype=np.float64).reshape(-1), (z.shape[0],))
        feats = np.concatenate(
            [z, t[:, None], np.sin(2 * np.pi * t)[:, None], np.cos(2 * np.pi * t)[:, None]],
            axis=1,
        )
        return self.net(Tensor(feats))

    def config_dict(self) -> dict:
        return {"dim": self.dim, "width": self.width, "depth": self.depth}


# ---------------------------------------------------------------------------
# CanonLite


@dataclass(frozen=True)
class CanonLiteConfig:
    """CanonLite's sizes, checked when built: every size a positive int
    (a bool is none), pe_scale a finite number > 0 and d_pe even; a
    ValueError names the first field that is not."""

    n_atom_classes: int
    n_charge_classes: int
    n_bond_classes: int = 5
    d_model: int = 64
    n_coord_sets: int = 8
    d_rank: int = 16
    n_layers: int = 3
    d_pe: int = 16
    pe_scale: float = 10000.0
    d_proj: int = 32
    d_msg_hidden: int = 96
    d_edge: int = 16

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            kinds = (int, float) if f.type == "float" else (int,)
            if isinstance(value, bool) or not (isinstance(value, kinds) and 0 < value < np.inf):
                rule = "a finite number > 0" if f.type == "float" else "a positive int"
                raise ValueError(f"net_config {f.name} must be {rule}, got {value!r}")
        if self.d_pe % 2:
            raise ValueError(f"net_config d_pe must be even, got {self.d_pe}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class MoleculeBatch:
    """Molecules packed into one graph; rows follow `layout` (a tape.PairLayout).
    The flow's only molecular state: class indices, unit-scale coordinates."""

    coords: np.ndarray       # (sum N, 3)
    type_idx: np.ndarray     # (sum N,)
    charge_idx: np.ndarray   # (sum N,)
    bond_idx: np.ndarray     # (sum N (N - 1) / 2,) each molecule's i < j pairs (layout.upper)
    layout: tape.PairLayout

    @property
    def n_atoms(self) -> int:
        """Total atoms over the batch."""
        return self.coords.shape[0]

    def select(self, idx) -> "MoleculeBatch":
        """The molecules at positions idx (repeats allowed), packed in that order."""
        lay = self.layout
        idx = np.asarray(idx, dtype=np.int64)
        sizes = lay.sizes[idx]
        n_upper = lay.sizes * (lay.sizes - 1) // 2
        nodes = tape.concat_aranges(lay.node_start[idx], sizes)
        upper = tape.concat_aranges((np.cumsum(n_upper) - n_upper)[idx], n_upper[idx])
        return MoleculeBatch(self.coords[nodes], self.type_idx[nodes], self.charge_idx[nodes],
                             self.bond_idx[upper], tape.PairLayout(sizes))


@dataclass
class Predictions:
    """Heads in the batch's row layout: node rows and i-major pair rows."""

    velocity: Tensor        # (nodes, 3)
    atom_logits: Tensor     # (nodes, Ca)
    charge_logits: Tensor   # (nodes, Cc)
    bond_logits: Tensor     # (upper pairs, Cb): each molecule's i < j pairs, i-major
                            # (PairLayout.upper), from the symmetrized edge features
    rank_pred: Tensor       # (nodes,) min-max normalized per molecule


def _one_hot(idx: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros((len(idx), n))
    out[np.arange(len(idx)), idx] = 1.0
    return out


class _CanonLiteLayer(Module):
    """One message-passing layer. The last layer's rank update would feed no
    head, so it has no rank_update and its message MLP no rank outputs."""

    def __init__(self, cfg: CanonLiteConfig, rng: np.random.Generator, last: bool):
        c = cfg
        self.node_proj = Linear(c.d_model, c.d_proj, rng)
        self.rank_proj = Linear(c.d_rank, c.d_proj, rng)
        msg_in = 4 * c.d_proj + c.n_coord_sets + c.d_edge
        rank_at = c.d_model + c.n_coord_sets
        self.msg_mlp = MLP([msg_in, c.d_msg_hidden, rank_at + c.d_rank + c.d_edge], rng)
        self.node_update = MLP([c.d_model, c.d_model, c.d_model], rng)
        self.rank_update = Linear(c.d_rank, c.d_rank, rng)
        self.edge_update = Linear(c.d_edge, c.d_edge, rng)
        if last:
            # drawn as a rank-updating layer and then cut, so a seed gives the
            # live weights it gave while the last layer still held rank weights
            lin_out = self.msg_mlp.layers[1]
            keep = np.r_[0:rank_at, rank_at + c.d_rank:rank_at + c.d_rank + c.d_edge]
            lin_out.weight = Tensor(lin_out.weight.data[:, keep], requires_grad=True)
            lin_out.bias = Tensor(lin_out.bias.data[keep], requires_grad=True)
            self.rank_update = None


class CanonLiteNet(Module):
    def __init__(self, cfg: CanonLiteConfig, rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.cfg = cfg
        c = cfg
        d_in = c.n_atom_classes + c.n_charge_classes + 1 + c.d_pe
        self.input_mlp = MLP([d_in, c.d_model, c.d_model], rng)
        self.rank_mlp = MLP([c.d_pe, c.d_rank, c.d_rank], rng)
        self.cs_weights = Tensor(rng.standard_normal(c.n_coord_sets), requires_grad=True)
        self.edge_in = Linear(c.n_bond_classes, c.d_edge, rng)
        self.layers = [_CanonLiteLayer(c, rng, last=k == c.n_layers - 1)
                       for k in range(c.n_layers)]
        # learned stand-ins for dropped positional information
        self.fake_pe = Tensor(rng.standard_normal((1, c.d_pe)) * 0.1, requires_grad=True)
        self.head_vel = Tensor(rng.standard_normal(c.n_coord_sets) / np.sqrt(c.n_coord_sets),
                               requires_grad=True)
        self.head_atom = Linear(c.d_model, c.n_atom_classes, rng)
        self.head_charge = Linear(c.d_model, c.n_charge_classes, rng)
        self.head_bond = Linear(c.d_edge, c.n_bond_classes, rng)
        # no bias: the head is min-max normalized per molecule, so a shift cancels
        self.head_rank = Projection(c.d_model, 1, rng)
        self.buffer = ParamBuffer(self.parameters())

    def __call__(self, batch: MoleculeBatch, t, ranks: np.ndarray,
                 pe_dropped=False) -> Predictions:
        """Heads for a MoleculeBatch.

        t and pe_dropped are scalars or one value per molecule; ranks has one
        entry per atom row and is ignored for molecules whose PE is dropped.
        """
        c = self.cfg
        lay = batch.layout
        n_mols = len(lay.sizes)
        pe_data = canonical_pe(np.asarray(ranks, dtype=np.float64), c.d_pe, c.pe_scale)
        drop = np.repeat(np.broadcast_to(np.asarray(pe_dropped, dtype=bool), (n_mols,)),
                         lay.sizes)
        if drop.any():
            pe_data[drop] = 0.0
            pe = tape.add(Tensor(pe_data),
                          tape.matmul(Tensor(drop[:, None].astype(np.float64)), self.fake_pe))
        else:
            pe = Tensor(pe_data)
        t_rows = np.repeat(np.broadcast_to(np.asarray(t, dtype=np.float64), (n_mols,)),
                           lay.sizes)

        node_feats = Tensor(np.concatenate([
            _one_hot(batch.type_idx, c.n_atom_classes),
            _one_hot(batch.charge_idx, c.n_charge_classes),
            t_rows[:, None],
        ], axis=1))
        h = self.input_mlp(tape.concat([node_feats, pe], axis=1))
        r = self.rank_mlp(pe)
        cs = tape.stack_scale(Tensor(batch.coords), self.cs_weights)
        # the first pair stage gathers each pair's edge features from this table
        e, bonds = tape.add(self.edge_in.weight, self.edge_in.bias), lay.symmetric(batch.bond_idx)

        dp = c.d_proj
        coord_at, rank_at = c.d_model, c.d_model + c.n_coord_sets
        for layer in self.layers:
            lin_in, lin_out = layer.msg_mlp.layers
            w_in = lin_in.weight
            # second message layer's output blocks are [node, coord, rank, edge];
            # the last layer has no rank block
            edge_at = lin_out.bias.data.shape[0] - c.d_edge
            pair_cols = np.r_[coord_at:rank_at, edge_at:edge_at + c.d_edge]
            p = layer.node_proj(h)
            q = layer.rank_proj(r)
            # first message layer by input row block [p_i, p_j, q_i, q_j, dots, e]
            from_i = tape.add(tape.linear(p, tape.slice_rows(w_in, 0, dp), lin_in.bias),
                              tape.matmul(q, tape.slice_rows(w_in, 2 * dp, dp)))
            from_j = tape.add(tape.matmul(p, tape.slice_rows(w_in, dp, dp)),
                              tape.matmul(q, tape.slice_rows(w_in, 3 * dp, dp)))
            mean_hidden, delta, e = tape.pair_stage(
                cs, e, from_i, from_j, tape.slice_rows(w_in, 4 * dp, c.n_coord_sets + c.d_edge),
                tape.take_cols(lin_out.weight, pair_cols), tape.take_cols(lin_out.bias, pair_cols),
                layer.edge_update.weight, layer.edge_update.bias, lay, bonds=bonds)
            bonds = None
            # second layer: node and rank messages are only used as means over j
            pooled = lin_out(mean_hidden)
            m_node = tape.take_cols(pooled, slice(0, c.d_model))
            h = tape.add(h, layer.node_update(m_node))
            cs = tape.add(cs, delta)
            if layer.rank_update is not None:
                r = tape.add(r, layer.rank_update(tape.take_cols(pooled, slice(rank_at, edge_at))))

        velocity = tape.stack_mix(cs, self.head_vel)
        bond_logits = self.head_bond(tape.upper_pairs(e, lay))
        rank_pred = tape.minmax_normalize(tape.reshape(self.head_rank(h), (batch.n_atoms,)),
                                          lay.node_start)
        return Predictions(
            velocity=velocity,
            atom_logits=self.head_atom(h),
            charge_logits=self.head_charge(h),
            bond_logits=bond_logits,
            rank_pred=rank_pred,
        )
