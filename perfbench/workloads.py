"""The four benchmark workloads.

Each workload builds its inputs from the seed (not timed, not part of set-up),
runs the program-side preparation that set-up time covers, and then exposes a
fixed cycle of ops: one pass through the workload's mix. An op is one closed-
loop call into the package's public API, made as the CLI or the library
examples make it; its check runs outside the timed region and returns the
problems it found. Checks use the benchmark's own numpy code, never the
program's, so they neither trust the code under test nor add traced spans.
"""

from __future__ import annotations

import os

import numpy as np

from gaugeflow import canonicalizer, molecule, sampler, symgroup, theorylab
from gaugeflow.flowcore import toydata, training
from gaugeflow.flowcore.training import TrainConfig

# all present in the program's default valence table, so stability() never raises
ELEMENTS = np.array([1, 6, 6, 6, 7, 8, 9, 16])
SYMBOLS = {1: "H", 6: "C", 7: "N", 8: "O", 9: "F", 16: "S"}
CLIP = 1e3       # sampler.euler_step clips coordinates to +-CLIP


# ---------------------------------------------------------------------------
# Inputs


def random_molecule(rng: np.random.Generator, n: int) -> molecule.MoleculeState:
    """Connected molecule: Gaussian cloud of std n^(1/3) angstrom, the scale
    of the SDF files the CLI reads, each atom bonded to its nearest
    predecessor, n // 8 extra double bonds, n // 16 charged atoms."""
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
    return molecule.MoleculeState(coords, rng.choice(ELEMENTS, n), charges, bonds)


def sdf_text(m: molecule.MoleculeState) -> str:
    """V2000 text with 10-decimal coordinates, so two gauges of one molecule
    differ by rounding far below the representative comparison tolerance."""
    pairs = [(i, j) for i in range(m.n_atoms) for j in range(i + 1, m.n_atoms) if m.bonds[i, j]]
    rows = ["", "  perfbench", "", f"{m.n_atoms:3d}{len(pairs):3d}  0  0  0  0  0  0  0  0999 V2000"]
    rows += [f"{x:.10f} {y:.10f} {z:.10f} {SYMBOLS[int(t)]} 0 0 0 0 0 0 0 0 0 0 0 0"
             for (x, y, z), t in zip(m.coords, m.atom_types)]
    rows += [f"{i + 1:3d}{j + 1:3d}{int(m.bonds[i, j]):3d}  0  0  0  0" for i, j in pairs]
    rows += [f"M  CHG  1{i + 1:4d}{int(c):4d}" for i, c in enumerate(m.charges) if c]
    return "\n".join(rows + ["M  END", "$$$$"]) + "\n"


def haar_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def apply_gauge(m, perm, rot, trans):
    """(coords, types, charges, bonds) of act((perm, rot, trans), m)."""
    return (m.coords[perm] @ rot.T + trans, m.atom_types[perm], m.charges[perm],
            m.bonds[np.ix_(perm, perm)])


def same_molecule(a, b, tol: float) -> str | None:
    """None when two (coords, types, charges, bonds) tuples agree."""
    for name, x, y in zip(("types", "charges", "bonds"), a[1:], b[1:]):
        if not np.array_equal(x, y):
            return f"{name} differ"
    err = float(np.abs(a[0] - b[0]).max())
    return None if err <= tol else f"coordinates differ by {err:.3g}"


def as_tuple(m: molecule.MoleculeState):
    return m.coords, m.atom_types, m.charges, m.bonds


def read_back_sdf(text: str):
    """Independent reader for the V2000 text the program writes."""
    lines = text.splitlines()
    n, nb = int(lines[3][0:3]), int(lines[3][3:6])
    z_of = {s: z for z, s in SYMBOLS.items()}
    atoms = [ln.split() for ln in lines[4:4 + n]]
    coords = np.array([[float(v) for v in a[:3]] for a in atoms])
    types = np.array([z_of[a[3]] for a in atoms])
    bonds = np.zeros((n, n), dtype=np.int64)
    for ln in lines[4 + n:4 + n + nb]:
        i, j, k = int(ln[0:3]) - 1, int(ln[3:6]) - 1, int(ln[6:9])
        bonds[i, j] = bonds[j, i] = k
    charges = np.zeros(n, dtype=np.int64)
    for ln in lines[4 + n + nb:]:
        if ln.startswith("M  CHG"):
            f = ln.split()
            for idx, c in zip(f[3::2], f[4::2]):
                charges[int(idx) - 1] = int(c)
    return coords, types, charges, bonds


def molecule_set(rng: np.random.Generator, count: int, n_lo: int, n_hi: int):
    """Molecules with sizes spaced evenly over [n_lo, n_hi] in index order, so
    a fixed training seed draws the same size mix whatever the input seed."""
    sizes = [n_lo + (n_hi - n_lo) * i // max(count - 1, 1) for i in range(count)]
    return [random_molecule(rng, n) for n in sizes]


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    name = ""
    items = ""                  # what items_per_ref and items_per_s count
    aliases: dict[str, str] = {}   # generic metric -> the workload's own name for it

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed = seed
        self.counters: dict[str, float] = {}

    def prepare(self) -> None:
        """Program-side preparation covered by setup_s."""

    def cycle(self, index: int) -> list:
        """Op specs for pass `index` through the mix."""
        return [index]

    def run(self, spec):
        raise NotImplementedError

    def check(self, spec, out) -> list[str]:
        raise NotImplementedError

    def timings(self, spec, out, seconds: float) -> list[tuple]:
        """(key, seconds, items) for the timed parts of one op. A key's time
        is its median over the run; items count toward the throughput."""
        return [(spec, seconds, 1.0)]

    def op_times(self, typical: dict) -> list[float]:
        """Time of each op in the cycle, from the per-key median times."""
        return list(typical.values())

    def figures(self, typical: dict) -> dict[str, tuple[float, str]]:
        """Named figures beyond the generic metrics."""
        return {}

    def exact_counters(self) -> dict[str, float]:
        """Counters derived from returned values, by metric name."""
        if "canonicalizer.results" not in self.counters:
            return {}
        return {"canonicalizer.degenerate_frac":
                self._frac("canonicalizer.degenerate", "canonicalizer.results")}

    def count(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def _frac(self, part: str, whole: str) -> float:
        total = self.counters.get(whole, 0.0)
        return self.counters.get(part, 0.0) / total if total else 0.0


def canonical_training_set(mols, owner: Workload):
    """What cli._load_training_data does with a molecule directory; the
    degenerate flags it drops are counted here."""
    results = [canonicalizer.canonicalize(m, group="perm_so3") for m in mols]
    owner.counters["canonicalizer.results"] = len(results)
    owner.counters["canonicalizer.degenerate"] = sum(r.degenerate for r in results)
    return [r.representative for r in results]


class Canon(Workload):
    """parse_sdf -> canonicalize -> write_sdf on SDF text, one molecule per op."""

    name = "canon"
    items = "molecules"
    aliases = {"items_per_s": "canon_mols_per_s", "op_ms_p50": "canon_ms_p50",
               "op_ms_p90": "canon_ms_p90"}
    # bases per size; with these proportions the op-time median falls inside
    # the N=16 spectral group and the p90 inside the N=64 spectral group, not
    # on a boundary between groups of different cost. The percentiles pick
    # single molecules, so the counts are large enough that a seed's draw of
    # molecules moves them little
    SIZES = {8: 32, 16: 48, 32: 24, 64: 24}
    MULTIHOP = {8: 8, 16: 12, 32: 4, 64: 8}      # one quarter of the bases

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        rng = np.random.default_rng([seed, 1])
        sizes, multihop = ({8: 2, 16: 1, 32: 1}, {8: 1}) if smoke else (self.SIZES, self.MULTIHOP)
        self.ops = []
        for n, count in sizes.items():
            for b in range(count):
                base = random_molecule(rng, n)
                group = ("perm", "multihop") if b < multihop.get(n, 0) else ("perm_so3", "spectral")
                for copy in range(2):
                    gauge = (rng.permutation(n), haar_rotation(rng), 5.0 * rng.standard_normal(3))
                    text = sdf_text(molecule.MoleculeState(*apply_gauge(base, *gauge)))
                    self.ops.append((len(self.ops) // 2, copy, n, group, text))
        self.inject_fault = False
        self.first_copy: dict[int, tuple] = {}

    def cycle(self, index):
        return self.ops

    def timings(self, spec, out, seconds):
        return [(spec[:2], seconds, 1.0)]

    def run(self, spec):
        _, _, _, (group, ordering), text = spec
        mol = molecule.parse_sdf(text)
        result = canonicalizer.canonicalize(mol, group=group, ordering=ordering)
        return mol, result, molecule.write_sdf(result.representative)

    def check(self, spec, out):
        base, copy, n, (group, _), _ = spec
        mol, res, text = out
        rep, perm = res.representative, res.gauge.perm
        if self.inject_fault:
            self.inject_fault = False
            perm = np.roll(perm, 1)
        self.count("canonicalizer.results", 1)
        self.count("canonicalizer.degenerate", int(res.degenerate))
        problems = []
        err = same_molecule(apply_gauge(rep, perm, res.gauge.rot, res.gauge.trans),
                            as_tuple(mol), 1e-8)
        if err:
            problems.append(f"act(gauge, representative) != input: {err}")
        err = same_molecule(read_back_sdf(text), as_tuple(rep), 1e-4)
        if err:
            problems.append(f"write_sdf output != representative: {err}")
        if copy == 0:
            self.first_copy[base] = (rep, res.degenerate)
            return problems
        other, other_degenerate = self.first_copy.pop(base, (None, True))
        if not (res.degenerate or other_degenerate):
            a, b = as_tuple(rep), as_tuple(other)
            if group == "perm":          # rotation is not fixed: compare distances
                a = (np.linalg.norm(a[0][:, None] - a[0][None], axis=-1),) + a[1:]
                b = (np.linalg.norm(b[0][:, None] - b[0][None], axis=-1),) + b[1:]
            err = same_molecule(a, b, 1e-6)
            if err:
                problems.append(f"two gauges of base {base} (N={n}) disagree: {err}")
        return problems


class MolTrain(Workload):
    """flowcore.training.train on canonicalized molecules, default CanonLite."""

    name = "mol-train"
    items = "optimizer steps"
    aliases = {"items_per_s": "mol_train_steps_per_s"}

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        rng = np.random.default_rng([seed, 2])
        if smoke:
            self.mols = molecule_set(rng, 8, 6, 10)
            self.cfg = TrainConfig(epochs=1, steps_per_epoch=1, batch_size=4)
        else:
            self.mols = molecule_set(rng, 64, 8, 32)
            self.cfg = TrainConfig(epochs=1, steps_per_epoch=4, batch_size=16)
        self.reference = None

    def prepare(self):
        self.data = canonical_training_set(self.mols, self)

    def run(self, spec):
        return training.train(self.data, self.cfg)

    def check(self, spec, out):
        model, trace = out
        problems = []
        if len(trace) != self.cfg.epochs or not all(
                np.isfinite(v) for row in trace for v in row.values()):
            problems.append(f"trace not finite or wrong length: {trace}")
        state = [p.data for p in model.parameters().values()] + list(model.ema.values())
        if self.reference is None:
            self.reference = state
        elif not all(np.array_equal(a, b) for a, b in zip(state, self.reference)):
            problems.append("same-seed train() gave different final parameters")
        return problems

    def timings(self, spec, out, seconds):
        return [("train", seconds, float(out[0].step))]


class MolSample(Workload):
    """sampler.sample requests of 8 molecules, then stability scoring."""

    name = "mol-sample"
    items = "molecules"
    aliases = {"items_per_s": "mol_sample_mols_per_s", "op_ms_p50": "mol_sample_ms_p50",
               "op_ms_p90": "mol_sample_ms_p90"}
    # (N, SampleConfig fields): four of six requests are regime a at
    # cfg_scale 1, one of them with Haar randomization
    MIX = [(8, {}), (16, {}), (32, {}), (8, {"cfg_scale": 2.0}),
           (8, {"regime": "b", "canonicalize_mode": True}), (16, {"group": "perm_so3"})]

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        rng = np.random.default_rng([seed, 3])
        if smoke:
            mols = molecule_set(rng, 8, 6, 10)
            cfg = TrainConfig(epochs=1, steps_per_epoch=2, batch_size=4)
            self.n_samples, self.steps = 2, 2
            self.mix = [(6, kw) for _, kw in self.MIX[2:]]
        else:
            mols = molecule_set(rng, 48, 8, 32)
            cfg = TrainConfig(epochs=2, steps_per_epoch=10, batch_size=8, lr=1e-3, warmup_steps=5)
            self.n_samples, self.steps = 8, 10
            self.mix = self.MIX
        # the checkpoint is an input: trained here, outside set-up and timing
        model, _ = training.train(canonical_training_set(mols, self), cfg)
        self.path = os.path.join(workdir, "checkpoint.json")
        model.save(self.path)
        self.vocab = model.meta["vocab"]
        self.counters.clear()

    def prepare(self):
        self.model = training.FlowModel.load(self.path)
        self.model.load_ema()

    def cycle(self, index):
        return [(index, j, n, dict(kw, steps=self.steps)) for j, (n, kw) in enumerate(self.mix)]

    def run(self, spec):
        index, j, n, kw = spec
        rng = np.random.default_rng([self.seed, 4, index, j])
        mols, info = sampler.sample(self.model, n, self.n_samples, sampler.SampleConfig(**kw), rng=rng)
        table = molecule.ValenceTable()
        return mols, info, [molecule.stability(m, table)[1] for m in mols]

    def check(self, spec, out):
        _, _, n, kw = spec
        mols, info, _ = out
        problems = []
        regime_b = kw.get("regime") == "b" and kw.get("canonicalize_mode", False)
        want_calls = self.steps * self.n_samples if regime_b else 0
        if info["canonicalize_calls"] != want_calls:
            problems.append(f"canonicalize_calls {info['canonicalize_calls']} != {want_calls}")
        if len(mols) != self.n_samples or any(m.n_atoms != n for m in mols):
            problems.append("wrong number or size of molecules")
        coords = np.concatenate([m.coords for m in mols])
        if not np.isfinite(coords).all():
            problems.append("non-finite coordinates")
        if not all(np.isin(m.atom_types, self.vocab["atom_classes"]).all()
                   and np.isin(m.charges, self.vocab["charge_classes"]).all() for m in mols):
            problems.append("atom or charge class outside the vocabulary")
        self.count("sampler.canonicalize_calls", info["canonicalize_calls"])
        self.count("sampler.regime_b_steps", want_calls)
        self.count("sampler.clipped_coords", int((np.abs(coords) >= CLIP).sum()))
        return problems

    def timings(self, spec, out, seconds):
        return [(spec[1], seconds, float(self.n_samples))]

    def exact_counters(self):
        return {k: self.counters.get(k, 0.0)
                for k in ("sampler.canonicalize_calls", "sampler.clipped_coords")}


class ToyTheory(Workload):
    """One stage per op: toy training without and with exact OT, C4 sampling
    from the no-OT model, and the default theory battery, as `gaugeflow train
    --data c4-canonical`, `gaugeflow sample` and `gaugeflow verify-theory` do.
    A round is one op of each stage."""

    name = "toy-theory"
    items = "toy training steps, both arms"
    STAGES = ("train_none", "train_exact", "sample", "battery")
    # the battery takes about 15 times as long as one training arm; a cycle
    # repeats the arms so that their medians rest on several calls per run
    ARM_REPEATS = 3

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.blobs = toydata.c4_blobs(2000, np.random.default_rng([seed, 9]))
        # the two arms take about the same time, so both move the throughput
        if smoke:
            steps, self.n_points, self.suite = (10, 2), 256, {"n_mc": 10_000}
        else:
            steps, self.n_points, self.suite = (250, 12), 8192, {}
        self.cfgs = {f"train_{ot}": TrainConfig(epochs=1, steps_per_epoch=n, batch_size=256,
                                                 ot_mode=ot, seed=seed)
                     for n, ot in zip(steps, ("none", "exact"))}
        self.plain = None

    def prepare(self):
        self.data = toydata.sector_canonicalize(self.blobs)[0]
        self.c4 = symgroup.c4_group()

    def cycle(self, index):
        stages = self.STAGES[:2] * self.ARM_REPEATS + self.STAGES[2:]
        return [(index, stage) for stage in stages]

    def run(self, spec):
        index, stage = spec
        if stage in self.cfgs:
            return training.train(self.data, self.cfgs[stage])
        if stage == "sample":
            self.plain.load_ema()
            rng = np.random.default_rng([self.seed, 5, index])
            z = sampler.sample_vectors(self.plain, self.n_points, sampler.SampleConfig(), rng=rng)
            return sampler.finite_group_randomize(z, self.c4, rng)
        return theorylab.run_default_suite(seed=self.seed, **self.suite)

    def check(self, spec, out):
        stage = spec[1]
        if stage in self.cfgs:
            model, trace = out
            if stage == "train_none":
                self.plain = model
            finite = all(np.isfinite(v) for row in trace for v in row.values())
            return [] if finite else [f"{stage} trace not finite: {trace}"]
        if stage == "sample":
            ok = out.shape == (self.n_points, 2) and np.isfinite(out).all()
            return [] if ok else ["toy samples not finite or of the wrong shape"]
        self.count("theorylab.checks", len(out.checks))
        self.count("theorylab.passed", sum(bool(c.passed) for c in out.checks))
        n = len(out.checks)
        return [] if n == 15 else [f"theory battery ran {n} checks, expected 15"]

    def timings(self, spec, out, seconds):
        cfg = self.cfgs.get(spec[1])
        return [(spec[1], seconds, float(cfg.steps_per_epoch) if cfg else 0.0)]

    def op_times(self, typical):
        return [sum(typical.values())]      # the round is the op users see

    def figures(self, typical):
        if len(typical) < len(self.STAGES):
            return {}
        steps = {k: c.steps_per_epoch for k, c in self.cfgs.items()}
        return {"toy_train_steps_per_s": (steps["train_none"] / typical["train_none"], "1/s"),
                "toy_ot_train_steps_per_s": (steps["train_exact"] / typical["train_exact"], "1/s"),
                "toy_sample_points_per_s": (self.n_points / typical["sample"], "1/s"),
                "theory_battery_s": (typical["battery"], "s")}

    def exact_counters(self):
        return {"theorylab.checks_passed_frac": self._frac("theorylab.passed", "theorylab.checks")}


WORKLOADS = {w.name: w for w in (Canon, MolTrain, MolSample, ToyTheory)}
