"""Molecular state container, XYZ / SDF (V2000 subset) I/O, and stability metrics.

Coordinates are Angstroms. Bond codes: 0 none, 1-3 single/double/triple,
4 aromatic (counted as order 1.5 in valence sums).

The readers convert whole blocks: an atom block's coordinate tokens go
through Python float and its symbols through SYMBOL_TO_NUMBER in one pass
each, and the bond lines (fixed-width aaabbbttt, whitespace-split as a
fallback, checked line by line) become one (n_bonds, 3) table that fills the
bond matrix in one assignment. A malformed file raises ParseError with the
1-based number of its first offending line. The writers format each block
from Python scalars (.tolist()) and take the bonds from the upper triangle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

AROMATIC = 4

SYMBOL_TO_NUMBER = {
    "H": 1, "B": 5, "C": 6, "N": 7, "O": 8, "F": 9, "Na": 11, "Si": 14,
    "P": 15, "S": 16, "Cl": 17, "K": 19, "Br": 35, "I": 53,
}
NUMBER_TO_SYMBOL = {v: k for k, v in SYMBOL_TO_NUMBER.items()}


class ParseError(ValueError):
    """Malformed molecule file; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UnsupportedElementError(KeyError):
    """Element missing from the active valence table.

    A KeyError, so lookups that catch KeyError still catch it; str() is the
    message as written (KeyError's own str() is the repr of its argument)."""

    def __str__(self) -> str:
        return str(self.args[0]) if self.args else ""


@dataclass
class MoleculeState:
    """A molecule: coords (N,3), atomic numbers (N,), formal charges (N,), bonds (N,N)."""

    coords: np.ndarray
    atom_types: np.ndarray
    charges: np.ndarray
    bonds: np.ndarray

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.float64)
        self.atom_types = np.asarray(self.atom_types, dtype=np.int64)
        self.charges = np.asarray(self.charges, dtype=np.int64)
        self.bonds = np.asarray(self.bonds, dtype=np.int64)
        n = self.coords.shape[0]
        if self.coords.ndim != 2 or self.coords.shape[1] != 3:
            raise ValueError(f"coords must be (N, 3), got {self.coords.shape}")
        if n < 1:
            raise ValueError("molecule needs at least one atom")
        if self.atom_types.shape != (n,) or self.charges.shape != (n,):
            raise ValueError("atom_types/charges must be (N,)")
        if self.bonds.shape != (n, n):
            raise ValueError(f"bonds must be (N, N), got {self.bonds.shape}")
        if not np.isfinite(self.coords).all():
            raise ValueError("coords must be finite")
        if (self.bonds != self.bonds.T).any():
            raise ValueError("bond matrix must be symmetric")
        if self.bonds.diagonal().any():
            raise ValueError("bond matrix diagonal must be zero")
        if self.bonds.min() < 0 or self.bonds.max() > AROMATIC:
            raise ValueError("bond codes must lie in {0,1,2,3,4}")

    @property
    def n_atoms(self) -> int:
        return self.coords.shape[0]

    def copy(self) -> "MoleculeState":
        return MoleculeState(
            self.coords.copy(), self.atom_types.copy(),
            self.charges.copy(), self.bonds.copy(),
        )

    def with_coords(self, coords: np.ndarray) -> "MoleculeState":
        return MoleculeState(coords, self.atom_types.copy(), self.charges.copy(), self.bonds.copy())


def atoms_only(coords, atom_types) -> MoleculeState:
    """Build a bond-free, uncharged molecule (bond matrix and charges all
    zeros)."""
    coords = np.asarray(coords, dtype=np.float64)
    n = coords.shape[0]
    return MoleculeState(coords, np.asarray(atom_types), np.zeros(n, dtype=np.int64),
                         np.zeros((n, n), dtype=np.int64))


def _symbols(atom_types: np.ndarray) -> list[str]:
    """Element symbols, "Z<number>" for elements outside the symbol table."""
    return [NUMBER_TO_SYMBOL.get(z, f"Z{z}") for z in atom_types.tolist()]


def _atom_block(raws: list[str], first_line: int, symbol_first: bool) -> tuple[np.ndarray, np.ndarray]:
    """(coords (n, 3), atomic numbers (n,)) of an atom block, one atom per
    line: "symbol x y z" (XYZ) or "x y z symbol" (SDF), further fields
    ignored. Coordinates convert with Python float and must be finite,
    symbols go through SYMBOL_TO_NUMBER; the whole block converts at once,
    and only when that fails are the rows walked to raise the first
    offending row's error."""
    rows = [raw.split() for raw in raws]
    xyz, sym = (slice(1, 4), 0) if symbol_first else (slice(0, 3), 3)
    try:
        if min(map(len, rows)) < 4:
            raise IndexError("an atom row is short")
        coords = np.array(list(map(float, [p for r in rows for p in r[xyz]]))).reshape(-1, 3)
        if not np.isfinite(coords).all():
            raise ValueError("a coordinate is not finite")
        types = np.array([SYMBOL_TO_NUMBER[r[sym]] for r in rows], dtype=np.int64)
    except (ValueError, KeyError, IndexError):
        layout = "symbol x y z" if symbol_first else "x y z symbol"
        for i, (raw, parts) in enumerate(zip(raws, rows)):
            lineno = first_line + i
            if len(parts) < 4:
                raise ParseError(f"expected {layout!r}, got {raw!r}", lineno) from None
            bad_symbol = parts[sym] not in SYMBOL_TO_NUMBER
            try:
                bad_coords = not np.isfinite(list(map(float, parts[xyz]))).all()
            except ValueError:
                bad_coords = True
            # an XYZ row is read symbol first, an SDF row coordinates first
            if bad_symbol and (symbol_first or not bad_coords):
                raise ParseError(f"unknown element symbol {parts[sym]!r}", lineno) from None
            if bad_coords:
                raise ParseError(f"bad coordinate in {raw!r}", lineno) from None
        raise
    return coords, types


# ---------------------------------------------------------------------------
# XYZ


def parse_xyz(text: str) -> MoleculeState:
    """Parse XYZ: line 1 atom count, line 2 comment, then 'symbol x y z' rows."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty file", 1)
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise ParseError(f"expected atom count, got {lines[0]!r}", 1) from None
    if n < 1:
        raise ParseError("atom count must be positive", 1)
    atom_lines = lines[2:]
    # trailing blank lines are tolerated, extra atom rows are not
    while atom_lines and not atom_lines[-1].strip():
        atom_lines.pop()
    if len(atom_lines) != n:
        raise ParseError(f"count says {n} atoms, found {len(atom_lines)}", 2 + len(atom_lines))
    coords, types = _atom_block(atom_lines, 3, symbol_first=True)
    return atoms_only(coords, types)


def write_xyz(m: MoleculeState, comment: str = "") -> str:
    rows = [str(m.n_atoms), comment]
    rows += [f"{sym} {x:.8f} {y:.8f} {z:.8f}"
             for sym, (x, y, z) in zip(_symbols(m.atom_types), m.coords.tolist())]
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# SDF (V2000 subset: counts line, atom block, bond block, M CHG, M END)


def _bond_row(raw: str, n_atoms: int, lineno: int) -> tuple[int, int, int]:
    """(atom 1, atom 2, order) of one bond line, 1-based and checked."""
    try:
        # fixed-width aaabbbttt first, whitespace split as fallback
        a1, a2, order = int(raw[0:3]), int(raw[3:6]), int(raw[6:9])
    except ValueError:
        parts = raw.split()
        try:
            a1, a2, order = int(parts[0]), int(parts[1]), int(parts[2])
        except (ValueError, IndexError):
            raise ParseError(f"bad bond line {raw!r}", lineno) from None
    if not (1 <= a1 <= n_atoms and 1 <= a2 <= n_atoms):
        raise ParseError(f"bond references atom out of range: {a1}-{a2}", lineno)
    if a1 == a2:
        raise ParseError(f"self bond on atom {a1}", lineno)
    if not (1 <= order <= AROMATIC):
        raise ParseError(f"bond order {order} outside 1..4", lineno)
    return a1, a2, order


def parse_sdf(text: str) -> MoleculeState:
    lines = text.splitlines()
    if len(lines) < 4:
        raise ParseError("file shorter than an SDF header", max(1, len(lines)))
    counts = lines[3]
    try:
        n_atoms = int(counts[0:3])
        n_bonds = int(counts[3:6])
    except (ValueError, IndexError):
        raise ParseError(f"bad counts line {counts!r}", 4) from None
    if n_atoms < 1:
        raise ParseError("atom count must be positive", 4)
    if n_bonds < 0:
        raise ParseError("bond count must not be negative", 4)
    if len(lines) < 4 + n_atoms + n_bonds:
        raise ParseError("file truncated before end of bond block", len(lines))

    coords, types = _atom_block(lines[4:4 + n_atoms], 5, symbol_first=False)
    charges = np.zeros(n_atoms, dtype=np.int64)

    # each line is checked as it is read, so the first offending line raises;
    # both directions go in one assignment, in line order, so a bond listed
    # twice takes the order on its last line
    table = np.array([_bond_row(raw, n_atoms, 5 + n_atoms + b)
                      for b, raw in enumerate(lines[4 + n_atoms:4 + n_atoms + n_bonds])],
                     dtype=np.int64).reshape(-1, 3)
    ends = table[:, :2] - 1
    bonds = np.zeros((n_atoms, n_atoms), dtype=np.int64)
    bonds[ends.ravel(), ends[:, ::-1].ravel()] = np.repeat(table[:, 2], 2)

    for j, raw in enumerate(lines[4 + n_atoms + n_bonds:]):
        if raw.startswith("M  CHG"):
            lineno = 5 + n_atoms + n_bonds + j
            parts = raw.split()
            try:
                k = int(parts[2])
                entries = parts[3:3 + 2 * k]
                for idx, chg in zip(entries[0::2], entries[1::2]):
                    charges[int(idx) - 1] = int(chg)
            except (ValueError, IndexError):
                raise ParseError(f"bad charge line {raw!r}", lineno) from None
        if raw.startswith("M  END"):
            break
    return MoleculeState(coords, types, charges, bonds)


def write_sdf(m: MoleculeState, name: str = "") -> str:
    first, second = np.nonzero(np.triu(m.bonds, 1))     # i-major, i < j
    rows = [name, "  gaugeflow", "", f"{m.n_atoms:3d}{len(first):3d}  0  0  0  0  0  0  0  0999 V2000"]
    rows += [f"{x:10.4f}{y:10.4f}{z:10.4f} {sym:<3s} 0  0  0  0  0  0  0  0  0  0  0  0"
             for sym, (x, y, z) in zip(_symbols(m.atom_types), m.coords.tolist())]
    rows += [f"{i:3d}{j:3d}{code:3d}  0  0  0  0" for i, j, code in
             zip((first + 1).tolist(), (second + 1).tolist(), m.bonds[first, second].tolist())]
    charged = np.flatnonzero(m.charges)
    entries = [f"{i:4d}{c:4d}" for i, c in zip((charged + 1).tolist(), m.charges[charged].tolist())]
    for start in range(0, len(entries), 8):
        chunk = entries[start:start + 8]
        rows.append("M  CHG" + f"{len(chunk):3d}" + "".join(chunk))
    rows.append("M  END")
    rows.append("$$$$")
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# Valence table and stability

# Allowed total bond order (aromatic counted 1.5, sum rounded half-up) keyed by
# atomic number, then by formal charge. A pragmatic hand table for common
# organic elements; it is the reference the metrics are defined against, not a
# claim about all of chemistry.
_DEFAULT_ALLOWED: dict[int, dict[int, frozenset[int]]] = {
    1:  {0: frozenset({1}), 1: frozenset({0}), -1: frozenset({0})},          # H
    5:  {0: frozenset({3}), -1: frozenset({4})},                             # B
    6:  {0: frozenset({4}), 1: frozenset({3}), -1: frozenset({3})},          # C
    7:  {0: frozenset({3}), 1: frozenset({4}), -1: frozenset({2})},          # N
    8:  {0: frozenset({2}), 1: frozenset({3}), -1: frozenset({1})},          # O
    9:  {0: frozenset({1}), -1: frozenset({0})},                             # F
    15: {0: frozenset({3, 5}), 1: frozenset({4}), -1: frozenset({2})},       # P
    16: {0: frozenset({2, 4, 6}), 1: frozenset({3, 5}), -1: frozenset({1})}, # S
    17: {0: frozenset({1}), 1: frozenset({2}), -1: frozenset({0})},          # Cl
    35: {0: frozenset({1}), 1: frozenset({2}), -1: frozenset({0})},          # Br
    53: {0: frozenset({1, 3, 5, 7}), 1: frozenset({2}), -1: frozenset({0})}, # I
}


class ValenceTable:
    """Charge-resolved allowed valence sets per element: `allowed` maps an
    atomic number to its charges and each charge to its valence totals."""

    allowed = _DEFAULT_ALLOWED

    def allowed_valences(self, atomic_number: int, charge: int) -> frozenset[int]:
        """Allowed totals for (element, charge); empty set when the charge state is unlisted."""
        try:
            per_charge = self.allowed[int(atomic_number)]
        except KeyError:
            sym = NUMBER_TO_SYMBOL.get(int(atomic_number), f"Z={atomic_number}")
            raise UnsupportedElementError(f"element {sym} not in valence table") from None
        return per_charge.get(int(charge), frozenset())


def bond_order_sums(m: MoleculeState) -> np.ndarray:
    """Per-atom total bond order, aromatic = 1.5, rounded half-up to an int."""
    doubled = np.where(m.bonds == AROMATIC, 3, 2 * m.bonds).sum(axis=1)
    return (doubled + 1) // 2


def stability(m: MoleculeState, table: ValenceTable | None = None) -> tuple[np.ndarray, bool]:
    """(per-atom stable flags, whole-molecule flag) under the valence table."""
    table = table or ValenceTable()
    totals = bond_order_sums(m)
    flags = np.zeros(m.n_atoms, dtype=bool)
    for i in range(m.n_atoms):
        flags[i] = int(totals[i]) in table.allowed_valences(int(m.atom_types[i]), int(m.charges[i]))
    return flags, bool(flags.all())


# ---------------------------------------------------------------------------
# Uniqueness


def fingerprint(m: MoleculeState) -> tuple:
    """Permutation-invariant molecule key.

    Sorted multiset of per-atom (atomic number, charge, sorted incident bond
    codes) plus the sorted eigenvalue spectrum of the bond-order matrix
    (aromatic as 1.5) rounded to 1e-6. Isomorphic relabelings collide by
    construction; the spectrum separates most non-isomorphic graphs that the
    atom multiset alone would merge.
    """
    atoms = []
    for i in range(m.n_atoms):
        incident = tuple(sorted(int(b) for b in m.bonds[i] if b > 0))
        atoms.append((int(m.atom_types[i]), int(m.charges[i]), incident))
    order_matrix = np.where(m.bonds == AROMATIC, 1.5, m.bonds.astype(np.float64))
    spectrum = tuple(np.round(np.linalg.eigvalsh(order_matrix), 6).tolist())
    return (tuple(sorted(atoms)), spectrum)


def uniqueness(mols: Iterable[MoleculeState]) -> float:
    """Fraction of distinct fingerprints among the given molecules."""
    mols = list(mols)
    if not mols:
        return 0.0
    return len({fingerprint(m) for m in mols}) / len(mols)


@dataclass
class MetricsReport:
    atom_stability: float
    mol_stability: float
    uniqueness: float
    n_samples: int

    def to_dict(self) -> dict:
        return {
            "atom_stability": self.atom_stability,
            "mol_stability": self.mol_stability,
            "uniqueness": self.uniqueness,
            "n_samples": self.n_samples,
        }


def compute_metrics(mols: Iterable[MoleculeState], table: ValenceTable | None = None) -> MetricsReport:
    mols = list(mols)
    if not mols:
        return MetricsReport(0.0, 0.0, 0.0, 0)
    table = table or ValenceTable()
    atom_flags = []
    mol_flags = []
    for m in mols:
        flags, whole = stability(m, table)
        atom_flags.append(flags)
        mol_flags.append(whole)
    all_atoms = np.concatenate(atom_flags)
    return MetricsReport(
        atom_stability=float(all_atoms.mean()),
        mol_stability=float(np.mean(mol_flags)),
        uniqueness=uniqueness(mols),
        n_samples=len(mols),
    )
