"""Molecular state container, XYZ / SDF (V2000 subset) I/O, and stability metrics.

Coordinates are Angstroms. Bond codes: 0 none, 1-3 single/double/triple,
4 aromatic (counted as order 1.5 in valence sums).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

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
        if not np.all(np.isfinite(self.coords)):
            raise ValueError("coords must be finite")
        if np.any(self.bonds != self.bonds.T):
            raise ValueError("bond matrix must be symmetric")
        if np.any(np.diag(self.bonds) != 0):
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


def atoms_only(coords, atom_types, charges=None) -> MoleculeState:
    """Build a bond-free molecule (bond matrix all zeros)."""
    coords = np.asarray(coords, dtype=np.float64)
    n = coords.shape[0]
    if charges is None:
        charges = np.zeros(n, dtype=np.int64)
    return MoleculeState(coords, np.asarray(atom_types), np.asarray(charges), np.zeros((n, n), dtype=np.int64))


def _symbol_to_z(symbol: str, line: int) -> int:
    try:
        return SYMBOL_TO_NUMBER[symbol]
    except KeyError:
        raise ParseError(f"unknown element symbol {symbol!r}", line) from None


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
    coords = np.zeros((n, 3))
    types = np.zeros(n, dtype=np.int64)
    for i, raw in enumerate(atom_lines):
        lineno = 3 + i
        parts = raw.split()
        if len(parts) < 4:
            raise ParseError(f"expected 'symbol x y z', got {raw!r}", lineno)
        types[i] = _symbol_to_z(parts[0], lineno)
        try:
            coords[i] = [float(p) for p in parts[1:4]]
        except ValueError:
            raise ParseError(f"bad coordinate in {raw!r}", lineno) from None
    return atoms_only(coords, types)


def write_xyz(m: MoleculeState, comment: str = "") -> str:
    rows = [str(m.n_atoms), comment]
    for z, xyz in zip(m.atom_types, m.coords):
        sym = NUMBER_TO_SYMBOL.get(int(z), f"Z{int(z)}")
        rows.append(f"{sym} {xyz[0]:.8f} {xyz[1]:.8f} {xyz[2]:.8f}")
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# SDF (V2000 subset: counts line, atom block, bond block, M CHG, M END)


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
    if len(lines) < 4 + n_atoms + n_bonds:
        raise ParseError("file truncated before end of bond block", len(lines))

    coords = np.zeros((n_atoms, 3))
    types = np.zeros(n_atoms, dtype=np.int64)
    charges = np.zeros(n_atoms, dtype=np.int64)
    for i in range(n_atoms):
        lineno = 5 + i
        parts = lines[4 + i].split()
        if len(parts) < 4:
            raise ParseError(f"expected 'x y z symbol', got {lines[4 + i]!r}", lineno)
        try:
            coords[i] = [float(p) for p in parts[:3]]
        except ValueError:
            raise ParseError(f"bad coordinate in {lines[4 + i]!r}", lineno) from None
        types[i] = _symbol_to_z(parts[3], lineno)

    bonds = np.zeros((n_atoms, n_atoms), dtype=np.int64)
    for b in range(n_bonds):
        lineno = 5 + n_atoms + b
        raw = lines[4 + n_atoms + b]
        try:
            # fixed-width aaabbbttt first, whitespace split as fallback
            a1, a2, order = int(raw[0:3]), int(raw[3:6]), int(raw[6:9])
        except (ValueError, IndexError):
            parts = raw.split()
            if len(parts) < 3:
                raise ParseError(f"bad bond line {raw!r}", lineno) from None
            try:
                a1, a2, order = int(parts[0]), int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(f"bad bond line {raw!r}", lineno) from None
        if not (1 <= a1 <= n_atoms and 1 <= a2 <= n_atoms):
            raise ParseError(f"bond references atom out of range: {a1}-{a2}", lineno)
        if a1 == a2:
            raise ParseError(f"self bond on atom {a1}", lineno)
        if not (1 <= order <= AROMATIC):
            raise ParseError(f"bond order {order} outside 1..4", lineno)
        bonds[a1 - 1, a2 - 1] = order
        bonds[a2 - 1, a1 - 1] = order

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
    pairs = [(i, j) for i in range(m.n_atoms) for j in range(i + 1, m.n_atoms) if m.bonds[i, j] > 0]
    rows = [name, "  gaugeflow", "", f"{m.n_atoms:3d}{len(pairs):3d}  0  0  0  0  0  0  0  0999 V2000"]
    for z, xyz in zip(m.atom_types, m.coords):
        sym = NUMBER_TO_SYMBOL.get(int(z), f"Z{int(z)}")
        rows.append(f"{xyz[0]:10.4f}{xyz[1]:10.4f}{xyz[2]:10.4f} {sym:<3s} 0  0  0  0  0  0  0  0  0  0  0  0")
    for i, j in pairs:
        rows.append(f"{i + 1:3d}{j + 1:3d}{int(m.bonds[i, j]):3d}  0  0  0  0")
    charged = [(i, int(c)) for i, c in enumerate(m.charges) if c != 0]
    for start in range(0, len(charged), 8):
        chunk = charged[start:start + 8]
        rows.append("M  CHG" + f"{len(chunk):3d}" + "".join(f"{i + 1:4d}{c:4d}" for i, c in chunk))
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


@dataclass(frozen=True)
class ValenceTable:
    """Charge-resolved allowed valence sets per element."""

    allowed: Mapping[int, Mapping[int, frozenset[int]]] = field(
        default_factory=lambda: _DEFAULT_ALLOWED
    )

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
