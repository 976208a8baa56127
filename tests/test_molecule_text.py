"""The SDF / XYZ text contract: exact reader errors (line and message) and
golden writer output."""

import numpy as np
import pytest

from gaugeflow.molecule import MoleculeState, ParseError, parse_sdf, parse_xyz, write_sdf, write_xyz

ATOMS = [
    "    0.0000    0.0000    0.0000 C   0  0  0",
    "    1.5000    0.0000    0.0000 O   0  0  0",
    "   -1.5000    0.0000    0.0000 N   0  0  0",
]
BONDS = ["  1  2  1  0", "  1  3  2  0"]


def sdf(atoms=ATOMS, bonds=BONDS, tail=("M  END", "$$$$"), counts=None):
    """Header on lines 1-3, counts on line 4, atoms from line 5, then bonds."""
    if counts is None:
        counts = f"{len(atoms):3d}{len(bonds):3d}  0  0  0  0  0  0  0  0999 V2000"
    return "\n".join(["name", "  test", "", counts, *atoms, *bonds, *tail]) + "\n"


def with_row(rows, index, row):
    return [row if k == index else r for k, r in enumerate(rows)]


# (text, line, message): the atom rows sit on lines 5-7, the bond rows on 8-9
SDF_ERRORS = {
    "short header": ("name\n  test\n\n", 3, "file shorter than an SDF header"),
    "bad counts": (sdf(counts="xx"), 4, "bad counts line 'xx'"),
    "no atoms": (sdf(counts="  0  0  0  0  0  0  0  0  0  0999 V2000"), 4,
                 "atom count must be positive"),
    "truncated bonds": (sdf(bonds=BONDS[:1], tail=(),
                            counts="  3  2  0  0  0  0  0  0  0  0999 V2000"), 8,
                        "file truncated before end of bond block"),
    "short atom row": (sdf(with_row(ATOMS, 2, "   -1.5000    0.0000    0.0000")), 7,
                       "expected 'x y z symbol', got '   -1.5000    0.0000    0.0000'"),
    "bad coordinate": (sdf(with_row(ATOMS, 2, "   -1.5000    0.0x00    0.0000 N   0")), 7,
                       "bad coordinate in '   -1.5000    0.0x00    0.0000 N   0'"),
    "unknown symbol": (sdf(with_row(ATOMS, 2, "   -1.5000    0.0000    0.0000 Xx  0")), 7,
                       "unknown element symbol 'Xx'"),
    # coordinates are read before the symbol on one SDF row
    "bad coordinate and symbol": (sdf(with_row(ATOMS, 2, "   -1.5000    0.0x00    0.0000 Xx")), 7,
                                  "bad coordinate in '   -1.5000    0.0x00    0.0000 Xx'"),
    # the first offending row wins, whatever its fault
    "first bad atom row": (sdf(ATOMS[:1] + ["    1.5000    0.0000    0.0000 Qq  0",
                                            "   -1.5000    0.0000"]), 6,
                           "unknown element symbol 'Qq'"),
    "bad bond line": (sdf(bonds=with_row(BONDS, 1, "  1  x  2")), 9, "bad bond line '  1  x  2'"),
    "short bond line": (sdf(bonds=with_row(BONDS, 1, "1 3")), 9, "bad bond line '1 3'"),
    "bond out of range": (sdf(bonds=with_row(BONDS, 1, "  1  4  1")), 9,
                          "bond references atom out of range: 1-4"),
    "bond to atom zero": (sdf(bonds=with_row(BONDS, 1, "  0  2  1")), 9,
                          "bond references atom out of range: 0-2"),
    "self bond": (sdf(bonds=with_row(BONDS, 1, "  2  2  1")), 9, "self bond on atom 2"),
    "bond order 5": (sdf(bonds=with_row(BONDS, 1, "  1  3  5")), 9, "bond order 5 outside 1..4"),
    "bond order 0": (sdf(bonds=with_row(BONDS, 1, "  1  3  0")), 9, "bond order 0 outside 1..4"),
    "first bad bond line": (sdf(bonds=[BONDS[0], "  1  3  7", "  x"]), 9,
                            "bond order 7 outside 1..4"),
    "bad charge line": (sdf(tail=("M  CHG  1   2   1", "M  CHG  1   x   1", "M  END")), 11,
                        "bad charge line 'M  CHG  1   x   1'"),
    "charge on a missing atom": (sdf(tail=("M  CHG  1   2   1", "M  CHG  1   4   1", "M  END")), 11,
                                 "bad charge line 'M  CHG  1   4   1'"),
    "negative bond count": (sdf(counts="  2 -1"), 4, "bond count must not be negative"),
    "negative bond count, one atom row": (sdf(ATOMS[:1], bonds=[], tail=(), counts="  3 -5"), 4,
                                          "bond count must not be negative"),
    "nan coordinate": (sdf(with_row(ATOMS, 0, "       nan    0.0000    0.0000 C   0")), 5,
                       "bad coordinate in '       nan    0.0000    0.0000 C   0'"),
    # a non-finite coordinate is an offending row like any other: the first one wins
    "inf before unknown symbol": (sdf(ATOMS[:1] + ["       inf    0.0000    0.0000 O   0",
                                                   "   -1.5000    0.0000    0.0000 Qq  0"]), 6,
                                  "bad coordinate in '       inf    0.0000    0.0000 O   0'"),
}

XYZ_ATOMS = ["C 0.0 0.0 0.0", "O 1.5 0.0 0.0", "N -1.5 0.0 0.0"]


def xyz(atoms=XYZ_ATOMS, count=None, tail=""):
    head = str(len(atoms)) if count is None else count
    return "\n".join([head, "comment", *atoms]) + "\n" + tail


# the atom rows sit on lines 3-5
XYZ_ERRORS = {
    "empty": ("", 1, "empty file"),
    "bad count": (xyz(count="not a count"), 1, "expected atom count, got 'not a count'"),
    "no atoms": (xyz(count="0"), 1, "atom count must be positive"),
    "too few rows": (xyz(XYZ_ATOMS[:2], count="3"), 4, "count says 3 atoms, found 2"),
    "extra rows": (xyz(count="2"), 5, "count says 2 atoms, found 3"),
    "short row": (xyz(with_row(XYZ_ATOMS, 2, "N -1.5 0.0")), 5,
                  "expected 'symbol x y z', got 'N -1.5 0.0'"),
    "unknown symbol": (xyz(with_row(XYZ_ATOMS, 2, "Xx -1.5 0.0 0.0")), 5,
                       "unknown element symbol 'Xx'"),
    "bad coordinate": (xyz(with_row(XYZ_ATOMS, 2, "N -1.5 y 0.0")), 5,
                       "bad coordinate in 'N -1.5 y 0.0'"),
    # the symbol is read before the coordinates on one XYZ row
    "bad symbol and coordinate": (xyz(with_row(XYZ_ATOMS, 2, "Xx -1.5 y 0.0")), 5,
                                  "unknown element symbol 'Xx'"),
    "first bad row": (xyz(XYZ_ATOMS[:1] + ["O 1.5 0.0 z", "Qq 0 0 0"]), 4,
                      "bad coordinate in 'O 1.5 0.0 z'"),
    "inf coordinate": (xyz(with_row(XYZ_ATOMS, 1, "O 1.5 inf 0.0")), 4,
                       "bad coordinate in 'O 1.5 inf 0.0'"),
    "-inf after nan": (xyz(with_row(XYZ_ATOMS, 2, "N -inf 0.0 NaN")), 5,
                       "bad coordinate in 'N -inf 0.0 NaN'"),
}


@pytest.mark.parametrize(("parse", "text", "line", "message"), [
    *[pytest.param(parse_sdf, *case, id=f"sdf-{name}") for name, case in SDF_ERRORS.items()],
    *[pytest.param(parse_xyz, *case, id=f"xyz-{name}") for name, case in XYZ_ERRORS.items()],
])
def test_reader_error_line_and_message(parse, text, line, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.line == line
    assert str(info.value) == f"line {line}: {message}"


def test_sdf_bond_line_falls_back_to_whitespace_fields():
    # "1 3" is not a fixed-width atom index; the whitespace split reads 1, 3, 2
    m = parse_sdf(sdf(bonds=[BONDS[0], "1 3 2"]))
    assert m.bonds[0, 2] == m.bonds[2, 0] == 2
    assert m.bonds[0, 1] == m.bonds[1, 0] == 1
    assert int((m.bonds > 0).sum()) == 4


def test_sdf_repeated_bond_keeps_the_last_line():
    m = parse_sdf(sdf(bonds=["  1  2  1", "  2  1  3", "  1  3  2"]))
    assert m.bonds[0, 1] == m.bonds[1, 0] == 3


def test_sdf_reads_atoms_charges_and_accepted_tokens():
    atoms = ["1e0 -0 +2.5 C", " 1_0.5  0.0  0.25 O", "-1.5 0 0 N 0 0"]
    m = parse_sdf(sdf(atoms, tail=("M  CHG  2   1  -1   3   1", "M  END", "M  CHG  1   2   1")))
    assert m.coords.tolist() == [[1.0, -0.0, 2.5], [10.5, 0.0, 0.25], [-1.5, 0.0, 0.0]]
    assert m.atom_types.tolist() == [6, 8, 7]
    assert m.charges.tolist() == [-1, 0, 1]       # nothing is read after M  END


def test_xyz_tolerates_trailing_blank_lines():
    m = parse_xyz(xyz(tail="\n  \n"))
    assert m.atom_types.tolist() == [6, 8, 7]
    assert m.coords[1].tolist() == [1.5, 0.0, 0.0]


def golden_molecule() -> MoleculeState:
    """10 charged atoms, aromatic bonds, iron (outside the symbol table) and
    coordinates that need rounding, negative zero among them."""
    coords = np.array([
        [0.0, -0.0, 1.23456789],
        [-0.00004, 2.000049999, -3.14159265],
        [12.345678912, -0.5, 0.00005],
        [-1.00000001, 0.99999, -7.25],
        [3.3, -2.2, 1.1],
        [-0.000000004, 0.125, -10.0625],
        [5.5, 5.55, 5.555],
        [-4.44444, 0.0, 2.71828183],
        [0.33333333, -0.66666667, 99.99995],
        [-12.0, 8.8, -0.10005],
        [1.0, 1.0, -1.0],
        [0.7, -0.3, 0.45],
    ])
    types = np.array([6, 7, 8, 26, 1, 16, 6, 9, 17, 6, 35, 1])
    charges = np.array([1, -1, 2, -2, 0, 1, 1, -1, 1, -1, 1, 0])
    bonds = np.zeros((12, 12), dtype=np.int64)
    for i, j, b in [(0, 1, 1), (1, 2, 2), (2, 3, 3), (0, 6, 4), (6, 9, 4), (4, 11, 1),
                    (5, 7, 1), (3, 8, 1), (9, 10, 2)]:
        bonds[i, j] = bonds[j, i] = b
    return MoleculeState(coords, types, charges, bonds)


GOLDEN_SDF = """\
golden
  gaugeflow

 12  9  0  0  0  0  0  0  0  0999 V2000
    0.0000   -0.0000    1.2346 C   0  0  0  0  0  0  0  0  0  0  0  0
   -0.0000    2.0000   -3.1416 N   0  0  0  0  0  0  0  0  0  0  0  0
   12.3457   -0.5000    0.0001 O   0  0  0  0  0  0  0  0  0  0  0  0
   -1.0000    1.0000   -7.2500 Z26 0  0  0  0  0  0  0  0  0  0  0  0
    3.3000   -2.2000    1.1000 H   0  0  0  0  0  0  0  0  0  0  0  0
   -0.0000    0.1250  -10.0625 S   0  0  0  0  0  0  0  0  0  0  0  0
    5.5000    5.5500    5.5550 C   0  0  0  0  0  0  0  0  0  0  0  0
   -4.4444    0.0000    2.7183 F   0  0  0  0  0  0  0  0  0  0  0  0
    0.3333   -0.6667   99.9999 Cl  0  0  0  0  0  0  0  0  0  0  0  0
  -12.0000    8.8000   -0.1001 C   0  0  0  0  0  0  0  0  0  0  0  0
    1.0000    1.0000   -1.0000 Br  0  0  0  0  0  0  0  0  0  0  0  0
    0.7000   -0.3000    0.4500 H   0  0  0  0  0  0  0  0  0  0  0  0
  1  2  1  0  0  0  0
  1  7  4  0  0  0  0
  2  3  2  0  0  0  0
  3  4  3  0  0  0  0
  4  9  1  0  0  0  0
  5 12  1  0  0  0  0
  6  8  1  0  0  0  0
  7 10  4  0  0  0  0
 10 11  2  0  0  0  0
M  CHG  8   1   1   2  -1   3   2   4  -2   6   1   7   1   8  -1   9   1
M  CHG  2  10  -1  11   1
M  END
$$$$
"""

GOLDEN_XYZ = """\
12
golden
C 0.00000000 -0.00000000 1.23456789
N -0.00004000 2.00005000 -3.14159265
O 12.34567891 -0.50000000 0.00005000
Z26 -1.00000001 0.99999000 -7.25000000
H 3.30000000 -2.20000000 1.10000000
S -0.00000000 0.12500000 -10.06250000
C 5.50000000 5.55000000 5.55500000
F -4.44444000 0.00000000 2.71828183
Cl 0.33333333 -0.66666667 99.99995000
C -12.00000000 8.80000000 -0.10005000
Br 1.00000000 1.00000000 -1.00000000
H 0.70000000 -0.30000000 0.45000000
"""


def test_write_sdf_golden():
    assert write_sdf(golden_molecule(), "golden") == GOLDEN_SDF


def test_write_xyz_golden():
    assert write_xyz(golden_molecule(), "golden") == GOLDEN_XYZ


def test_write_sdf_without_bonds_or_charges():
    m = MoleculeState(np.array([[0.5, -0.5, 0.0]]), np.array([6]), np.array([0]),
                      np.zeros((1, 1), dtype=np.int64))
    assert write_sdf(m).splitlines()[3:] == [
        "  1  0  0  0  0  0  0  0  0  0999 V2000",
        "    0.5000   -0.5000    0.0000 C   0  0  0  0  0  0  0  0  0  0  0  0",
        "M  END", "$$$$"]
