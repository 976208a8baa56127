"""End-to-end command line runs against temporary directories."""

import json

import numpy as np
import pytest

from conftest import (CHECKPOINT_DAMAGE, damage_checkpoint, nondegenerate_molecule,
                      random_molecule)
from gaugeflow import molecule, symgroup, theorylab
from gaugeflow.canonicalizer import canonicalize
from gaugeflow.cli import main


def run(*argv):
    return main([str(a) for a in argv])


def write_xyz(path, mol):
    path.write_text(molecule.write_xyz(mol))
    return path


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()


def test_no_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_canonicalize_outputs(tmp_path, capsys):
    rng = np.random.default_rng(0)
    mol = nondegenerate_molecule(rng, 10)
    src = write_xyz(tmp_path / "mol.xyz", mol)
    out = tmp_path / "out"
    assert run("canonicalize", src, "-o", out) == 0
    assert (out / "mol.canonical.xyz").exists()
    ranks = (out / "mol.ranks.csv").read_text().strip().splitlines()
    assert ranks[0] == "index,rank,atomic_number,degenerate"
    assert len(ranks) == 11
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "canonicalize"
    assert set(manifest["versions"]) == {"gaugeflow", "numpy", "scipy", "python"}

    # a rotated copy canonicalizes to the same file contents
    g = symgroup.haar_sample(10, rng)
    moved = symgroup.act(g, mol)
    src2 = write_xyz(tmp_path / "mol2.xyz", moved)
    out2 = tmp_path / "out2"
    assert run("canonicalize", src2, "-o", out2) == 0
    a = molecule.parse_xyz((out / "mol.canonical.xyz").read_text())
    b = molecule.parse_xyz((out2 / "mol2.canonical.xyz").read_text())
    assert np.array_equal(a.atom_types, b.atom_types)
    assert np.allclose(a.coords, b.coords, atol=1e-5)


def test_canonicalize_small_molecule_warns(tmp_path, capsys):
    coords = np.array([[0.0, 0.0, 0.0], [1.1, 0.0, 0.0]])
    mol = molecule.MoleculeState(coords, np.array([6, 8]),
                                 np.zeros(2, dtype=np.int64),
                                 np.zeros((2, 2), dtype=np.int64))
    src = write_xyz(tmp_path / "tiny.xyz", mol)
    assert run("canonicalize", src, "-o", tmp_path / "out") == 0
    assert "degenerate" in capsys.readouterr().err


def test_canonicalize_error_codes(tmp_path):
    assert run("canonicalize", tmp_path / "missing.xyz", "-o", tmp_path) == 3
    bad = tmp_path / "bad.xyz"
    bad.write_text("not a count\nxx\n")
    assert run("canonicalize", bad, "-o", tmp_path) == 3
    txt = tmp_path / "mol.txt"
    txt.write_text("whatever")
    assert run("canonicalize", txt, "-o", tmp_path) == 2


@pytest.fixture(scope="module")
def trained_vec(tmp_path_factory):
    root = tmp_path_factory.mktemp("vec")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({"steps_per_epoch": 3, "batch_size": 32, "epochs": 2}))
    out = root / "run"
    code = main(["train", "--data", "c4-canonical", "--config", str(cfg),
                 "--seed", "3", "-o", str(out)])
    assert code == 0
    return out


def test_train_outputs(trained_vec):
    assert (trained_vec / "checkpoint.json").exists()
    trace = (trained_vec / "trace.csv").read_text().strip().splitlines()
    assert trace[0].startswith("epoch,")
    assert len(trace) == 3
    manifest = json.loads((trained_vec / "manifest.json").read_text())
    assert manifest["config"]["steps_per_epoch"] == 3
    assert manifest["seed"] == 3
    svg = (trained_vec / "trace.svg").read_text()
    n_series = len(trace[0].split(",")) - 1
    assert svg.count("<polyline") == n_series


def test_train_unknown_config_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 1, "learning_rate": 0.1}))
    assert main(["train", "--data", "c4", "--config", str(cfg),
                 "-o", str(tmp_path)]) == 2


def test_train_zero_epochs(tmp_path, capsys):
    assert main(["train", "--data", "c4", "--epochs", "0",
                 "-o", str(tmp_path)]) == 0
    assert (tmp_path / "checkpoint.json").exists()
    assert not (tmp_path / "trace.csv").exists()
    assert "initialization" in capsys.readouterr().out


def test_sample_vectors_roundtrip(trained_vec, tmp_path):
    out = tmp_path / "samples"
    code = run("sample", "--model", trained_vec / "checkpoint.json",
               "--n", 12, "--steps", 4, "-o", out)
    assert code == 0
    with np.load(out / "samples.npz") as doc:
        assert doc["samples"].shape == (12, 2)
    rows = (out / "sample_metrics.csv").read_text().strip().splitlines()
    assert rows[0] == "index,z0,z1,norm"
    assert len(rows) == 13
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["steps"] == 4


def test_sample_zero_n_writes_manifest_only(trained_vec, tmp_path):
    out = tmp_path / "empty"
    assert run("sample", "--model", trained_vec / "checkpoint.json",
               "--n", 0, "-o", out) == 0
    assert (out / "manifest.json").exists()
    assert not (out / "samples.npz").exists()


def test_sample_bad_checkpoint(tmp_path):
    assert run("sample", "--model", tmp_path / "nope.json", "-o", tmp_path) == 3
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{\"not\": \"a checkpoint\"}")
    assert run("sample", "--model", garbage, "-o", tmp_path) == 3


@pytest.fixture(scope="module")
def trained_mol(tmp_path_factory):
    root = tmp_path_factory.mktemp("mol")
    data = root / "data"
    data.mkdir()
    rng = np.random.default_rng(19)
    for i in range(5):
        write_xyz(data / f"m{i}.xyz", random_molecule(rng, 5))
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({"steps_per_epoch": 2, "batch_size": 2, "epochs": 1}))
    out = root / "run"
    code = main(["train", "--data", str(data), "--config", str(cfg),
                 "-o", str(out)])
    assert code == 0
    return out


def test_molecular_sample_outputs(trained_mol, tmp_path):
    out = tmp_path / "gen"
    code = run("sample", "--model", trained_mol / "checkpoint.json",
               "--n", 3, "--n-atoms", 5, "--steps", 2, "--haar", "perm-so3",
               "-o", out)
    assert code == 0
    files = sorted(out.glob("sample_*.xyz"))
    assert len(files) == 3
    rows = (out / "sample_metrics.csv").read_text().strip().splitlines()
    assert rows[0] == "index,n_atoms,atom_stability,mol_stable"
    assert len(rows) == 4
    doc = json.loads((out / "metrics.json").read_text())
    assert "atom_stability" in doc


def test_molecular_sample_needs_n_atoms(trained_mol, tmp_path):
    assert run("sample", "--model", trained_mol / "checkpoint.json",
               "--n", 1, "-o", tmp_path) == 2


@pytest.mark.parametrize("n_atoms", [0, -3])
def test_molecular_sample_rejects_sizes_below_one(trained_mol, tmp_path, capsys, n_atoms):
    out = tmp_path / "gen"
    assert run("sample", "--model", trained_mol / "checkpoint.json",
               "--n", 2, "--n-atoms", n_atoms, "-o", out) == 2
    assert "--n-atoms" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("flags, word", [(["--steps", 0], "steps"),
                                         (["--cfg-scale", -1], "cfg_scale"),
                                         (["--regime", "a", "--canonicalize-mode"],
                                          "canonicalize_mode")])
def test_sample_rejects_bad_sampling_config(trained_mol, tmp_path, capsys, flags, word):
    out = tmp_path / "gen"
    assert run("sample", "--model", trained_mol / "checkpoint.json",
               "--n", 2, "--n-atoms", 5, *flags, "-o", out) == 2
    assert word in capsys.readouterr().err
    assert not out.exists()


def test_sample_rejects_vocab_outside_valence_table(trained_mol, tmp_path, capsys):
    doc = json.loads((trained_mol / "checkpoint.json").read_text())
    atoms = doc["meta"]["vocab"]["atom_classes"]
    atoms[:2] = [11, 14]                  # Na and Si parse but have no valence entry
    ckpt = tmp_path / "checkpoint.json"
    ckpt.write_text(json.dumps(doc))
    out = tmp_path / "gen"
    assert run("sample", "--model", ckpt, "--n", 2, "--n-atoms", 5, "-o", out) == 3
    err = capsys.readouterr().err
    assert "Na" in err and "Si" in err
    # the message prints as written, not as a quoted KeyError repr
    assert err.startswith("error: checkpoint vocab holds element(s) Na, Si that ")
    assert "'" not in err and '"' not in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("group, key, value", CHECKPOINT_DAMAGE)
def test_sample_rejects_checkpoint_that_does_not_fit(trained_mol, tmp_path, capsys,
                                                     group, key, value):
    doc = json.loads((trained_mol / "checkpoint.json").read_text())
    ckpt = tmp_path / "checkpoint.json"
    ckpt.write_text(json.dumps(damage_checkpoint(doc, group, key, value)))
    out = tmp_path / "gen"
    assert run("sample", "--model", ckpt, "--n", 2, "--n-atoms", 5, "-o", out) == 3
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_train_counts_degenerate_inputs(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    rng = np.random.default_rng(31)
    mols = [random_molecule(rng, 5) for _ in range(3)]
    line = np.zeros((4, 3))
    line[:, 0] = [0.0, 1.2, 2.4, 3.6]              # collinear: orientation undefined
    mols.append(molecule.MoleculeState(line, np.array([6, 6, 6, 8]),
                                       np.zeros(4, dtype=np.int64),
                                       np.zeros((4, 4), dtype=np.int64)))
    for i, m in enumerate(mols):
        write_xyz(data / f"m{i}.xyz", m)
    want = sum(int(canonicalize(m, group="perm_so3").degenerate) for m in mols)
    assert want >= 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"steps_per_epoch": 1, "batch_size": 2, "epochs": 1}))
    out = tmp_path / "run"
    assert run("train", "--data", data, "--config", cfg, "-o", out) == 0
    assert f"degenerate inputs: {want}" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["counters"] == {"degenerate_inputs": want}


def test_train_rejects_keys_the_data_ignores(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    rng = np.random.default_rng(37)
    for i in range(3):
        write_xyz(data / f"m{i}.xyz", random_molecule(rng, 5))
    out = tmp_path / "mol_run"
    assert run("train", "--data", data, "--ot", "exact", "-o", out) == 2
    assert "ot_mode" in capsys.readouterr().err
    assert not out.exists()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 1, "p_drop": 0.3}))
    out = tmp_path / "vec_run"
    assert run("train", "--data", "c4", "--config", cfg, "-o", out) == 2
    assert "p_drop" in capsys.readouterr().err
    assert not out.exists()


def test_train_rejects_config_value_of_wrong_type(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": "1"}))
    out = tmp_path / "run"
    assert run("train", "--data", "c4", "--config", cfg, "-o", out) == 2
    assert "epochs" in capsys.readouterr().err
    assert not out.exists()


def test_verify_theory_signflip(tmp_path, capsys):
    out = tmp_path / "verify"
    code = run("verify-theory", "--system", "signflip", "--n", "2e4", "-o", out)
    assert code == 0
    text = capsys.readouterr().out
    assert "checks passed" in text
    doc = json.loads((out / "theory_report.json").read_text())
    assert doc["all_passed"] is True
    assert json.loads((out / "manifest.json").read_text())["command"] == "verify-theory"


def test_verify_theory_failure_exit(tmp_path, monkeypatch):
    failing = theorylab.CheckResult("failing", estimate=1.0, reference=0.0, stderr=0.0,
                                    tolerance=0.0, passed=False, n_samples=0, seed=0)
    monkeypatch.setattr(theorylab, "run_default_suite",
                        lambda **kw: theorylab.TheoryReport(checks=[failing], seed=0))
    out = tmp_path / "verify"
    code = run("verify-theory", "--system", "signflip", "--n", "2e4", "-o", out)
    assert code == 1
    doc = json.loads((out / "theory_report.json").read_text())
    assert doc["all_passed"] is False


def test_verify_theory_custom_report_path(tmp_path):
    report = tmp_path / "deep" / "report.json"
    code = run("verify-theory", "--system", "signflip", "--n", "2e4",
               "--out", report, "-o", tmp_path)
    assert code == 0
    assert report.exists()


def test_metrics_on_molecules_and_trace(trained_vec, tmp_path):
    data = tmp_path / "mols"
    data.mkdir()
    rng = np.random.default_rng(23)
    for i in range(3):
        write_xyz(data / f"m{i}.xyz", random_molecule(rng, 6))
    out = tmp_path / "metrics"
    assert run("metrics", data, trained_vec / "trace.csv", "-o", out) == 0
    assert (out / "metrics.json").exists()
    header, row = (out / "metrics.csv").read_text().strip().splitlines()
    assert len(header.split(",")) == len(row.split(","))
    assert (out / "trace.svg").exists()


def test_metrics_empty_dir_fails(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run("metrics", empty, "-o", tmp_path) == 3


def test_outdir_env_var(tmp_path, monkeypatch):
    rng = np.random.default_rng(29)
    src = write_xyz(tmp_path / "mol.xyz", nondegenerate_molecule(rng, 8))
    dest = tmp_path / "via_env"
    monkeypatch.setenv("GAUGEFLOW_OUTDIR", str(dest))
    assert run("canonicalize", src) == 0
    assert (dest / "mol.canonical.xyz").exists()
