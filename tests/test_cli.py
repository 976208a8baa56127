"""End-to-end command line runs against temporary directories."""

import dataclasses
import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from conftest import (CHECKPOINT_DAMAGE, damage_checkpoint, nondegenerate_molecule,
                      random_molecule)
from gaugeflow import canonicalizer, molecule, sampler, symgroup, theorylab
from gaugeflow.canonicalizer import canonicalize
from gaugeflow.cli import GROUP_FLAGS, HAAR_FLAGS, build_parser, main
from gaugeflow.flowcore import training


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
    assert (out / "mol.ranks.csv").read_bytes() == (
        b"index,rank,atomic_number,degenerate\n0,0.00000000,9,0\n1,0.10000000,16,0\n"
        b"2,0.20000000,16,0\n3,0.30000000,9,0\n4,0.40000000,16,0\n5,0.50000000,9,0\n"
        b"6,0.60000000,1,0\n7,0.70000000,8,0\n8,0.80000000,7,0\n9,0.90000000,17,0\n")
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


@pytest.mark.parametrize("ordering", ["multihop", "atomic"])
def test_canonicalize_rotation_gauge_needs_spectral_ordering(tmp_path, capsys, ordering):
    # rejected before any input is read: the input need not even exist
    out = tmp_path / "out"
    assert run("canonicalize", tmp_path / "missing.xyz", "--ordering", ordering, "-o", out) == 2
    err = capsys.readouterr().err
    assert "spectral ordering only" in err and "--group perm" in err
    assert not out.exists()
    src = write_xyz(tmp_path / "mol.xyz", nondegenerate_molecule(np.random.default_rng(4), 7))
    assert run("canonicalize", src, "--group", "perm", "--ordering", ordering, "-o", out) == 0
    assert {p.name for p in out.iterdir()} == {"mol.canonical.xyz", "mol.ranks.csv",
                                               "manifest.json"}


@pytest.mark.parametrize("bad, text, code, error", [
    ("bad.xyz", "not a count\nxx\n", 3, "line 1: expected atom count"),
    ("flat.xyz", "3\ncoincident\nC 0.5 0.5 0.5\nC 0.5 0.5 0.5\nO 0.5 0.5 0.5\n", 1,
     "flat.xyz: degenerate geometry: all atoms coincide"),
    ("far.sdf", "far\n  test\n\n  4  2\n    0.0000    0.0000    0.0000 C   0\n"
                "    1.0000    0.0000    0.0000 C   0\n    0.0000    1.0000    0.0000 O   0\n"
                "  400.0000    0.0000    0.0000 N   0\n  1  2  1\n  1  3  1\nM  END\n", 1,
     "far.sdf: degenerate geometry: an atom is so far from all others")],
    ids=["unparseable", "coincident", "far-atom"])
def test_canonicalize_writes_nothing_when_any_input_fails(tmp_path, capsys, bad, text, code,
                                                          error):
    # every input is read and canonicalized before the first output is written
    good = write_xyz(tmp_path / "a.xyz", nondegenerate_molecule(np.random.default_rng(3), 6))
    (tmp_path / bad).write_text(text)
    out = tmp_path / "out"
    assert run("canonicalize", good, tmp_path / bad, "-o", out) == code
    assert error in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("name, text, error", [
    ("nan.sdf", "name\n  test\n\n  1  0\n       nan    0.0000    0.0000 C   0\nM  END\n",
     "line 5: bad coordinate"),
    ("inf.xyz", "1\ncomment\nC 0.0 inf 0.0\n", "line 3: bad coordinate"),
    ("bonds.sdf", "name\n  test\n\n  2 -1\n    0.0000    0.0000    0.0000 C   0\n"
                  "    1.5000    0.0000    0.0000 O   0\nM  END\n",
     "line 4: bond count must not be negative")],
    ids=["sdf-nan-coordinate", "xyz-inf-coordinate", "sdf-negative-bond-count"])
def test_canonicalize_malformed_numbers_exit_3(tmp_path, capsys, name, text, error):
    src = tmp_path / name
    src.write_text(text)
    out = tmp_path / "out"
    assert run("canonicalize", src, "-o", out) == 3
    assert error in capsys.readouterr().err
    assert not list(out.glob("*.canonical.*"))


@pytest.mark.parametrize("command", ["canonicalize", "train", "metrics"])
def test_reader_errors_name_their_file(tmp_path, capsys, command):
    data = tmp_path / "data"
    data.mkdir()
    write_xyz(data / "a.xyz", nondegenerate_molecule(np.random.default_rng(3), 6))
    (data / "bad.xyz").write_text("not a count\nxx\n")
    argv = {"canonicalize": ["canonicalize", data / "a.xyz", data / "bad.xyz"],
            "train": ["train", "--data", data],
            "metrics": ["metrics", data]}[command]
    assert run(*argv, "-o", tmp_path / "out") == 3
    assert ("error: bad.xyz: line 1: expected atom count, got 'not a count'"
            in capsys.readouterr().err)


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


def assert_timings(manifest: dict, keys: set) -> None:
    """The manifest's timings hold exactly these stage keys, each a positive
    number of seconds."""
    assert set(manifest["timings"]) == keys
    for value in manifest["timings"].values():
        assert isinstance(value, float) and math.isfinite(value) and value > 0


def test_train_outputs(trained_vec):
    assert (trained_vec / "checkpoint.json").exists()
    trace = (trained_vec / "trace.csv").read_text().strip().splitlines()
    assert trace[0].startswith("epoch,")
    assert len(trace) == 3
    manifest = json.loads((trained_vec / "manifest.json").read_text())
    assert manifest["config"]["steps_per_epoch"] == 3
    assert manifest["seed"] == 3
    assert_timings(manifest, {"load_s", "train_s", "save_s"})
    svg = (trained_vec / "trace.svg").read_text()
    n_series = len(trace[0].split(",")) - 1
    assert svg.count("<polyline") == n_series


def test_train_unknown_config_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 1, "learning_rate": 0.1}))
    assert main(["train", "--data", "c4", "--config", str(cfg),
                 "-o", str(tmp_path)]) == 2


@pytest.mark.parametrize("text, code, word", [
    ("{bad", 3, "cfg.json: not valid JSON"),
    ("[]", 2, "config must be a JSON object")], ids=["not-json", "not-an-object"])
def test_train_malformed_config_fails_before_any_output(tmp_path, capsys, text, code, word):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "run"
    assert run("train", "--data", "c4", "--config", cfg, "-o", out) == code
    assert word in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["text", "bare-npy"])
def test_train_npz_that_is_not_an_archive_exits_3(tmp_path, capsys, kind):
    data = tmp_path / "f.npz"
    if kind == "text":
        data.write_text("epoch,loss\n0,1.0\n")
    else:
        with open(data, "wb") as fh:
            np.save(fh, np.zeros((20, 2)))
    out = tmp_path / "run"
    assert run("train", "--data", data, "-o", out) == 3
    assert "f.npz: not an .npz archive" in capsys.readouterr().err
    assert not out.exists()


def test_train_reads_an_npz_suffix_in_any_case(tmp_path):
    data = tmp_path / "up.NPZ"
    with open(data, "wb") as fh:     # np.savez would append ".npz" to this name
        np.savez(fh, data=np.random.default_rng(0).standard_normal((40, 2)))
    out = tmp_path / "run"
    assert run("train", "--data", data, "--epochs", 1, "-o", out) == 0
    assert (out / "checkpoint.json").exists()


def test_train_ot_anneal_is_recorded_as_its_ot_mode(tmp_path):
    out = tmp_path / "run"
    assert run("train", "--data", "c4-canonical", "--epochs", 1, "--ot", "anneal", "-o", out) == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["ot_mode"] == "anneal"
    assert json.loads((out / "checkpoint.json").read_text())["train_config"]["ot_mode"] == "anneal"


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
    # the config is the integration settings; the seed is recorded once, at the top
    assert manifest["config"] == {"steps": 4, "regime": "a", "cfg_scale": 1.0, "group": "none",
                                  "canonicalize_mode": False}
    assert manifest["seed"] == 0
    assert_timings(manifest, {"load_s", "sample_s", "write_s"})


def test_sample_zero_n_writes_manifest_only(trained_vec, tmp_path):
    out = tmp_path / "empty"
    assert run("sample", "--model", trained_vec / "checkpoint.json",
               "--n", 0, "-o", out) == 0
    timings = json.loads((out / "manifest.json").read_text())["timings"]
    assert timings["sample_s"] == timings["write_s"] == 0.0 and timings["load_s"] > 0
    assert not (out / "samples.npz").exists()


@pytest.mark.parametrize("flags, word", [
    (["--n-atoms", 9], "--n-atoms"), (["--regime", "b"], "'regime'"),
    (["--regime", "b", "--canonicalize-mode"], "'regime'"), (["--cfg-scale", 3], "'cfg_scale'"),
    (["--haar", "perm"], "'group'"), (["--haar", "perm-so3"], "'group'")])
def test_vector_sample_rejects_settings_it_never_reads(trained_vec, tmp_path, capsys,
                                                         flags, word):
    out = tmp_path / "ignored"
    assert run("sample", "--model", trained_vec / "checkpoint.json", "--n", 4, *flags,
               "-o", out) == 2
    assert word in capsys.readouterr().err
    assert not out.exists()         # nothing written, not even a manifest


def test_sample_prior_is_an_unknown_flag(trained_vec, tmp_path, capsys):
    # the noise prior is the checkpoint's; no flag swaps it
    out = tmp_path / "ignored"
    with pytest.raises(SystemExit) as exc:
        run("sample", "--model", trained_vec / "checkpoint.json", "--n", 4,
            "--prior", "isotropic", "-o", out)
    assert exc.value.code == 2
    assert "unrecognized arguments: --prior isotropic" in capsys.readouterr().err
    assert not out.exists()


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
    assert_timings(json.loads((out / "manifest.json").read_text()),
                   {"load_s", "sample_s", "write_s"})


def test_molecular_sample_needs_n_atoms(trained_mol, tmp_path, capsys):
    # checked before the output directory exists: nothing is written, not
    # even a manifest for --n 0
    for n in (3, 0):
        out = tmp_path / f"gen{n}"
        assert run("sample", "--model", trained_mol / "checkpoint.json",
                   "--n", n, "-o", out) == 2
        assert "--n-atoms" in capsys.readouterr().err
        assert not out.exists()


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
                                          "canonicalize_mode"),
                                         (["--cfg-scale", "nan"], "cfg_scale"),
                                         (["--cfg-scale", "inf"], "cfg_scale")])
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


@pytest.mark.parametrize("key, classes", [
    ("bond_classes", [1, 0, 2, 3, 4]), ("bond_classes", [0, 1, 2, 3, 9]),
    ("atom_classes", [1, "C", 8]), ("charge_classes", [0, 0.5]), ("atom_classes", [1])],
    ids=["bonds-swapped", "bonds-unknown-order", "atoms-text", "charges-fraction",
         "atoms-fewer-than-the-head"])
def test_sample_rejects_vocab_class_lists_at_load(trained_mol, tmp_path, capsys, key, classes):
    # decoding maps bond class 0 to the empty diagonal, so another bond list
    # would fail only after the whole request was integrated
    doc = json.loads((trained_mol / "checkpoint.json").read_text())
    doc["meta"]["vocab"][key] = classes
    ckpt = tmp_path / "checkpoint.json"
    ckpt.write_text(json.dumps(doc))
    out = tmp_path / "gen"
    assert run("sample", "--model", ckpt, "--n", 2, "--n-atoms", 5, "--steps", 2,
               "-o", out) == 3
    assert key in capsys.readouterr().err
    assert not out.exists()


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


def test_sample_refuses_version_1_checkpoint(trained_mol, tmp_path, capsys):
    # version 1 predates the coordinate scale and the bounded coordinate
    # weights: its weights would mean another model, so it is not loaded
    doc = json.loads((trained_mol / "checkpoint.json").read_text())
    doc["format_version"] = 1
    del doc["coord_scale"]
    ckpt = tmp_path / "checkpoint.json"
    ckpt.write_text(json.dumps(doc))
    out = tmp_path / "gen"
    assert run("sample", "--model", ckpt, "--n", 2, "--n-atoms", 5, "-o", out) == 3
    assert "version 1" in capsys.readouterr().err
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
    assert_timings(manifest, {"load_s", "train_s", "save_s"})


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


@pytest.mark.parametrize("flags, doc, key", [
    (["--epochs", -3], None, "epochs"),
    ([], {"steps_per_epoch": 0}, "steps_per_epoch"),
    ([], {"batch_size": 0}, "batch_size"),
    ([], {"epochs": 1, "steps_per_epoch": 1, "lr": math.nan}, "lr"),
    ([], {"epochs": 1, "steps_per_epoch": 1, "time_dist": "gamma"}, "time_dist")],
    ids=["epochs-negative", "steps-zero", "batch-zero", "lr-nan", "time-dist-unknown"])
def test_train_rejects_out_of_range_config_values(tmp_path, capsys, flags, doc, key):
    if doc is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        flags = [*flags, "--config", tmp_path / "cfg.json"]
    out = tmp_path / "run"
    assert run("train", "--data", "c4", *flags, "-o", out) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_train_rejects_ot_mode_it_would_misread(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 1, "ot_mode": "sinkhorn"}))
    out = tmp_path / "run"
    assert run("train", "--data", "c4", "--config", cfg, "-o", out) == 2
    assert "ot_mode" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(SystemExit) as info:
        run("train", "--data", "c4", "--ot", "sinkhorn", "-o", out)
    assert info.value.code == 2
    assert not out.exists()


def test_sample_loads_checkpoint_trained_with_sinkhorn(trained_vec, tmp_path):
    # "sinkhorn" is no longer a training choice; checkpoints that hold it still sample
    doc = json.loads((trained_vec / "checkpoint.json").read_text())
    doc["train_config"]["ot_mode"] = "sinkhorn"
    ckpt = tmp_path / "old.json"
    ckpt.write_text(json.dumps(doc))
    out = tmp_path / "gen"
    assert run("sample", "--model", ckpt, "--n", 4, "--steps", 2, "-o", out) == 0
    with np.load(out / "samples.npz") as samples:
        assert samples["samples"].shape == (4, 2)


def test_cli_choice_lists_are_the_library_constants():
    sub = next(a for a in build_parser()._actions if a.choices and "train" in a.choices)

    def choices(command, flag):
        return list(next(a for a in sub.choices[command]._actions
                         if flag in a.option_strings).choices)

    assert choices("train", "--ot") == list(training.OT_MODES)
    assert choices("sample", "--regime") == list(sampler.REGIMES)
    assert choices("canonicalize", "--ordering") == list(canonicalizer.ORDERINGS)
    assert choices("verify-theory", "--system") == [*theorylab.ALL_SYSTEMS, "all"]
    assert sorted(GROUP_FLAGS[c] for c in choices("canonicalize", "--group")) == sorted(
        canonicalizer.GROUPS)
    assert sorted(HAAR_FLAGS[c] for c in choices("sample", "--haar")) == sorted(
        sampler.HAAR_GROUPS)


def _readme_commands() -> list[list[str]]:
    """The arguments of every `gaugeflow ...` line in the README's shell
    blocks, backslash continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"```(?:sh|bash|console)\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["gaugeflow"]:
                commands.append(words[1:])
    return commands


def test_readme_commands_parse_and_write_where_they_say():
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == {"canonicalize", "train", "sample",
                                               "verify-theory", "metrics"}
    for argv in commands:
        args = build_parser().parse_args(argv)
        for flag in ("--out", "-o"):
            if flag in argv:
                assert args.outdir == argv[argv.index(flag) + 1], argv


def test_readme_config_table_matches_train_config():
    """The README's --config table lists every TrainConfig key once, in field
    order, with its default and the data kind that reads it."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| `([^`]*)` \| (\w+) \|", text, re.M)
    kinds = {**dict.fromkeys(training._VECTOR_ONLY, "vectors"),
             **dict.fromkeys(training._MOLECULE_ONLY, "molecules")}
    want = [(f.name, f.default, kinds.get(f.name, "both"))
            for f in dataclasses.fields(training.TrainConfig)]
    assert [(key, json.loads(default), kind) for key, default, kind in rows] == want


BAD_NPZ_DATA = {"1-D": np.zeros(5), "3-D": np.zeros((4, 2, 2)), "empty": np.zeros((0, 2)),
                "non-finite": np.array([[np.nan, 1.0]] * 20), "text": np.array([["a", "b"]] * 20),
                "objects": np.array([[1, None]] * 5, dtype=object)}


@pytest.mark.parametrize("argv, word", [
    (["verify-theory", "--n", "abc"], "--n must be a number"),
    (["verify-theory", "--n", "10"], "--n must be at least 1000"),
    (["sample", "--model", "CHECKPOINT", "--n", "-3"], "--n must be at least 0"),
] + [(["train", "--data", f"NPZ:{name}"], "non-empty 2-D array of finite numbers")
     for name in BAD_NPZ_DATA],
    ids=["verify-n-not-a-number", "verify-n-below-1000", "sample-n-negative"]
    + [f"train-npz-{name}" for name in BAD_NPZ_DATA])
def test_bad_arguments_exit_2_before_anything_runs(trained_vec, tmp_path, capsys, argv, word):
    def resolve(arg):
        if arg == "CHECKPOINT":
            return trained_vec / "checkpoint.json"
        if arg.startswith("NPZ:"):
            np.savez(tmp_path / "data.npz", data=BAD_NPZ_DATA[arg[4:]])
            return tmp_path / "data.npz"
        return arg

    out = tmp_path / "out"
    assert run(*map(resolve, argv), "-o", out) == 2
    assert word in capsys.readouterr().err
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


def test_verify_theory_manifest_records_timings(tmp_path):
    out = tmp_path / "verify"
    assert run("verify-theory", "--system", "c4", "--n", "1000", "-o", out) == 0
    assert_timings(json.loads((out / "manifest.json").read_text()), {"battery_s", "write_s"})


def test_manifests_record_peak_memory_outside_the_timings(trained_vec, tmp_path):
    out = tmp_path / "verify"
    assert run("verify-theory", "--system", "c4", "--n", "1000", "-o", out) == 0
    for path in (trained_vec / "manifest.json", out / "manifest.json"):
        peak = json.loads(path.read_text())["peak_rss_mb"]
        assert isinstance(peak, float) and math.isfinite(peak) and peak > 0


@pytest.mark.parametrize("system", ["c4", "s3"])
def test_verify_theory_small_n_runs_where_the_sample_count_is_floored(tmp_path, system):
    # c4 and s3 floor their Monte Carlo count at MIN_MC_SAMPLES, so --n below it still runs
    out = tmp_path / "verify"
    assert run("verify-theory", "--system", system, "--n", "500", "-o", out) == 0
    doc = json.loads((out / "theory_report.json").read_text())
    assert doc["all_passed"] is True
    assert min(c["n_samples"] for c in doc["checks"] if c["n_samples"] > 100) == 1000


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


def test_verify_theory_out_is_the_output_directory(tmp_path):
    # --out abbreviates --outdir here as on every other command
    out = tmp_path / "deep" / "theory"
    assert run("verify-theory", "--system", "c4", "--n", "1000", "--out", out) == 0
    assert json.loads((out / "theory_report.json").read_text())["all_passed"] is True
    assert json.loads((out / "manifest.json").read_text())["command"] == "verify-theory"
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "theory_report.json"]


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


def test_metrics_reads_every_input_before_writing(trained_vec, tmp_path, capsys):
    bad = tmp_path / "bad.xyz"
    bad.write_text("not a count\n")
    out = tmp_path / "metrics"
    assert run("metrics", trained_vec / "trace.csv", bad, "-o", out) == 3
    assert "bad.xyz: line 1" in capsys.readouterr().err
    assert not out.exists()


def test_metrics_trace_with_a_bad_cell_exits_3(trained_vec, tmp_path, capsys):
    lines = (trained_vec / "trace.csv").read_text().splitlines()
    cells = lines[2].split(",")
    cells[1] = "oops"
    trace = tmp_path / "trace.csv"
    trace.write_text("\n".join(lines[:2] + [",".join(cells)] + lines[3:]) + "\n")
    out = tmp_path / "metrics"
    assert run("metrics", trace, "-o", out) == 3
    assert "trace.csv: line 3: a cell is not a number" in capsys.readouterr().err
    assert not out.exists()


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
