"""Command line front end.

Subcommands: canonicalize, train, sample, verify-theory, metrics. Every run
writes a manifest.json (command, arguments, effective config, seed, library
versions) into the output directory, which defaults to $GAUGEFLOW_OUTDIR and
then the working directory. Exit codes: 0 success, 1 a verification or
validation check failed, 2 usage error, 3 unreadable or unparseable input.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import platform
import sys
import time
import zipfile
from pathlib import Path

import numpy as np
import scipy

from . import __version__, molecule, sampler, theorylab
from .canonicalizer import ORDERINGS, CanonicalizationError, canonicalize_batch, check_options
from .flowcore import toydata, training
from .flowcore.training import TrainConfig, trace_to_csv

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

PALETTE = ["#1f6feb", "#d1242f", "#1a7f37", "#9a6700", "#8250df", "#bf3989"]

# user-facing group names are hyphenated; internal ones use underscores
GROUP_FLAGS = {"perm": "perm", "perm-so3": "perm_so3"}
HAAR_FLAGS = {"off": "none", "perm": "perm", "perm-so3": "perm_so3"}


class UsageError(Exception):
    pass


def _outdir(args) -> Path:
    out = getattr(args, "outdir", None) or os.environ.get("GAUGEFLOW_OUTDIR") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_manifest(outdir: Path, command: str, args, seed, config: dict | None = None,
                    counters: dict | None = None, timings: dict | None = None) -> None:
    skip = {"func", "outdir"}
    arg_doc = {}
    for key, value in vars(args).items():
        if key in skip:
            continue
        if isinstance(value, Path):
            value = str(value)
        arg_doc[key] = value
    doc = {
        "command": command,
        "args": arg_doc,
        "seed": seed,
        "versions": {
            "gaugeflow": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
    }
    if config is not None:
        doc["config"] = config
    if counters is not None:
        doc["counters"] = counters
    if timings is not None:
        doc["timings"] = timings
    import resource     # here, so that importing the cli loads no more modules

    # the process's peak resident memory so far; ru_maxrss is in KiB on Linux,
    # so this is the MB figure perfbench reports
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(outdir / "manifest.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)


def _load_train_config(path) -> TrainConfig:
    """The TrainConfig a JSON file holds; a file that is not JSON is an
    OSError naming it."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:       # not JSON, or not UTF-8 text
            raise OSError(f"{path}: not valid JSON: {exc}") from None
    return TrainConfig.from_dict(doc)


def _read_molecule(path: Path) -> molecule.MoleculeState:
    """The molecule in an .sdf or .xyz file; a ParseError names the file."""
    text = path.read_text()
    parse = {".sdf": molecule.parse_sdf, ".xyz": molecule.parse_xyz}.get(path.suffix.lower())
    if parse is None:
        raise UsageError(f"unsupported molecule format: {path.name}")
    try:
        return parse(text)
    except molecule.ParseError as exc:
        raise molecule.ParseError(f"{path.name}: {exc}") from exc


def svg_line_plot(xs, series: dict, path, title: str = "") -> None:
    """Minimal self-contained 640 x 360 SVG: one polyline per series plus a legend."""
    width, height, margin = 640, 360, 48
    xs = np.asarray(xs, dtype=np.float64)
    all_y = np.concatenate([np.asarray(v, dtype=np.float64) for v in series.values()])
    finite = all_y[np.isfinite(all_y)]
    y_lo = float(finite.min()) if finite.size else 0.0
    y_hi = float(finite.max()) if finite.size else 1.0
    if y_hi - y_lo < 1e-12:
        y_hi = y_lo + 1.0
    x_lo, x_hi = float(xs.min()), float(xs.max())
    if x_hi - x_lo < 1e-12:
        x_hi = x_lo + 1.0

    def sx(x):
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{margin}" y="{height - margin + 16}" font-size="10">{x_lo:.3g}</text>',
        f'<text x="{width - margin}" y="{height - margin + 16}" text-anchor="end" '
        f'font-size="10">{x_hi:.3g}</text>',
        f'<text x="{margin - 4}" y="{height - margin}" text-anchor="end" '
        f'font-size="10">{y_lo:.3g}</text>',
        f'<text x="{margin - 4}" y="{margin + 4}" text-anchor="end" '
        f'font-size="10">{y_hi:.3g}</text>',
    ]
    for i, (name, ys) in enumerate(series.items()):
        ys = np.asarray(ys, dtype=np.float64)
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys)
                       if np.isfinite(y))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{width - margin + 4}" y="{margin + 14 * i}" '
                     f'font-size="10" fill="{color}">{name}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts))


# ---------------------------------------------------------------------------
# Subcommands


def _canonicalize_files(paths: list[Path], group: str, ordering: str) -> tuple[list, list]:
    """Read every file, then canonicalize them all in one canonicalize_batch
    call: (molecules, results). The first file that cannot be read or
    canonicalized raises before any output exists."""
    mols = [_read_molecule(path) for path in paths]
    results = canonicalize_batch(mols, group=group, ordering=ordering)
    for path, result in zip(paths, results):
        if isinstance(result, CanonicalizationError):
            raise CanonicalizationError(f"{path.name}: {result}")
    return mols, results


def cmd_canonicalize(args) -> int:
    group = GROUP_FLAGS[args.group]
    try:
        check_options(group, args.ordering)
    except ValueError as exc:
        raise UsageError(f"{exc}; use --group perm with --ordering {args.ordering}") from None
    paths = [Path(name) for name in args.inputs]
    mols, results = _canonicalize_files(paths, group, args.ordering)
    outdir = _outdir(args)
    for path, mol, result in zip(paths, mols, results):
        if group == "perm_so3" and mol.n_atoms < 3:
            print(f"warning: {path.name} has fewer than three atoms; "
                  "the rotation stage is degenerate", file=sys.stderr)
        rep = result.representative
        if path.suffix.lower() == ".sdf":
            out_path = outdir / f"{path.stem}.canonical.sdf"
            out_path.write_text(molecule.write_sdf(rep))
        else:
            out_path = outdir / f"{path.stem}.canonical.xyz"
            out_path.write_text(molecule.write_xyz(rep))
        degenerate = int(result.degenerate)
        rows = [f"{i},{rank:.8f},{z},{degenerate}\n"
                for i, (rank, z) in enumerate(zip(result.ranks.tolist(), rep.atom_types.tolist()))]
        (outdir / f"{path.stem}.ranks.csv").write_text(
            "index,rank,atomic_number,degenerate\n" + "".join(rows))
        flag = " degenerate" if result.degenerate else ""
        print(f"{path.name}: {mol.n_atoms} atoms -> {out_path.name}{flag}")
    _write_manifest(outdir, "canonicalize", args, seed=None)
    return EXIT_OK


def _load_training_data(data_arg: str, cfg: TrainConfig):
    """Returns (data, counters); counters are filled for molecule directories.
    A cfg key the kind of data never reads is refused before they are read."""
    if data_arg in ("c4", "c4-canonical"):
        training.check_data_kind(cfg, molecules=False)
        rng = np.random.default_rng([cfg.seed, 9])
        blobs = toydata.c4_blobs(2000, rng)
        if data_arg == "c4-canonical":
            blobs = toydata.sector_canonicalize(blobs)[0]
        return blobs, None
    path = Path(data_arg)
    if path.suffix.lower() == ".npz":
        training.check_data_kind(cfg, molecules=False)
        with open(path, "rb") as fh:
            if not zipfile.is_zipfile(fh):      # text, or a bare .npy array
                raise OSError(f"{path}: not an .npz archive")
        with np.load(path) as doc:
            try:
                data = doc["data"]
            except (KeyError, ValueError):      # no 'data' entry, or an object array
                data = np.zeros(0)
        if (data.ndim != 2 or not data.size or data.dtype.kind not in "biuf"
                or not np.isfinite(data).all()):
            raise UsageError("npz input must hold 'data': a non-empty 2-D array of finite numbers")
        return data.astype(np.float64), None
    if path.is_dir():
        training.check_data_kind(cfg, molecules=True)
        files = sorted(list(path.glob("*.sdf")) + list(path.glob("*.xyz")))
        if not files:
            raise UsageError(f"no .sdf or .xyz files under {path}")
        _, results = _canonicalize_files(files, "perm_so3", "spectral")
        degenerate = sum(int(r.degenerate) for r in results)
        print(f"canonicalized {len(results)} training molecules; "
              f"degenerate inputs: {degenerate}")
        return [r.representative for r in results], {"degenerate_inputs": degenerate}
    raise UsageError("data must be c4, c4-canonical, an .npz file, "
                     "or a directory of molecules")


def cmd_train(args) -> int:
    cfg = _load_train_config(args.config) if args.config else TrainConfig()
    flags = {"epochs": args.epochs, "seed": args.seed, "ot_mode": args.ot}
    cfg = dataclasses.replace(cfg, **{k: v for k, v in flags.items() if v is not None})
    start = time.perf_counter()
    data, counters = _load_training_data(args.data, cfg)
    loaded = time.perf_counter()
    model, trace = training.train(data, cfg)
    trained = time.perf_counter()
    outdir = _outdir(args)
    model.save(outdir / "checkpoint.json")
    if trace:
        trace_to_csv(trace, outdir / "trace.csv")
        xs = [row["epoch"] for row in trace]
        series = {key: [row.get(key, np.nan) for row in trace]
                  for key in trace[0] if key != "epoch"}
        svg_line_plot(xs, series, outdir / "trace.svg", title="training trace")
        print(f"trained {model.kind} model for {cfg.epochs} epochs; "
              f"final loss {trace[-1]['loss']:.6g}")
    else:
        print(f"trained {model.kind} model for 0 epochs; checkpoint holds "
              "the initialization")
    timings = {"load_s": loaded - start, "train_s": trained - loaded,
               "save_s": time.perf_counter() - trained}
    _write_manifest(outdir, "train", args, seed=cfg.seed, config=cfg.to_dict(),
                    counters=counters, timings=timings)
    return EXIT_OK


def cmd_sample(args) -> int:
    if args.n < 0:
        raise UsageError(f"--n must be at least 0, got {args.n}")
    if args.n_atoms is not None and args.n_atoms < 1:
        raise UsageError(f"--n-atoms must be at least 1, got {args.n_atoms}")
    start = time.perf_counter()
    try:
        model = training.FlowModel.load(args.model)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: cannot load checkpoint {args.model}: {exc}", file=sys.stderr)
        return EXIT_IO
    loaded = time.perf_counter()
    if model.kind == "canonlite":
        table = molecule.ValenceTable()
        missing = [molecule.NUMBER_TO_SYMBOL.get(z, f"Z={z}")
                   for z in model.meta["vocab"]["atom_classes"] if z not in table.allowed]
        if missing:
            raise molecule.UnsupportedElementError(
                f"checkpoint vocab holds element(s) {', '.join(missing)} that the "
                "valence table cannot score; no samples written")
    if model.kind == "vector_field" and args.n_atoms is not None:
        raise UsageError("--n-atoms applies to molecular checkpoints only")
    if model.kind == "canonlite" and args.n_atoms is None:
        raise UsageError("--n-atoms is required for molecular checkpoints")
    try:
        cfg = sampler.SampleConfig(
            steps=args.steps, regime=args.regime, cfg_scale=args.cfg_scale,
            group=HAAR_FLAGS[args.haar], canonicalize_mode=args.canonicalize_mode,
        )
        if model.kind == "vector_field":
            training.reject_unread(cfg, sampler.VECTOR_UNREAD, "sample setting",
                                   "vector_field checkpoints")
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    outdir = _outdir(args)
    model.load_ema()
    timings = {"load_s": loaded - start, "sample_s": 0.0, "write_s": 0.0}
    if args.n == 0:
        _write_manifest(outdir, "sample", args, seed=args.seed, config=cfg.to_dict(),
                        timings=timings)
        print("n=0: wrote manifest only")
        return EXIT_OK
    rng = np.random.default_rng(args.seed)
    sampling = time.perf_counter()
    if model.kind == "vector_field":
        samples = sampler.sample_vectors(model, args.n, cfg, rng)
        sampled = time.perf_counter()
        np.savez(outdir / "samples.npz", samples=samples)
        with open(outdir / "sample_metrics.csv", "w") as fh:
            dim = samples.shape[1]
            cols = ",".join(f"z{j}" for j in range(dim))
            fh.write(f"index,{cols},norm\n")
            for i, z in enumerate(samples):
                vals = ",".join(f"{v:.8f}" for v in z)
                fh.write(f"{i},{vals},{np.linalg.norm(z):.8f}\n")
        print(f"wrote {len(samples)} vectors to samples.npz")
    else:
        mols, info = sampler.sample(model, args.n_atoms, args.n, cfg, rng)
        sampled = time.perf_counter()
        write_one = molecule.write_sdf if args.format == "sdf" else molecule.write_xyz
        for i, m in enumerate(mols):
            (outdir / f"sample_{i:05d}.{args.format}").write_text(write_one(m))
        with open(outdir / "sample_metrics.csv", "w") as fh:
            fh.write("index,n_atoms,atom_stability,mol_stable\n")
            for i, m in enumerate(mols):
                flags, stable = molecule.stability(m, table)
                fh.write(f"{i},{m.n_atoms},{flags.mean():.6f},{int(stable)}\n")
        report = molecule.compute_metrics(mols, table)
        with open(outdir / "metrics.json", "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        print(f"wrote {len(mols)} molecules; canonicalizer calls during "
              f"sampling: {info['canonicalize_calls']}, degenerate steps: "
              f"{info['degenerate_steps']}, degenerate orderings: "
              f"{info['degenerate_orderings']}, clipped coordinates: {info['clipped_coords']}")
    timings.update(sample_s=sampled - sampling, write_s=time.perf_counter() - sampled)
    _write_manifest(outdir, "sample", args, seed=args.seed, config=cfg.to_dict(),
                    timings=timings)
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        n = 1.0 if args.n is None else float(args.n)
    except ValueError:
        raise UsageError(f"--n must be a number, got {args.n!r}") from None
    if not (n >= 1 and n.is_integer()):             # NaN and inf fail too
        raise UsageError(f"--n must be a whole number >= 1, got {args.n}")
    n_mc = None if args.n is None else int(n)
    signflip = args.system in ("all", "signflip")    # c4 and s3 floor --n at MIN_MC_SAMPLES
    if signflip and n_mc is not None and n_mc < theorylab.MIN_MC_SAMPLES:
        raise UsageError(f"--n must be at least {theorylab.MIN_MC_SAMPLES}, got {args.n}")
    outdir = _outdir(args)
    systems = None if args.system == "all" else (args.system,)
    start = time.perf_counter()
    report = theorylab.run_default_suite(seed=args.seed, systems=systems, n_mc=n_mc)
    battery_done = time.perf_counter()
    for line in report.summary_lines():
        print(line)
    report.to_json(outdir / "theory_report.json")
    timings = {"battery_s": battery_done - start,
               "write_s": time.perf_counter() - battery_done}
    _write_manifest(outdir, "verify-theory", args, seed=args.seed, timings=timings)
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def _collect_metric_inputs(inputs) -> tuple[list, list]:
    mol_paths, trace_paths = [], []
    for name in inputs:
        path = Path(name)
        if path.is_dir():
            found = sorted(list(path.glob("*.sdf")) + list(path.glob("*.xyz")))
            if not found:
                raise OSError(f"no .sdf or .xyz files under {path}")
            mol_paths.extend(found)
        elif path.suffix.lower() == ".csv":
            trace_paths.append(path)
        else:
            mol_paths.append(path)
    return mol_paths, trace_paths


def _read_trace(path: Path) -> tuple[list, dict]:
    """(epochs, series) of a trace CSV, an empty cell NaN; a file with no rows,
    or a cell that is not a number, is an OSError naming the file (and line)."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:      # a cell past the header's columns is a list under None
            try:
                rows.append({k: np.nan if v in ("", None) else float(v) for k, v in row.items()})
            except (TypeError, ValueError):
                raise OSError(f"{path.name}: line {reader.line_num}: "
                              "a cell is not a number") from None
    if not rows:
        raise OSError(f"{path} holds no rows")
    series = {key: [r[key] for r in rows] for key in rows[0] if key != "epoch"}
    return [r.get("epoch", i) for i, r in enumerate(rows)], series


def cmd_metrics(args) -> int:
    mol_paths, trace_paths = _collect_metric_inputs(args.inputs)
    traces = [_read_trace(path) for path in trace_paths]
    mols = [_read_molecule(path) for path in mol_paths]
    outdir = _outdir(args)

    for trace_path, (xs, series) in zip(trace_paths, traces):
        svg_path = outdir / f"{trace_path.stem}.svg"
        svg_line_plot(xs, series, svg_path, title=trace_path.stem)
        print(f"{trace_path.name} -> {svg_path.name}")

    if mols:
        report = molecule.compute_metrics(mols, molecule.ValenceTable())
        doc = report.to_dict()
        print(json.dumps(doc, indent=2, sort_keys=True))
        with open(outdir / "metrics.json", "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        with open(outdir / "metrics.csv", "w") as fh:
            keys = sorted(doc)
            fh.write(",".join(keys) + "\n")
            fh.write(",".join(str(doc[k]) for k in keys) + "\n")
    _write_manifest(outdir, "metrics", args, seed=None)
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaugeflow",
        description="canonicalization, canonical flow training, and theory checks")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("canonicalize", help="map molecules to canonical form")
    p.add_argument("inputs", nargs="+", help=".xyz or .sdf files")
    p.add_argument("--group", default="perm-so3", choices=sorted(GROUP_FLAGS))
    p.add_argument("--ordering", default="spectral", choices=ORDERINGS)
    p.add_argument("-o", "--outdir", default=None)
    p.set_defaults(func=cmd_canonicalize)

    p = sub.add_parser("train", help="train a flow model on canonical data")
    p.add_argument("--data", required=True,
                   help="c4 | c4-canonical | .npz with a 'data' array | "
                        "directory of molecules")
    p.add_argument("--config", default=None, help="TrainConfig JSON")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--ot", default=None, choices=training.OT_MODES,
                   help="slice coupling: exact OT pairs each batch; anneal ramps "
                        "its probability from 1 to 0")
    p.add_argument("-o", "--outdir", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", help="sample from a trained checkpoint")
    p.add_argument("--model", required=True, help="checkpoint JSON path")
    p.add_argument("--n", type=int, default=64, help="number of samples")
    p.add_argument("--n-atoms", type=int, default=None)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--cfg-scale", type=float, default=1.0)
    p.add_argument("--regime", default="a", choices=sampler.REGIMES)
    p.add_argument("--haar", default="off", choices=sorted(HAAR_FLAGS),
                   help="post-hoc group randomization of the samples")
    p.add_argument("--canonicalize-mode", action="store_true",
                   help="regime b re-canonicalizes the partial sample each step")
    p.add_argument("--format", default="xyz", choices=["xyz", "sdf"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", "--outdir", dest="outdir", default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("verify-theory", help="run the Monte Carlo check battery")
    p.add_argument("--system", default="all", choices=[*theorylab.ALL_SYSTEMS, "all"])
    p.add_argument("--n", default=None,
                   help="Monte Carlo sample count, e.g. 1e6")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--outdir", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("metrics", help="stability/uniqueness of molecule files "
                                       "or directories; trace CSV -> SVG")
    p.add_argument("inputs", nargs="+")
    p.add_argument("-o", "--outdir", default=None)
    p.set_defaults(func=cmd_metrics)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, training.ConfigError) as exc:    # a --config value or flag refused
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CanonicalizationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (OSError, molecule.ParseError, molecule.UnsupportedElementError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
