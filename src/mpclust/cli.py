"""Command-line surface: cluster, simulate, benchmark, tune, eval, hoeffding-check.

Every subcommand but eval takes --seed; cluster and simulate write a
manifest.json, so a run can be reproduced byte for byte from its recorded
configuration.  After argparse, each hyperparameter a subcommand declares
and no flag gave is read once from its MPCLUST_* variable, else the flat
key=value --config file (cluster and tune take one), else HyperParams():
flag > environment > config file > default.  cluster declares them all, tune
all but m_frac, n_frac (its grid's), k and final_algo (its skipped final step's).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import json
import os
import sys
import time
from pathlib import Path
from typing import Iterable, get_args, get_type_hints

import numpy as np

from . import __version__
from .consensus import save_consensus_binary, save_consensus_csv, stop_gap
from .dataio import DataMatrix, _log2_plus_one, load_matrix, write_matrix
from .dist import deviation_experiment, pairwise
from .hclust import cut_k, ward_linkage
from .metrics import ari, f1_features, select_by_score
from .pipeline import MODES, HyperParams, run, tune_minipatch_size
from .sampling import _stream
from .synthgen import REGIMES, SynthSpec, generate

_ENV_PREFIX = "MPCLUST_"
_UNSET = object()  # the argparse default of every hyperparameter flag: no flag gave it


# The flag --NAME, variable MPCLUST_NAME and config key NAME of each HyperParams field
# with help text (all but early_stop), in --help order; the field declares the rest.
_HP = {f.name: f for f in dataclasses.fields(HyperParams) if "help" in f.metadata}
_TUNE_HP = tuple(name for name in _HP if name not in ("m_frac", "n_frac", "k", "final_algo"))


@functools.cache  # get_type_hints evaluates all of cls's annotations on every call
def _field_type(cls: type, name: str) -> tuple[type, bool]:
    """The type of ``cls``'s field ``name`` and whether it takes None: ``int | None`` is (int, True)."""
    hint = get_type_hints(cls)[name]
    none_ok = type(None) in get_args(hint)
    if none_ok:
        (hint,) = (t for t in get_args(hint) if t is not type(None))
    return hint, none_ok


def _parse(name: str, raw: str) -> object:
    """``raw`` as hyperparameter ``name``'s type; "" and "none" are None where it takes None."""
    typ, none_ok = _field_type(HyperParams, name)
    if none_ok and raw.lower() in ("", "none"):
        return None
    return typ(raw)


def _coerce(name: str, raw: str, where: str) -> object:
    try:
        value = _parse(name, raw)
    except ValueError:
        typ = _field_type(HyperParams, name)[0]
        raise ValueError(f"{where}: {name} must be {typ.__name__}, got {raw!r}") from None
    choices = _HP[name].metadata.get("choices")
    if choices is not None and value not in choices:
        raise ValueError(f"{where}: {name} must be one of {', '.join(choices)}, got {raw!r}")
    return value


def _load_config_file(path: str) -> dict[str, object]:
    out: dict[str, object] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key not in _HP:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = _coerce(key, value.strip(), f"{path}:{lineno}")
    return out


def _resolve(args: argparse.Namespace) -> None:
    """Set each declared hyperparameter that no flag gave: variable > config key > default.

    A given --config file is checked whole; ValueError or OSError names the bad file or variable.
    """
    config = _load_config_file(args.config) if getattr(args, "config", None) else {}
    defaults = HyperParams()
    for name in _HP:
        if getattr(args, name, None) is _UNSET:  # no flag gave it; absent: not this subcommand's
            var = _ENV_PREFIX + name.upper()
            raw = os.environ.get(var)
            value = config.get(name, getattr(defaults, name)) if raw is None else _coerce(name, raw, var)
            setattr(args, name, value)


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir: Path, command: str, config: dict, digest: str, timings: dict, extra: dict | None = None) -> None:
    manifest = {
        "version": __version__,
        "command": command,
        "seed": config.get("seed"),
        "input_digest": digest,
        "config": config,
        "timings": {k: round(v, 6) for k, v in timings.items()},
    }
    if extra:
        manifest.update(extra)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _write_rows(path: Path, header: list[str], rows) -> None:
    """Write a CSV table: the header, then ``rows``, one line each."""
    with path.open("w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        out.writerows(rows)


def _read_rows(path: Path) -> list[list[str]]:
    """Non-blank CSV rows; ValueError names the line of one wider or narrower than the first."""
    rows: list[list[str]] = []
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        for row in filter(None, reader):
            if rows and len(row) != len(rows[0]):
                raise ValueError(f"{path}: line {reader.line_num} has {len(row)} "
                                 f"cells but the first row has {len(rows[0])}")
            rows.append(row)
    return rows


def _read_by_id(path: Path, column: int) -> dict[str, str]:
    """Each row's ``column`` cell by its id, the row's first cell.

    Header rule: the first row is a header when its ``column`` cell is not
    a number (``float()`` rejects it), as in ``id,label`` or
    ``sample,cluster`` above numeric labels. Every label and score mpclust
    writes is a number; a file of non-numeric labels needs a header row.
    """
    rows = _read_rows(path)
    if rows and len(rows[0]) < 2:
        raise ValueError(f"{path}: need an id column and a value column")
    if rows and not _is_number(rows[0][column]):
        rows = rows[1:]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    values: dict[str, str] = {}
    for row in rows:
        if row[0] in values:
            raise ValueError(f"{path}: duplicate id {row[0]!r}")
        values[row[0]] = row[column]
    return values


def _aligned(a: Path, b: Path, column: int) -> tuple[list[str], list[str], list[str]]:
    """The ids of ``a`` in its row order, and both files' values at them.

    ValueError names the first id found in one file only (``a``'s first).
    """
    by_a, by_b = _read_by_id(a, column), _read_by_id(b, column)
    for ids, other, here, there in ((by_a, by_b, a, b), (by_b, by_a, b, a)):
        missing = next((i for i in ids if i not in other), None)
        if missing is not None:
            raise ValueError(f"id {missing!r} is in {here} but not in {there}")
    return list(by_a), list(by_a.values()), [by_b[i] for i in by_a]


def _numbers(path: Path, ids: list[str], values: list[str]) -> np.ndarray:
    """``values`` as floats; ValueError names ``path`` and the id of one that is not a number."""
    for i, v in zip(ids, values):
        if not _is_number(v):
            raise ValueError(f"{path}: non-numeric value {v!r} for id {i!r}")
    return np.array([float(v) for v in values])


def _add_hp_flag(p: argparse.ArgumentParser, name: str, help: str | None = None) -> None:
    """``name``'s flag, under ``help`` where the setting means something else here."""
    meta, parse = _HP[name].metadata, functools.partial(_parse, name)
    parse.__name__ = _field_type(HyperParams, name)[0].__name__  # argparse's "invalid int value" names it
    p.add_argument("--" + name.replace("_", "-"), type=parse, choices=meta.get("choices"),
                   default=_UNSET, help=help or meta["help"])


def _add_hp_flags(p: argparse.ArgumentParser, names: Iterable[str]) -> None:
    for name in names:
        _add_hp_flag(p, name)
    p.add_argument("--config", default=None, help="flat key=value config file")


def _comma_list(typ: type, choices: tuple[str, ...] | None = None):
    """An argparse type: a comma list of one or more ``typ`` values, blank items skipped."""
    wanted = ", ".join(choices) if choices else f"{typ.__name__} values"

    def parse(raw: str) -> tuple:
        try:
            values = tuple(typ(v.strip()) for v in raw.split(",") if v.strip())
        except ValueError:
            values = ()
        if not values or (choices and not set(values) <= set(choices)):
            raise argparse.ArgumentTypeError(f"expected a comma list of {wanted}, got {raw!r}")
        return values

    return parse


def _positive_int(raw: str) -> int:
    """An argparse type: an int >= 1."""
    if not raw.strip().isdigit() or int(raw) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive int, got {raw!r}")
    return int(raw)


_SYNTH_FLAGS = ("n_obs", "n_features", "n_signal", "rho")


def _add_synth_flags(p: argparse.ArgumentParser) -> None:
    spec = {f.name: f.default for f in dataclasses.fields(SynthSpec)}
    p.add_argument("--regime", choices=REGIMES, default=spec["regime"])
    for name in _SYNTH_FLAGS:
        typ = _field_type(SynthSpec, name)[0]
        p.add_argument("--" + name.replace("_", "-"), type=typ, default=spec[name])


def _spec_from_args(args: argparse.Namespace, **fields: object) -> SynthSpec:
    return SynthSpec(**{name: getattr(args, name) for name in ("regime", *_SYNTH_FLAGS)}, **fields)


class _Given(argparse.Action):
    """Store a flag's value, or True for a flag of ``nargs=0``, and add its dest to ``given``."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, True if self.nargs == 0 else values)
        namespace.given = namespace.given | {self.dest}


def _add_io_flags(p: argparse.ArgumentParser) -> None:
    p.set_defaults(given=frozenset())  # the dests of the _Given flags that the command line gave
    p.add_argument("--delimiter", default=",", action=_Given)
    p.add_argument("--no-header", action=_Given, nargs=0, default=False, help="input has no header row")
    p.add_argument("--no-ids", action=_Given, nargs=0, default=False, help="input has no id column")
    p.add_argument("--transpose", action=_Given, nargs=0, default=False, help="input is features x observations")
    p.add_argument("--log2", action=_Given, nargs=0, default=False, help="apply x -> log2(1+x) first")


def _load_input(args: argparse.Namespace) -> DataMatrix:
    matrix = load_matrix(
        args.input,
        delimiter=args.delimiter,
        header=not args.no_header,
        ids=not args.no_ids,
        transpose=args.transpose,
    )
    # Transform in place: freeing the loaded N x M table would raise glibc's
    # mmap threshold to its size, and with it the run's peak RSS.
    if args.log2:
        try:
            matrix = _log2_plus_one(matrix, out=matrix.values)
        except ValueError as exc:
            raise ValueError(f"{args.input}: --log2 needs nonnegative values: {exc}") from None
    return matrix


# -- subcommands --------------------------------------------------------------


def _cmd_cluster(args: argparse.Namespace) -> int:
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    data = _load_input(args)
    timings["load"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    result = run(data, HyperParams(**{n: getattr(args, n) for n in _HP}), collect_arrays=args.weight_trace)
    timings["run"] = time.perf_counter() - t0

    out_dir = Path(args.out)  # made only now: a run that fails leaves no --out directory
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    _write_rows(out_dir / "labels.csv", ["id", "label"], zip(data.row_ids, result.labels.tolist()))
    if args.consensus_format == "csv":
        save_consensus_csv(result.consensus, data.row_ids, out_dir / "consensus.csv")
    else:
        save_consensus_binary(result.consensus, out_dir / "consensus.bin")
    if result.feature_scores is not None:
        _write_rows(
            out_dir / "feature_scores.csv",
            ["feature_id", "score"],
            ((name, f"{score:.17g}") for name, score in zip(data.col_ids, result.feature_scores)),
        )
    _write_rows(
        out_dir / "trace.csv",
        ["iteration", "n_clusters", "confusion_pct", "high_obs", "high_feat", "seconds"],
        ((rec.iteration, rec.n_clusters, f"{rec.confusion_pct:.17g}", rec.high_obs, rec.high_feat,
          f"{rec.seconds:.6f}") for rec in result.trace),
    )
    if args.weight_trace:
        for name, attr in (("obs_weight_trace.csv", "obs_weights"),
                           ("feature_score_trace.csv", "feature_scores")):
            if getattr(result, attr) is not None:  # feature scores: impacc only
                _write_rows(
                    out_dir / name,
                    ["iteration", "index", "value"],
                    ((rec.iteration, i, f"{v:.17g}") for rec in result.trace
                     for i, v in enumerate(getattr(rec, attr))),
                )
    timings["write"] = time.perf_counter() - t0

    keys = [*_HP, "delimiter", "no_header", "no_ids", "transpose", "log2",
            "consensus_format", "weight_trace"]
    _write_manifest(
        out_dir,
        "cluster",
        {key: getattr(args, key) for key in keys},
        _digest(Path(args.input)),
        timings,
        {"iterations_run": result.iterations_run, "stop_reason": result.stop_reason,
         "stop_gap": stop_gap([rec.confusion_pct for rec in result.trace])},
    )
    print(
        f"{args.mode}: {result.iterations_run} iterations ({result.stop_reason}), "
        f"{int(result.labels.max()) + 1} clusters -> {out_dir}"
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args, snr=args.snr, cluster_sizes=args.cluster_sizes, seed=args.seed)
    t0 = time.perf_counter()
    data = generate(spec)
    timings = {"generate": time.perf_counter() - t0}
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    write_matrix(data.matrix, out_dir / "matrix.csv")
    _write_rows(out_dir / "labels.csv", ["id", "label"], zip(data.matrix.row_ids, data.labels.tolist()))
    _write_rows(
        out_dir / "mask.csv",
        ["feature_id", "is_signal"],
        zip(data.matrix.col_ids, data.signal_mask.astype(int).tolist()),
    )

    config = {name: getattr(spec, name) for name in ("snr", "regime", *_SYNTH_FLAGS, "seed")}
    config["cluster_sizes"] = list(spec.sizes())
    digest = hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()
    _write_manifest(out_dir, "simulate", config, digest, timings)
    print(f"{spec.regime}: {spec.n_obs}x{spec.n_features} -> {out_dir}")
    return 0


def _cmd_benchmark(args: argparse.Namespace) -> int:
    rows: list[tuple[str, float, int, float, str, float]] = []
    # every spec is built, and so checked, before the first dataset
    specs = [_spec_from_args(args, snr=snr, seed=args.seed + rep) for snr in args.snr for rep in range(args.reps)]
    for spec in specs:
        data = generate(spec)
        hp = HyperParams(k=len(spec.sizes()), seed=spec.seed)
        for method in args.methods:
            t0 = time.perf_counter()
            f1_text = ""
            if method == "hclust":
                labels = cut_k(ward_linkage(pairwise(data.matrix.values, hp.metric)), hp.k)
            else:
                result = run(data.matrix, dataclasses.replace(hp, mode=method))
                labels = result.labels
                if result.feature_scores is not None:
                    mask = select_by_score(result.feature_scores)
                    f1_text = f"{f1_features(mask, data.signal_mask):.6f}"
            elapsed = time.perf_counter() - t0
            rows.append((method, spec.snr, spec.seed, ari(labels, data.labels), f1_text, elapsed))

    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    out = Path(args.out)
    _write_rows(
        out,
        ["method", "snr", "seed", "ari", "f1", "seconds"],
        ((method, f"{snr:g}", seed, f"{ari_val:.6f}", f1_text, f"{elapsed:.4f}")
         for method, snr, seed, ari_val, f1_text, elapsed in rows),
    )
    print(f"{len(rows)} rows -> {out}")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    data = _load_input(args)
    grid = [(mf, nf) for mf in args.m_grid for nf in args.n_grid]
    result = tune_minipatch_size(data, grid, HyperParams(**{n: getattr(args, n) for n in _TUNE_HP}))

    _write_rows(
        Path(args.out),
        ["m_frac", "n_frac", "max_confusion", "iterations"],
        ((f"{m_frac:g}", f"{n_frac:g}", f"{conf:.17g}", iters) for m_frac, n_frac, conf, iters in result.cells),
    )
    print(f"chosen m_frac={result.m_frac:g} n_frac={result.n_frac:g} "
          f"max_confusion={result.max_confusion:.6g}")
    if not result.converged:
        print("warning: no grid cell reached max confusion < 0.01; "
              "reporting the most stable cell", file=sys.stderr)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    a, b = Path(args.a), Path(args.b)
    if args.what == "ari":
        _, labels_a, labels_b = _aligned(a, b, 1)
        at_fault, score = a, functools.partial(ari, np.array(labels_a), np.array(labels_b))
    else:
        ids, scores, truth = _aligned(a, b, -1)
        mask = select_by_score(_numbers(a, ids, scores), top_k=args.top_k)
        at_fault, score = b, functools.partial(f1_features, mask, _numbers(b, ids, truth).astype(bool))
    try:
        value = score()
    except ValueError as exc:  # fewer than 2 shared ids, or a mask with no positives
        raise ValueError(f"{at_fault}: {exc}") from None
    print(f"{value:.17g}")
    return 0


def _is_number(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def _cmd_hoeffding(args: argparse.Namespace) -> int:
    if args.input:
        data = _load_input(args)
        if data.values.min() == data.values.max():  # the experiment's own error names no file
            raise ValueError(f"{args.input}: constant matrix has zero range; cannot rescale")
    elif args.n_obs < 2:
        raise ValueError(f"n_obs must be >= 2, got {args.n_obs}")
    else:
        data = DataMatrix(_stream(args.seed).random((args.n_obs, args.n_features)),
                          tuple(f"obs_{i}" for i in range(args.n_obs)),
                          tuple(f"feat_{j}" for j in range(args.n_features)))
    rows = []
    for m_feat in args.m_feat:
        table = deviation_experiment(data, args.metric, m_feat, args.trials, list(args.eps), args.seed)
        rows += [(m_feat, f"{eps:g}", f"{empirical:.17g}", f"{bound:.17g}") for eps, empirical, bound in table]
    out = Path(args.out)
    _write_rows(out, ["m_feat", "eps", "empirical", "bound"], rows)
    print(f"{len(rows)} rows -> {out}")
    return 0


# -- parser -------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpclust",
        description="Minipatch consensus clustering (uniform and adaptive sampling)",
    )
    parser.add_argument("--version", action="version", version=f"mpclust {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("cluster", help="cluster a matrix and write labels + consensus")
    p.add_argument("input", help="matrix CSV/TSV (observations x features)")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--consensus-format", choices=("csv", "binary"), default="csv")
    p.add_argument("--weight-trace", action="store_true",
                   help="also write per-iteration weight/score traces")
    _add_hp_flags(p, _HP)
    _add_io_flags(p)
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("simulate", help="generate a synthetic benchmark dataset")
    _add_synth_flags(p)
    p.add_argument("--snr", type=float, required=True)
    p.add_argument("--cluster-sizes", type=_comma_list(int), default=None, help="comma list summing to n-obs")
    _add_hp_flag(p, "seed")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("benchmark", help="ARI/F1/runtime grid over SNR and seeds")
    p.add_argument("--snr", type=_comma_list(float), required=True, help="comma list of SNR values")
    p.add_argument("--reps", type=_positive_int, default=10)
    methods = (*MODES, "hclust")
    p.add_argument("--methods", type=_comma_list(str, methods), default=methods,
                   help=f"comma list of {', '.join(methods)}")
    _add_synth_flags(p)
    _add_hp_flag(p, "seed")
    p.add_argument("--out", default="benchmark.csv")
    p.set_defaults(func=_cmd_benchmark)

    p = sub.add_parser("tune", help="pick the smallest adequate minipatch size")
    p.add_argument("input")
    p.add_argument("--m-grid", type=_comma_list(float), required=True, help="comma list of m_frac values")
    p.add_argument("--n-grid", type=_comma_list(float), required=True, help="comma list of n_frac values")
    p.add_argument("--out", default="tune_report.csv")
    _add_hp_flags(p, _TUNE_HP)
    _add_io_flags(p)
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("eval", help="score labels (ARI) or feature scores (F1)")
    what = p.add_subparsers(dest="what", required=True)
    for name, a, b in (("ari", "labels CSV", "labels CSV"), ("f1", "scores CSV", "truth-mask CSV")):
        q = what.add_parser(name, help=f"{a} against {b}")
        q.add_argument("a", help=a)
        q.add_argument("b", help=b)
    q.add_argument("--top-k", type=int, default=None,  # f1's alone
                   help="select the k best-scored features instead of mean+sd")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("hoeffding-check", help="feature-subsampling deviation table")
    p.add_argument("--input", default=None, help="matrix CSV (default: uniform random)")
    p.add_argument("--n-obs", type=_positive_int, default=50, action=_Given)
    p.add_argument("--n-features", type=_positive_int, default=100, action=_Given)
    p.add_argument("--m-feat", type=_comma_list(int), default=(10,), help="comma list of subsample sizes")
    p.add_argument("--eps", type=_comma_list(float), default=(0.05, 0.1, 0.2, 0.3),
                   help="comma list of deviations")
    p.add_argument("--trials", type=int, default=10000)
    _add_hp_flag(p, "metric", help="per-feature contribution: |x-y| (manhattan) or (x-y)^2 (sq_euclidean)")
    _add_hp_flag(p, "seed")
    p.add_argument("--out", default="hoeffding.csv")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_hoeffding)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.cmd == "hoeffding-check":  # a flag that its data source does not read changes no output
        random_only = {"n_obs", "n_features"}  # the others given are the input's flags
        unread = sorted(args.given & random_only if args.input else args.given - random_only)
        if unread:
            parser.error(f"argument --{unread[0].replace('_', '-')}: not allowed "
                         f"{'with' if args.input else 'without'} argument --input")
    try:
        _resolve(args)
    except (ValueError, OSError) as exc:  # bad --config file or MPCLUST_* value
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        held = {"hoeffding-check": "the experiment holds a --trials x features table, so fewer trials",
                "simulate": "the matrix holds --n-obs x --n-features values, so fewer of either",
                "eval": "each file is read whole, so smaller files"}.get(
            args.cmd, "the consensus holds N x N pair counts, so fewer observations")
        print(f"error: out of memory{detail}; {held} need less", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
