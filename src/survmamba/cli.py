"""Command-line entry points.

Subcommands: synth (generate a dataset directory), train (fit one fold,
write a checkpoint), eval (held-out metrics + KM table), gradcheck
(finite-difference verification), scan-bench (scan timing per length),
km (two-group Kaplan-Meier table + log-rank summary from risk/outcome
files).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .dataio import load_checkpoint, load_dataset, read_config, read_text, save_checkpoint, save_dataset
from .errors import ConfigError, DataError, NonFiniteError
from .gradsuite import run_grad_checks
from .ssm import bench_scan
from .survstats import SurvivalOutcome
from .synth import SynthSpec, synth_generate
from .training import TrainConfig, build_model, compare_strata, evaluate, train


def _cmd_synth(args):
    spec = read_config(SynthSpec, args.spec) if args.spec else SynthSpec()
    dataset = synth_generate(spec, seed=args.seed, t_bins=args.t_bins)
    manifest = save_dataset(dataset, args.out)
    print(f"wrote {len(dataset)} patients to {manifest}")
    return 0


def _load_cfg(path) -> TrainConfig:
    return read_config(TrainConfig, path) if path else TrainConfig()


def _check_out_dir(flag: str, path):
    """Refuse an output path (if one is given) that is a directory or lies
    in a missing one, before any work."""
    if path and Path(path).is_dir():
        raise ConfigError(f"{flag}: {path!r} is a directory, not a file path")
    if path and not Path(path).parent.is_dir():
        raise ConfigError(f"{flag}: directory {str(Path(path).parent)!r} of {path!r} does not exist")


def _cmd_train(args):
    _check_out_dir("--out", args.out)
    cfg = _load_cfg(args.config)
    dataset = load_dataset(args.data, t_bins=cfg.t_bins)
    model, trace = train(dataset, args.fold, cfg)
    save_checkpoint(model, args.out)
    for ep, loss in enumerate(trace):
        print(f"epoch {ep:3d} mean_loss {loss:.6f}")
    print(f"wrote checkpoint {args.out}")
    return 0


def _logrank_line(chi2: float, p: float, degenerate: bool) -> str:
    flag = " degenerate" if degenerate else ""
    return f"# logrank chi2={chi2:.6f} p={p:.6g}{flag}"


def _print_km_table(curves, summary: str, out=None):
    """Tab-separated KM rows for each (group name, curve) pair, then the
    summary line; out=None prints to the current sys.stdout."""
    print("group\ttime\tsurvival\tat_risk\tevents", file=out)
    for name, curve in curves:
        for t, s, n, d in zip(curve.times, curve.survival, curve.at_risk, curve.events):
            print(f"{name}\t{t:.6g}\t{s:.6f}\t{n}\t{d}", file=out)
    print(summary, file=out)


def _cmd_eval(args):
    _check_out_dir("--km-out", args.km_out)
    cfg = _load_cfg(args.config)
    dataset = load_dataset(args.data, t_bins=cfg.t_bins)
    model = build_model(dataset, cfg)
    load_checkpoint(model, args.ckpt)
    report = evaluate(model, dataset, args.fold)
    cidx = "undefined" if report.c_index is None else f"{report.c_index:.4f}"
    print(f"fold {args.fold}: c-index {cidx}  logrank p {report.p_value:.4g}")
    if report.diagnostic:
        print(f"note: {report.diagnostic}")
    curves = [(name, c) for name, c in (("low", report.km_low), ("high", report.km_high)) if c is not None]
    summary = _logrank_line(report.chi2, report.p_value, report.logrank_degenerate)
    if args.km_out:
        with open(args.km_out, "w") as fh:
            _print_km_table(curves, summary, out=fh)
        print(f"wrote KM table {args.km_out}")
    else:
        _print_km_table(curves, summary)
    return 0


def _cmd_gradcheck(args):
    results = run_grad_checks(args.module)
    worst_fail = False
    for name, err, bound in results:
        status = "PASS" if err <= bound else "FAIL"
        worst_fail |= err > bound
        print(f"{status} {name:40s} max_rel_err {err:.3e} (bound {bound:.0e})")
    return 1 if worst_fail else 0


def _cmd_scan_bench(args):
    try:
        lengths = [int(tok) for tok in args.len.split(",")]
    except ValueError:
        raise ConfigError(f"scan-bench: --len takes comma-separated integers, got {args.len!r}") from None
    rows = bench_scan(lengths, channels=args.channels, state=args.state, reps=args.reps)
    print(f"{'len':>8s} {'seconds':>12s}")
    for r in rows:
        print(f"{r['length']:8d} {r['seconds']:12.6f}")
    for r in rows:
        print(f"RESULT len={r['length']} seconds={r['seconds']:.9f}")
    return 0


def _read_rows(path, fields: int, layout: str):
    """(line number, values) for each line of `fields` finite numbers,
    skipping blank and '#' lines; DataError names the file and line."""
    rows = []
    for i, ln in enumerate(read_text(path, "input file").splitlines(), start=1):
        toks = ln.split()
        if not toks or toks[0].startswith("#"):
            continue
        if len(toks) != fields:
            raise DataError(f"{path}: line {i}: expected {layout}, got {len(toks)} fields")
        vals = []
        for tok in toks:
            try:
                v = float(tok)
            except ValueError:
                v = math.nan
            if not math.isfinite(v):
                raise DataError(f"{path}: line {i}: {tok!r} is not a finite number")
            vals.append(v)
        rows.append((i, vals))
    return rows


def _read_outcomes(path):
    outcomes = []
    for i, (t, e) in _read_rows(path, 2, "'<time> <event>'"):
        if t <= 0:
            raise DataError(f"{path}: line {i}: time must be positive, got {t!r}")
        if e not in (0.0, 1.0):
            raise DataError(f"{path}: line {i}: event must be 0 or 1, got {e!r}")
        outcomes.append(SurvivalOutcome(time=t, event=int(e)))
    return outcomes


def _cmd_km(args):
    risks = np.asarray([r for _, (r,) in _read_rows(args.risks, 1, "one risk")], dtype=np.float64)
    outcomes = _read_outcomes(args.outcomes)
    if len(risks) != len(outcomes):
        raise DataError(f"{args.risks} has {len(risks)} risks but {args.outcomes} has {len(outcomes)} outcomes")
    if len(risks) < 2:
        raise DataError(f"{args.risks}: the median split needs at least 2 patients, got {len(risks)}")
    _, curves, lr = compare_strata(risks, outcomes)
    _print_km_table(curves, _logrank_line(lr.chi2, lr.p, lr.degenerate))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="survmamba", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset directory")
    p.add_argument("--spec", help="JSON file of generator fields (defaults used when omitted)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--t-bins", type=int, default=4)
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("train", help="train one fold and write a checkpoint")
    p.add_argument("--data", required=True, help="manifest path")
    p.add_argument("--fold", type=int, required=True)
    p.add_argument("--config", help="JSON TrainConfig (defaults when omitted)")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a held-out fold")
    p.add_argument("--data", required=True)
    p.add_argument("--fold", type=int, required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--config", help="JSON TrainConfig used at training time")
    p.add_argument("--km-out", help="write the KM table here instead of stdout")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--module", default="all",
                   choices=["all", "numerics", "ssm", "blocks", "hierarchy", "pipeline"])
    p.set_defaults(fn=_cmd_gradcheck)

    p = sub.add_parser("scan-bench", help="time the recurrent scan per sequence length")
    p.add_argument("--len", default="1024,2048,4096,8192", help="comma-separated lengths")
    p.add_argument("--channels", type=int, default=8)
    p.add_argument("--state", type=int, default=8)
    p.add_argument("--reps", type=int, default=5)
    p.set_defaults(fn=_cmd_scan_bench)

    p = sub.add_parser("km", help="two-group KM table from risk/outcome files")
    p.add_argument("--risks", required=True, help="one risk per line")
    p.add_argument("--outcomes", required=True, help="lines of '<time> <event>'")
    p.set_defaults(fn=_cmd_km)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


def run(argv=None) -> int:
    """Console entry: main(), with bad input, a non-finite result or a failed
    write reported as one `error: <message>` line on stderr and exit status 2."""
    try:
        return main(argv)
    except (DataError, ConfigError, NonFiniteError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(run())
