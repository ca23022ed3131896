"""Command-line interface: gen / run / sweep / diag / rip subcommands.

Every invocation is fully determined by its flags (plus config file and
defaults); the resolved settings are echoed into a `<output>.meta` sidecar
so any output can be reproduced by re-invocation.  Exit codes: 0 success,
2 flag/config validation error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import sys
import typing
from dataclasses import replace

import numpy as np

from . import __version__
from .experiments import (DAMPING_FRAC, PRESETS, TAG_NOISE, TAG_OPERATOR,
                          TAG_TRUTH, SweepSpec, emit_csv, point_config,
                          preset_spec, run_sweep)
from .problem import NoiseModel, dense_m_star, make_ground_truth
from .rng import derive_seed
from .sensing import estimate_rip_constant, gaussian_operator, identity_operator, measure
from .solver import Trajectory, TrajectoryRecord, estimate_damping, run

INSTANCE_FORMAT_VERSION = 1


class CliError(ValueError):
    pass


def _write_sidecar(path: str, settings: dict) -> None:
    with open(path + ".meta", "w") as fh:
        for key in sorted(settings):
            fh.write(f"{key} = {settings[key]}\n")


def _parse_kv_file(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CliError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            out[key] = value
    return out


def _spec_fields(args) -> dict:
    """The SweepSpec fields set on the command line; `run` and `sweep` name
    their flags' dests after the fields."""
    return {key: value for key, value in vars(args).items()
            if key in SweepSpec.__dataclass_fields__ and value is not None}


# -- gen ------------------------------------------------------------------------


def cmd_gen(args) -> int:
    gt = make_ground_truth(args.n, args.r_star, args.kappa, args.seed,
                           spacing=args.spacing)
    m_star = dense_m_star(gt)
    matrix_path = f"{args.out}.{'npy' if args.format == 'npy' else 'txt'}"
    if args.format == "npy":
        np.save(matrix_path, m_star)
    else:
        np.savetxt(matrix_path, m_star, fmt="%.17e")
    spectrum = ",".join(format(v, ".17e") for v in gt.sigma_star)
    _write_sidecar(args.out, {
        "format_version": INSTANCE_FORMAT_VERSION, "kind": "instance",
        "n": gt.n, "r_star": gt.r_star, "kappa": args.kappa, "seed": args.seed,
        "spacing": args.spacing, "spectrum": spectrum, "matrix_file": matrix_path,
    })
    print(f"wrote {matrix_path} and {args.out}.meta")
    return 0


def _load_instance(meta_path: str):
    raw = _parse_kv_file(meta_path)
    try:
        version = int(raw["format_version"])
        if version != INSTANCE_FORMAT_VERSION:
            raise CliError(f"unsupported instance format_version {version}")
        return make_ground_truth(int(raw["n"]), int(raw["r_star"]),
                                 float(raw["kappa"]), int(raw["seed"]),
                                 spacing=raw.get("spacing", "linear"))
    except KeyError as exc:
        raise CliError(f"instance file {meta_path} missing key {exc}") from exc


# -- run ------------------------------------------------------------------------


def _run_spec(args, gt) -> SweepSpec:
    """A run as a one-point kappa sweep: a preset's settings or SweepSpec's
    defaults, then the flags, then the instance's n, r* and kappa.  Without a
    preset, a run has no target, 1500 iterations and, when no stopping rule
    is set, a patience of 100."""
    fields = _spec_fields(args)
    if gt is not None:
        fields.update(n=gt.n, r_star=gt.r_star, kappa=gt.condition_number())
    if args.preset:
        spec = preset_spec(args.preset, **fields)
    else:
        fields = {"target_rel_err": None, "max_iters": 1500, **fields}
        if fields["target_rel_err"] is None:
            fields.setdefault("patience", 100)
        spec = SweepSpec(axis="kappa", values=(0,), **fields)  # values set below
    return replace(spec, axis="kappa", values=(spec.kappa,))


def cmd_run(args) -> int:
    if args.lam is not None and args.lambda_auto is not None:
        raise CliError("pass either --lambda or --lambda-auto, not both")
    gt = _load_instance(args.instance) if args.instance else None
    spec = _run_spec(args, gt)
    seed = spec.master_seed
    if gt is None:
        gt = make_ground_truth(spec.n, spec.r_star, spec.kappa,
                               derive_seed(seed, TAG_TRUTH))
    if args.operator == "identity":
        op = identity_operator(spec.n)
    else:
        op = gaussian_operator(spec.n, spec.measurements,
                               derive_seed(seed, TAG_OPERATOR), backend=spec.backend)
    y = measure(op, gt, NoiseModel(sigma=spec.sigma,
                                   seed=derive_seed(seed, TAG_NOISE))).y

    # ScaledGD(lambda) estimates lambda at r* as the sweeps do, --lambda-auto at
    # its own rank guess; the other algorithms are undamped unless --lambda
    estimated = args.lambda_auto is not None or (
        spec.lam == "auto" and args.algorithm == "scaled-gd-lambda")
    if args.lambda_auto is not None:
        spec = replace(spec, lam=estimate_damping(
            op, y, args.lambda_auto, c_frac=spec.damping_frac).lambda_hat)
    elif spec.lam == "auto" and args.algorithm != "scaled-gd-lambda":
        spec = replace(spec, lam=0.0)
    config = replace(point_config(spec, seed, spec.kappa, op, y),
                     algorithm=args.algorithm.replace("-", "_"),
                     init=args.init.replace("-", "_"))

    checkpoints = []
    hook = (lambda t, x: checkpoints.append((t, x))) if args.checkpoints else None
    traj = run(op, y, config, oracle=gt,
               collect_diagnostics=args.diagnostics, checkpoint_hook=hook)
    emit_csv(traj, args.out)
    if args.checkpoints:
        arrays = {f"x_{t:08d}": x for t, x in checkpoints}
        arrays["iters"] = np.array([t for t, _ in checkpoints])
        np.savez(args.checkpoints, **arrays)
    _write_sidecar(args.out, {
        "kind": "trajectory", "algorithm": args.algorithm, "n": spec.n,
        "r_star": spec.r_star, "r": spec.r, "kappa": spec.kappa, "m": op.m,
        "operator": args.operator, "backend": spec.backend,
        "eta": spec.eta, "lambda": config.lam,
        "damping_frac": spec.damping_frac if estimated else None,
        "alpha": spec.alpha, "init": args.init, "sigma": spec.sigma, "seed": seed,
        "target": spec.target_rel_err, "patience": spec.patience,
        "improve_tol": spec.improve_tol, "max_iters": spec.max_iters,
        "record_every": spec.record_every, "stop_reason": traj.stop_reason,
        "final_iter": traj.final_state.t, "final_loss": traj.final_state.loss,
        "version": __version__,
    })
    last = traj.records[-1]
    print(f"stop={traj.stop_reason} iters={traj.final_state.t} "
          f"loss={traj.final_state.loss:.3e} "
          f"rel_err_fro={last.rel_err_fro if last.rel_err_fro is not None else float('nan'):.3e}")
    return 0


# -- sweep ------------------------------------------------------------------------


_SPEC_TYPES = typing.get_type_hints(SweepSpec)


def _config_value(key: str, text: str):
    """A config value parsed as the type SweepSpec declares for `key`; 'none'
    (or 'auto', as for m) is None where the field allows it."""
    if key not in _SPEC_TYPES:
        raise CliError(f"unknown sweep config key {key!r}")
    hint = _SPEC_TYPES[key]
    kinds = typing.get_args(hint) or (hint,)
    if type(None) in kinds and text in ("none", "auto"):
        return None
    if hint is tuple:
        return tuple(float(v) for v in text.split(","))
    for kind in kinds:  # float before str, so `lam = auto` stays a string
        if kind is not type(None):
            try:
                return kind(text)
            except ValueError:
                pass
    raise CliError(f"bad value {text!r} for sweep config key {key!r}")


def _sweep_spec_from_config(raw: dict, **fields) -> SweepSpec:
    """A `preset` key's settings, then the other keys, then `fields`."""
    kwargs = {key: _config_value(key, text)
              for key, text in raw.items() if key != "preset"}
    kwargs.update(fields)
    try:
        return (preset_spec(raw["preset"], **kwargs) if "preset" in raw
                else SweepSpec(**kwargs))
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad sweep configuration: {exc}") from exc


def cmd_sweep(args) -> int:
    if (args.preset is None) == (args.config is None):
        raise CliError("pass exactly one of --preset or --config")
    fields = _spec_fields(args)
    spec = (preset_spec(args.preset, **fields) if args.preset
            else _sweep_spec_from_config(_parse_kv_file(args.config), **fields))
    records = run_sweep(spec)
    emit_csv(records, args.out)
    meta = {f"spec.{k}": getattr(spec, k) for k in spec.__dataclass_fields__}
    meta.update({"kind": "sweep", "records": len(records), "version": __version__})
    _write_sidecar(args.out, meta)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


# -- diag ------------------------------------------------------------------------


def cmd_diag(args) -> int:
    from .diagnostics import decompose_iterate, phase_metrics, reconstruction_error

    gt = _load_instance(args.instance)
    data = np.load(args.checkpoints)
    iters = data["iters"]
    records = []
    for t in iters:
        x = data[f"x_{int(t):08d}"]
        rel_fro, rel_op = reconstruction_error(x, gt)
        # the loss and the elapsed time are not reconstructible from checkpoints
        records.append(TrajectoryRecord(
            t=int(t), loss=None, rel_err_fro=rel_fro, rel_err_op=rel_op,
            metrics=phase_metrics(decompose_iterate(x, gt), gt, args.lam),
            elapsed_ms=None))
    emit_csv(Trajectory(records=tuple(records), stop_reason="replayed",
                        final_state=None), args.out)
    _write_sidecar(args.out, {"kind": "diagnostics", "instance": args.instance,
                              "checkpoints": args.checkpoints, "lambda": args.lam,
                              "version": __version__})
    print(f"wrote diagnostics for {len(iters)} checkpoints to {args.out}")
    return 0


# -- rip ------------------------------------------------------------------------


def cmd_rip(args) -> int:
    if args.operator == "identity":
        op = identity_operator(args.n)
    else:
        op = gaussian_operator(args.n, args.m, args.seed, backend=args.backend)
    est = estimate_rip_constant(op, args.rank, args.trials, derive_seed(args.seed, 99))
    print(f"rank={est.rank} trials={est.trials} delta_hat={est.delta_hat:.6f} "
          f"min_ratio={est.min_ratio:.6f} max_ratio={est.max_ratio:.6f}")
    print("note: delta_hat is a sampled lower bound on the true constant")
    return 0


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scaledgd",
        description="Damped preconditioned gradient descent for "
                    "overparameterized low-rank matrix sensing")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a planted problem instance")
    p.add_argument("--n", type=int, required=True, help="ambient dimension")
    p.add_argument("--r-star", type=int, required=True, help="true rank")
    p.add_argument("--kappa", type=float, default=2.0, help="condition number (default 2)")
    p.add_argument("--seed", type=int, default=0, help="instance seed (default 0)")
    p.add_argument("--spacing", choices=("linear", "geometric"), default="linear",
                   help="spectrum spacing (default linear)")
    p.add_argument("--format", choices=("npy", "txt"), default="npy",
                   help="matrix file format (default npy)")
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("run", help="run one solver trajectory")
    p.add_argument("--algorithm", default="scaled-gd-lambda",
                   choices=("scaled-gd-lambda", "gd", "scaled-gd", "prec-gd"),
                   help="solver (default scaled-gd-lambda)")
    p.add_argument("--preset", help="take the settings of a sweep preset: "
                   + ", ".join(sorted(PRESETS)))
    p.add_argument("--instance", help="instance .meta file from `gen`")
    p.add_argument("--n", type=int, help="ambient dimension (default 60)")
    p.add_argument("--r-star", type=int, help="true rank (default 3)")
    p.add_argument("--kappa", type=float, help="condition number (default 2)")
    p.add_argument("--r", type=int, help="factor rank (default 5)")
    p.add_argument("--m", type=int, help="measurements (default 10*n*r_star)")
    p.add_argument("--operator", choices=("gaussian", "identity"),
                   default="gaussian", help="sensing operator (default gaussian)")
    p.add_argument("--backend", choices=("dense", "streamed"),
                   help="gaussian operator backend (default dense)")
    p.add_argument("--eta", type=float, help="learning rate (default 0.3)")
    p.add_argument("--lambda", dest="lam", type=float,
                   help="fixed damping parameter")
    p.add_argument("--lambda-auto", type=int, metavar="RANK_GUESS",
                   help="estimate damping as a fraction (the sweeps' "
                        f"{DAMPING_FRAC}) of the RANK_GUESS-th eigenvalue of A*(y)")
    p.add_argument("--alpha", type=float, help="initialization scale (default 1e-27)")
    p.add_argument("--init", choices=("small-random", "spectral"),
                   default="small-random", help="initialization (default small-random)")
    p.add_argument("--sigma", type=float, help="noise level (default 0)")
    p.add_argument("--max-iters", type=int, help="iteration budget (default 1500)")
    p.add_argument("--target", dest="target_rel_err", type=float,
                   help="stop at this relative error")
    p.add_argument("--patience", type=int, help="early-stopping patience window")
    p.add_argument("--improve-tol", type=float,
                   help="relative loss improvement threshold (default 1e-3)")
    p.add_argument("--seed", dest="master_seed", type=int,
                   help="master seed (default 0)")
    p.add_argument("--record-every", type=int,
                   help="record spacing in iterations (default 1)")
    p.add_argument("--diagnostics", action="store_true",
                   help="record phase metrics at every record point")
    p.add_argument("--checkpoints", help="save factor checkpoints to this .npz")
    p.add_argument("--out", required=True, help="trajectory CSV path")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="run a parameter sweep")
    p.add_argument("--preset", help="sweep preset: " + ", ".join(sorted(PRESETS)))
    p.add_argument("--config", help="key = value sweep config file")
    p.add_argument("--trials", type=int, help="independent seeds per point")
    p.add_argument("--seed", dest="master_seed", type=int, help="master seed")
    p.add_argument("--out", required=True, help="sweep CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("diag", help="replay checkpoints into a phase-metrics CSV")
    p.add_argument("--checkpoints", required=True, help=".npz from `run --checkpoints`")
    p.add_argument("--instance", required=True, help="instance .meta file")
    p.add_argument("--lambda", dest="lam", type=float, default=0.0,
                   help="damping used for the scaled signal metric (default 0)")
    p.add_argument("--out", required=True, help="diagnostics CSV path")
    p.set_defaults(func=cmd_diag)

    p = sub.add_parser("rip", help="estimate a restricted isometry constant")
    p.add_argument("--n", type=int, required=True, help="ambient dimension")
    p.add_argument("--m", type=int, help="measurements (gaussian operator)")
    p.add_argument("--rank", type=int, required=True, help="rank of test matrices")
    p.add_argument("--trials", type=int, default=200, help="sampled matrices (default 200)")
    p.add_argument("--operator", choices=("gaussian", "identity"),
                   default="gaussian", help="operator kind (default gaussian)")
    p.add_argument("--backend", choices=("dense", "streamed"), default="dense",
                   help="gaussian backend (default dense)")
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.set_defaults(func=cmd_rip)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "rip" \
            and args.operator == "gaussian" and args.m is None:
        parser.error("rip with a gaussian operator requires --m")
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures (I/O, divergence, ...)
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
