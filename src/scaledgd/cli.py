"""Command-line interface: run / sweep / rip subcommands.

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
from .experiments import (PRESETS, SweepSpec, emit_csv, point_config, point_instance,
                          preset_spec, run_sweep)
from .rng import derive_seed
from .sensing import estimate_rip_constant, gaussian_operator, identity_operator
from .solver import DivergenceError, PreconditionerError, run


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
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            out[key] = value
    return out


_SPEC_TYPES = typing.get_type_hints(SweepSpec)


def _config_value(key: str, text: str):
    """A config value parsed as the type SweepSpec declares for `key`; 'none'
    (or 'auto', as for m) is None where the field allows it."""
    if key not in _SPEC_TYPES:
        raise ValueError(f"unknown sweep config key {key!r}")
    hint = _SPEC_TYPES[key]
    kinds = typing.get_args(hint) or (hint,)
    if type(None) in kinds and text in ("none", "auto"):
        return None
    for kind in kinds:  # float before str, so `lam = auto` stays a string
        if kind is not type(None):
            try:
                if kind is tuple:
                    return tuple(float(v) for v in text.split(",")) if text else ()
                return kind(text)
            except ValueError:
                pass
    raise ValueError(f"bad value {text!r} for setting {key!r}")


def _config_text(value) -> str:
    """A SweepSpec value written as _config_value reads it."""
    if value is None:
        return "none"
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return str(value)


def _spec_fields(args) -> dict:
    """The SweepSpec fields set on the command line, each parsed as a config
    file parses it; `run` and `sweep` name their flags' dests after the
    fields."""
    return {key: _config_value(key, text) for key, text in vars(args).items()
            if key in _SPEC_TYPES and text is not None}


# -- run ------------------------------------------------------------------------


def _run_spec(args) -> SweepSpec:
    """A run as a one-point kappa sweep: a preset's settings or SweepSpec's
    defaults, then the flags.  Without a preset, a run has no target, 1500
    iterations and, when no stopping rule is set, a patience of 100."""
    # on the kappa axis from the start: fig-alpha's axis would drop a --target
    fields = dict(_spec_fields(args), axis="kappa", values=(0,))
    if args.preset:
        spec = preset_spec(args.preset, **fields)
    else:
        fields = {"target_rel_err": None, "max_iters": 1500, **fields}
        if fields["target_rel_err"] is None:
            fields.setdefault("patience", 100)
        spec = SweepSpec(**fields)
    return replace(spec, values=(spec.kappa,))


def cmd_run(args) -> int:
    if args.operator == "identity" and args.m is not None:
        raise ValueError("--m does not apply to --operator identity (m = n(n+1)/2)")
    spec = _run_spec(args)
    seed = spec.master_seed
    gt, op, y = point_instance(
        spec, seed, identity_operator(spec.n) if args.operator == "identity" else None)

    # ScaledGD(lambda) estimates lambda at r* as the sweeps do; the other
    # algorithms are undamped unless --lambda
    if spec.lam == "auto" and args.algorithm != "scaled-gd-lambda":
        spec = replace(spec, lam=0.0)
    config = replace(point_config(spec, seed, op, y),
                     algorithm=args.algorithm.replace("-", "_"),
                     init=args.init.replace("-", "_"))

    failed = None
    try:
        traj = run(op, y, config, oracle=gt, collect_diagnostics=args.diagnostics)
    except (DivergenceError, PreconditionerError) as exc:
        failed, traj = exc, exc.trajectory  # write what was recorded, then exit 1
    emit_csv(traj, args.out)
    _write_sidecar(args.out, {
        "kind": "trajectory", "algorithm": args.algorithm, "n": spec.n,
        "r_star": spec.r_star, "r": spec.r, "kappa": spec.kappa, "m": op.m,
        "operator": args.operator, "eta": spec.eta, "lambda": config.lam,
        "damping_frac": spec.damping_frac if spec.lam == "auto" else None,
        "alpha": spec.alpha, "init": args.init, "sigma": spec.sigma, "seed": seed,
        "target": spec.target_rel_err, "patience": spec.patience,
        "improve_tol": spec.improve_tol, "max_iters": spec.max_iters,
        "record_every": spec.record_every, "stop_reason": traj.stop_reason,
        "final_iter": traj.final_state.t, "final_loss": traj.final_state.loss,
        "version": __version__,
    })
    if failed is not None:
        raise failed
    last = traj.records[-1]
    print(f"stop={traj.stop_reason} iters={traj.final_state.t} "
          f"loss={traj.final_state.loss:.3e} rel_err_fro={last.rel_err_fro:.3e}")
    return 0


# -- sweep ------------------------------------------------------------------------


# the keys of a sweep's sidecar besides its spec.* settings
_SWEEP_SIDECAR_KEYS = ("kind", "records", "version")


def _sweep_spec_from_config(raw: dict, **fields) -> SweepSpec:
    """A `preset` key's settings, then the other keys, then `fields`.  A
    sweep's `.meta` sidecar is a config too: its `spec.` keys are the fields."""
    raw = {key.removeprefix("spec."): text for key, text in raw.items()
           if key not in _SWEEP_SIDECAR_KEYS}
    kwargs = {key: _config_value(key, text)
              for key, text in raw.items() if key != "preset"}
    kwargs.update(fields)
    try:
        return (preset_spec(raw["preset"], **kwargs) if "preset" in raw
                else SweepSpec(**kwargs))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad sweep configuration: {exc}") from exc


def cmd_sweep(args) -> int:
    if (args.preset is None) == (args.config is None):
        raise ValueError("pass exactly one of --preset or --config")
    fields = _spec_fields(args)
    spec = (preset_spec(args.preset, **fields) if args.preset
            else _sweep_spec_from_config(_parse_kv_file(args.config), **fields))
    records = run_sweep(spec)
    emit_csv(records, args.out)
    meta = {f"spec.{k}": _config_text(getattr(spec, k)) for k in spec.__dataclass_fields__}
    meta.update({"kind": "sweep", "records": len(records), "version": __version__})
    _write_sidecar(args.out, meta)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


# -- rip ------------------------------------------------------------------------


def cmd_rip(args) -> int:
    op = gaussian_operator(args.n, args.m, args.seed)
    est = estimate_rip_constant(op, args.rank, args.trials, derive_seed(args.seed, 99))
    print(f"rank={args.rank} trials={args.trials} delta_hat={est.delta_hat:.6f} "
          f"min_ratio={est.min_ratio:.6f} max_ratio={est.max_ratio:.6f}")
    print("note: delta_hat is a sampled lower bound on the true constant")
    return 0


# -- parser ------------------------------------------------------------------------

# The setting flags of `run` and `sweep` as (flag, SweepSpec field, help).  A
# flag sets its field, parsed as a config file parses it, so `none` and `auto`
# mean what they mean there; a field no flag sets keeps the preset's value or,
# without a preset, SweepSpec's (run has defaults of its own, see _run_spec).
_RUN_SETTINGS = (
    ("--n", "n", "ambient dimension"),
    ("--r-star", "r_star", "true rank"),
    ("--kappa", "kappa", "condition number"),
    ("--r", "r", "factor rank"),
    ("--m", "m", "measurements, or auto for 10 n r_star"),
    ("--eta", "eta", "learning rate"),
    ("--lambda", "lam", "fixed damping parameter, or auto to estimate it"),
    ("--alpha", "alpha", "initialization scale"),
    ("--sigma", "sigma", "noise level"),
    ("--max-iters", "max_iters", "iteration budget"),
    ("--target", "target_rel_err", "stop at this relative error, or none"),
    ("--patience", "patience", "early-stopping patience window, or none"),
    ("--improve-tol", "improve_tol", "relative loss improvement threshold"),
    ("--seed", "master_seed", "master seed"),
    ("--record-every", "record_every", "record spacing in iterations"),
)
_SWEEP_SETTINGS = (
    ("--trials", "trials", "independent seeds per point"),
    ("--seed", "master_seed", "master seed"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scaledgd",
        description="Damped preconditioned gradient descent for "
                    "overparameterized low-rank matrix sensing")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one solver trajectory")
    p.add_argument("--algorithm", default="scaled-gd-lambda",
                   choices=("scaled-gd-lambda", "gd", "scaled-gd", "prec-gd"),
                   help="solver (default scaled-gd-lambda)")
    p.add_argument("--preset", help="take the settings of a sweep preset: "
                   + ", ".join(sorted(PRESETS)))
    p.add_argument("--operator", choices=("gaussian", "identity"),
                   default="gaussian", help="sensing operator (default gaussian)")
    p.add_argument("--init", choices=("small-random", "spectral"),
                   default="small-random", help="initialization (default small-random)")
    for flag, dest, text in _RUN_SETTINGS:
        p.add_argument(flag, dest=dest, help=text)
    p.add_argument("--diagnostics", action="store_true",
                   help="record phase metrics at every record point")
    p.add_argument("--out", required=True, help="trajectory CSV path")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="run a parameter sweep")
    p.add_argument("--preset", help="sweep preset: " + ", ".join(sorted(PRESETS)))
    p.add_argument("--config", help="key = value sweep config file")
    for flag, dest, text in _SWEEP_SETTINGS:
        p.add_argument(flag, dest=dest, help=text)
    p.add_argument("--out", required=True, help="sweep CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("rip", help="estimate a restricted isometry constant")
    p.add_argument("--n", type=int, required=True, help="ambient dimension")
    p.add_argument("--m", type=int, required=True, help="measurements")
    p.add_argument("--rank", type=int, required=True, help="rank of test matrices")
    p.add_argument("--trials", type=int, default=200, help="sampled matrices (default 200)")
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.set_defaults(func=cmd_rip)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except np.linalg.LinAlgError as exc:  # a ValueError, but a runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures (I/O, divergence, ...)
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
