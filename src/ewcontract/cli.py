"""Command-line entry point.

Three subcommands:

* ``verify``   -- run named verification suites and emit a report
* ``spectrum`` -- print the extracted particle masses
* ``expand``   -- dump the scale-expansion coefficients of the bosonic
  density for a seeded random configuration

The command line and the config file are the only inputs, and each
setting comes from one of them. The config file holds couplings and
sample counts; no input changes a gate's tolerance. The argument parser
is built once per process, on the first ``main`` call, and help reads
the terminal width when printed. ``main`` reads the config file and
builds the couplings once for every command, which takes only the flags
it reads. JSON is the machine format (schema-versioned, deterministic
for a fixed config up to the timestamp field), built by ``_sanitize``
from the result dataclasses; CSV is for spectrum only. Reports are
strict JSON: a computed value that is not finite is written as null.
``verify`` runs its suites in up to one process per usable CPU, forked
from this one and each pinned to its own CPU, since a kernel need not
spread them; this process gets its mask back. It prints and reports what
one process would: each suite draws from its own random stream. One
suite or CPU, no os.fork, a tracer, a profiler or a thread keep them here.
Exit codes: 0 all checks pass, 1 a suite failed or spectrum/expand
computed a value that is not finite, 2 the configuration was rejected.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import io
import json
import math
import os
import pickle
import sys
import threading
import time
from typing import Optional, Sequence, Tuple

import numpy as np

from .fields import ConfigError, Couplings
from .jets import DEFAULT_ORDER
from .spectrum import (
    bosonic_density_evaluator,
    epsilon_expand,
    halton_points,
    mass_spectrum,
    random_bosonic_config,
)
from .suites import (REGISTRY, RunConfig, SCHEMA_VERSION, check_overrides, run_suites,
                     selected_suites)

EXIT_OK = 0
EXIT_SUITE_FAILURE = 1
EXIT_CONFIG_ERROR = 2

#: deepest grade of j that any command reads off a jet
MIN_ORDER = 2
#: highest truncation order accepted; a product's index plan grows with
#: the square of the order
MAX_ORDER = 16

DEFAULT_COUPLINGS = {"g": 0.65, "gp": 0.35, "R": 1.0, "h_e": 1.0}


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a ConfigError: one line, exit 2."""

    def error(self, message: str):
        raise ConfigError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; the options that several
    subcommands share are added once, to a parent parser, and copied into
    each."""
    parser = _Parser(
        prog="ewcontract",
        description="Verification and spectrum tools for the contracted "
        "electroweak model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = _Parser(add_help=False)
    common.add_argument("--config", type=str,
                        help="JSON config file (couplings, sample_counts)")
    common.add_argument("--out", type=str,
                        help="write the machine-readable report here")
    seeded = _Parser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=0)
    seeded.add_argument("--order", type=int, default=DEFAULT_ORDER)

    p_verify = sub.add_parser("verify", help="run verification suites",
                              parents=[seeded])
    p_verify.add_argument(
        "--suite", action="append", default=None,
        help="suite name (repeatable); default: all of "
        + ", ".join(REGISTRY),
    )

    p_spectrum = sub.add_parser("spectrum", help="extracted particle masses",
                                parents=[common])
    p_spectrum.add_argument("--format", type=str, choices=("json", "csv"),
                            default="json")
    for name in DEFAULT_COUPLINGS:
        p_spectrum.add_argument("--" + name.replace("_", "-"), dest=name,
                                type=float, default=None)

    p_expand = sub.add_parser(
        "expand", help="scale-expansion coefficients of the bosonic density",
        parents=[seeded])
    p_expand.add_argument("--n", type=int, default=2,
                          help="highest expansion order to report (max 6)")
    p_expand.add_argument("--mode", type=str, default="nilpotent",
                          help="the contraction parameter j: nilpotent (the "
                          "formal j, default) | unit (j = 1) | numeric:<t> "
                          "(j = t, 0 < t <= 1)")

    return parser


def _load_config_file(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a JSON object")
    unknown = sorted(set(data) - {"couplings", "sample_counts"})
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    check_overrides(data.get("sample_counts", {}))
    return data


def _couplings_from(args, file_cfg: dict) -> Couplings:
    values = dict(DEFAULT_COUPLINGS)
    from_file = file_cfg.get("couplings", {})
    if not isinstance(from_file, dict) or not set(from_file) <= set(values):
        raise ConfigError("couplings must be an object with keys among "
                          + ", ".join(values))
    for key, value in from_file.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"coupling {key!r} must be a number, got {value!r}")
    values.update(from_file)
    for key in values:
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            values[key] = cli_value
    try:
        return Couplings(**{k: float(v) for k, v in values.items()})
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad couplings: {exc}") from exc


def _parse_mode(text: str) -> Tuple[str, Optional[float]]:
    """(report label, j value) of a --mode value: the formal j (None) for
    nilpotent, 1 for unit and t for numeric:<t>."""
    if text == "nilpotent":
        return text, None
    if text == "unit":
        return text, 1.0
    if text.startswith("numeric:"):
        try:
            t = float(text.split(":", 1)[1])
        except ValueError:
            t = math.nan
        if not 0.0 < t <= 1.0:
            raise ConfigError(f"--mode {text!r}: numeric contraction "
                              "parameter must satisfy 0 < t <= 1")
        return f"numeric:{t}", t
    raise ConfigError(f"unknown --mode {text!r} "
                      "(expected unit, nilpotent or numeric:<t>)")


def _sanitize(value):
    """Make report payloads strict JSON: dataclasses become dicts of their
    fields, numpy scalars and tuples Python values, complex numbers
    {re, im}, and non-finite numbers null. A float (np.float64 included,
    which json writes as it writes the float) is tested first: report
    payloads are mostly floats."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if dataclasses.is_dataclass(value):
        value = dataclasses.asdict(value)
    if isinstance(value, dict):
        return {str(k): _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return _sanitize(value.item())
    if isinstance(value, complex):
        return {"re": _sanitize(value.real), "im": _sanitize(value.imag)}
    return value


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


def _write_report(text: str, out: Optional[str]) -> None:
    if out is None:
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    except OSError as exc:
        raise ConfigError(f"cannot write --out {out}: {exc.strerror or exc}") from exc


def _report_envelope(args, couplings: Couplings) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **{key: vars(args)[key] for key in ("seed", "order") if key in args},
        "couplings": dataclasses.asdict(couplings),
    }


def _pin(cpus) -> None:
    """Place this process on `cpus` where the platform allows: a hint only."""
    with contextlib.suppress(AttributeError, OSError):
        os.sched_setaffinity(0, cpus)


def _run_lanes(cfg: RunConfig, names: Tuple[str, ...]) -> dict:
    """run_suites on each lane names[i::lanes], pinned to CPU i of the mask:
    lane 0 here, each other in a forked child that pipes back its output."""
    cpus = sorted(os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity")
                  else range(os.cpu_count() or 1))
    lanes = min(len(names), len(cpus))
    if (lanes == 1 or not hasattr(os, "fork") or sys.gettrace()
            or sys.getprofile() or threading.active_count() > 1):
        return run_suites(dataclasses.replace(cfg, suites=names))
    children = {}  # pid -> read end of its pipe, until the child is reaped
    try:
        for lane in range(1, lanes):
            read, write = os.pipe()
            if (pid := os.fork()) == 0:
                try:
                    _pin({cpus[lane]})
                    with open(write, "wb") as fh:
                        try:
                            fh.write(pickle.dumps(run_suites(
                                dataclasses.replace(cfg, suites=names[lane::lanes]))))
                        except BaseException as exc:
                            fh.write(pickle.dumps(exc))
                finally:  # never back into the caller, no atexit, no stdio flush
                    os._exit(0)
            os.close(write)
            children[pid] = open(read, "rb")
        _pin({cpus[0]})
        results = run_suites(dataclasses.replace(cfg, suites=names[::lanes]))
        for lane, (pid, pipe) in enumerate(list(children.items()), 1):
            with pipe:  # to EOF before waitpid: a result can outgrow the pipe
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            try:
                out = pickle.loads(data)
            except Exception as exc:  # it died, or its error cannot be loaded
                raise RuntimeError(f"verify lane {lane} ({', '.join(names[lane::lanes])})"
                                   f" sent no result; wait status {status}") from exc
            if isinstance(out, BaseException):
                raise out
            results.update(out)
    finally:
        for pid, pipe in children.items():  # none outlives the command
            import signal  # loaded only when a lane must be stopped
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        _pin(cpus)
    return {name: results[name] for name in names}


def cmd_verify(args, file_cfg: dict, couplings: Couplings) -> int:
    cfg = RunConfig(
        couplings, args.order, args.seed,
        suites=tuple(args.suite or ()),
        sample_counts=file_cfg.get("sample_counts", {}),
    )
    results = _run_lanes(cfg, selected_suites(cfg))
    all_passed = all(r.passed for r in results.values())

    for name, res in results.items():
        status = "pass" if res.passed else "FAIL"
        print(f"suite {name:12s} {status}  residual {res.residual:.3e}"
              f"  (tolerance {res.tolerance:.1e})")
    print("verify:", "all suites passed" if all_passed else "suite failure")

    payload = _report_envelope(args, couplings)
    payload["suites"] = _sanitize(results)
    payload["passed"] = all_passed
    _write_report(_json_text(payload), args.out)
    return EXIT_OK if all_passed else EXIT_SUITE_FAILURE


def cmd_spectrum(args, file_cfg: dict, couplings: Couplings) -> int:
    report = mass_spectrum(couplings)

    # (quantity, extracted, closed form), one row per closed formula
    rows = [(name, getattr(report, name), closed)
            for name, closed in report.closed_form.items()]
    print(f"{'quantity':14s} {'extracted':>14s} {'closed form':>14s}")
    for name, extracted, closed in rows:
        print(f"{name:14s} {extracted:14.10f} {closed:14.10f}")

    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["quantity", "extracted", "closed_form"])
        writer.writerows(rows)
        _write_report(buf.getvalue().rstrip("\n"), args.out)
    else:
        payload = _report_envelope(args, couplings)
        payload["spectrum"] = _sanitize(report)
        _write_report(_json_text(payload), args.out)
    values = [row[1] for row in rows]
    if all(math.isfinite(v) for v in values + [report.nu_mass_coefficient]):
        return EXIT_OK
    print("spectrum: an extracted value is not finite", file=sys.stderr)
    return EXIT_SUITE_FAILURE


def cmd_expand(args, file_cfg: dict, couplings: Couplings) -> int:
    label, jval = _parse_mode(args.mode)

    rng = np.random.default_rng(args.seed)
    gauge, psi = random_bosonic_config(rng)
    points = halton_points(seed=args.seed)
    evaluator = bosonic_density_evaluator(
        gauge, psi, couplings, points, args.order, jval
    )
    expansion = epsilon_expand(evaluator, args.n, args.order)

    payload = _report_envelope(args, couplings)
    payload["mode"] = label
    payload["expansion"] = _sanitize({
        "n_max": args.n,
        "coefficients": {str(p): [[z.real, z.imag] for z in c.coeffs[:, 0]]
                         for p, c in enumerate(expansion)},
    })
    text = _json_text(payload)
    print(text)
    _write_report(text, args.out)
    if all(np.isfinite(c.coeffs).all() for c in expansion):
        return EXIT_OK
    print("expand: a coefficient is not finite", file=sys.stderr)
    return EXIT_SUITE_FAILURE


def _check_flags(args) -> None:
    """Reject flag values that would crash a command or silently do nothing."""
    if "order" in args and not MIN_ORDER <= args.order <= MAX_ORDER:
        raise ConfigError(f"--order must be between {MIN_ORDER} and {MAX_ORDER}")
    if "seed" in args and args.seed < 0:
        raise ConfigError("--seed must be a non-negative integer")
    if "format" in args and args.format == "csv" and args.out is None:
        raise ConfigError("CSV output is written only to --out; none was given")
    if args.out is not None:  # probed before any work, creating no file
        out = os.path.abspath(args.out)
        if os.path.isdir(out):
            raise ConfigError(f"cannot write --out {args.out}: it is a directory")
        parent = os.path.dirname(out)
        if not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
            raise ConfigError(f"cannot write --out {args.out}: its parent "
                              "is not a writable directory")


COMMANDS = {
    "verify": cmd_verify,
    "spectrum": cmd_spectrum,
    "expand": cmd_expand,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_flags(args)
        file_cfg = _load_config_file(args.config)
        return COMMANDS[args.command](args, file_cfg,
                                      _couplings_from(args, file_cfg))
    except SystemExit as exc:  # argparse has printed the help
        return exc.code
    except ConfigError as exc:
        # one line, even when the message quotes an input with line breaks
        print("error:", " ".join(str(exc).splitlines()), file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
