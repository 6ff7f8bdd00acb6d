"""Command-line front end.

Subcommands: zak-surface, frame-bounds, find-zeros, verify, frft-apply.
Window flags compose as pi(shift) . Fourier . FrFT(r) . Chirp(q) .
Dilation(a) applied to the Hermite base; --chain overrides with an explicit
JSON operator list.  Outputs are UTF-8 with LF line endings, floats printed
in shortest round-trip form, so identical configurations produce
byte-identical files.

The suites of verify compare with: zak, the Zak identities; theta, the theta
series; frft, the closed-form eigenvalues exp(-i n r) h_n (and its own
semigroup law); intertwine, the closed form of U pi(z) h_n, phase included,
for each sampled operator U.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 irreducible point set, 5 identity-suite failure.
"""

import argparse
import json
import math
import re
import sys

import numpy as np

from .errors import GaborError, IrreducibleSet
from .frames import (GaborSystem, find_zak_zeros, frame_bounds, report_to_json,
                     theta_zero_certificate)
from .lattices import PRESETS, point_set
from .operators import (Chirp, Dilation, Fourier, FrFT, SampledFunction, TFShift,
                        apply_frft)
from .special import theta3
from .windows import descriptor, evaluate, parse_descriptor, realize, window
from .zak import (_csv_rows, _write_json, verify_identities, write_surface_csv,
                  zak_surface)


def _parse_pair(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'x,omega', got {text!r}")
    return float(parts[0]), float(parts[1])


# flags whose value is a coordinate pair (or list of pairs) that may start
# with a minus sign, which argparse would otherwise read as an option
_PAIR_FLAGS = ("--shift", "--extra-shift", "--shifts")


def _attach_pair_values(argv):
    """Rewrite '--shift -0.5,0.3' as '--shift=-0.5,0.3'."""
    out = []
    for arg in argv:
        if out and out[-1] in _PAIR_FLAGS and re.match(r"-[\d.]", arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def _window_from_args(args):
    if getattr(args, "chain", None):
        return parse_descriptor({"hermite": args.hermite,
                                 "chain": json.loads(args.chain)})
    ops = []
    if getattr(args, "shift", None):
        ops.append(TFShift(*_parse_pair(args.shift)))
    if getattr(args, "fourier", False):
        ops.append(Fourier())
    for kind, flag in ((FrFT, "frft"), (Chirp, "chirp"), (Dilation, "dilate")):
        if getattr(args, flag, None) is not None:
            ops.append(kind(getattr(args, flag)))
    return window(args.hermite, tuple(ops))


def _set_from_args(args):
    if getattr(args, "generator", None):
        entries = [float(v) for v in args.generator.split(",")]
        if len(entries) != 4:
            raise ValueError("--generator takes 4 comma-separated entries a,b,c,d")
        gen = np.array(entries).reshape(2, 2)
        shifts = [(0.0, 0.0)]
        if getattr(args, "shifts", None):
            shifts = [_parse_pair(s) for s in args.shifts.split(";") if s]
        ps = point_set(gen, shifts)
    else:
        ps = PRESETS[args.set or "Z2"]  # --set values are checked choices
    if getattr(args, "extra_shift", None):
        z = np.array(_parse_pair(args.extra_shift))
        shifts = ps.shift_array
        ps = point_set(ps.generator_matrix,
                       np.vstack([shifts, shifts + z[None, :]]))
    return ps


def _cmd_zak_surface(args):
    w = _window_from_args(args)
    surf = zak_surface(w, args.n, trunc=args.truncation)
    out = args.out or "zak_surface.csv"
    meta = args.meta or out + ".meta.json"
    write_surface_csv(surf, out, meta)
    print(f"wrote {surf.resolution * surf.resolution} rows to {out}")
    return 0


def _cmd_frame_bounds(args):
    system = GaborSystem([_window_from_args(args)], _set_from_args(args))
    report = frame_bounds(system, resolution=args.n, trunc=args.truncation)
    _write_json(report_to_json(report), args.out)
    print(report.verdict)
    return 0


def _cmd_find_zeros(args):
    w = _window_from_args(args)
    zeros = find_zak_zeros(w, resolution=args.n, tol=args.tol,
                           trunc=args.truncation)
    payload = {
        "window": descriptor(w),
        "resolution": int(args.n),
        "tol": float(args.tol),
        "zeros": [{"x": z.x, "omega": z.omega, "residual": z.residual}
                  for z in zeros],
    }
    _write_json(payload, args.out)
    return 0


def _cmd_frft_apply(args):
    if args.angle is None:
        raise ValueError("frft-apply needs --angle (flag or config)")
    w = _window_from_args(args)
    f = realize(w)
    g = apply_frft(args.angle, f, method=args.method)
    out = args.out or "frft.csv"
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,re,im,abs\n")
        fh.write(_csv_rows(g.values, [f"{t!r}," for t in f.points.tolist()]))
    if args.meta:
        _write_json({"window": descriptor(w), "angle": float(args.angle),
                     "method": args.method}, args.meta)
    print(f"wrote {g.values.size} rows to {out}")
    return 0


def _suite_zak(args):
    w = _window_from_args(args)
    rng = np.random.RandomState(12345)
    pts = rng.uniform(0.0, 1.0, size=(25, 2))
    defects = verify_identities(w, pts, trunc=args.truncation)
    tols = {name: 1e-10 for name in defects}
    return defects, tols


def _suite_theta(args):
    cert = theta_zero_certificate()
    defects = {
        "theta_combination": cert["theta_combination"],
        "zak_theta_agreement": cert["difference"],
        "zak_origin": cert["zak_origin"],
        "zak_half_half": cert["zak_half_half"],
    }
    jacobi = 0.0
    logderiv = 0.0
    for alpha in (0.25, 0.5, 1.0, 2.0, 4.0):
        ta, ti = theta3(alpha), theta3(1.0 / alpha)
        jacobi = max(jacobi, abs(math.sqrt(alpha) * ta.value - ti.value))
        logderiv = max(logderiv, abs(
            alpha * ta.derivative / ta.value
            + ta.alpha ** -1 * ti.derivative / ti.value + 0.5))
    defects["jacobi_identity"] = jacobi
    defects["logarithmic_derivative"] = logderiv
    tols = {"theta_combination": 1e-13, "zak_theta_agreement": 1e-13,
            "zak_origin": 1e-12, "zak_half_half": 1e-12,
            "jacobi_identity": 1e-12, "logarithmic_derivative": 1e-12}
    return defects, tols


def _distance(g, h, f):
    """||g - h|| / ||f|| for sample arrays g and h on the grid of f."""
    return SampledFunction(g - h, f.step, f.extent).norm() / f.norm()


def _suite_frft(args):
    n, r = args.hermite, args.angle
    f = realize(window(n))
    once = apply_frft(r, f).values
    eigen = np.exp(-1j * n * r) * f.values
    twice = apply_frft(0.5 * r, apply_frft(0.5 * r, f)).values
    defects = {
        "eigenvalue_quadrature": _distance(once, eigen, f),
        "eigenvalue_hermite": _distance(apply_frft(r, f, method="hermite").values,
                                        eigen, f),
        "semigroup": _distance(twice, once, f),
    }
    tols = {k: 1e-7 for k in defects}
    tols["semigroup"] = 1e-6
    return defects, tols


def _suite_intertwine(args):
    # U pi(z) h_n, sampled, against the closed form of the window
    # (U, pi(z)) h_n, whose phase the normal form fixes exactly
    rng = np.random.RandomState(777)
    zs = rng.uniform(-2.0, 2.0, size=(args.samples, 2))
    defects = {}
    for op in (Dilation(1.3), Chirp(0.7), FrFT(0.6), Fourier()):
        worst = 0.0
        for n in (0, 1):
            for x, omega in zs:
                shift = (TFShift(x, omega),)
                f = realize(window(n, shift))
                exact = evaluate(window(n, (op,) + shift), f.points)
                worst = max(worst, _distance(op.apply(f).values, exact, f))
        defects[op.tag] = worst
    return defects, {k: 1e-6 for k in defects}


_SUITES = {"zak": _suite_zak, "theta": _suite_theta, "frft": _suite_frft,
           "intertwine": _suite_intertwine}


def _cmd_verify(args):
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    defects, tols = {}, {}
    for name in names:
        d, t = _SUITES[name](args)
        defects.update({f"{name}.{k}": v for k, v in d.items()})
        tols.update({f"{name}.{k}": v for k, v in t.items()})
    passed = all(defects[k] <= tols[k] for k in defects)
    payload = {"suites": names, "defects": defects, "tolerances": tols,
               "passed": passed}
    _write_json(payload, args.out)
    if not passed:
        failing = [k for k in defects if defects[k] > tols[k]]
        print(f"identity failures: {', '.join(sorted(failing))}", file=sys.stderr)
        return 5
    print(f"all {len(defects)} identity defects within tolerance")
    return 0


def _add_window_flags(p):
    p.add_argument("--hermite", type=int, default=0, metavar="N",
                   help="Hermite order of the base window")
    p.add_argument("--dilate", type=float, metavar="A",
                   help="apply the dilation f(t/A)/sqrt(A)")
    p.add_argument("--chirp", type=float, metavar="Q",
                   help="apply the chirp exp(i pi Q t^2)")
    p.add_argument("--frft", type=float, metavar="R",
                   help="apply the fractional Fourier transform of angle R")
    p.add_argument("--fourier", action="store_true",
                   help="apply the Fourier transform")
    p.add_argument("--shift", metavar="X,W",
                   help="apply the time-frequency shift by (X, W)")
    p.add_argument("--chain", metavar="JSON",
                   help="explicit operator chain as a JSON list "
                        "(overrides the individual operator flags)")


def _add_set_flags(p):
    p.add_argument("--set", choices=sorted(PRESETS), metavar="NAME",
                   help=f"point set preset: {', '.join(sorted(PRESETS))}")
    p.add_argument("--generator", metavar="A,B,C,D",
                   help="explicit generator matrix, row-major")
    p.add_argument("--shifts", metavar="X,W;X,W",
                   help="coset shifts for an explicit generator")
    p.add_argument("--extra-shift", metavar="X,W",
                   help="union the set with a copy shifted by (X, W)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gaborkit",
        description="Gabor-system analysis: Zak surfaces, frame bounds, "
                    "zero searches, identity suites")
    parser.add_argument("--config", metavar="FILE",
                        help="JSON file of defaults (explicit flags win)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zak-surface", help="Zak transform on the unit-square grid")
    _add_window_flags(p)
    p.add_argument("--n", type=int, default=64, help="grid resolution")
    p.add_argument("--truncation", type=int, help="series truncation override")
    p.add_argument("--out", metavar="CSV", help="output CSV path")
    p.add_argument("--meta", metavar="JSON", help="metadata sidecar path")
    p.set_defaults(handler=_cmd_zak_surface)

    p = sub.add_parser("frame-bounds", help="frame bound estimate and verdict")
    _add_window_flags(p)
    _add_set_flags(p)
    p.add_argument("--n", type=int, default=64, help="grid resolution")
    p.add_argument("--truncation", type=int, help="series truncation override")
    p.add_argument("--out", metavar="JSON", help="report path (default stdout)")
    p.set_defaults(handler=_cmd_frame_bounds)

    p = sub.add_parser("find-zeros", help="zeros of |Z w|^2 on the unit square")
    _add_window_flags(p)
    p.add_argument("--n", type=int, default=64, help="grid resolution")
    p.add_argument("--tol", type=float, default=1e-10, help="zero residual target")
    p.add_argument("--truncation", type=int, help="series truncation override")
    p.add_argument("--out", metavar="JSON", help="output path (default stdout)")
    p.set_defaults(handler=_cmd_find_zeros)

    p = sub.add_parser("verify", help="run identity suites as a regression gate")
    _add_window_flags(p)
    p.add_argument("--suite", choices=[*sorted(_SUITES), "all"], default="all")
    p.add_argument("--angle", type=float, default=0.6,
                   help="angle for the frft suite")
    p.add_argument("--samples", type=int, default=16,
                   help="random shifts for the intertwine suite")
    p.add_argument("--truncation", type=int, help="series truncation override")
    p.add_argument("--out", metavar="JSON", help="report path (default stdout)")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("frft-apply", help="fractional Fourier transform of a window")
    _add_window_flags(p)
    p.add_argument("--angle", type=float, help="transform angle (required)")
    p.add_argument("--method", choices=["quadrature", "hermite"],
                   default="quadrature")
    p.add_argument("--out", metavar="CSV", help="output CSV path")
    p.add_argument("--meta", metavar="JSON", help="metadata sidecar path")
    p.set_defaults(handler=_cmd_frft_apply)
    return parser


def _config_value(action, key, value):
    """A config value checked as the flag's command-line value would be."""
    if action.nargs == 0:  # a store_true flag takes a JSON boolean only
        if isinstance(value, bool):
            return value
    elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
        try:
            value = (action.type or str)(str(value))
        except ValueError:
            raise ValueError(f"config key {key!r}: invalid value {value!r}") from None
        if action.choices is None or value in action.choices:
            return value
        raise ValueError(f"config key {key!r}: {value!r} is not one of {action.choices}")
    kind = "true or false" if action.nargs == 0 else "a string or a number"
    raise ValueError(f"config key {key!r} takes {kind}, got {value!r}")


def _merge_config(parser, args, argv):
    """Parse argv again with the config file's values as the subcommand's defaults.

    So a flag given on the command line wins, even when its value equals
    the flag's own default.
    """
    with open(args.config, encoding="utf-8") as fh:
        conf = json.load(fh)
    if not isinstance(conf, dict):
        raise ValueError("config file must hold a JSON object")
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)).choices[args.command]
    flags = {a.dest: a for a in sub._actions
             if a.option_strings and a.dest != "help"}
    defaults = {}
    for key, value in conf.items():
        action = flags.get(key.replace("-", "_"))
        if action is None:
            raise ValueError(f"unknown config key {key!r}")
        defaults[action.dest] = _config_value(action, key, value)
    sub.set_defaults(**defaults)
    return parser.parse_args(argv)


def main(argv=None):
    argv = _attach_pair_values(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            args = _merge_config(parser, args, argv)
        return args.handler(args)
    except IrreducibleSet as exc:
        print(f"irreducible point set: {exc}", file=sys.stderr)
        return 4
    except GaborError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, MemoryError) as exc:  # JSONDecodeError is a ValueError
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
