"""Command-line surface.

Commands: phase-curve, fringe, reproduce-figures, verify.  Angles are in
degrees at this interface; file outputs are CSV or JSON with fixed
15-significant-digit formatting, so identical configs (and seeds) produce
byte-identical files.

JSON schemas:

* phase-curve: {"command", "params": {theta_deg, chi_deg, phi: {start, stop,
  count}}, "samples": [{phi_deg, gamma_rad_unwrapped, gamma_deg_unwrapped}],
  "jumps": [{phi_center_deg, rise_rad, width_deg}]}
* fringe: {"command", "params": {theta_deg, chi_deg, phi_deg, delta_steps,
  noise_photons, seed}, "samples": [{delta_rad, intensity}], "fit":
  {phase_rad, visibility}}

Exit codes: 0 ok, 1 verification failure, 2 validation error, 3 degenerate
physics (zero fringe visibility, unresolvable sweep).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import figures, verify
from .core import inner
from .eraser import (
    ZeroVisibility,
    Unreachable,
    default_delta_grid,
    extract_fringe_phase,
    fringe_trace,
)
from .triplet import GridTooCoarse, PhaseCurve, TripletParams, make_triplet, sweep_phi


_MAX_COUNT = 10**6  # grid points of --phi and --delta-steps
# the curve falls by 4 pi per 360 degrees and every output step stays below
# pi/2, so rows grow with the span; 1e5 periods keep them near the count cap
_MAX_PHI_SPAN_DEG = 3.6e7
_MAX_NOISE_PHOTONS = 1e15


class ValidationError(ValueError):
    """Bad command parameter; the message names the offending field."""


def _fmt(x: float) -> str:
    return format(float(x), ".15g")


def _parse_phi_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"phi: expected start:stop:count, got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise ValidationError(f"phi: {exc}") from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValidationError(f"phi: start and stop must be finite, got {text!r}")
    if not 3 <= count <= _MAX_COUNT:
        raise ValidationError(f"phi: count must lie in [3, {_MAX_COUNT}], got {count}")
    if not stop > start:
        raise ValidationError(f"phi: stop must exceed start, got {text!r}")
    if stop - start > _MAX_PHI_SPAN_DEG:
        raise ValidationError(f"phi: stop - start must be at most {_MAX_PHI_SPAN_DEG:g} deg, got {text!r}")
    return start, stop, count


def _check_angle(name: str, value: float, lo: float, hi: float, *, allow_lo: bool) -> float:
    ok = (value >= lo if allow_lo else value > lo) and value < hi
    if not ok:
        bracket = "[" if allow_lo else "("
        raise ValidationError(f"{name}: must lie in {bracket}{lo:g}, {hi:g}), got {value:g}")
    return float(value)


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def phase_curve_csv(curve: PhaseCurve) -> str:
    lines = ["phi_deg,gamma_rad_unwrapped,gamma_deg_unwrapped"]
    for phi, gam in zip(curve.phi_deg, curve.gamma_rad):
        lines.append(f"{_fmt(phi)},{_fmt(gam)},{_fmt(math.degrees(gam))}")
    return "\n".join(lines) + "\n"


def phase_curve_json(curve: PhaseCurve, phi_range: tuple[float, float, int]) -> str:
    doc = {
        "command": "phase-curve",
        "params": {
            "theta_deg": curve.theta_deg,
            "chi_deg": curve.chi_deg,
            "phi": {"start": phi_range[0], "stop": phi_range[1], "count": phi_range[2]},
        },
        "samples": [
            {
                "phi_deg": float(phi),
                "gamma_rad_unwrapped": float(gam),
                "gamma_deg_unwrapped": math.degrees(float(gam)),
            }
            for phi, gam in zip(curve.phi_deg, curve.gamma_rad)
        ],
        "jumps": [
            {
                "phi_center_deg": j.phi_center_deg,
                "rise_rad": j.rise_rad,
                "width_deg": j.width_deg,
            }
            for j in curve.jumps
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def fringe_csv(trace) -> str:
    lines = ["delta_rad,intensity"]
    for d, i in zip(trace.delta_rad, trace.intensity):
        lines.append(f"{_fmt(d)},{_fmt(i)}")
    return "\n".join(lines) + "\n"


def fringe_json(trace, fit, params: dict) -> str:
    doc = {
        "command": "fringe",
        "params": params,
        "samples": [
            {"delta_rad": float(d), "intensity": float(i)}
            for d, i in zip(trace.delta_rad, trace.intensity)
        ],
        "fit": {"phase_rad": fit.phase_rad, "visibility": fit.visibility},
    }
    return json.dumps(doc, indent=2) + "\n"


def cmd_phase_curve(args) -> int:
    theta = _check_angle("theta", args.theta, 0.0, 180.0, allow_lo=False)
    chi = _check_angle("chi", args.chi, 0.0, 360.0, allow_lo=True)
    start, stop, count = _parse_phi_range(args.phi)
    curve = sweep_phi(theta, chi, np.linspace(start, stop, count))
    out = Path(args.out) if args.out else Path(f"phase-curve.{args.format}")
    if args.format == "csv":
        _write_text(out, phase_curve_csv(curve))
    else:
        _write_text(out, phase_curve_json(curve, (start, stop, count)))
    jumps = ", ".join(
        f"{j.phi_center_deg:.3f} deg (rise {j.rise_rad / math.pi:+.6f} pi, width {j.width_deg:.4f} deg)"
        for j in curve.jumps
    )
    print(f"wrote {out} ({curve.phi_deg.size} samples)")
    print(f"jumps: {jumps if jumps else 'none'}")
    return 0


def cmd_fringe(args) -> int:
    theta = _check_angle("theta", args.theta, 0.0, 180.0, allow_lo=True)
    chi = _check_angle("chi", args.chi, 0.0, 360.0, allow_lo=True)
    try:
        phi = float(args.phi)
    except ValueError:
        raise ValidationError(f"phi: expected a single angle in degrees, got {args.phi!r}") from None
    phi = _check_angle("phi", phi, 0.0, 360.0, allow_lo=True)
    if not 3 <= args.delta_steps <= _MAX_COUNT:
        raise ValidationError(f"delta-steps: must lie in [3, {_MAX_COUNT}], got {args.delta_steps}")
    if args.seed < 0:
        raise ValidationError(f"seed: must be non-negative, got {args.seed}")
    if args.noise_photons is not None and not 0.0 < args.noise_photons <= _MAX_NOISE_PHOTONS:
        raise ValidationError(
            f"noise-photons: must lie in (0, {_MAX_NOISE_PHOTONS:g}], got {args.noise_photons}"
        )

    s1, s2, s3 = make_triplet(TripletParams(theta, chi, phi))
    if max(abs(inner(s3, s1)), abs(inner(s3, s2))) < 1e-12:
        raise ZeroVisibility("projector is orthogonal to both interferometer arms")
    delta = default_delta_grid(args.delta_steps)
    trace = fringe_trace(
        s1, s2, s3, delta, noise_mean_photons=args.noise_photons, rng=args.seed
    )
    fit = extract_fringe_phase(trace)
    out = Path(args.out) if args.out else Path(f"fringe.{args.format}")
    if args.format == "csv":
        _write_text(out, fringe_csv(trace))
    else:
        params = {
            "theta_deg": theta,
            "chi_deg": chi,
            "phi_deg": phi,
            "delta_steps": args.delta_steps,
            "noise_photons": args.noise_photons,
            "seed": args.seed,
        }
        _write_text(out, fringe_json(trace, fit, params))
    print(f"phase_rad={_fmt(fit.phase_rad)} visibility={_fmt(fit.visibility)}")
    print(f"wrote {out} ({trace.delta_rad.size} samples)")
    return 0


def cmd_reproduce_figures(args) -> int:
    out_dir = Path(args.out) if args.out else Path("figures")
    out_dir.mkdir(parents=True, exist_ok=True)
    names = []
    for name, curve in figures.figure_curves():
        _write_text(out_dir / f"{name}.csv", phase_curve_csv(curve))
        names.append(name)
    print(f"wrote {len(names)} curves to {out_dir}")
    for name in names:
        print(f"  {name}.csv")
    return 0


def cmd_verify(args) -> int:
    results = verify.run_all()
    for res in results:
        print(res.line())
    n_pass = sum(r.passed for r in results)
    total = sum(r.seconds for r in results)
    print(f"{n_pass}/{len(results)} criteria passed in {total:.1f}s")
    return 0 if n_pass == len(results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triphase",
        description="Three-vertex geometric phases of two-photon polarization "
        "qutrits: curves, fringes, figure data, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("phase-curve", help="sweep phi and write the unwrapped phase curve")
    pc.add_argument("--theta", type=float, required=True, help="half-angle between the anchor states (deg)")
    pc.add_argument("--chi", type=float, required=True, help="analyzer pair opening angle (deg)")
    pc.add_argument("--phi", default="0:360:721", help="sweep grid start:stop:count (deg)")
    pc.add_argument("--format", choices=("csv", "json"), default="csv")
    pc.add_argument("--out", default=None, help="output path (default phase-curve.<fmt>)")
    pc.set_defaults(func=cmd_phase_curve)

    fr = sub.add_parser("fringe", help="synthesize an interference fringe and extract its phase")
    fr.add_argument("--theta", type=float, required=True)
    fr.add_argument("--chi", type=float, required=True)
    fr.add_argument("--phi", default="0", help="analyzer rotation (deg, single value)")
    fr.add_argument("--delta-steps", type=int, default=100, dest="delta_steps")
    fr.add_argument("--noise-photons", type=float, default=None, dest="noise_photons",
                    help="mean photons per sample at the ideal fringe maximum (Poisson noise)")
    fr.add_argument("--seed", type=int, default=0)
    fr.add_argument("--format", choices=("csv", "json"), default="csv")
    fr.add_argument("--out", default=None, help="output path (default fringe.<fmt>)")
    fr.set_defaults(func=cmd_fringe)

    rf = sub.add_parser("reproduce-figures", help="write every figure panel curve as CSV")
    rf.add_argument("--out", default=None, help="output directory (default figures)")
    rf.set_defaults(func=cmd_reproduce_figures)

    vf = sub.add_parser("verify", help="run the acceptance suite")
    vf.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ZeroVisibility, GridTooCoarse, Unreachable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
