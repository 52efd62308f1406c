"""Command-line surface.

Commands: phase-curve, fringe, reproduce-figures, verify.  Angles are in
degrees at this interface.  CSV files write each float with 15 significant
digits (``%.15g``); JSON files write it as Python's shortest repr that reads
back to the same float, as ``json`` does.  Identical configs (and seeds)
produce byte-identical files on one machine and numpy build.

JSON schemas:

* phase-curve: {"command", "params": {theta_deg, chi_deg, phi: {start, stop,
  count}}, "samples": [{phi_deg, gamma_rad_unwrapped, gamma_deg_unwrapped}],
  "jumps": [{phi_center_deg, rise_rad, width_deg}]}
* fringe: {"command", "params": {theta_deg, chi_deg, phi_deg, delta_steps,
  noise_photons, seed}, "samples": [{delta_rad, intensity}], "fit":
  {phase_rad, visibility}}

Exit codes: 0 ok, 1 verification failure, 2 validation error, 3 degenerate
physics (zero fringe visibility, unresolvable sweep).  A number out of its
bounds (core.check_range) gives exit 2 naming the field, interval and value read.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .core import check_range, inner
from .eraser import (
    MAX_NOISE_PHOTONS,
    MIN_FRINGE_SPAN_RAD,
    ZeroVisibility,
    default_delta_grid,
    extract_fringe_phase,
    fringe_trace,
)
from .triplet import ANGLES_DEG, GridTooCoarse, PhaseCurve, TripletParams, make_triplet, sweep_phi


_MAX_COUNT = 10**6  # grid points of --phi and --delta-steps
# the fewest samples of the default delta grid that span a fringe fit
_MIN_DELTA_STEPS = next(n for n in range(3, _MAX_COUNT) if default_delta_grid(n)[-1] >= MIN_FRINGE_SPAN_RAD)
# the curve falls by 4 pi per 360 degrees and every output step stays below
# pi/2, so rows grow with the span; 1e5 periods keep them near the count cap.
# The ends keep within as many degrees of 0, where the phase of one period is
# still good to ~1e-11 rad (at 3.6e13 degrees only to ~4e-5 rad).
_MAX_PHI_SPAN_DEG = 3.6e7


def _parse_phi_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"phi: expected start:stop:count, got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise ValueError(f"phi: {exc}") from None
    check_range("phi: start", start, (-_MAX_PHI_SPAN_DEG, _MAX_PHI_SPAN_DEG), "[]")
    check_range("phi: stop", stop, (-_MAX_PHI_SPAN_DEG, _MAX_PHI_SPAN_DEG), "[]")
    check_range("phi: count", count, (3, _MAX_COUNT), "[]")
    # for finite floats, stop - start > 0 exactly when stop > start
    check_range("phi: stop - start", stop - start, (0.0, _MAX_PHI_SPAN_DEG), "(]")
    return start, stop, count


def _write_text(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"out: {exc.filename or path}: {exc.strerror or exc}") from None


def _csv(cols: dict) -> str:
    """A header of the column names, then one row of ``%.15g`` fields per sample."""
    values = tuple(np.column_stack(list(cols.values())).ravel().tolist())
    row = ",".join(["%.15g"] * len(cols)) + "\n"
    return ",".join(cols) + "\n" + (row * (len(values) // len(cols))) % values


def _json(doc: dict, cols: dict) -> str:
    """``json.dumps(doc, indent=2) + "\n"`` with the empty ``doc["samples"]``
    filled by one object of the columns' finite floats per sample, in one
    ``%r`` format; ``%r`` is the ``float.__repr__`` that ``json`` writes."""
    text = json.dumps(doc, indent=2) + "\n"
    values = tuple(np.column_stack(list(cols.values())).ravel().tolist())
    if not values:
        return text
    row = "    {\n" + ",\n".join(f"      {json.dumps(k)}: %r" for k in cols) + "\n    }"
    rows = ",\n".join([row] * (len(values) // len(cols))) % values
    head, tail = text.split('\n  "samples": []', 1)
    return "".join((head, '\n  "samples": [\n', rows, "\n  ]", tail))


def _curve_columns(curve: PhaseCurve) -> dict:
    gamma = curve.gamma_rad
    return {"phi_deg": curve.phi_deg, "gamma_rad_unwrapped": gamma, "gamma_deg_unwrapped": np.degrees(gamma)}


def phase_curve_csv(curve: PhaseCurve) -> str:
    return _csv(_curve_columns(curve))


def phase_curve_json(curve: PhaseCurve, phi_range: tuple[float, float, int]) -> str:
    doc = {
        "command": "phase-curve",
        "params": {
            "theta_deg": curve.theta_deg,
            "chi_deg": curve.chi_deg,
            "phi": {"start": phi_range[0], "stop": phi_range[1], "count": phi_range[2]},
        },
        "samples": [],
        "jumps": [j._asdict() for j in curve.jumps],
    }
    return _json(doc, _curve_columns(curve))


def fringe_csv(trace) -> str:
    return _csv({"delta_rad": trace.delta_rad, "intensity": trace.intensity})


def fringe_json(trace, fit, params: dict) -> str:
    doc = {
        "command": "fringe",
        "params": params,
        "samples": [],
        "fit": fit._asdict(),
    }
    return _json(doc, {"delta_rad": trace.delta_rad, "intensity": trace.intensity})


def cmd_phase_curve(args) -> int:
    theta = check_range("theta", args.theta, ANGLES_DEG["theta"], "()")
    chi = check_range("chi", args.chi, ANGLES_DEG["chi"])
    start, stop, count = _parse_phi_range(args.phi)
    grid = np.linspace(start, stop, count)
    if not (np.diff(grid) > 0.0).all():
        raise ValueError(f"phi: {count} points from {start!r} to {stop!r} are not strictly increasing")
    curve = sweep_phi(theta, chi, grid)
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
    theta, chi, phi = (check_range(name, getattr(args, name), ANGLES_DEG[name]) for name in ANGLES_DEG)
    check_range("delta-steps", args.delta_steps, (_MIN_DELTA_STEPS, _MAX_COUNT), "[]")
    check_range("seed", args.seed, (0, math.inf))
    if args.noise_photons is not None:
        check_range("noise-photons", args.noise_photons, (0.0, MAX_NOISE_PHOTONS), "(]")

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
    print(f"phase_rad={fit.phase_rad:.15g} visibility={fit.visibility:.15g}")
    print(f"wrote {out} ({trace.delta_rad.size} samples)")
    return 0


def cmd_reproduce_figures(args) -> int:
    from . import figures  # imported here: the other commands need none of it

    out_dir = Path(args.out) if args.out else Path("figures")
    names = []
    for name, curve in figures.figure_curves():
        _write_text(out_dir / f"{name}.csv", phase_curve_csv(curve))
        names.append(name)
    print(f"wrote {len(names)} curves to {out_dir}")
    for name in names:
        print(f"  {name}.csv")
    return 0


def cmd_verify(args) -> int:
    from . import verify  # imported here: the other commands need none of it

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
    fr.add_argument("--phi", type=float, default=0.0, help="analyzer rotation (deg, single value)")
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
    except (ZeroVisibility, GridTooCoarse) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
