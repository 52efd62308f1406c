"""Mutation probe: how many small, plausible faults the checks catch.

Each mutant is a label and one or more edits (file under src/triphase, old
text, new text).  For each, the script copies what tier-1 reads (src, tests,
perfbench and three root files) into a temporary directory, applies the edits
there (an old text must occur exactly once), and runs ``triphase verify``
and the tier-1 suite on the copy.  It prints one Markdown table row per
mutant: the failed verify criteria, and the failed tier-1 tests, of which
how many run on every machine (the byte pins and the SIMD-dispatch check
hold or run only on some machines).  The first row is the tree as it is,
which must pass both.  It exits 1 if the tree fails either, or if some
mutant fails no tier-1 test that runs on every machine.

Run from the repository root (it takes some 8 minutes):

    python tests/mutants.py

The file has no ``test_`` prefix, so the tier-1 suite does not collect it.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "BENCHMARK.json", "README.md", "pyproject.toml")
# tests that hold or run only on some machines
MACHINE_BOUND = ("test_output_bytes_are_pinned", "test_simd_dispatch_moves_numbers_by_ulps_only")

SCALAR_FIT = "return FringeFit(wrap_angle(math.atan2(c, b)), visibility)"
BATCH_FIT = "return FringeFit(wrap_angle(np.arctan2(c, b)), visibility)"
JUMPS = "jumps = [PhaseJump(c, float(r), float(w)) for"

MUTANTS = [
    ("none (the tree as it is)",),
    ("fit phase +1e-4 rad, scalar and batch paths",
     ("eraser.py", SCALAR_FIT, SCALAR_FIT.replace("b))", "b) + 1e-4)")),
     ("eraser.py", BATCH_FIT, BATCH_FIT.replace("b))", "b) + 1e-4)"))),
    ("fit phase +1e-4 rad, scalar path only",
     ("eraser.py", SCALAR_FIT, SCALAR_FIT.replace("b))", "b) + 1e-4)"))),
    ("visibility x0.9, both paths",
     ("eraser.py", SCALAR_FIT, SCALAR_FIT.replace("visibility)", "visibility * 0.9)")),
     ("eraser.py", BATCH_FIT, BATCH_FIT.replace("visibility)", "visibility * 0.9)"))),
    ("visibility x0.9, batch path only",
     ("eraser.py", BATCH_FIT, BATCH_FIT.replace("visibility)", "visibility * 0.9)"))),
    ("jump width x1.1",
     ("triplet.py", JUMPS, JUMPS.replace("float(w))", "float(w) * 1.1)"))),
    ("jump center +0.05 deg",
     ("triplet.py", JUMPS, JUMPS.replace("PhaseJump(c,", "PhaseJump(c + 0.05,"))),
    ("`fit_offset` rms x2",
     ("triplet.py", "rms = np.sqrt(np.sum(", "rms = 2.0 * np.sqrt(np.sum(")),
    ("`gamma_at` values left in sorted order",
     ("triplet.py", "out[order] = np.interp(", "out[:] = np.interp(")),
    ("`wrap_angle` of arrays into [-pi, pi)",
     ("core.py", "w = math.pi - np.mod(math.pi - np.asarray(x, dtype=float), 2.0 * math.pi)",
      "w = np.mod(np.asarray(x, dtype=float) + math.pi, 2.0 * math.pi) - math.pi")),
    ("Poisson mean x0.5",
     ("eraser.py", "ideal *= noise_mean_photons", "ideal *= 0.5 * noise_mean_photons")),
    ("`check_range`: a `[` opens its end",
     ("core.py", 'above = least > low or least == low and ends[0] == "["', "above = least > low")),
    ("`check_range`: an array checked by its least element only",
     ("core.py", "least, most = np.min(value), np.max(value)", "least = most = np.min(value)")),
    ("chain: plate angle half the Bloch azimuth",
     ("eraser.py", "np.arctan2(x, z) / 4.0", "np.arctan2(x, z) / 2.0")),
    ("chain: V row from psi3's plate",
     ("eraser.py", "v_plate[..., 1, :]", "h_plate[..., 1, :]")),
]


def _apply(tree: Path, edits) -> None:
    for name, old, new in edits:
        path = tree / "src" / "triphase" / name
        text = path.read_text(encoding="utf-8")
        if text.count(old) != 1:
            raise SystemExit(f"{name}: the old text of a mutant occurs {text.count(old)} times: {old!r}")
        path.write_text(text.replace(old, new), encoding="utf-8")


def _run(tree: Path, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, *args], cwd=tree, env=env, capture_output=True, text=True)
    return done.stdout + done.stderr


def probe(label: str, *edits) -> tuple[str, bool, bool]:
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, tree / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(source, tree / name)
        _apply(tree, edits)
        verify = _run(tree, "-W", "error::RuntimeWarning", "-m", "triphase", "verify")
        tier1 = _run(tree, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", "--continue-on-collection-errors")
    failed_criteria = re.findall(r"^FAIL (\d+) ", verify, re.MULTILINE)
    if not failed_criteria and not re.search(r"^(\d+)/\1 criteria passed", verify, re.MULTILINE):
        failed_criteria = ["no report"]
    failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", tier1, re.MULTILINE)
    everywhere = [t for t in failed if not any(m in t for m in MACHINE_BOUND)]
    verify_cell = f"fails ({', '.join(failed_criteria)})" if failed_criteria else "passes"
    tier1_cell = f"{len(failed)} fail, {len(everywhere)} on every machine" if failed else "**all pass**"
    summary = re.findall(r"^=* ?(\d+ (?:passed|failed).*?)(?: =*)?$", tier1, re.MULTILINE)
    row = f"| {label} | {verify_cell} | {tier1_cell} | {summary[-1] if summary else '?'} |"
    # a suite that ran no test at all fails the tree and catches a mutant
    return row, bool(summary) and not failed_criteria and not failed, bool(everywhere) or not summary


def main() -> int:
    """Print the table; 1 if the tree itself fails verify or tier-1, or if a
    mutant fails no tier-1 test that runs on every machine, else 0."""
    print("| mutant | `verify` | tier-1 | pytest summary |")
    print("|---|---|---|---|")
    problems = []
    for k, (label, *edits) in enumerate(MUTANTS):
        row, clean, caught = probe(label, *edits)
        print(row, flush=True)
        if k == 0 and not clean:
            problems.append("the tree itself fails verify or tier-1")
        elif k > 0 and not caught:
            problems.append(f"no tier-1 test that runs on every machine catches: {label}")
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
