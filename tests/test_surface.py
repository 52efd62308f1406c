"""The public surface of ``triphase`` and the boundary between its modules.

A name added to or removed from the package shows up here as a diff of the
literal list; a module that reaches into a sibling's private names fails the
import check.
"""

import ast
import types
from pathlib import Path

import triphase

SOURCE = Path(triphase.__file__).resolve().parent

EXPORTS = [
    "BlochVector",
    "DegenerateTriangle",
    "FringeFit",
    "FringeTrace",
    "GridTooCoarse",
    "InsufficientData",
    "OffsetFit",
    "PhaseCurve",
    "PhaseJump",
    "QubitState",
    "SymmetricState",
    "TripletParams",
    "UndefinedPhase",
    "Unreachable",
    "WaveplateSetting",
    "WaveplateSolution",
    "ZeroVisibility",
    "analytic_total_phase",
    "bloch_from_qubit",
    "default_delta_grid",
    "extract_fringe_phase",
    "fit_offset",
    "fringe_trace",
    "inner",
    "majorana_decompose",
    "make_states",
    "make_triplet",
    "phase_variation",
    "projection_chain_amplitude",
    "random_states",
    "solve_waveplates",
    "spherical_triangle_signed_area",
    "sweep_phi",
    "symmetrize",
    "three_vertex_phase",
    "total_phase_continuous",
    "waveplate_matrix",
    "wrap_angle",
]


def test_public_names_are_pinned():
    names = sorted(
        name for name, value in vars(triphase).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == EXPORTS


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_no_module_uses_a_private_name_of_another():
    siblings = {path.stem for path in SOURCE.glob("*.py")}
    problems = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        modules = set()  # local names bound to sibling modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                package = node.level > 0 or (node.module or "").split(".")[0] == "triphase"
                if not package:
                    continue
                for alias in node.names:
                    if node.module in (None, "triphase") and alias.name in siblings:
                        modules.add(alias.asname or alias.name)
                    elif _private(alias.name):
                        problems.append(f"{path.name}:{node.lineno} imports {alias.name} from {node.module}")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules and _private(node.attr)):
                problems.append(f"{path.name}:{node.lineno} reaches {node.value.id}.{node.attr}")
    assert not problems


def test_no_module_imports_dataclasses():
    # every record is a named tuple: core.Record for the checked ones, typing.NamedTuple for the rest
    problems = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module or ""]
            else:
                continue
            problems += [f"{path.name}:{node.lineno} imports {m}" for m in modules if m.split(".")[0] == "dataclasses"]
    assert not problems
