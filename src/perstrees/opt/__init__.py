"""Optimal trees over finite cut menus: exact solver, MIP build, MPS export."""

from .mip import (
    MipModel,
    build_mip,
    check_solution,
    load_solution_json,
    objective_value,
    solution_from_assignment,
)
from .mps import export_mps, names_path
from .skeleton import CutMenu, OptConfig, build_cut_menu, cut_positions
from .solver import (
    OptResult,
    TreeAssignment,
    assignment_to_tree,
    evaluate_assignment,
    solve_exact,
    warm_start_from_pt,
)

__all__ = [
    "CutMenu",
    "MipModel",
    "OptConfig",
    "OptResult",
    "TreeAssignment",
    "assignment_to_tree",
    "build_cut_menu",
    "build_mip",
    "check_solution",
    "cut_positions",
    "evaluate_assignment",
    "export_mps",
    "load_solution_json",
    "names_path",
    "objective_value",
    "solution_from_assignment",
    "solve_exact",
    "warm_start_from_pt",
]
