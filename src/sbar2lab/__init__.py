"""Exact-arithmetic workbench for the constant-divergence vector field
algebra on the plane and its Whittaker module theory."""

__version__ = "0.1.0"

from .base import Poly2, Scalar, binom2
from .lie import (
    Sbar,
    VectorField,
    divergence,
    l_basis,
    sbar_bracket,
    sbar_to_vf,
    scaling_twist,
    unipotent_twist,
    vf_bracket,
    vf_to_sbar,
)
from .weyl import TensorAlg, Weyl, phi_L, phi_d2, phi_hom_check, phi_poly
from .enveloping import (
    Loc,
    Q1,
    UEnv,
    q1_act,
    reduce_mod_I1,
)
from .gl2 import Gl2Module, Gl2Poly, gl2_simple
from .tmodule import (
    SigmaOp,
    TVector,
    closure_probe,
    uh_freeness_check,
    whittaker_space,
)
from .centralizer import (
    H_GENERATORS,
    centralizer_check,
    pi1,
    wh_action_compare,
    xi_y,
    y_basis_probe,
    y_element,
    y_generation_search,
)
from .expr import ParseError, eval_loc, eval_phi, eval_seed, parse_element, print_element
from .report import SuiteReport, emit_report
from .suites import run_suite, suite_names
