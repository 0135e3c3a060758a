"""Exact symbolic cycle calculus on explicitly presented varieties.

Sparse multivariate polynomials over QQ and F_p, a Buchberger Gröbner engine,
embedded spaces and closed sets, families of supports, cycles and
correspondences with localized composition, generalized-fraction local
cohomology symbols, and residue-based trace maps — plus a scenario language
and an axiom harness that exercise the whole stack at desk scale.
"""

from .errors import (
    BudgetExceeded,
    EngineError,
    FlatnessError,
    PolicyReject,
    RegularityError,
    RingMismatch,
    ScenarioError,
)
from .fields import GF, QQ, field_of_characteristic
from .poly import Poly, Ring, ring_over
from .forms import Form
from .orders import block_order, degrevlex, lex
from .groebner import (
    Budget,
    GBasis,
    budget_scope,
    Ideal,
    buchberger_audit,
    cofactor_lift,
    eliminate,
    groebner,
    ideal,
    krull_dim,
    normal_form,
    radical_member,
    saturate,
)
from .geometry import (
    Block,
    ClosedSet,
    Morphism,
    PrimeComponent,
    Space,
    affine,
    closed_set,
    graph_closure,
    image_closure,
    is_finite_over,
    preimage,
    product_space,
    proj,
    whole_space,
)
from .supports import SupportFamily, check_Vstar_morphism, in_P_family, preimage_family, product_family
from .cycles import (
    Cycle,
    DegreeCertificate,
    degree_over_image,
    flat_pullback,
    principal_divisor_line,
    push_forward,
)
from .corr import (
    Correspondence,
    CompositionResult,
    GraphData,
    compose_assoc_check,
    compose_localized,
    graph_correspondence,
    identity_corr,
    projector_check,
    supp_of_composition,
)
from .symbols import Chart, KoszulFraction, cycle_class_at_chart, lci_trace_symbol
from .residues import FinitePresentation, residue, trace_form, trace_property_check
from .report import ENGINE_VERSION, Report, TaskResult
from .scenario import parse_scenario, run_scenario, run_scenario_text
from .axioms import run_axiom_harness

__version__ = ENGINE_VERSION
