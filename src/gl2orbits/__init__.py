"""Verification library for subgroups of GL2 over prime fields.

Covers exact prime-field arithmetic, explicit matrix subgroups (Borel,
split and nonsplit Cartan, unipotent, scalars), semisimplification with
machine-checkable witnesses, orbit decompositions of the punctured plane,
and the divisibility-chain certificates behind the absolute constant 864.
"""

__version__ = "0.1.0"

from .divchain import (
    Case1Scenario,
    Case2Scenario,
    DegreeParameter,
    DivisibilityCertificate,
    InvalidScenarioError,
    ValidationReport,
    admissible_rho_orders,
    inert_bound_check,
    nonsplit_orbit_check,
    order_arithmetic_holds,
    replay_certificate,
    validate_case1,
    validate_case2,
    verify_case1_chain,
    verify_case2_chain,
)
from .gl2 import (
    ClosureBudgetError,
    Mat2,
    MatrixGroup,
    borel,
    closure,
    conjugate,
    kth_power_subgroup,
    nonsplit_cartan,
    scalars,
    split_cartan,
    subgroup_index,
    trivial_group,
    unipotent,
)
from .modarith import (
    CyclicImage,
    FpUnit,
    PrimeModulus,
    fp_pow,
    gcd_character_identity_holds,
    least_primitive_root,
    power_image_order,
    unit_group_index,
)
from .orbits import (
    DiagonalOrbitPrediction,
    Orbit,
    OrbitDecomposition,
    TransferVerdict,
    Vector2,
    coset_orbit_refinement,
    orbit,
    orbit_decomposition,
    predict_diagonal_orbits,
    stabilizer_order,
    uniform_divisibility_transfer,
)
from .semisimplify import (
    CommutatorWitness,
    DiagonalizerWitness,
    SemisimplificationResult,
    TransvectionWitness,
    TrichotomyWitness,
    classify_semisimplification,
    semisimplification,
    verify_witness,
)
from .sweep import (
    ConfigError,
    ScenarioRow,
    SweepConfig,
    SweepReport,
    enumerate_diagonal_subgroups,
    enumerate_upper_triangular_subgroups,
    run,
    sample_scenarios,
)

__all__ = [name for name in dir() if not name.startswith("_")]
