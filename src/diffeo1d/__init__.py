"""Numerical toolkit for the dynamics of one-dimensional diffeomorphisms.

Expression trees for vector fields and diffeomorphisms with jet-accurate
evaluation, flow maps, transit times, Mather invariants, conjugacy
synthesis, almost-reducibility of time-one maps, and word-length
certificates for distortion estimates.
"""

from .jets import Jet, jet_compose, jet_invert
from .fields import (
    AffinePushforwardField,
    BumpField,
    Circle,
    ConstantField,
    FlatGermField,
    Interval,
    PeriodicField,
    PiecewiseField,
    PolynomialField,
    ProductField,
    ScaledField,
    ShiftedField,
    StepField,
    SumField,
    VectorField1D,
    field_norm,
)
from .diffeos import (
    Affine,
    CircleFromInterval,
    Compose,
    Diffeo1D,
    Displacement,
    FlowError,
    FlowMap,
    Homothety,
    Identity,
    InverseMap,
    Moebius,
    PiecewiseGlue,
    Power,
    Rotation,
    flow,
    transit_time,
)
from .grid import GridFunction, GridSpec
from .metrics import (
    asymptotic_variation,
    cr_distance,
    liouville_cocycle,
    liouville_length,
    rotation_number,
    schwarzian,
    var_log_derivative,
)
from .mather import MatherSample, Perturbation, is_trivial, mather_map
from .conjugacy import (
    ConjugacyError,
    ConjugacyWitness,
    OrbitConjugator,
    TransitConjugator,
    synthesize_conjugacy,
)
from .reduce import (
    ReduceError,
    ReductionInput,
    ReductionTrace,
    flatten_field,
    interpolate_ITI,
    normalize_rational,
    reduce_interval,
    reduce_no_interior_ITI,
)
from .distortion import (
    CertificateError,
    DecompositionRecord,
    WordCertificate,
    build_interval_certificate,
    certificate_algebra,
    commutator_curvature,
    distortion_report,
    epsilon_schedule,
    flow_root_decomposition,
    word_to_diffeo,
)
from .serialize import (
    SerializeError,
    diffeo_from_json,
    dumps,
    field_from_json,
    loads,
    to_json,
)

__version__ = "0.1.0"
