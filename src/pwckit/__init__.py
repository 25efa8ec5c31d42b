"""Exact computations for clustered dry-set measures on binary-tree leaves.

The package computes partition functions, free energies, and dry-set
densities for Gibbs measures on leaf subsets whose energy couples the
subset size with a clustering penalty, via dynamic programs over subtree
decompositions. It also ships size-resolved canonical tables, exact
top-down samplers, brute-force enumeration oracles for cross-checking,
and diagnostics for locating the wetting threshold.
"""

from .tree import LeafSet
from .capacity import (
    ConductanceProfile,
    cap_quadratic,
    cap_reduce,
    cap_table,
)
from .clustering import (
    CapacityClustering,
    FirstOrderClustering,
    HArray,
    HSequence,
    SecondOrderClustering,
    SpecConfigError,
    UnsupportedVariant,
    capacity_uniform,
    dgff_spec,
    first_linear,
    first_logcorrected,
    load_spec_file,
    parse_preset,
    random_capacity,
    random_first_order,
    random_second_order,
    save_spec_file,
    spec_from_doc,
    zero_spec,
)
from .dp import CanonicalTable, LogReal, dp_W, dp_W_maxterm, dp_Z, dp_density, zeta
from .oracle import (
    enum_W,
    enum_Z,
    enum_density,
    enum_maxterm,
    enum_phi,
    enum_zeta,
    phi_vector,
)
from .analysis import (
    BracketError,
    DiagnosticCurve,
    Kappa1Report,
    Kappa2Report,
    TauberianReport,
    WettingReport,
    estimate_jstar,
    kappa1,
    kappa2,
    laplace_first,
    laplace_second,
    tauberian_first,
)
from .sampler import Sampler, sample

__version__ = "0.1.0"

__all__ = [
    "BracketError",
    "CanonicalTable",
    "CapacityClustering",
    "ConductanceProfile",
    "DiagnosticCurve",
    "FirstOrderClustering",
    "HArray",
    "HSequence",
    "Kappa1Report",
    "Kappa2Report",
    "LeafSet",
    "LogReal",
    "Sampler",
    "SecondOrderClustering",
    "SpecConfigError",
    "TauberianReport",
    "UnsupportedVariant",
    "WettingReport",
    "cap_quadratic",
    "cap_reduce",
    "cap_table",
    "capacity_uniform",
    "dgff_spec",
    "dp_W",
    "dp_W_maxterm",
    "dp_Z",
    "dp_density",
    "enum_W",
    "enum_Z",
    "enum_density",
    "enum_maxterm",
    "enum_phi",
    "enum_zeta",
    "estimate_jstar",
    "first_linear",
    "first_logcorrected",
    "kappa1",
    "kappa2",
    "laplace_first",
    "laplace_second",
    "load_spec_file",
    "parse_preset",
    "phi_vector",
    "random_capacity",
    "random_first_order",
    "random_second_order",
    "sample",
    "save_spec_file",
    "spec_from_doc",
    "tauberian_first",
    "zero_spec",
    "zeta",
]
