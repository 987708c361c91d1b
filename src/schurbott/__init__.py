"""Exact Schur-functor calculus, Borel-Weil-Bott cohomology on Grassmannians,
and verification of exceptional / semi-orthogonal collections built from the
planar locus of the Hilbert scheme of three points."""

from .partitions import Weight, parse_weight
from .rep_ring import (
    RepElement,
    char_of,
    decompose,
    dual,
    ext_power,
    sym_power,
    tensor,
    weyl_dim,
)
from .bwb import BWBOutcome, BundleExpr, GradedCohomology, bwb_single, cohomology
from .bundle_calculus import planar_rank_identity, wedge2_middle, wedge_nprime
from .soc import (
    VerificationReport,
    check_exceptional,
    check_fully_faithful,
    check_semiorthogonal,
    enumerate_ff,
    enumerate_sos,
    ext_decomposition,
    kummer_count,
)

__all__ = [
    "Weight",
    "parse_weight",
    "RepElement",
    "tensor",
    "dual",
    "sym_power",
    "ext_power",
    "char_of",
    "decompose",
    "weyl_dim",
    "BWBOutcome",
    "BundleExpr",
    "GradedCohomology",
    "bwb_single",
    "cohomology",
    "wedge_nprime",
    "wedge2_middle",
    "planar_rank_identity",
    "VerificationReport",
    "ext_decomposition",
    "check_exceptional",
    "check_fully_faithful",
    "check_semiorthogonal",
    "enumerate_ff",
    "enumerate_sos",
    "kummer_count",
]

__version__ = "0.1.0"
