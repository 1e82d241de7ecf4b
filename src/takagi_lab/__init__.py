"""Exact Takagi-function evaluation with certified measure bounds.

The package is organised bottom-up:

* :mod:`takagi_lab.exactnum` -- exact rational parsing and printing
  and binary-grid geometry (dyadic checks, neighbours, levels);
* :mod:`takagi_lab.takagi` -- the function T, its partial sums and
  slope sums, exact values at dyadic points and enclosures elsewhere;
* :mod:`takagi_lab.measure` -- certified two-sided bounds on measures
  of difference-quotient level sets, from an adaptive integer bisection
  of the dyadic cells of the partial sums;
* :mod:`takagi_lab.analysis` -- certificates against approximate
  derivability (one-scale estimates, blow-ups, refutation evidence);
* :mod:`takagi_lab.cli` -- the ``takagi-lab`` command-line tool.
"""

from .exactnum import (
    dyadic_level,
    dyadic_neighbors,
    format_rat,
    frac_part,
    is_dyadic,
    parse_rat,
)
from .takagi import (
    Enclosure,
    SlopeSeq,
    G,
    g,
    slope,
    slope_seq,
    slope_sum,
    takagi_enclosure,
    takagi_exact,
)
from .measure import (
    BreakpointLimitError,
    Dir,
    QuotientQuery,
    certify_lower,
    quotient_set_bounds,
    quotient_set_sides,
)
from .analysis import (
    BlowupReport,
    CertificatePair,
    ClassificationReport,
    DensityCertificate,
    LemmaReport,
    RefutationEvidence,
    blowup_check,
    certificate,
    classify,
    refute,
    verify_lemma,
)

__version__ = "0.1.0"
