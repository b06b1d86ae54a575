"""Power-residue classes of Frobenius traces of CM elliptic curves.

The package computes a_p for the nine rational CM families by complex
multiplication in closed form (a norm equation in Z[i], Z[ω] or the ring of
integers of Q(√d), plus one character value that picks the unit),
evaluates quartic and cubic residue symbols, partitions split primes into
congruence/residue cells, and checks per-prime identities exactly and
density statements statistically.

Entry points:

* :func:`cmresidues.curves.ap` — the trace pipeline (naive oracle:
  :func:`cmresidues.curves.ap_naive`);
* :func:`cmresidues.density.verify_suite` — exact per-prime suites;
* :func:`cmresidues.density.density_report` /
  :func:`cmresidues.density.conjecture_report` — conditioned scans against
  closed-form tables resp. the scaling law;
* ``python -m cmresidues`` / the ``cmresidues`` script — CLI over the same.
"""

from .curves import CurveSpec, ap, ap_naive, ap_order, load_curve_table, unit_count
from .density import (
    Report,
    ScanItem,
    conjecture_report,
    density_report,
    predict_orders,
    run_scan,
    scan_batch,
    scaling_parameters,
    trivial_symbol_density,
    verify_suite,
)
from .eisenstein import EisInt, cubic_symbol, split_prime_eis
from .gaussian import GaussInt, primary_class_mod8, quartic_symbol, split_prime
from .prime_sets import QuarticCell, classify, parse_set, quartic_cell

__version__ = "0.1.0"

__all__ = [
    "CurveSpec",
    "ap",
    "ap_naive",
    "ap_order",
    "load_curve_table",
    "unit_count",
    "Report",
    "ScanItem",
    "conjecture_report",
    "density_report",
    "predict_orders",
    "run_scan",
    "scan_batch",
    "scaling_parameters",
    "trivial_symbol_density",
    "verify_suite",
    "EisInt",
    "cubic_symbol",
    "split_prime_eis",
    "GaussInt",
    "primary_class_mod8",
    "quartic_symbol",
    "split_prime",
    "QuarticCell",
    "classify",
    "parse_set",
    "quartic_cell",
    "__version__",
]
