"""Statistically robust gradient aggregation rules (GARs).

This subpackage is the heart of Garfield (Section 3.1 of the paper).  Every
GAR is a function from q vectors in R^d to one vector in R^d with statistical
robustness guarantees.  The common interface mirrors the paper's wrappers:

>>> from repro.aggregators import init
>>> gar = init("median", n=7, f=1)
>>> aggregated = gar.aggregate(list_of_vectors)

or, equivalently, the functional form ``gar(gradients=list_of_vectors, f=1)``.
"""

from repro.aggregators.base import (
    GAR,
    DistanceGAR,
    GAR_REGISTRY,
    available_gars,
    column_median,
    init,
    register_gar,
    sorted_columns,
)
from repro.aggregators.average import Average
from repro.aggregators.median import Median
from repro.aggregators.krum import Krum, MultiKrum
from repro.aggregators.mda import MDA
from repro.aggregators.bulyan import Bulyan
from repro.aggregators.trimmed_mean import TrimmedMean
from repro.aggregators.geometric_median import GeometricMedian
from repro.aggregators.phocas import MeaMed
from repro.aggregators.variance import VarianceReport, measure_variance

__all__ = [
    "GAR",
    "DistanceGAR",
    "GAR_REGISTRY",
    "init",
    "register_gar",
    "available_gars",
    "sorted_columns",
    "column_median",
    "Average",
    "Median",
    "Krum",
    "MultiKrum",
    "MDA",
    "Bulyan",
    "TrimmedMean",
    "GeometricMedian",
    "MeaMed",
    "measure_variance",
    "VarianceReport",
]
