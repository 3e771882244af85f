"""The paper's primary contribution: LSI and its analysis machinery.

- :mod:`repro.core.lsi` — rank-``k`` latent semantic indexing on the
  term–document matrix (§2), with query folding and retrieval.
- :mod:`repro.core.skewness` — the δ-skewness quantity of §4 and the
  intratopic/intertopic angle statistics of the paper's table.
- :mod:`repro.core.random_projection` — Johnson–Lindenstrauss projectors
  (§5).
- :mod:`repro.core.two_step` — the paper's two-step method: random
  projection followed by rank-``2k`` LSI, with the Theorem 5 bound and
  the §5 cost model.
- :mod:`repro.core.fkv` — the Frieze–Kannan–Vempala sampling-based
  low-rank approximation and the folklore document-sampling baseline.
- :mod:`repro.core.synonymy` — the §4 synonymy analysis on ``A·Aᵀ``.
- :mod:`repro.core.spectral_graph` — the §6 graph corpus model and
  Theorem 6's spectral subgraph discovery.
- :mod:`repro.core.cf` — the §6 collaborative-filtering analogue.
"""

from repro.core.clustering import (
    NearestCentroidClassifier,
    cluster_documents,
)
from repro.core.fkv import fkv_low_rank_approximation, sampled_lsi
from repro.core.folding import folding_drift
from repro.core.lsi import LSIModel
from repro.core.random_projection import (
    GaussianProjector,
    OrthonormalProjector,
    SignProjector,
    johnson_lindenstrauss_dimension,
)
from repro.core.skewness import (
    AngleStatistics,
    angle_statistics,
    pairwise_angle_table,
    skewness,
)
from repro.core.two_step import TwoStepLSI, lsi_cost_model, theorem5_bound

__all__ = [
    "AngleStatistics",
    "GaussianProjector",
    "LSIModel",
    "NearestCentroidClassifier",
    "OrthonormalProjector",
    "SignProjector",
    "TwoStepLSI",
    "angle_statistics",
    "cluster_documents",
    "fkv_low_rank_approximation",
    "folding_drift",
    "johnson_lindenstrauss_dimension",
    "lsi_cost_model",
    "pairwise_angle_table",
    "sampled_lsi",
    "skewness",
    "theorem5_bound",
]
