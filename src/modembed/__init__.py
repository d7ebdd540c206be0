"""Network embedding and clustering from sampled-graph modularity matrices.

The pipeline in one breath: sample node pairs from a graph (by edge,
by short random walk, or by decayed distance), form the covariance of
that distribution against its marginals, and read node embeddings off
the top eigenvectors or soft cluster assignments off a monotone softmax
iteration. Semi-metrics, Laplacian pseudo-inverses, eigenmaps, and PCA
plug into the same covariance picture and live here too.

>>> from modembed import load_edge_list, edge_sampling, modularity_matrix
>>> g = load_edge_list("a b\\nb c\\nc a")
>>> q = modularity_matrix(edge_sampling(g))
>>> print(round(q.q[0, 1], 6))
0.055556
"""

from .errors import FormatError, NumericalError
from .evaluate import (
    F1Report,
    LabeledDataset,
    load_labels,
    micro_macro_f1,
    planted_partition,
    train_test_split,
)
from .graph import Graph, is_connected, laplacian, load_edge_list
from .modularity import (
    CovarianceOperator,
    ModularityMatrix,
    Partition,
    is_community,
    modularity_matrix,
    normalized_modularity,
    partition_modularity,
    set_covariance,
    walk_covariance,
)
from .sampling import (
    SampledGraph,
    edge_sampling,
    exp_distance_sampling,
    random_walk_sampling,
)
from .semimetric import (
    CohesionMatrix,
    DataMatrix,
    SemiMetric,
    eigenmap_embedding,
    half_sq_euclidean,
    induce_cohesion,
    induce_metric,
    laplacian_pinv,
    load_points,
    pca_embedding,
    resistance_distance,
)
from .softmax import (
    StochasticEmbedding,
    hard_assign,
    softmax_classify,
    softmax_cluster,
    softmax_objective,
    softmax_sweep,
    update_node,
    zero_diagonal,
)
from .spectral import (
    EigenPairs,
    Embedding,
    eigenvalues,
    frobenius_objective,
    reconstruct,
    select_dimension,
    spectral_embedding,
    top_k_eigen,
    weighted_distance_objective,
)

__version__ = "0.1.0"

__all__ = [
    "CohesionMatrix",
    "CovarianceOperator",
    "DataMatrix",
    "EigenPairs",
    "Embedding",
    "F1Report",
    "FormatError",
    "Graph",
    "LabeledDataset",
    "ModularityMatrix",
    "NumericalError",
    "Partition",
    "SampledGraph",
    "SemiMetric",
    "StochasticEmbedding",
    "edge_sampling",
    "eigenmap_embedding",
    "eigenvalues",
    "exp_distance_sampling",
    "frobenius_objective",
    "half_sq_euclidean",
    "hard_assign",
    "induce_cohesion",
    "induce_metric",
    "is_community",
    "is_connected",
    "laplacian",
    "laplacian_pinv",
    "load_edge_list",
    "load_labels",
    "load_points",
    "micro_macro_f1",
    "modularity_matrix",
    "normalized_modularity",
    "partition_modularity",
    "pca_embedding",
    "planted_partition",
    "random_walk_sampling",
    "reconstruct",
    "resistance_distance",
    "select_dimension",
    "set_covariance",
    "softmax_classify",
    "softmax_cluster",
    "softmax_objective",
    "softmax_sweep",
    "spectral_embedding",
    "top_k_eigen",
    "train_test_split",
    "update_node",
    "walk_covariance",
    "weighted_distance_objective",
    "zero_diagonal",
]
