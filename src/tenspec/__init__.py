"""tenspec: exact decomposition of dense real tensors.

Spectral decomposition of self-adjoint non-negative definite tensor
operators, singular-value style decomposition of linear tensor
transformations, and a two-stage decomposition of three-group tensors,
with full reconstruction and oracle-based verification.
"""

from .core import (
    DenseTensor,
    contract,
    norm,
    random_tensor,
    unfold,
)
from .decompose import (
    GroupedTensor,
    OperatorDecomposition,
    TransformDecomposition,
    TripleDecomposition,
    component_count,
    decompose_sa_nnd,
    decompose_transform,
    decompose_triple,
    gram_operator,
    reconstruct,
    residual_curve,
)
from .jacobi import EigenResult, sym_eig
from .oracle import OracleReport, matricized_singulars, verify_decomposition
from .tz1 import read_tensor, write_tensor

__version__ = "0.1.0"

__all__ = [
    "DenseTensor",
    "EigenResult",
    "GroupedTensor",
    "OperatorDecomposition",
    "OracleReport",
    "TransformDecomposition",
    "TripleDecomposition",
    "component_count",
    "contract",
    "decompose_sa_nnd",
    "decompose_transform",
    "decompose_triple",
    "gram_operator",
    "matricized_singulars",
    "norm",
    "random_tensor",
    "read_tensor",
    "reconstruct",
    "residual_curve",
    "sym_eig",
    "unfold",
    "verify_decomposition",
    "write_tensor",
]
