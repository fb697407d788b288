"""Constituency parsing via per-split scores.

The toolkit converts parse trees to one real score per adjacent-word gap
(plus labels) and back, trains a small sequence model to predict those
scores, and evaluates the resulting parses with bracket P/R/F1.
"""

__version__ = "0.1.0"

from .binarize import (
    EMPTY_LABEL,
    BinaryTree,
    Internal,
    LabelError,
    StructureError,
    Terminal,
    binarize,
    debinarize,
)
from .codec import (
    ENGINES,
    DistanceTuple,
    SparseTable,
    decode,
    encode,
)
from .trees import (
    Leaf,
    NaryTree,
    Tree,
    TreebankError,
    parse_bracketed,
    preprocess,
    serialize_bracketed,
)

__all__ = [
    "__version__",
    "EMPTY_LABEL",
    "BinaryTree",
    "Internal",
    "LabelError",
    "StructureError",
    "Terminal",
    "binarize",
    "debinarize",
    "ENGINES",
    "DistanceTuple",
    "SparseTable",
    "decode",
    "encode",
    "Leaf",
    "NaryTree",
    "Tree",
    "TreebankError",
    "parse_bracketed",
    "preprocess",
    "serialize_bracketed",
]
