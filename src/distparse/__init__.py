"""Constituency parsing via per-split scores.

The toolkit converts parse trees to one real score per adjacent-word gap
(plus labels) and back, trains a small sequence model to predict those
scores, and evaluates the resulting parses with bracket P/R/F1.
"""

__version__ = "0.1.0"
