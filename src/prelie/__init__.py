"""Exact rational calculus for pre-Lie series on rooted trees, multicomplexes,
and homotopy-associative structures with homotopy transfer.

Subpackages and modules:

- ``prelie.trees``        labeled rooted trees (unlabeled trees carry the
                          label ``*``): enumeration, automorphisms,
                          levelizations and their weights
- ``prelie.series``       the free pre-Lie algebra on labeled trees:
                          grafting, braces, circle product, exp/Magnus,
                          BCH, gauge action
- ``prelie.multicomplex`` operator towers under convolution: Maurer-Cartan
                          checks, conjugation, trivialization
- ``prelie.ainf``         arity-graded convolution algebra, gauge kernels,
                          and the homotopy transfer machinery
- ``prelie.cli``          batch front end over the text/JSON formats

Everything computes over ``fractions.Fraction``; no floating point anywhere.
"""

__version__ = "0.1.0"
