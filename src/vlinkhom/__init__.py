"""Exact link homology for virtual links (stable equivalence classes of
diagrams on surfaces) built from rank-two extended Frobenius algebras."""

from ._linalg import ExactLinearMap, compose
from .algebra import (AxiomReport, TheoryParams, all_presets, preset,
                      theory_from_params, theory_from_triple, verify_4tu,
                      verify_axioms)
from .diagram import (Smoothing, VirtualLinkDiagram, apply_r1, apply_r1_inverse,
                      apply_r2, apply_r2_inverse, braid_closure, parse_gauss)
from .fields import GF2, QQ, PrimeField, RationalField, field_by_name
from .homology import (ChainComplex, HomologyResult, betti_with_reversed_anchor,
                       build_complex, graded_euler_poly, graded_homology,
                       homology_of, stream_homology)
from .jones import LaurentPoly, jones_at_one, kauffman_jones
from .tqft import elementary_map, evaluate_closed_surface

__version__ = "0.1.0"
