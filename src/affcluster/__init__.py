"""Exact symbolic computations in cluster algebras of acyclic affine type:
seeds and mutation, tube combinatorics, theta functions on the imaginary
wall, tube generalized cluster algebras, and a rank-2 broken-line oracle."""

from .poly import LaurentPoly, VarContext, default_context, exact_div, pointed_form, substitute
from .seeds import (
    ExtendedExchangeMatrix,
    RootVec,
    Seed,
    WeightVec,
    initial_seed,
    mutate_seed,
    mutation_map_eta,
    principal_extension,
)
from .affine import AffineData, Tube, TubeRoot, build_affine_data, detect_tubes
from .theta import ThetaEngine, ThetaFunction

__all__ = [
    "LaurentPoly",
    "VarContext",
    "default_context",
    "exact_div",
    "pointed_form",
    "substitute",
    "ExtendedExchangeMatrix",
    "RootVec",
    "Seed",
    "WeightVec",
    "initial_seed",
    "mutate_seed",
    "mutation_map_eta",
    "principal_extension",
    "AffineData",
    "Tube",
    "TubeRoot",
    "build_affine_data",
    "detect_tubes",
    "ThetaEngine",
    "ThetaFunction",
]
