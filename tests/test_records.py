"""The engine's records keep the semantics they had as frozen dataclasses:
field equality, a hash equal to the hash of the tuple of their fields (so
sets and dicts of records iterate in the same order, and every output built
from one is unchanged), immutability, TubeRoot order, the repr text that
IdentityViolated messages show, and validation on construction."""

import copy
import functools
import pickle

import pytest

from affcluster.affine import MaxRootData, NonMaxRootData, Tube, TubeRoot, fan
from affcluster.gca import ExchangeGraph, GCASeed, build_tube_seed
from affcluster.poly import VarContext
from affcluster.scatter2 import BrokenLine2, Wall2
from affcluster.seeds import (
    ExtendedExchangeMatrix,
    NonSkewSymmetrizable,
    RootVec,
    Seed,
    WeightVec,
    initial_seed,
    principal_extension,
)
from affcluster.theta import Grading, ThetaEngine

B_A2T = ((0, 1, 1), (-1, 0, 1), (-1, -1, 0))
B_KRON = ((0, 2), (-2, 0))
MUTABLE = (Wall2, ExchangeGraph)


def _swap(values, i, new):
    return values[:i] + (new,) + values[i + 1 :]


@functools.lru_cache(maxsize=None)
def _records():
    """name -> (class, field names, field values, other field values)."""
    eng = ThetaEngine(B_A2T)
    data, tube = eng.data, eng.tubes[0]
    seed0 = initial_seed(principal_extension(B_KRON))
    gseed, labels = build_tube_seed(eng.tubes, fan(tube))
    data_fields = ("b", "cartan", "e", "order", "delta", "e_c", "e_cinv")
    data_values = tuple(getattr(data, f) for f in data_fields)
    gseed_values = (gseed.zkeys, gseed.g, gseed.c, gseed.p, gseed.b, gseed.d)
    arc, arc2 = TubeRoot(0, 1, 1), TubeRoot(0, 0, 2)
    return {
        "VarContext": (VarContext, ("n", "m", "names"), (1, 1, ("x1", "u1")), (1, 1, ("x1", "u2"))),
        "RootVec": (RootVec, ("coords",), ((1, 0),), ((0, 1),)),
        "WeightVec": (WeightVec, ("coords",), ((1, 0),), ((0, 1),)),
        "ExtendedExchangeMatrix": (
            ExtendedExchangeMatrix,
            ("rows", "n"),
            (((0, 2), (-2, 0), (1, 0), (0, 1)), 2),
            (((0, -2), (2, 0), (1, 0), (0, 1)), 2),
        ),
        "Seed": (
            Seed, ("matrix", "cluster"),
            (seed0.matrix, seed0.cluster), (seed0.matrix, seed0.cluster[::-1]),
        ),
        "AffineData": (
            type(data), data_fields, data_values, _swap(data_values, 4, data.delta.scale(2)),
        ),
        "Tube": (Tube, ("index", "orbit"), (0, tube.orbit), (1, tube.orbit)),
        "TubeRoot": (TubeRoot, ("tube", "start", "length"), (0, 1, 2), (0, 2, 1)),
        "MaxRootData": (
            MaxRootData, ("beta_idx", "beta_prime_idx", "phi", "phi_prime"),
            (0, 1, arc, None), (0, 1, None, arc),
        ),
        "NonMaxRootData": (
            NonMaxRootData,
            ("phi", "beta_idx", "beta_prime_idx", "phi1", "phi2", "phi3", "gamma_owns_beta"),
            (arc2, 0, 1, None, None, None, True),
            (arc2, 0, 1, None, None, None, False),
        ),
        "GCASeed": (
            GCASeed, ("zkeys", "g", "c", "p", "b", "d"),
            gseed_values, _swap(gseed_values, 5, (3,)),
        ),
        "Grading": (
            Grading, ("ctx", "b"),
            (eng.grading.ctx, eng.grading.b), (eng.grading.ctx, eng.grading.b[::-1]),
        ),
        "BrokenLine2": (
            BrokenLine2, ("picks", "coeff", "weight", "tropical"),
            ((((1, 0), (0, 1), 1),), 1, (1, 1), (0, 1)),
            ((((1, 0), (0, 1), 1),), 2, (1, 1), (0, 1)),
        ),
        "Wall2": (
            Wall2, ("normal", "direction", "is_line", "coroot", "yhat", "coeffs"),
            ((1, 0), (0, 1), True, (1, 0), (0, -2, 1, 0), [1, 1]),
            ((1, 0), (0, 1), True, (1, 0), (0, -2, 1, 0), [1, 2]),
        ),
        "ExchangeGraph": (
            ExchangeGraph, ("vertices", "labels", "edges"),
            ([gseed], [labels], []), ([gseed], [labels], [(0, 0, 0)]),
        ),
    }


RECORD_NAMES = [
    "VarContext", "RootVec", "WeightVec", "ExtendedExchangeMatrix", "Seed", "AffineData",
    "Tube", "TubeRoot", "MaxRootData", "NonMaxRootData", "GCASeed", "Grading",
    "BrokenLine2", "Wall2", "ExchangeGraph",
]


@pytest.mark.parametrize("name", RECORD_NAMES)
def test_record_semantics(name):
    cls, fields, values, other_values = _records()[name]
    assert cls.__name__ == name
    r, same, other = cls(*values), cls(*values), cls(*other_values)
    assert tuple(getattr(r, f) for f in fields) == values
    assert r == same and not r != same
    assert r != other and not r == other
    shown = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
    assert repr(same) == f"{name}({shown})"
    if cls in MUTABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(r)
        setattr(r, fields[0], values[0])
    else:
        assert hash(r) == hash(values)
        assert len({r, same, other}) == 2
        with pytest.raises(AttributeError):
            setattr(r, fields[0], values[0])


def test_every_record_is_covered():
    assert sorted(RECORD_NAMES) == sorted(_records())
    assert len(RECORD_NAMES) == 15  # 14 records, _IntVec through both subclasses


def test_vectors_of_different_bases_never_compare_equal():
    root, weight = RootVec((1, 0)), WeightVec((1, 0))
    assert root != weight and not root == weight
    assert len({root, weight}) == 2
    assert repr(root) == "RootVec(coords=(1, 0))"
    assert type(root + RootVec((0, 1))) is RootVec
    assert type(-weight) is WeightVec and type(weight.scale(3)) is WeightVec
    assert (weight - weight).coords == (0, 0)
    assert copy.copy(root) == root and pickle.loads(pickle.dumps(weight)) == weight
    with pytest.raises(TypeError):
        root < RootVec((2, 0))  # vectors are not ordered


def test_tube_roots_sort_by_tube_start_length(rng):
    arcs = [TubeRoot(rng.randrange(3), rng.randrange(4), rng.randrange(1, 4)) for _ in range(50)]
    assert sorted(arcs) == sorted(arcs, key=lambda r: (r.tube, r.start, r.length))
    assert TubeRoot(0, 1, 2) < TubeRoot(0, 2, 1) < TubeRoot(1, 0, 1)
    assert repr(TubeRoot(0, 1, 2)) == "TubeRoot(tube=0, start=1, length=2)"


@pytest.mark.parametrize(
    "cls, args, error, match",
    [
        (VarContext, (0, 0, ()), ValueError, "need at least one cluster variable"),
        (VarContext, (1, -1, ("x1",)), ValueError, "m must be nonnegative"),
        (VarContext, (1, 1, ("x1",)), ValueError, "names must have length n[+]m"),
        (VarContext, (1, 1, ("x1", "x1")), ValueError, "variable names must be unique"),
        (ExtendedExchangeMatrix, ((), 0), ValueError, "need n >= 1"),
        (ExtendedExchangeMatrix, (((0, 1), (-1,)), 2), ValueError, "all rows must have length n"),
        (ExtendedExchangeMatrix, (((0, 1),), 2), ValueError, "need at least n rows"),
        (ExtendedExchangeMatrix, (((0, 1), (1, 0)), 2), NonSkewSymmetrizable, "sign pattern"),
    ],
)
def test_records_validate_on_construction(cls, args, error, match):
    with pytest.raises(error, match=match):
        cls(*args)
