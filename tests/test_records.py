"""Every record class: equality, hash, repr, refused assignment, copy,
deepcopy, pickle and replace.

Runs under pytest and also as a plain script, for interpreters without
pytest:

    PYTHONPATH=src python3 tests/test_records.py
"""

import copy
import pickle
from fractions import Fraction as F

import mukailab as M
from mukailab import cli, lattice, partition, reductions, series, transforms, walls
from mukailab._record import FrozenInstanceError, replace

MODULES = (lattice, transforms, walls, series, partition, reductions, cli)


def _raises(exc, func, *args):
    try:
        func(*args)
    except exc:
        return
    raise AssertionError("%s not raised" % exc.__name__)


def _samples():
    """An instance of every record class and a change of one field, for
    replace to make an unequal second instance."""
    k3, ell = M.k3_model(), M.elliptic_model()
    v = k3.vector(2, (1, -1), 3)
    wall = M.Wall((3, -1), -7, k3.cls((0, 2)), -3)
    trace = M.reduce_to_rank_one(1, 2, k3.cls((0, 1)), -1, k3)
    return {
        M.NSLattice: (M.hyperbolic_lattice(), {"basis_names": ("a", "b")}),
        M.SurfaceModel: (ell, {"polarization": ell.cls((1, 4))}),
        M.VectorStats: (M.vector_stats(v, k3), {"square": F(7)}),
        M.IsotropicCoords: (M.IsotropicCoords(F(1), F(2), F(-1, 2), k3.cls((1, 0))), {"l": F(3)}),
        M.IsotropicContext: (transforms.cor_ext_context(k3, 2), {"H": k3.cls((1, 3))}),
        M.FMPreconditions: (M.FMPreconditions(F(0), F(1), F(2)), {"deg_G1": F(1)}),
        M.EllipticRelativeParams: (M.EllipticRelativeParams(3, 1, 7), {"r": 5}),
        M.TwistData: (M.TwistData(k3.cls((1, 1)), alpha=k3.cls((F(1, 2), 0))),
                      {"H": k3.cls((1, 2))}),
        M.Wall: (wall, {"normal": (1, 2)}),
        M.Chamber: (M.Chamber(("+", "-"), k3.cls((1, 1))), {"sign_vector": ("-", "-")}),
        M.OnWall: (M.OnWall((0, 3)), {"indices": (1,)}),
        M.Crossing: (M.Crossing(F(1, 3), 4, wall), {"t": F(1, 2)}),
        M.WallSolveResult: (M.WallSolveResult((F(1, 4),)), {"roots": ()}),
        M.QSeries: (M.QSeries(2, {0: 1, 3: F(1, 2)}, 2), {"denom": 3}),
        M.PartitionTerm: (M.PartitionTerm((1, 0), F(1, 2), F(-1), F(1, 3), F(-1, 3), F(1), F(0)),
                          {"xi": (0, 1)}),
        M.MoveStep: (trace.steps[0], {"move": "twist"}),
        M.MoveTrace: (trace, {"steps": []}),
        M.EnriquesReduction: (M.enriques_reduce(M.enriques_model().vector(3, [0] * 10, F(-1, 2)),
                                                M.enriques_model()), {"n": 5}),
        M.FiltrationDims: (M.FiltrationDims(F(1), F(-2)), {"sum_form": F(3)}),
        M.GitDims: (M.GitDims(F(6), F(2), F(30), F(10), (F(3),), (F(1),)), {"dimV": F(7)}),
        M.GitData: (M.GitData(F(6), (F(3),), (F(1, 2),), F(2), F(2)), {"h_m": F(5)}),
        cli.JobSpec: (cli.JobSpec("pair", inputs={"v": 1}), {"subcommand": "dims"}),
    }


def _hashable(x):
    try:
        hash(tuple(getattr(x, n) for n in x._fields))
    except TypeError:
        return False
    return True


def test_every_record_class_is_sampled():
    found = {v for mod in MODULES for v in vars(mod).values()
             if isinstance(v, type) and "_fields" in v.__dict__}
    assert found == set(_samples())


def test_records_are_slotted():
    for cls, (x, _) in _samples().items():
        assert cls.__slots__[:len(cls._fields)] == cls._fields
        assert hasattr(x, "__dict__") == hasattr(cls, "__post_init__"), cls


def test_record_protocols():
    for cls, (x, change) in _samples().items():
        frozen = cls.__hash__ is not None
        other = replace(x, **change)
        assert type(other) is cls and other != x and x != other, cls
        assert all(getattr(other, n) == getattr(x, n) for n in cls._fields if n not in change)
        assert replace(x) == x
        assert x != object() and not (x == (1,))
        assert repr(x).startswith(cls.__qualname__ + "(")
        assert "%s=%r" % (cls._fields[-1], getattr(x, cls._fields[-1])) in repr(x)
        copies = (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x)))
        for y in copies:
            assert type(y) is cls and y == x and repr(y) == repr(x), cls
            if frozen and _hashable(x):
                assert hash(y) == hash(x)
        name = next(iter(change))
        if frozen:
            if not _hashable(x):
                _raises(TypeError, hash, x)
            _raises(FrozenInstanceError, setattr, x, name, getattr(other, name))
            _raises(FrozenInstanceError, delattr, x, name)
            _raises(FrozenInstanceError, setattr, x, "extra", 1)
            assert getattr(x, name) != getattr(other, name)
        else:
            _raises(TypeError, hash, x)
            y = copies[1]
            setattr(y, name, getattr(other, name))
            assert y == other and x != y


def test_cached_private_attributes_survive():
    lat = M.enriques_lattice()
    ell = M.elliptic_model()
    assert set(vars(lat)) == {"_rows", "_mrows"} and set(vars(ell)) == {"_cone"}
    for make in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        lat2, ell2 = make(lat), make(ell)
        assert lat2._rows == lat._rows and lat2._mrows == lat._mrows
        assert ell2._cone == ell._cone and ell2.ns._rows == ell.ns._rows
        assert ell2.effective(ell2.cls((1, 2))) and not ell2.effective(ell2.cls((-1, 0)))
        v = ell2.vector(1, (1, 0), 0)
        assert M.mukai_pair(v, v) == M.mukai_pair(ell.vector(1, (1, 0), 0), ell.vector(1, (1, 0), 0))
    m = replace(ell, effective_generators=(ell.cls((1, 0)), ell.cls((1, 1))))
    assert m._cone != ell._cone and m.effective(m.cls((2, 1)))


if __name__ == "__main__":
    for name, test in sorted(globals().items()):
        if name.startswith("test_") and callable(test):
            test()
            print("ok", name)
