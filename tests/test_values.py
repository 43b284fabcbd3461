"""Value semantics of the public record types, one table for all of them:
construction by position and keyword, defaults, equality and hash, repr,
immutability, and pickle/copy round trips."""

import copy
import math
import pickle
from fractions import Fraction

import pytest

from ellgreen.green import GreenValue
from ellgreen.heights import AverageHeightReport, CurveHeightInput
from ellgreen.lattice import CyclicSubgroup, Isogeny, TauPoint, TorusPoint
from ellgreen.modular import SeriesTolerance, SurfaceInvariants
from ellgreen.verify import CheckResult
from ellgreen.weierstrass import PeriodData, RootTriple, WeierstrassCurve

TAU = TauPoint(0.25, 1.5)

# (class, field names, constructor arguments, repr, default arguments and what they equal)
VALUES = [
    (TauPoint, ("re", "im"), (0.25, 1.5), "TauPoint(re=0.25, im=1.5)", None),
    (TorusPoint, ("a", "b"), (Fraction(4, 3), -0.75),
     "TorusPoint(a=Fraction(1, 3), b=0.25)", None),
    (CyclicSubgroup, ("order", "u", "v"), (6, 5, 4), "CyclicSubgroup(order=6, u=1, v=2)", None),
    (Isogeny, ("source", "target", "degree", "scale"),
     (TauPoint(0.0, 1.0), TauPoint(0.0, 2.0), 2, 2 + 0j),
     "Isogeny(source=TauPoint(re=0.0, im=1.0), target=TauPoint(re=0.0, im=2.0), "
     "degree=2, scale=(2+0j))", None),
    (SeriesTolerance, ("rel_tol", "max_terms"), (1e-10, 64),
     "SeriesTolerance(rel_tol=1e-10, max_terms=64)", ((), (1e-12, 256))),
    (SurfaceInvariants, ("norm_eta", "norm_delta", "omega_norm"), (0.5, 0.5 ** 24, 2.0),
     "SurfaceInvariants(norm_eta=0.5, norm_delta=5.960464477539063e-08, omega_norm=2.0)", None),
    (GreenValue, ("value", "log_value"), (0.0, -math.inf),
     "GreenValue(value=0.0, log_value=-inf)", None),
    (WeierstrassCurve, ("p", "q", "disc"), (4, 0, 64),
     "WeierstrassCurve(p=(4+0j), q=0j, disc=(64+0j))", ((4, 0), (4, 0, 64))),
    (PeriodData, ("omega1", "omega2", "tau"), (2 + 0j, 0.5 + 3j, TAU),
     "PeriodData(omega1=(2+0j), omega2=(0.5+3j), tau=TauPoint(re=0.25, im=1.5))", None),
    (RootTriple, ("alpha1", "alpha2", "alpha3"), (1.0, -0.5, -0.5),
     "RootTriple(alpha1=1.0, alpha2=-0.5, alpha3=-0.5)", None),
    (AverageHeightReport,
     ("n", "green_average", "green_predicted", "delta_average", "delta_predicted"),
     (3, 0.5, 0.25, 0.125, 0.0625),
     "AverageHeightReport(n=3, green_average=0.5, green_predicted=0.25, "
     "delta_average=0.125, delta_predicted=0.0625)", None),
    (CurveHeightInput, ("degree", "log_norm_min_disc", "embeddings"), (2, 1.5, [TAU]),
     "CurveHeightInput(degree=2, log_norm_min_disc=1.5, "
     "embeddings=(TauPoint(re=0.25, im=1.5),))", None),
    (CheckResult, ("criterion", "name", "residual", "tolerance"), (4, "check", 1e-13, 1e-10),
     "CheckResult(criterion=4, name='check', residual=1e-13, tolerance=1e-10)", None),
]


@pytest.mark.parametrize("cls,names,args,text,defaults", VALUES,
                         ids=[row[0].__name__ for row in VALUES])
def test_value_semantics(cls, names, args, text, defaults):
    value = cls(*args)
    fields = tuple(getattr(value, name) for name in names)
    for copy_ in (cls(*args), cls(**dict(zip(names, args))), cls(*fields),
                  pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(copy_) is cls
        assert copy_ == value and not copy_ != value
        assert tuple(getattr(copy_, name) for name in names) == fields
    assert value != fields and fields != value
    assert repr(value) == text
    if defaults is not None:
        short, full = defaults
        assert cls(*short) == cls(*full)
    assert hash(value) == hash(cls(*fields)) == hash(copy.deepcopy(value))
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, fields[0])
    for name in names:
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in names) == fields
