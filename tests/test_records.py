"""The immutable record types: construction, immutability, equality, repr."""

import inspect
import math
import subprocess
import sys

import numpy as np
import pytest

from siegelflow import analysis, domains, expressions, fields, flows, geodesics, verify
from siegelflow.domains import Domain, siegel_point
from siegelflow.errors import CoverageGap, DomainViolation

_POINT = siegel_point(1j, 0.5)
_FIELD = fields.builtin("example2")
_GROUP = verify.GroupResult("g", 1, 0.0, 1.0, True, "d")
_SUITE = verify.SuiteReport("metric", (_GROUP,))

# One valid positional argument tuple per record class.
SAMPLES = [
    (analysis.CapacityEstimate, (1.0, "converged", ((1.0, 1.0),))),
    (analysis.MembershipReport,
     (2.0, 1.5, (1j, 0.5), Domain.SIEGEL, "consistent", "siegel-grid-v1", ("n",))),
    (analysis.InequalityReport, (0.1, (1j,), True, "halfplane-grid-v1")),
    (domains.DomainPoint, (Domain.SIEGEL, (1j, 0.5))),
    (domains.TangentVector, (_POINT, (1, 0))),
    (expressions.Num, (2j,)),
    (expressions.Var, (0,)),
    (expressions.Neg, (expressions.Var(0),)),
    (expressions.BinOp, ("+", expressions.Var(0), expressions.Num(1))),
    (expressions.Pow, (expressions.Var(0), 2)),
    (expressions.Func, ("exp", expressions.Var(0))),
    (fields.DiscreteMeasure, (((0.0, 1.0), (2.0, 0.5)),)),
    (flows.Trajectory,
     (Domain.DISC, np.array([0.0, 1.0]), np.array([[0.3 + 0j], [0.1 + 0j]]), 3, 1, 1e-12,
      1e-10)),
    (flows.HerglotzField, (((0.0, 1.0, _FIELD), (1.0, 2.0, _FIELD)),)),
    (flows.ResidualReport, (1e-12, 1e-9, True)),
    (flows.MonotonicityReport, (np.array([0.0, 1.0]), np.array([1.0, 2.0]), 1.0, True)),
    (flows.DisplacementBoundReport, (0.1, 0.2, True, 1.0, 2.0)),
    (flows.HorosphereImageReport, (2.0, 3.0, (1j, 0.5), 64, "horosphere-v1", True)),
    (flows.IterationDiagnostic, ("inconclusive", np.array([1.0]), (1j,), 0)),
    (geodesics.GeodesicParam, ((0.5,),)),
    (geodesics.SliceDecomposition, (_POINT, (1, 0), (0, 1), 1j)),
    (verify.GroupResult, ("g", 1, 0.0, 1.0, True, "d")),
    (verify.SuiteReport, ("metric", (_GROUP,))),
    (verify.RunReport, (7, (_SUITE,))),
]
# Records that hold arrays compare by identity.
IDENTITY_EQ = {flows.Trajectory, flows.MonotonicityReport, flows.IterationDiagnostic}


def test_the_samples_cover_every_record_class():
    found = {
        obj
        for module in (analysis, domains, expressions, fields, flows, geodesics, verify)
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__
        and "__match_args__" in vars(obj)
    }
    assert found == {cls for cls, _ in SAMPLES}
    assert len(found) == 24


@pytest.mark.parametrize("cls, args", SAMPLES, ids=[cls.__name__ for cls, _ in SAMPLES])
def test_record_behaves_like_a_frozen_record(cls, args):
    names = cls.__match_args__
    assert len(names) == len(args)
    positional = cls(*args)
    keyword = cls(**dict(zip(names, args)))
    mixed = cls(*args[:1], **dict(zip(names[1:], args[1:])))

    # The generated methods sit in the class's own namespace.
    for method in ("__init__", "__repr__", "__setattr__", "__delattr__"):
        assert method in vars(cls)

    assert tuple(inspect.signature(cls).parameters) == names

    text = ", ".join(f"{name}={getattr(positional, name)!r}" for name in names)
    assert repr(positional) == f"{cls.__name__}({text})"
    assert repr(keyword) == repr(positional) == repr(mixed)

    with pytest.raises(AttributeError):
        setattr(positional, names[0], args[0])
    with pytest.raises(AttributeError):
        delattr(positional, names[-1])
    with pytest.raises(AttributeError):
        positional.unknown = 1

    if cls in IDENTITY_EQ:
        assert positional == positional
        assert positional != keyword
        assert cls.__hash__ is object.__hash__
    else:
        assert positional == keyword == mixed
        assert hash(positional) == hash(keyword)
        assert positional != object()


def test_records_differing_in_a_field_or_class_are_unequal():
    assert expressions.Num(1) != expressions.Num(2)
    assert expressions.Var(0) != expressions.Num(0)
    assert _GROUP != verify.GroupResult("g", 1, 0.0, 1.0, True, "e")


def test_defaults_hold():
    assert verify.GroupResult("g", 1, 0.0, 1.0, True).detail == ""
    report = analysis.MembershipReport(2.0, 1.5, (1j,), Domain.HALF_PLANE, "consistent", "g")
    assert report.notes == ()
    assert report == analysis.MembershipReport(
        constant_c=2.0, sup_observed=1.5, witness=(1j,), witness_domain=Domain.HALF_PLANE,
        verdict="consistent", grid_name="g", notes=(),
    )
    assert inspect.signature(verify.GroupResult).parameters["detail"].default == ""


@pytest.mark.parametrize("call, message", [
    (lambda: verify.GroupResult("g", 1, 0.0), "missing .*'limit'.*'passed'"),
    (lambda: verify.GroupResult("g", 1, 0.0, 1.0, True, "d", 7), "positional arguments but"),
    (lambda: verify.GroupResult("g", 1, 0.0, 1.0, True, colour=1),
     "unexpected keyword argument 'colour'"),
    (lambda: verify.GroupResult("g", 1, 0.0, 1.0, True, name="h"),
     "multiple values for argument 'name'"),
])
def test_bad_calls_raise_type_error(call, message):
    with pytest.raises(TypeError, match=message):
        call()


@pytest.mark.parametrize("call, error", [
    (lambda: domains.DomainPoint(Domain.DISC, (math.nan,)), DomainViolation),
    (lambda: flows.HerglotzField(((0.0, 1.0, _FIELD), (1.5, 2.0, _FIELD))), CoverageGap),
    (lambda: fields.DiscreteMeasure(((0.0, -1.0),)), ValueError),
], ids=["nan-point", "herglotz-gap", "negative-mass"])
def test_post_init_still_rejects_bad_input(call, error):
    with pytest.raises(error):
        call()


def test_post_init_normalises_fields():
    point = domains.DomainPoint(Domain.DISC, [0.5])
    assert point.coords == (0.5 + 0j,) and type(point.coords[0]) is complex


def test_importing_the_cli_does_not_import_dataclasses():
    code = (
        "import sys, numpy\n"
        "before = set(sys.modules)\n"
        "import siegelflow.cli\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert "'siegelflow.cli'" in result.stdout
    assert "'dataclasses'" not in result.stdout
