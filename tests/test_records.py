"""The result records: import cost, construction, equality, hashing, repr."""

import os
import subprocess
import sys

import pytest

import sepmonoid
from sepmonoid.fixtures import fixture_graph, fixture_system
from sepmonoid.graph import (AdaptabilityReport, Condensation, Violation,
                             check_adaptable, remove_edge)
from sepmonoid.isystem import (ConnectingMap, ValidationFailure,
                               ValidationReport, parse_isystem,
                               validate_isystem)
from sepmonoid.props import SuiteResult
from sepmonoid.realize import (RealizeResult, RealizeWitness, RoundtripReport,
                               realize, roundtrip_check)
from sepmonoid.rewrite import (AntisymNF, ConfluenceResult, LeResult,
                               MonoidNF, NFEntry, RefinementWitness,
                               confluence_equal, le_semidecide, monoid_nf,
                               parse_element)


def test_import_loads_no_dataclasses_inspect_or_resources():
    code = ("import sys; import sepmonoid; "
            "print(sorted({'dataclasses', 'inspect', 'importlib.resources'} & set(sys.modules))); "
            "from sepmonoid.fixtures import fixture_graph, fixture_system; "
            "print(len(fixture_graph('g1').vertices), len(fixture_system('s1').poset))")
    src = os.path.dirname(os.path.dirname(sepmonoid.__file__))
    out = subprocess.run([sys.executable, "-S", "-c", code], check=True, capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.splitlines() == ["[]", "2 2"]


# class, field names, the arguments without defaults, the defaulted fields
RECORDS = [
    (Condensation, "class_of members poset", ({"a": "a"}, {"a": ("a",)}, None), {}),
    (Violation, "clause class_id detail", ("A-free-shape", "a", "why"), {}),
    (AdaptabilityReport, "ok kinds violations condensation", (True, {}, []),
     {"condensation": None}),
    (ConnectingMap, "hom unit", (None,), {"unit": None}),
    (ValidationFailure, "axiom primes detail", ("cone-coverage", ("p",), "why"), {}),
    (ValidationReport, "status failures", ("Verified",), {"failures": []}),
    (RealizeResult, "graph class_map log", (None, {}), {"log": []}),
    (RealizeWitness, "system poset_map images", (None, {}, {}), {}),
    (RoundtripReport, "status poset_map detail theta by", ("FailedAt",),
     {"poset_map": None, "detail": "", "theta": None, "by": "search"}),
    (ConfluenceResult, "status gamma trace_x trace_y explored invariant", ("unknown",),
     {"gamma": None, "trace_x": (), "trace_y": (), "explored": 0, "invariant": None}),
    (RefinementWitness, "status pieces gamma traces", ("unknown",),
     {"pieces": (), "gamma": None, "traces": ()}),
    (NFEntry, "cls kind n gcoeffs", ("a", "free", 1, (1,)), {}),
    (AntisymNF, "entries", ((("a", "free", 1),),), {}),
    (MonoidNF, "entries", ((NFEntry("a", "free", 1, (1,)),),), {}),
    (LeResult, "status z", ("no",), {"z": None}),
    (SuiteResult, "name samples checked skipped failures notes log", ("laws",),
     {"samples": 0, "checked": 0, "skipped": 0, "failures": [], "notes": {}, "log": []}),
]
FROZEN = {Violation, ValidationFailure, NFEntry, AntisymNF, MonoidNF}


@pytest.mark.parametrize("cls, names, args, defaults", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_semantics(cls, names, args, defaults):
    rec = cls(*args)
    names = names.split()
    assert vars(rec) == {**dict(zip(names, args)), **defaults}
    # a default container is fresh in every instance
    for f, value in defaults.items():
        if isinstance(value, (list, dict)):
            assert getattr(rec, f) is not getattr(cls(*args), f)
    assert rec == cls(*args) and not rec != cls(*args)
    assert rec != cls("other", *args[1:])
    assert rec != tuple(vars(rec).values())
    if cls in FROZEN:
        assert hash(rec) == hash(cls(*args)) and len({rec, cls(*args)}) == 1
        with pytest.raises(AttributeError):
            setattr(rec, names[0], args[0])
        with pytest.raises(AttributeError):
            delattr(rec, names[0])
        assert vars(rec) == dict(zip(names, args))
    else:
        with pytest.raises(TypeError):
            hash(rec)
        setattr(rec, names[0], "other")
        assert rec == cls("other", *args[1:])


def test_records_of_another_class_differ():
    entries = (("a", "free", 1),)
    assert AntisymNF(entries) != MonoidNF(entries)
    # equality reads the fields the repr leaves out
    g = fixture_graph("g5")
    rep = check_adaptable(g)
    assert rep == check_adaptable(g)
    assert rep != AdaptabilityReport(rep.ok, rep.kinds, rep.violations)


def _roundtrip(name):
    s = fixture_system(name)
    return roundtrip_check(s, realize(s).graph)


_G1, _G5 = fixture_graph("g1"), fixture_graph("g5")
_BAD_SYSTEM = ("prime p free\nprime q1 free\nprime q2 free\ncover q1 < p\ncover q2 < p\n"
               "group p : Z\ngroup q1 : 0\ngroup q2 : 0\n"
               "map p <- q1 : unit -> 2*g1\nmap p <- q2 : unit -> -2*g1\n")

# the reprs the dataclass versions of these records gave
REPRS = [
    (lambda: check_adaptable(_G5),
     "AdaptabilityReport(ok=True, kinds={'a': 'free', \"a'\": 'free', 'b': 'free'}, "
     "violations=[])"),
    (lambda: check_adaptable(remove_edge(_G1, "l")),
     "AdaptabilityReport(ok=False, kinds={'b': 'free'}, violations=["
     "Violation(clause='A-free-shape', class_id='a', "
     "detail='block (c) at a has 0 loop(s) and 1 connector(s)'), "
     "Violation(clause='A-regular-degree', class_id='a', "
     "detail='a has internal out-degree 0, needs at least 2')])"),
    (lambda: monoid_nf(_G5, parse_element("a + a' + b", _G5)),
     "MonoidNF(entries=(NFEntry(cls='a', kind='free', n=1, gcoeffs=(1,)), "
     "NFEntry(cls=\"a'\", kind='free', n=1, gcoeffs=(0,))))"),
    (lambda: confluence_equal(_G1, parse_element("a", _G1), parse_element("a + b", _G1)),
     "ConfluenceResult(status='equal', gamma=FreeElement('a+b'), trace_x=(('a', 0),), "
     "trace_y=(), explored=3, invariant=None)"),
    (lambda: confluence_equal(_G5, parse_element("a", _G5), parse_element("a'", _G5)),
     "ConfluenceResult(status='unequal', gamma=None, trace_x=(), trace_y=(), explored=0, "
     "invariant='group')"),
    (lambda: validate_isystem(fixture_system("s1")),
     "ValidationReport(status='Verified', failures=[])"),
    (lambda: validate_isystem(parse_isystem(_BAD_SYSTEM)),
     "ValidationReport(status='CounterexampleFound', failures=[ValidationFailure("
     "axiom='cone-coverage', primes=('p',), "
     "detail='element ((1,), ()) of G_p is not reachable from below')])"),
    (lambda: le_semidecide(_G5, parse_element("b", _G5), parse_element("a", _G5)),
     "LeResult(status='yes', z=FreeElement('a+b'))"),
    (lambda: le_semidecide(_G5, parse_element("a", _G5), parse_element("b", _G5)),
     "LeResult(status='no', z=None)"),
    (lambda: _roundtrip("s1"),
     "RoundtripReport(status='Verified', poset_map={'q': 'q', 'p': 'p'}, detail='', "
     "theta={'q': GroupHom(0 -> 0), 'p': GroupHom(Z/2 -> Z/2)}, by='witness')"),
    (lambda: roundtrip_check(fixture_system("s1"), _G5),
     "RoundtripReport(status='FailedAt', poset_map=None, "
     "detail='no kind- and group-compatible poset isomorphism', theta=None, by='search')"),
]


@pytest.mark.parametrize("make, expected", REPRS)
def test_record_repr_matches_the_dataclass_repr(make, expected):
    assert repr(make()) == expected
