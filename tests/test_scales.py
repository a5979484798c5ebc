import json
import operator
import random
import sys
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ultrapetal import petal_harness
from ultrapetal.model_cpum import ud
from ultrapetal.model_f import delta
from ultrapetal.model_maps import nabla
from ultrapetal.petal import MODELS
from ultrapetal.scales import (
    RangeSet,
    Scale,
    ZERO,
    as_scale,
    max_outside,
)

scales = st.fractions(min_value=0, max_value=10, max_denominator=40)
scale_lists = st.lists(scales, max_size=8)


def test_as_scale_parsing():
    assert as_scale("1/2") == Fraction(1, 2)
    assert as_scale("3") == Fraction(3)
    assert as_scale(Fraction(2, 4)) == Fraction(1, 2)
    with pytest.raises(ValueError):
        as_scale("-1/2")
    with pytest.raises((ValueError, ZeroDivisionError)):
        as_scale("1/0")


def test_scale_str_round_trip():
    for text in ["0", "1/2", "3", "7/3"]:
        assert str(as_scale(text)) == text


def test_union_examples():
    assert RangeSet(["0", "1"]).union(RangeSet(["0", "1/2"])).to_json() == ["0", "1/2", "1"]
    assert RangeSet().union(RangeSet()).to_json() == ["0"]
    assert RangeSet(["0", "1/3", "1"]).union(RangeSet(["0", "1/3"])).to_json() == ["0", "1/3", "1"]


def test_intersect_examples():
    assert RangeSet(["0", "1/2", "1"]).intersect(RangeSet(["0", "1"])).to_json() == ["0", "1"]
    assert RangeSet().intersect(RangeSet(["0", "5"])).to_json() == ["0"]
    assert RangeSet(["0", "1/4", "1/2"]).intersect(RangeSet(["0", "1/3"])).to_json() == ["0"]


def test_tail_subset_examples():
    a = RangeSet(["0", "1/2", "1"])
    b = RangeSet(["0", "1"])
    # oracle: enumerate the elements above the threshold
    assert [e for e in a if e > Fraction(1, 2)] == [Fraction(1)]
    assert a.tail_subset(b, Fraction(1, 2)) is True
    assert [e for e in a if e > Fraction(1, 4) and e not in b] == [Fraction(1, 2)]
    assert a.tail_subset(b, Fraction(1, 4)) is False
    assert RangeSet().tail_subset(RangeSet(), 0) is True


@given(scale_lists, scale_lists)
def test_union_intersect_laws(xs, ys):
    a, b = RangeSet(xs), RangeSet(ys)
    assert a.union(b) == b.union(a)
    assert a.intersect(b) == b.intersect(a)
    assert a.union(a) == a
    assert a.intersect(a) == a
    assert ZERO in a.union(b)
    assert ZERO in a.intersect(b)


@given(scale_lists, scale_lists, scale_lists)
def test_union_intersect_associative(xs, ys, zs):
    a, b, c = RangeSet(xs), RangeSet(ys), RangeSet(zs)
    assert a.union(b).union(c) == a.union(b.union(c))
    assert a.intersect(b).intersect(c) == a.intersect(b.intersect(c))


@given(scale_lists, scale_lists, scales, scales)
def test_tail_subset_monotone(xs, ys, t1, t2):
    lo, hi = min(t1, t2), max(t1, t2)
    a, b = RangeSet(xs), RangeSet(ys)
    if a.tail_subset(b, lo):
        assert a.tail_subset(b, hi)


@given(scale_lists, scale_lists)
def test_max_outside_is_largest_missing(xs, ys):
    a, b = RangeSet(xs), RangeSet(ys)
    missing = [e for e in a if e not in b]
    assert max_outside(a, b) == (max(missing) if missing else ZERO)


def test_range_set_json_round_trip():
    a = RangeSet(["1/2", "2", "0"])
    assert RangeSet.from_json(a.to_json()) == a
    with pytest.raises(ValueError):
        RangeSet.from_json({"not": "a list"})


COMPARISONS = (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge)
signed = st.fractions(min_value=-20, max_value=20, max_denominator=60)


@given(signed, signed, st.integers(min_value=-20, max_value=20))
def test_scale_agrees_with_fraction(a, b, k):
    # Fraction is the reference: same answers on Scale pairs and on mixed
    # Scale/Fraction/int pairs from both sides
    x, y = Scale(a), Scale(b)
    assert type(x) is Scale and type(y) is Scale
    for op in COMPARISONS:
        want = op(a, b)
        assert op(x, y) is want
        assert op(x, b) is want
        assert op(a, y) is want
        assert op(x, k) is op(a, k)
        assert op(k, x) is op(k, a)
    assert hash(x) == hash(a)
    assert str(x) == str(a)
    assert bool(x) is bool(a)
    assert sorted([y, x]) == sorted([b, a])
    assert {x: 1}.get(a) == 1 and {a: 1}.get(x) == 1


def test_scale_ne_is_not_eq_against_every_kind():
    # Scale.__ne__ answers without __eq__; against a type Fraction cannot
    # compare with it passes NotImplemented on (`not NotImplemented` warns),
    # so Python falls back to identity, as it does for ==
    values = [Scale(0), Scale(1, 2), as_scale("1/2"), Scale(2)]
    others = [*values, ZERO, Fraction(1, 2), Fraction(2), Fraction(0), 0, 2, "1/2", None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in values:
            for b in others:
                assert (a != b) is (not (a == b))
                assert (b != a) is (not (b == a))
            assert Scale.__ne__(a, "1/2") is Scale.__ne__(a, None) is NotImplemented


def test_kept_hash_is_fractions():
    # the hash computed on the first call and the kept one read on the
    # second both agree with Fraction's, so mixed dict lookups still work
    modulus = sys.hash_info.modulus
    values = [
        as_scale(0),
        as_scale(7),
        as_scale(modulus + 5),
        as_scale("3/6"),
        as_scale("0.25"),
        as_scale("12.125"),
        as_scale(f"{modulus * 3 + 1}/7"),  # numerator above the modulus
        as_scale(f"1/{modulus}"),  # no inverse mod the modulus: the infinite hash
        as_scale(f"5/{modulus * 2}"),
        Scale(2, 3),
    ]
    for x in values:
        assert not hasattr(x, "_hash")  # parsing computes no hash
        want = hash(Fraction(x._numerator, x._denominator))
        assert hash(x) == want
        assert hash(x) == want
        assert {x: 1}[Fraction(x)] == 1 and {Fraction(x): 1}[x] == 1
        if x._denominator == 1:
            assert {x: 1}[x._numerator] == 1 and {x._numerator: 1}[x] == 1
    assert hash(values[7]) == sys.hash_info.inf
    assert len({*values, *map(Fraction, values)}) == len(values)


def test_as_scale_returns_scale_for_every_input():
    for value in ("3/6", "0.5", 7, 0, Fraction(2, 4), Scale(1, 3)):
        assert type(as_scale(value)) is Scale
    x = as_scale("1/3")
    assert as_scale(x) is x
    assert as_scale(Fraction(2, 4)) == as_scale("0.5") == Scale(1, 2)
    assert type(ZERO) is Scale
    assert all(type(v) is Scale for v in petal_harness.POOL)


digits = st.text(alphabet="0123456789", min_size=1, max_size=12)


@given(digits, digits, st.sampled_from(["", "/", "."]))
def test_scale_grammar_matches_fraction(p, q, sep):
    # on the accepted grammar the value is what Fraction's parser reads
    text = p + sep + q if sep else p
    if sep == "/" and int(q) == 0:
        with pytest.raises(ValueError):
            as_scale(text)
        return
    x = as_scale(text)
    assert type(x) is Scale
    assert x == Fraction(text)
    assert (x.numerator, x.denominator) == (Fraction(text).numerator, Fraction(text).denominator)
    # what is written back parses to the same value and writes the same bytes
    written = str(x)
    assert as_scale(written) == x and str(as_scale(written)) == written


@pytest.mark.parametrize("text", [
    "1e3", "1E3", "2.5e-1", "1e999999999",  # exponents
    "1_000", "1/1_0",  # underscores
    "\uff11", "\u0661/2",  # non-ASCII digits
    " 2", "2 ", "\t1/2", "1\n",  # surrounding whitespace
    "+1", "-0", "-1/2",  # signs
    ".5", "1.", "1/2/3", "1.5/2", "", "nan", "inf",
])
def test_scale_grammar_refusals(text):
    with pytest.raises(ValueError):
        as_scale(text)


@pytest.mark.skipif(not sys.get_int_max_str_digits(), reason="no int-string digit limit")
def test_decimal_scale_within_digit_limit():
    # p.q is read with one int() over all its digits: a scale whose parts
    # each pass the limit but whose value could not be printed is refused
    limit = sys.get_int_max_str_digits()
    half = limit // 2 + 1
    with pytest.raises(ValueError):
        as_scale("7" * half + "." + "3" * half)
    inside = as_scale("7" * (limit // 2) + "." + "3" * (limit - limit // 2))
    assert as_scale(str(inside)) == inside


def held_scales(obj, seen=None):
    """Every Fraction reachable from ``obj`` through slots, dicts and containers."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, Fraction):
        return [obj]
    if isinstance(obj, (str, int, type(None))):
        return []
    if isinstance(obj, dict):
        parts = [*obj.keys(), *obj.values()]
    elif isinstance(obj, (tuple, list, set, frozenset)):
        parts = list(obj)
    else:
        names = [n for cls in type(obj).__mro__ for n in getattr(cls, "__slots__", ())]
        parts = [getattr(obj, n) for n in names if hasattr(obj, n)]
        parts += list(getattr(obj, "__dict__", {}).values())
    return [v for part in parts for v in held_scales(part, seen)]


@pytest.mark.parametrize("name", list(MODELS))
def test_generated_and_parsed_elements_hold_scales(name):
    # a plain Fraction anywhere would still give right answers, only slowly
    sampler = petal_harness.SAMPLERS[name]
    model = MODELS[name]
    rng = random.Random(5)
    for _ in range(40):
        x = sampler.gen(rng)
        # what the command line reads: the element's file text, parsed afresh
        parsed = model.from_json(json.loads(json.dumps(x.to_json())))
        for element in (x, parsed, sampler.twin(rng, x)):
            values = held_scales(element) + held_scales(model.trace(element))
            assert values, element
            assert all(type(v) is Scale for v in values), (element, values)


def test_metrics_make_no_scale_comparison_calls(monkeypatch):
    # delta, nabla and ud compare by integer cross-multiplication; a call to
    # one of Scale's comparison methods per pair would be a Python dispatch
    rng = random.Random(35)
    metrics = {"f": delta, "maps": nabla, "cpum": ud}
    pools = {}
    for name in metrics:
        sampler = petal_harness.SAMPLERS[name]
        model = MODELS[name]
        pool = [sampler.gen(rng) for _ in range(15)]
        pool += [sampler.twin(rng, x) for x in pool[:8]]
        pool += [model.from_json(json.loads(json.dumps(x.to_json()))) for x in pool[:8]]
        pools[name] = pool
    calls = []
    for op in ("__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__"):
        method = getattr(Scale, op)

        def counted(self, other, _op=op, _method=method):
            calls.append(_op)
            return _method(self, other)

        monkeypatch.setattr(Scale, op, counted)
    assert ZERO < Scale(1) and len(calls) == 1  # the counters are live
    calls.clear()
    for name, metric in metrics.items():
        pool = pools[name]
        for x in pool:
            for y in pool:
                metric(x, y)
    assert calls == []
