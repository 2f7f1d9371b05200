"""Catalogue entries: closed-form oracles, constraints, registry plumbing."""

from __future__ import annotations

import math

import pytest

from pg_curvelab import zoo
from pg_curvelab.curves import make_analytic_curve
from pg_curvelab.equiform import equiform_data
from pg_curvelab.errors import (
    JetOrderError,
    ParameterConstraintError,
    UnknownCurveError,
)
from pg_curvelab.frenet import frenet_data
from pg_curvelab.zoo import (
    MAX_JET_ORDER,
    REFERENCE_PARAMS,
    describe_constraints,
    get_example,
    zoo_names,
)

NAMES = [
    "timelike_general_helix",
    "spacelike_general_helix",
    "timelike_circular_helix",
    "spacelike_circular_helix",
    "timelike_log_spiral",
    "bertrand_helix",
    "isotropic_circle",
]


MAGNITUDES = (0.03, 0.3, 1.0, 3.0, 30.0)


def admissible_draws(name):
    """Entries of a family at its reference (a, b) and at every |a|, |b|
    in MAGNITUDES with each sign its constraints allow.  Circular helices
    take the domain a*s in [0.5, 3] (their default for a = 1) and skip
    |b/a| > 100, where cosh((b/a) ln(a s)) leaves the double range."""
    seen = set()
    for a, b in [REFERENCE_PARAMS[name]] + [
            (sa * ma, sb * mb) for ma in MAGNITUDES for mb in MAGNITUDES
            for sa in (1.0, -1.0) for sb in (1.0, -1.0)]:
        domain = None
        if "circular_helix" in name:
            if abs(b / a) > 100.0:
                continue
            domain = tuple(sorted((0.5 / a, 3.0 / a)))
        try:
            entry = get_example(name, a, b, domain)
        except ParameterConstraintError:
            continue
        key = tuple(entry.params.values())
        if key not in seen:
            seen.add(key)
            yield entry


def logged(curve, k, reads):
    """The order-k jet of ``curve`` as a function of s, logging each read
    as (s, k, x-component) in ``reads``."""
    def jet(s):
        j = curve.jet(s, k)
        reads.append((s, k, j.x1))
        return j
    return jet


def close(got, want, tol=1e-9):
    assert abs(got - want) <= tol * max(1.0, abs(want))


def vec_close(got, want, tol=1e-9):
    scale = max(1.0, want.max_abs())
    assert (got - want).max_abs() <= tol * scale


class TestOracleConsistency:
    def test_classical_apparatus_matches_oracle(self, zoo_entries, uniform):
        for entry in zoo_entries:
            for s in uniform(*entry.domain, 50):
                f = frenet_data(entry.curve, s)
                o = entry.oracle
                assert f.epsilon == o.epsilon
                close(f.kappa, o.kappa(s))
                close(f.tau, o.tau(s))
                vec_close(f.tangent, o.tangent(s))
                vec_close(f.normal, o.normal(s))
                vec_close(f.binormal, o.binormal(s))

    def test_equiform_apparatus_matches_oracle(self, zoo_entries, uniform):
        for entry in zoo_entries:
            for s in uniform(*entry.domain, 50):
                d = equiform_data(entry.curve, s)
                o = entry.oracle
                close(d.curvature, o.equiform_curvature(s))
                close(d.torsion, o.equiform_torsion(s))
                vec_close(d.tangent, o.equiform_tangent(s))
                vec_close(d.normal, o.equiform_normal(s))
                vec_close(d.binormal, o.equiform_binormal(s))

    def test_jet_tables_agree_with_differences(self):
        # catalogue curves are built without the constructor's probe, so
        # the tables are checked here over each family's parameter region:
        # every order agrees with a difference of the one below it, and
        # the x-components are exactly s, 1 and 0 (no x-shift applies)
        for name in zoo_names():
            drawn = 0
            for entry in admissible_draws(name):
                reads: list[tuple[float, int, float]] = []
                fns = [logged(entry.curve, k, reads)
                       for k in range(MAX_JET_ORDER + 1)]
                checked = make_analytic_curve(*fns[:5], entry.curve.domain,
                                              higher=fns[5:])
                assert checked.warnings == (), (name, entry.params)
                assert all(x == (s if k == 0 else float(k == 1))
                           for s, k, x in reads), (name, entry.params)
                drawn += 1
            assert drawn >= 5, name


class TestMirrorPairs:
    @pytest.mark.parametrize("pair", [
        ("timelike_general_helix", "spacelike_general_helix", None),
        ("timelike_circular_helix", "spacelike_circular_helix", (0.6, 3.0)),
    ])
    def test_mirror_swaps_isotropic_components(self, pair):
        base_name, mirror_name, domain = pair
        base = get_example(base_name, 1.0, 2.0, domain)
        mirror = get_example(mirror_name, 1.0, 2.0, domain)
        lo, hi = base.domain
        for s in (lo + 0.3, 0.5 * (lo + hi), hi - 0.4):
            for k in range(MAX_JET_ORDER + 1):
                a = base.curve.jet(s, k)
                b = mirror.curve.jet(s, k)
                assert (b.x1, b.x2, b.x3) == (a.x1, a.x3, a.x2)

    def test_mirror_flips_normal_character_and_torsion(self):
        base = get_example("timelike_general_helix", 1.0, 2.0)
        mirror = get_example("spacelike_general_helix", 1.0, 2.0)
        assert base.oracle.epsilon == 1
        assert mirror.oracle.epsilon == -1
        assert base.oracle.tau(0.5) == 2.0
        assert mirror.oracle.tau(0.5) == -2.0


class TestConstraints:
    @pytest.mark.parametrize("name", ["timelike_general_helix",
                                      "timelike_circular_helix"])
    @pytest.mark.parametrize("a, b", [(0.0, 2.0), (1.0, 0.0),
                                      (2.0, 2.0), (2.0, -2.0)])
    def test_degenerate_parameters_rejected(self, name, a, b):
        with pytest.raises(ParameterConstraintError):
            get_example(name, a, b)

    def test_empty_domain_rejected(self):
        with pytest.raises(ParameterConstraintError, match="empty"):
            get_example("timelike_general_helix", 1.0, 2.0, (1.0, 1.0))

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("domain", [(0.0, math.inf), (-math.inf, 1.0),
                                        (math.nan, 1.0), (0.5, math.nan)])
    def test_non_finite_domain_ends_rejected(self, name, domain):
        with pytest.raises(ParameterConstraintError,
                           match="domain ends must be finite"):
            get_example(name, domain=domain)

    def test_circular_helix_needs_domain_for_negative_a(self):
        with pytest.raises(ParameterConstraintError, match="no default domain"):
            get_example("timelike_circular_helix", -1.0, 2.0)

    @pytest.mark.parametrize("name", ["timelike_circular_helix",
                                      "spacelike_circular_helix"])
    @pytest.mark.parametrize("a", [0.1, 1 / 6])
    def test_circular_helix_default_domain_needs_a_above_a_sixth(self, name,
                                                                 a):
        # the default [1/(2a), 3] is empty for a <= 1/6
        with pytest.raises(ParameterConstraintError,
                           match=r"no default domain exists for a <= 1/6"):
            get_example(name, a, 2.0)
        assert get_example(name, a, 2.0, (6.0, 7.0)).domain == (6.0, 7.0)
        lo, hi = get_example(name, 0.17, 2.0).domain
        assert (lo, hi) == (0.5 / 0.17, 3.0) and lo < hi

    def test_logarithm_arguments_guarded(self):
        with pytest.raises(ParameterConstraintError, match="logarithm"):
            get_example("timelike_circular_helix", 1.0, 2.0, (-1.0, 3.0))
        with pytest.raises(ParameterConstraintError, match="logarithm"):
            get_example("timelike_log_spiral", 1.0, 1.0, (-2.0, 1.0))

    @pytest.mark.parametrize("name, a, b", [
        ("timelike_general_helix", 1.0, 1e100),
        ("spacelike_general_helix", 1e100, 1.0),
        ("timelike_circular_helix", 1e200, 1.0),
    ])
    def test_overflowing_closed_form_names_family_and_parameters(self, name,
                                                                 a, b):
        # (a^2 - b^2)^2 or a^3 leaves the float range while the curve is
        # built, before any point is read
        with pytest.raises(ParameterConstraintError) as exc:
            get_example(name, a, b)
        assert str(exc.value) == (f"{name} cannot be built at a={a}, b={b}: "
                                  "its closed form leaves the float range")

    def test_fixture_parameters_guarded(self):
        with pytest.raises(ParameterConstraintError, match="positive"):
            get_example("bertrand_helix", -1.0, 1.0)
        with pytest.raises(ParameterConstraintError, match="nonzero"):
            get_example("bertrand_helix", 1.0, 0.0)
        with pytest.raises(ParameterConstraintError, match="positive"):
            get_example("isotropic_circle", 0.0)

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, name, value):
        used = get_example(name).params
        for key in used:
            params = {**used, key: value}
            with pytest.raises(ParameterConstraintError,
                               match="parameters must be finite"):
                get_example(name, **params)

    def test_unused_parameter_is_not_checked(self):
        entry = get_example("isotropic_circle", 1.0, math.nan)
        assert entry.params == {"a": 1.0}

    def test_omitted_parameters_take_the_reference_values(self):
        assert get_example("timelike_general_helix").params == \
            {"a": 1.0, "b": 2.0}
        assert get_example("timelike_general_helix", b=3.0).params == \
            {"a": 1.0, "b": 3.0}

    def test_unknown_names_rejected(self):
        with pytest.raises(UnknownCurveError, match="unknown curve"):
            get_example("lemniscate", 1.0, 1.0)
        with pytest.raises(UnknownCurveError, match="unknown curve"):
            describe_constraints("lemniscate")


class TestRegistry:
    def test_names(self):
        assert zoo_names() == NAMES

    def test_constraint_descriptions(self):
        constraints, default_domain = describe_constraints("bertrand_helix")
        assert constraints == "a > 0; b nonzero"
        assert default_domain == "[-1, 1]"
        for name in NAMES:
            c, d = describe_constraints(name)
            assert c and d

    def test_all_entries_defaults(self, zoo_entries):
        assert [e.name for e in zoo_entries] == NAMES
        assert all(e.curve.max_order == MAX_JET_ORDER for e in zoo_entries)

    def test_domain_override(self):
        entry = get_example("bertrand_helix", 1.0, 1.0, (-0.5, 0.5))
        assert entry.domain == (-0.5, 0.5)


class TestCurveConstruction:
    def test_domains_are_padded_past_the_nominal_range(self, zoo_entries):
        for entry in zoo_entries:
            lo, hi = entry.domain
            plo, phi = entry.curve.domain
            assert plo < lo and hi < phi

    @pytest.mark.parametrize("name", NAMES)
    def test_building_an_entry_evaluates_no_jet(self, monkeypatch, name):
        # the family's bundle is the curve's jets_fn; nothing probes it,
        # and a read of orders 0-8 is one bundle
        bundles = []
        family = zoo._FAMILIES[name]

        def build(a, b, domain):
            nominal, valid, jets, oracle = family.build(a, b, domain)

            def counted(s, first, last):
                bundles.append((first, last))
                return jets(s, first, last)
            return nominal, valid, counted, oracle

        monkeypatch.setitem(zoo._FAMILIES, name, family._replace(build=build))
        entry = get_example(name)
        assert bundles == []
        entry.curve.jets(sum(entry.domain) / 2, 0, MAX_JET_ORDER)
        assert bundles == [(0, MAX_JET_ORDER)]

    @pytest.mark.parametrize("name", NAMES)
    def test_bundle_equals_single_orders(self, zoo_entries, name):
        # one evaluation of the transcendentals per bundle gives every
        # order the bits of its own single-order read
        entry = next(e for e in zoo_entries if e.name == name)
        lo, hi = entry.domain
        for f in (0.2, 0.5, 0.8):
            s = lo + f * (hi - lo)
            bundle = entry.curve.jets(s, 0, MAX_JET_ORDER)
            singles = [entry.curve.jets(s, k, k)[0]
                       for k in range(MAX_JET_ORDER + 1)]
            assert [tuple(map(float.hex, v.as_tuple())) for v in bundle] == \
                [tuple(map(float.hex, v.as_tuple())) for v in singles]

    @pytest.mark.parametrize("name, a, b, s, message", [
        ("bertrand_helix", 1.0, 1.0, 800.0, "math range error at s=800"),
        ("timelike_general_helix", 1.0, 2.0, -800.0,
         "math range error at s=-800"),
        ("timelike_circular_helix", 1.0, 2.0, 1e300,
         "math range error at s=1e+300"),
        ("timelike_log_spiral", 1.0, 1.0, 1e308,
         "PGVector components must be finite, got inf at s=1e+308"),
    ])
    def test_closed_form_leaving_the_float_range_names_s(self, name, a, b,
                                                         s, message):
        curve = get_example(name, a, b, (min(s, 1.0), max(s, 2.0))).curve
        with pytest.raises((ArithmeticError, ValueError)) as exc:
            curve.jets(s, 0, MAX_JET_ORDER)
        assert str(exc.value) == message
        assert exc.value.__cause__ is not None

    def test_padding_clips_to_the_validity_region(self):
        entry = get_example("timelike_circular_helix", 1.0, 2.0, (0.001, 3.0))
        assert entry.curve.domain[0] == 0.001

    def test_high_order_jets_available(self, helix_fixture):
        c = helix_fixture.curve
        assert c.jet(0.5, MAX_JET_ORDER).x2 == pytest.approx(
            c.jet(0.5, 2).x2, rel=1e-12)       # cosh repeats every 2 orders
        with pytest.raises(JetOrderError):
            c.jet(0.5, MAX_JET_ORDER + 1)
