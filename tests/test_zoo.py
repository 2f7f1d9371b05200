"""Catalogue entries: closed-form oracles, constraints, registry plumbing."""

from __future__ import annotations

import math

import pytest

from pg_curvelab.equiform import equiform_data
from pg_curvelab.errors import (
    JetOrderError,
    ParameterConstraintError,
    UnknownCurveError,
)
from pg_curvelab.frenet import frenet_data
from pg_curvelab.zoo import (
    MAX_JET_ORDER,
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

    def test_no_construction_warnings(self, zoo_entries):
        # every supplied derivative agrees with a difference of the one
        # below it at the probe points, or the jet tables are wrong
        for entry in zoo_entries:
            assert entry.curve.warnings == ()


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

    def test_circular_helix_needs_domain_for_negative_a(self):
        with pytest.raises(ParameterConstraintError, match="no default domain"):
            get_example("timelike_circular_helix", -1.0, 2.0)

    def test_logarithm_arguments_guarded(self):
        with pytest.raises(ParameterConstraintError, match="logarithm"):
            get_example("timelike_circular_helix", 1.0, 2.0, (-1.0, 3.0))
        with pytest.raises(ParameterConstraintError, match="logarithm"):
            get_example("timelike_log_spiral", 1.0, 1.0, (-2.0, 1.0))

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

    def test_padding_clips_to_the_validity_region(self):
        entry = get_example("timelike_circular_helix", 1.0, 2.0, (0.001, 3.0))
        assert entry.curve.domain[0] == 0.001

    def test_high_order_jets_available(self, helix_fixture):
        c = helix_fixture.curve
        assert c.jet(0.5, MAX_JET_ORDER).x2 == pytest.approx(
            c.jet(0.5, 2).x2, rel=1e-12)       # cosh repeats every 2 orders
        with pytest.raises(JetOrderError):
            c.jet(0.5, MAX_JET_ORDER + 1)
