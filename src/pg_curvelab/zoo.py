"""Catalogue of closed-form example curves with oracle data.

Seven admissible curves in arc-length form, each carrying analytic jets
up to order eight and a table of closed-form oracle functions for the
classical and scale-invariant apparatus:

======================== ======================================== ========
name                     invariants                               eps
======================== ======================================== ========
timelike_general_helix   kappa = e^{-as},  tau = b                 +1
spacelike_general_helix  kappa = e^{-as},  tau = -b                -1
timelike_circular_helix  kappa = a/s,      tau = -b/(as)           -1
spacelike_circular_helix kappa = a/s,      tau = b/(as)            +1
timelike_log_spiral      kappa = 1/(as+b), tau = 0                 +1
bertrand_helix           kappa = a,        tau = b                 +1
isotropic_circle         kappa = a,        tau = 0                 +1
======================== ======================================== ========

The general helices have equiform curvature a*e^{as}; the circular
helices have constant equiform invariants (1/a, -+b/a^2); the log spiral
has equiform curvature a and zero equiform torsion; the last two have
zero equiform curvature and are the curves that admit normal-offset
mates.

Each family is one row of ``_FAMILIES``: a builder, which maps (a, b,
domain) to the nominal domain, the validity region, the jets and the
oracle, and the family's constraints, default domain, reference (a, b),
notes and the parameters it uses.  :func:`get_example` is the one place
that reads a row.

Where published closed forms for these curves are internally
inconsistent (a frame sign that breaks the determinant normalization, a
torsion sign that contradicts the definition), the oracle stores the
self-consistent value and the entry's ``notes`` record the discrepancy.

Curves are built on a domain slightly wider (2% per side, clipped to the
validity region) than the entry's nominal domain, so that difference
stencils centered at the nominal endpoints stay evaluable.  A family's
``jets(s, first, last)``, with x = s exactly, is the curve's bundle view
(``CurveJet``'s ``jets_fn``), and nothing probes it.  A helix evaluates
its transcendentals once per bundle (exp, cosh and sinh; or one log,
then cosh and sinh), and every order comes from its own closed form, so
a bundle equals its orders read one at a time.  An ``ArithmeticError``
or ``ValueError`` of a closed form names s.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, NamedTuple

from .algebra import PGVector
from .curves import CurveJet, JetKind, JetsFn, _naming_s
from .errors import ParameterConstraintError, UnknownCurveError

MAX_JET_ORDER = 8
_MARGIN = 1e-3          # lower bound kept under logarithm arguments


class OracleForms(NamedTuple):
    """Closed-form apparatus of a catalogue curve.

    All fields but ``epsilon`` are functions of the arc-length parameter.
    ``tangent``/``normal``/``binormal`` are the classical frame; the
    scale-invariant frame is that frame times rho = 1/kappa.
    """

    kappa: Callable[[float], float]
    tau: Callable[[float], float]
    epsilon: int
    tangent: Callable[[float], PGVector]
    normal: Callable[[float], PGVector]
    binormal: Callable[[float], PGVector]
    equiform_curvature: Callable[[float], float]
    equiform_torsion: Callable[[float], float]

    def equiform_tangent(self, s: float) -> PGVector:
        return self.tangent(s) / self.kappa(s)

    def equiform_normal(self, s: float) -> PGVector:
        return self.normal(s) / self.kappa(s)

    def equiform_binormal(self, s: float) -> PGVector:
        return self.binormal(s) / self.kappa(s)


class ZooEntry(NamedTuple):
    name: str
    params: dict[str, float]
    domain: tuple[float, float]
    curve: CurveJet
    oracle: OracleForms
    notes: tuple[str, ...]


# (nominal domain, validity region, jets, oracle) of one family member
Shape = tuple[tuple[float, float], tuple[float, float], JetsFn, OracleForms]
_ANYWHERE = (-math.inf, math.inf)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ParameterConstraintError(message)


def _check_domain(domain: tuple[float, float] | None,
                  default: tuple[float, float]) -> tuple[float, float]:
    if domain is None:
        return default
    lo, hi = float(domain[0]), float(domain[1])
    _require(math.isfinite(lo) and math.isfinite(hi),
             f"domain ends must be finite, got [{lo}, {hi}]")
    _require(lo < hi, f"domain [{lo}, {hi}] is empty")
    return lo, hi


# ---------------------------------------------------------------------------
# general helices (exponential-times-hyperbolic family)


def _exp_helix_tables(a: float, b: float, p0: float, q0: float
                      ) -> list[tuple[float, float]]:
    """Coefficients (P_k, Q_k) with d^k/ds^k of e^{-as}(P0 cosh(bs) +
    Q0 sinh(bs)) equal to e^{-as}(P_k cosh(bs) + Q_k sinh(bs))."""
    tabs = [(p0, q0)]
    for _ in range(MAX_JET_ORDER):
        p, q = tabs[-1]
        tabs.append((-a * p + b * q, b * p - a * q))
    return tabs


def _general_helix(a: float, b: float, domain: tuple[float, float] | None,
                   mirrored: bool = False) -> Shape:
    _require(a != 0.0 and b != 0.0, "parameters a and b must be nonzero")
    _require(a != b and a != -b,
             "parameters must satisfy a != +-b (the closed form divides "
             "by (a^2 - b^2)^2)")
    lo, hi = _check_domain(domain, (0.0, 2.0))

    d = (a * a - b * b) ** 2
    ycoef = _exp_helix_tables(a, b, (a * a + b * b) / d, 2.0 * a * b / d)
    zcoef = _exp_helix_tables(a, b, 2.0 * a * b / d, (a * a + b * b) / d)
    if mirrored:
        ycoef, zcoef = zcoef, ycoef

    def jets(s: float, first: int, last: int) -> tuple[PGVector, ...]:
        e = math.exp(-a * s)
        ch = math.cosh(b * s)
        sh = math.sinh(b * s)
        out = []
        for k in range(first, last + 1):
            py, qy = ycoef[k]
            pz, qz = zcoef[k]
            out.append(PGVector(s if k == 0 else (1.0 if k == 1 else 0.0),
                                e * (py * ch + qy * sh),
                                e * (pz * ch + qz * sh)))
        return tuple(out)

    def e2(s: float) -> PGVector:
        ch, sh = math.cosh(b * s), math.sinh(b * s)
        return PGVector(0.0, sh, ch) if mirrored else PGVector(0.0, ch, sh)

    def e3(s: float) -> PGVector:
        ch, sh = math.cosh(b * s), math.sinh(b * s)
        return PGVector(0.0, -ch, -sh) if mirrored else PGVector(0.0, sh, ch)

    tau_val = -b if mirrored else b
    oracle = OracleForms(
        kappa=lambda s: math.exp(-a * s),
        tau=lambda s: tau_val,
        epsilon=-1 if mirrored else 1,
        tangent=lambda s: jets(s, 1, 1)[0], normal=e2, binormal=e3,
        equiform_curvature=lambda s: a * math.exp(a * s),
        equiform_torsion=lambda s: tau_val * math.exp(a * s),
    )
    return (lo, hi), _ANYWHERE, jets, oracle


# ---------------------------------------------------------------------------
# circular helices (power-times-hyperbolic-of-log family)


def _log_helix_tables(a: float, b: float, p0: float, q0: float
                      ) -> list[tuple[int, float, float]]:
    """Rows (m, P, Q) with the k-th derivative of s^{1}(P0 cosh(u) +
    Q0 sinh(u)), u = (b/a) ln(as), equal to s^{-m}(P cosh(u) + Q sinh(u))."""
    r = b / a
    tabs = [(-1, p0, q0)]
    for _ in range(MAX_JET_ORDER):
        m, p, q = tabs[-1]
        tabs.append((m + 1, -m * p + r * q, r * p - m * q))
    return tabs


def _circular_helix(a: float, b: float, domain: tuple[float, float] | None,
                    mirrored: bool = False) -> Shape:
    _require(a != 0.0 and b != 0.0, "parameters a and b must be nonzero")
    _require(a != b and a != -b,
             "parameters must satisfy a != +-b (the closed form divides "
             "by b*(b^2 - a^2))")
    default = (0.5 / a, 3.0) if 6.0 * a > 1.0 else None
    if domain is None and default is None:
        raise ParameterConstraintError(
            "no default domain exists for a <= 1/6 ([1/(2a), 3] needs "
            "a > 1/6); pass one with a*s > 0")
    lo, hi = _check_domain(domain, default or (0.0, 0.0))
    _require(min(a * lo, a * hi) >= _MARGIN,
             f"domain must keep a*s >= {_MARGIN} (logarithm argument)")

    c = a ** 3 / (b * (b * b - a * a))
    ycoef = _log_helix_tables(a, b, -a * c, b * c)
    zcoef = _log_helix_tables(a, b, b * c, -a * c)
    if mirrored:
        ycoef, zcoef = zcoef, ycoef

    def uu(s: float) -> float:
        return (b / a) * math.log(a * s)

    def jets(s: float, first: int, last: int) -> tuple[PGVector, ...]:
        u = uu(s)
        ch, sh = math.cosh(u), math.sinh(u)
        out = []
        for k in range(first, last + 1):
            m, py, qy = ycoef[k]
            _, pz, qz = zcoef[k]
            sc = s ** (-m)
            out.append(PGVector(s if k == 0 else (1.0 if k == 1 else 0.0),
                                sc * (py * ch + qy * sh),
                                sc * (pz * ch + qz * sh)))
        return tuple(out)

    def e2(s: float) -> PGVector:
        ch, sh = math.cosh(uu(s)), math.sinh(uu(s))
        return PGVector(0.0, ch, sh) if mirrored else PGVector(0.0, sh, ch)

    def e3(s: float) -> PGVector:
        ch, sh = math.cosh(uu(s)), math.sinh(uu(s))
        return PGVector(0.0, sh, ch) if mirrored else PGVector(0.0, -ch, -sh)

    tau_sign = 1.0 if mirrored else -1.0
    oracle = OracleForms(
        kappa=lambda s: a / s,
        tau=lambda s: tau_sign * b / (a * s),
        epsilon=1 if mirrored else -1,
        tangent=lambda s: jets(s, 1, 1)[0], normal=e2, binormal=e3,
        equiform_curvature=lambda s: 1.0 / a,
        equiform_torsion=lambda s: tau_sign * b / (a * a),
    )
    valid = (_MARGIN / a, math.inf) if a > 0 else (-math.inf, _MARGIN / a)
    return (lo, hi), valid, jets, oracle


# ---------------------------------------------------------------------------
# logarithmic spiral


def _log_spiral(a: float, b: float,
                domain: tuple[float, float] | None) -> Shape:
    _require(a != 0.0 and b != 0.0, "parameters a and b must be nonzero")
    lo, hi = _check_domain(domain, (0.0, 4.0))
    _require(min(a * lo + b, a * hi + b) >= _MARGIN,
             f"domain must keep a*s + b >= {_MARGIN} (logarithm argument)")

    def jets(s: float, first: int, last: int) -> tuple[PGVector, ...]:
        g = a * s + b
        out = []
        for k in range(first, last + 1):
            if k == 0:
                out.append(PGVector(s, g / (a * a) * (math.log(g) - 1.0), 0.0))
            elif k == 1:
                out.append(PGVector(1.0, math.log(g) / a, 0.0))
            else:
                out.append(PGVector(0.0, (-1.0) ** k * math.factorial(k - 2)
                                    * a ** (k - 2) / g ** (k - 1), 0.0))
        return tuple(out)

    oracle = OracleForms(
        kappa=lambda s: 1.0 / (a * s + b),
        tau=lambda s: 0.0,
        epsilon=1,
        tangent=lambda s: PGVector(1.0, math.log(a * s + b) / a, 0.0),
        normal=lambda s: PGVector(0.0, 1.0, 0.0),
        binormal=lambda s: PGVector(0.0, 0.0, 1.0),
        equiform_curvature=lambda s: a,
        equiform_torsion=lambda s: 0.0,
    )
    edge = (_MARGIN - b) / a
    valid = (edge, math.inf) if a > 0 else (-math.inf, edge)
    return (lo, hi), valid, jets, oracle


# ---------------------------------------------------------------------------
# constant-curvature curves (the curves admitting normal-offset mates)


def _bertrand_helix(a: float, b: float,
                    domain: tuple[float, float] | None) -> Shape:
    """Constant-invariant helix (s, (a/b^2) cosh(bs), (a/b^2) sinh(bs)).

    It has kappa = a, tau = b, zero equiform curvature and equiform
    torsion b/a: the circular-helix case of the offset-mate family.
    """
    _require(a > 0.0, "parameter a must be positive (a is the curvature)")
    _require(b != 0.0, "parameter b must be nonzero")
    lo, hi = _check_domain(domain, (-1.0, 1.0))

    def jets(s: float, first: int, last: int) -> tuple[PGVector, ...]:
        ch, sh = math.cosh(b * s), math.sinh(b * s)
        out = []
        for k in range(first, last + 1):
            amp = a * b ** (k - 2)
            even = k % 2 == 0
            out.append(PGVector(s if k == 0 else (1.0 if k == 1 else 0.0),
                                amp * (ch if even else sh),
                                amp * (sh if even else ch)))
        return tuple(out)

    oracle = OracleForms(
        kappa=lambda s: a,
        tau=lambda s: b,
        epsilon=1,
        tangent=lambda s: PGVector(1.0, (a / b) * math.sinh(b * s),
                                   (a / b) * math.cosh(b * s)),
        normal=lambda s: PGVector(0.0, math.cosh(b * s), math.sinh(b * s)),
        binormal=lambda s: PGVector(0.0, math.sinh(b * s), math.cosh(b * s)),
        equiform_curvature=lambda s: 0.0,
        equiform_torsion=lambda s: b / a,
    )
    return (lo, hi), _ANYWHERE, jets, oracle


def _isotropic_circle(a: float, b: float,
                      domain: tuple[float, float] | None) -> Shape:
    """Parabola (s, a s^2 / 2, 0): kappa = a, tau = 0, both equiform
    invariants zero — the isotropic-circle case of the offset-mate family.
    ``b`` is unused."""
    _require(a > 0.0, "parameter a must be positive (a is the curvature)")
    lo, hi = _check_domain(domain, (-1.0, 1.0))

    def jets(s: float, first: int, last: int) -> tuple[PGVector, ...]:
        return tuple(PGVector(s, 0.5 * a * s * s, 0.0) if k == 0 else
                     PGVector(1.0, a * s, 0.0) if k == 1 else
                     PGVector(0.0, a if k == 2 else 0.0, 0.0)
                     for k in range(first, last + 1))

    oracle = OracleForms(
        kappa=lambda s: a,
        tau=lambda s: 0.0,
        epsilon=1,
        tangent=lambda s: PGVector(1.0, a * s, 0.0),
        normal=lambda s: PGVector(0.0, 1.0, 0.0),
        binormal=lambda s: PGVector(0.0, 0.0, 1.0),
        equiform_curvature=lambda s: 0.0,
        equiform_torsion=lambda s: 0.0,
    )
    return (lo, hi), _ANYWHERE, jets, oracle


# ---------------------------------------------------------------------------
# registry


class _Family(NamedTuple):
    build: Callable[[float, float, tuple[float, float] | None], Shape]
    constraints: str
    default_domain: str
    reference: tuple[float, float]      # (a, b) for an omitted a or b
    notes: tuple[str, ...] = ()
    params: tuple[str, ...] = ("a", "b")


_HELIX = "a, b nonzero; a != +-b"
_CIRCULAR = _HELIX + "; a*s > 0 on domain"
_BINORMAL_NOTE = (
    "reference tables list the binormal of this curve {} a leading minus "
    "sign, which makes the frame determinant -1; the stored binormal "
    "carries the opposite sign so that det(tangent, normal, binormal) = +1")

_FAMILIES: dict[str, _Family] = {
    "timelike_general_helix": _Family(
        _general_helix, _HELIX, "[0, 2]", (1.0, 2.0),
        ("reference tables list the equiform torsion of this curve as "
         "-b*exp(a*s); the definition (torsion / curvature) gives "
         "+b*exp(a*s), which is the value stored here and reported",)),
    "spacelike_general_helix": _Family(
        partial(_general_helix, mirrored=True), _HELIX, "[0, 2]", (1.0, 2.0),
        ("this curve is the component swap (y <-> z) of "
         "timelike_general_helix; its tabulated equiform-torsion sign "
         "-b*exp(a*s) agrees with the definitional value torsion/curvature",)),
    "timelike_circular_helix": _Family(
        _circular_helix, _CIRCULAR, "[1/(2a), 3] for a > 1/6", (1.0, 2.0),
        (_BINORMAL_NOTE.format("with"),)),
    "spacelike_circular_helix": _Family(
        partial(_circular_helix, mirrored=True), _CIRCULAR,
        "[1/(2a), 3] for a > 1/6", (1.0, 2.0),
        (_BINORMAL_NOTE.format("without"),)),
    "timelike_log_spiral": _Family(
        _log_spiral, "a, b nonzero; a*s + b > 0 on domain", "[0, 4]",
        (1.0, 1.0),
        ("reference tables claim this curve satisfies the WeakAW2 condition "
         "and not WeakAW3; evaluating the span coefficients with constant "
         "nonzero equiform curvature and identically zero equiform torsion "
         "gives the opposite (u = 2a^2 != 0 so WeakAW2 fails with residual "
         "2, v = 0 so WeakAW3 holds); the computed verdicts are reported "
         "and this conflict is flagged rather than silently resolved",)),
    "bertrand_helix": _Family(
        _bertrand_helix, "a > 0; b nonzero", "[-1, 1]", (1.0, 1.0)),
    "isotropic_circle": _Family(
        _isotropic_circle, "a > 0 (b unused)", "[-1, 1]", (1.0, 1.0),
        params=("a",)),
}

# the reference (a, b) of each family (also the figure datasets' parameters)
REFERENCE_PARAMS = {name: fam.reference for name, fam in _FAMILIES.items()}


def _family(name: str) -> _Family:
    try:
        return _FAMILIES[name]
    except KeyError:
        raise UnknownCurveError(
            f"unknown curve {name!r}; known: {', '.join(_FAMILIES)}") from None


def zoo_names() -> list[str]:
    return list(_FAMILIES)


def describe_constraints(name: str) -> tuple[str, str]:
    """(parameter constraints, default domain) for a catalogue name."""
    fam = _family(name)
    return fam.constraints, fam.default_domain


def get_example(name: str, a: float | None = None, b: float | None = None,
                domain: tuple[float, float] | None = None) -> ZooEntry:
    """Build a catalogue entry by name; an omitted ``a`` or ``b`` takes
    the family's reference value.

    Raises :class:`UnknownCurveError` for unknown names and
    :class:`ParameterConstraintError` when a parameter the family uses
    or a domain end is not finite or (a, b, domain) violate its validity
    constraints.
    """
    fam = _family(name)
    a = fam.reference[0] if a is None else float(a)
    b = fam.reference[1] if b is None else float(b)
    params = dict(zip(fam.params, (a, b)))
    if not all(map(math.isfinite, params.values())):
        raise ParameterConstraintError(
            "parameters must be finite, got "
            + ", ".join(f"{k}={v}" for k, v in params.items()))
    try:
        (lo, hi), (valid_lo, valid_hi), jets, oracle = fam.build(a, b, domain)
    except ArithmeticError as exc:
        raise ParameterConstraintError(
            f"{name} cannot be built at "
            + ", ".join(f"{k}={v}" for k, v in params.items())
            + ": its closed form leaves the float range") from exc
    pad = 0.02 * (hi - lo)
    curve = CurveJet(None, (max(lo - pad, valid_lo), min(hi + pad, valid_hi)),
                     JetKind.ANALYTIC, max_order=MAX_JET_ORDER,
                     jets_fn=_naming_s(jets))
    return ZooEntry(name=name, params=params, domain=(lo, hi), curve=curve,
                    oracle=oracle, notes=fam.notes)


def all_entries() -> list[ZooEntry]:
    """One entry per family at its reference parameters (tests and
    sweeps); circular helices on [0.6, 3]."""
    return [get_example(name, domain=(0.6, 3.0) if "circular_helix" in name
                        else None) for name in _FAMILIES]
