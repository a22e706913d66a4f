import math

import numpy as np
import pytest

from depthlab import (
    Density,
    Point,
    PowerTail,
    fisher_information,
    gaussian_model,
    gaussian_sequence_depth,
    hellinger_affinities,
    kakutani_product,
    logistic_density,
    normal_density,
    positivity_decision,
    stable_model,
    uniform_density,
    uniform_model,
)
from depthlab import admissibility, bounds, quadrature
from depthlab.admissibility import AI_AII, AIII
from depthlab.errors import QuadratureError, UndecidedTailError
from depthlab.models import SequenceModel, _column_rng, density_law

BASEL = math.pi ** 2 / 6.0


# -- Fisher information --------------------------------------------------------

def test_fisher_information_normal():
    assert fisher_information(normal_density()) == pytest.approx(1.0, abs=1e-6)


def test_fisher_information_logistic():
    assert fisher_information(logistic_density()) == pytest.approx(1.0 / 3.0,
                                                                   abs=1e-6)


def test_fisher_information_rejects_interior_zero():
    c = 1.0 / math.sqrt(2.0 * math.pi)
    bimodal = Density(
        pdf=lambda x: np.square(x) * c * np.exp(-0.5 * np.square(x)),
        symmetric=True, name="x2gauss")
    assert bimodal.normalization_defect() < 1e-8
    with pytest.raises(ValueError, match="vanishes"):
        fisher_information(bimodal)


def test_fisher_information_vectorised_derivatives():
    # without dpdf the centered difference runs on the node arrays; the
    # uniform density's dpdf returns zeros of its argument's shape
    base = normal_density()
    assert fisher_information(Density(pdf=base.pdf, symmetric=True)) == (
        pytest.approx(1.0, abs=1e-6))
    assert uniform_density().dpdf(np.ones((2, 21))).shape == (2, 21)
    assert fisher_information(uniform_density()) == 0.0


def test_fisher_information_quadrature_gate(monkeypatch):
    # two panels do not resolve (phi')^2 / phi on the whole line to 1e-6;
    # the positivity decision reports the failure as UNDECIDED
    monkeypatch.setattr(quadrature, "MAX_PANELS", 2)
    with pytest.raises(QuadratureError) as exc:
        fisher_information(normal_density())
    assert exc.value.partial > 0.0
    dec = positivity_decision(Point.inverse_k(1.0), gaussian_model())
    assert dec.decision == "UNDECIDED"
    assert dec.reason.startswith("Fisher information")


def test_fisher_information_error_bound_is_absolute(monkeypatch):
    # the logistic density at scale 0.05 has information 1/(3 * 0.05^2) =
    # 133.3; six panels leave an error of about 4e-5, inside 1e-6 * I but
    # outside the absolute 1e-6
    base = logistic_density()
    s = 0.05
    phi = Density(pdf=lambda x: base.pdf(x / s) / s,
                  dpdf=lambda x: base.dpdf(x / s) / (s * s),
                  symmetric=True, name="narrow logistic")
    assert fisher_information(phi) == pytest.approx(1.0 / (3.0 * s * s),
                                                    abs=1e-6)
    monkeypatch.setattr(quadrature, "MAX_PANELS", 6)
    with pytest.raises(QuadratureError) as exc:
        fisher_information(phi)
    assert exc.value.partial == pytest.approx(1.0 / (3.0 * s * s), rel=1e-9)


def test_fisher_information_rejects_nan():
    # the positivity probe reads [-20, 20] only; the NaN tail must still
    # fail the quadrature rather than vanish from the integrand
    c = 1.0 / math.sqrt(2.0 * math.pi)
    base = normal_density()
    phi = Density(pdf=lambda x: np.where(np.abs(x) > 30.0, np.nan,
                                         c * np.exp(-0.5 * np.square(x))),
                  dpdf=base.dpdf, symmetric=True, name="nan-tailed normal")
    with pytest.raises(QuadratureError):
        fisher_information(phi)


def test_positivity_undecided_without_a_second_moment():
    # the Cauchy density has finite Fisher information (1/2) but no
    # variance: its moment quadrature diverges, so the series is unavailable
    cauchy = Density(
        pdf=lambda x: 1.0 / (math.pi * (1.0 + np.square(x))),
        dpdf=lambda x: -2.0 * x / (math.pi * np.square(1.0 + np.square(x))),
        symmetric=True, name="cauchy")
    assert fisher_information(cauchy) == pytest.approx(0.5, abs=1e-6)
    dec = positivity_decision(Point.inverse_k(1.0),
                              SequenceModel.iid(density_law(cauchy)))
    assert dec.decision == "UNDECIDED"
    assert dec.reason.startswith("series unavailable: moment unavailable")


def test_density_normalization_check():
    bad = Density(pdf=lambda x: np.exp(-0.5 * np.square(x)),  # missing constant
                  symmetric=True)
    with pytest.raises(ValueError):
        bad.validate()
    normal_density().validate()


# -- Hellinger affinity ----------------------------------------------------------

def test_hellinger_examples():
    phi = normal_density()
    assert hellinger_affinities(phi, [0.0])[0] == pytest.approx(1.0, abs=1e-10)
    assert hellinger_affinities(phi, [2.0])[0] == pytest.approx(
        math.exp(-0.5), abs=1e-8)
    assert hellinger_affinities(phi, [20.0])[0] < 1e-10


def test_hellinger_symmetry():
    for phi in (normal_density(), logistic_density()):
        for s in (0.3, 1.1, 2.7):
            assert hellinger_affinities(phi, [s])[0] == pytest.approx(
                hellinger_affinities(phi, [-s])[0], abs=1e-9)


def test_hellinger_quadratic_scaling():
    # 1 - H(s) ~ (I(phi)/8) s^2 for small s
    for phi, info in ((normal_density(), 1.0), (logistic_density(), 1.0 / 3.0)):
        for s in (1e-2, 1e-3):
            defect = 1.0 - hellinger_affinities(phi, [s])[0]
            assert defect == pytest.approx(info / 8.0 * s * s, rel=0.05)


def test_hellinger_affinities_normal_closed_form():
    # H(s) = exp(-s^2/8) for N(0,1); the shifts a Kakutani product meets
    probes = [0.5 / 2 ** i for i in range(4)]
    s = np.array([0.0] + probes + [1.0 / k for k in range(1, 101)] + [20.0])
    h = hellinger_affinities(normal_density(), s)
    assert h.shape == s.shape
    assert np.max(np.abs(h - np.exp(-s * s / 8.0))) <= 1e-12


def test_hellinger_affinities_finite_support():
    # uniform on (-1, 1): H(s) = 1 - |s|/2 for |s| < 2, and 0 beyond,
    # where the shifted supports no longer overlap
    s = np.array([0.0, 0.1, -0.5, 1.0, -1.5, 1.99, 2.0, -2.0, 3.5])
    h = hellinger_affinities(uniform_density(-1.0, 1.0), s)
    want = np.where(np.abs(s) < 2.0, 1.0 - np.abs(s) / 2.0, 0.0)
    assert np.max(np.abs(h - want)) <= 1e-12
    assert hellinger_affinities(uniform_density(), [2.5, -4.0]).tolist() == [
        0.0, 0.0]


def _exponential(side):
    # Exp(1) on [0, inf), or its mirror image on (-inf, 0]
    def pdf(x):
        y = side * np.asarray(x, dtype=float)
        return np.where(y >= 0.0, np.exp(-np.abs(y)), 0.0)

    support = (0.0, math.inf) if side > 0 else (-math.inf, 0.0)
    return Density(pdf=pdf, support=support, name="exponential")


@pytest.mark.parametrize("side", [1.0, -1.0], ids=["right", "left"])
def test_hellinger_affinities_half_line(side):
    # Exp(1) on [0, inf), or its mirror image: H(s) = exp(-|s|/2)
    s = np.array([0.0, 0.05, -0.3, 1.0, -2.5, 7.0])
    h = hellinger_affinities(_exponential(side), s)
    assert np.max(np.abs(h - np.exp(-np.abs(s) / 2.0))) <= 1e-12


def _logistic_defect_ratio(s):
    # (1 - y/sinh(y)) / s^2 with y = |s|/2, by the series of sinh(y) - y
    y = abs(s) / 2.0
    return (y ** 3 / 6.0 + y ** 5 / 120.0 + y ** 7 / 5040.0) / (
        math.sinh(y) * s * s)


# density, H(s), and (1 - H(s)) / s^2 computed without cancellation
CLOSED_FORMS = {
    "normal": (normal_density, lambda s: math.exp(-s * s / 8.0),
               lambda s: -math.expm1(-s * s / 8.0) / (s * s)),
    "logistic": (logistic_density,
                 lambda s: 1.0 if s == 0.0 else (abs(s) / 2.0) / math.sinh(
                     abs(s) / 2.0),
                 _logistic_defect_ratio),
    "uniform": (uniform_density, lambda s: max(0.0, 1.0 - abs(s) / 2.0),
                lambda s: 0.5 / abs(s)),
    "exponential": (lambda: _exponential(1.0),
                    lambda s: math.exp(-abs(s) / 2.0),
                    lambda s: -math.expm1(-abs(s) / 2.0) / (s * s)),
    "mirror-exponential": (lambda: _exponential(-1.0),
                           lambda s: math.exp(-abs(s) / 2.0),
                           lambda s: -math.expm1(-abs(s) / 2.0) / (s * s)),
}
# the tail probes of a Kakutani product whose explicit part has width 100
PROBES = [(1.0 / 101.0) / m for m in (1.0, 2.0, 4.0, 8.0)]


@pytest.mark.parametrize("family", sorted(CLOSED_FORMS))
def test_hellinger_affinities_closed_forms(family):
    make, exact, defect_ratio = CLOSED_FORMS[family]
    phi = make()
    s = [0.0, 1e-3, -1e-3, 0.05, -0.05, 1.0, -1.0, 7.0, 25.0] + PROBES
    h = hellinger_affinities(phi, s)
    assert max(abs(v - exact(x)) for v, x in zip(h, s)) <= 1e-13
    # the probe constant (1 - H)/s^2 cancels, so it reads H near 1 closely
    for v, x in zip(hellinger_affinities(phi, PROBES), PROBES):
        assert (1.0 - v) / (x * x) == pytest.approx(defect_ratio(x), rel=1e-6)


@pytest.mark.parametrize("family", sorted(CLOSED_FORMS))
def test_hellinger_defects_closed_forms(family):
    # the defect keeps the digits that 1 - H loses: (1 - H)/s^2 to 1e-12
    # relative at the probes, where 1 - H read off H keeps only about 1e-6
    make, exact, defect_ratio = CLOSED_FORMS[family]
    # (the uniform shift 3 has no overlap: defect 1)
    s = PROBES + [0.05, -0.3, 1.0, -1.5, 3.0]
    d = admissibility.hellinger_defects(make(), s)
    for v, x in zip(d, s):
        want = defect_ratio(x) if abs(x) < 0.1 else (1.0 - exact(x)) / (x * x)
        assert v / (x * x) == pytest.approx(want, rel=1e-12)


def test_hellinger_reads_pdf_on_panel_arrays():
    base = normal_density()
    shapes = []

    def pdf(x):
        shapes.append(np.shape(x))
        return base.pdf(x)

    s = np.array([1.0 / k for k in range(1, 101)])
    h = hellinger_affinities(Density(pdf=pdf, symmetric=True), s)
    assert np.max(np.abs(h - np.exp(-s * s / 8.0))) <= 1e-13
    assert 0 < len(shapes) <= 40
    for shape in shapes:
        assert shape[1:] in ((21,), (21, 100)), shape


def test_hellinger_gate_rejects_nan():
    c = 1.0 / math.sqrt(2.0 * math.pi)
    phi = Density(pdf=lambda x: np.where(np.abs(x) > 30.0, np.nan,
                                         c * np.exp(-0.5 * np.square(x))),
                  symmetric=True, name="nan-tailed normal")
    with pytest.raises(QuadratureError):
        hellinger_affinities(phi, [0.5, 1.0])
    with pytest.raises(QuadratureError):
        kakutani_product(phi, Point((0.5, 0.25)))


def test_hellinger_quadrature_gate(monkeypatch):
    # two panels resolve neither the Gaussian on the whole line nor the
    # square-root edges of sqrt(phi(t) phi(t - s)) for the Epanechnikov
    # density 3/4 (1 - t^2) to 1e-8; its shift 3 has no overlap, so no
    # partial value
    monkeypatch.setattr(quadrature, "MAX_PANELS", 2)
    with pytest.raises(QuadratureError) as exc:
        hellinger_affinities(normal_density(), [0.1, 0.2])
    assert exc.value.partial.shape == (2,)
    assert np.max(np.abs(exc.value.partial - np.exp(-np.array([0.1, 0.2]) ** 2
                                                    / 8.0))) < 1e-2

    epanechnikov = Density(
        pdf=lambda x: np.where(np.abs(x) <= 1.0, 0.75 * (1.0 - np.square(x)),
                               0.0),
        support=(-1.0, 1.0), symmetric=True, name="epanechnikov")
    with pytest.raises(QuadratureError) as exc:
        hellinger_affinities(epanechnikov, [0.5, 3.0, -0.25])
    assert exc.value.partial.shape == (2,)


# -- Kakutani products -------------------------------------------------------------

def test_kakutani_makes_two_quadratures(monkeypatch):
    # one vector quadrature for the explicit shifts, one for the defects at
    # the probes
    calls = []
    real = admissibility.gauss_kronrod

    def counted(*args, **kwargs):
        value, err = real(*args, **kwargs)
        calls.append(np.shape(value))
        return value, err

    monkeypatch.setattr(admissibility, "gauss_kronrod", counted)
    shifts = Point(tuple(1.0 / k for k in range(1, 101)) + (0.0,),
                   tail=PowerTail(1.0, -1.0))
    res = kakutani_product(normal_density(), shifts)
    assert res.positive and res.tail_constant is not None
    assert calls == [(100,), (4,)]


def test_kakutani_probe_ratio_undecided():
    # uniform shifts have 1 - H(s) = |s|/2, not quadratic: the probe
    # ratios (1-H)/s^2 double at each halving, so no tail is certified
    with pytest.raises(UndecidedTailError, match="quadratic regime"):
        kakutani_product(uniform_density(-1.0, 1.0),
                         Point((0.1,), tail=PowerTail(0.01, -1.0)))


def test_kakutani_zero_shifts():
    res = kakutani_product(normal_density(), Point((0.0, 0.0, 0.0)))
    assert res.product == pytest.approx(1.0) and res.positive


def test_kakutani_underflowed_affinity_is_undecided():
    # the affinity at shift 60 is exp(-450), about 1e-196, and the
    # quadrature returns 0: on the whole line that is an underflow, not
    # disjoint supports, and decides nothing
    with pytest.raises(UndecidedTailError, match="shift 60.0 underflows"):
        kakutani_product(normal_density(), Point((0.0, 60.0)))
    dec = positivity_decision(Point((60.0,)), gaussian_model())
    assert dec.decision == "UNDECIDED" and dec.verdict is None
    assert "shift 60.0" in dec.reason
    # on a bounded support an affinity of 0 is disjoint supports: a zero
    # product, as before
    res = kakutani_product(uniform_density(-1.0, 1.0), Point((3.0,)))
    assert (res.product, res.positive) == (0.0, False)


def test_kakutani_inverse_k():
    shifts = Point(tuple(1.0 / k for k in range(1, 201)),
                   tail=PowerTail(1.0, -1.0))
    res = kakutani_product(normal_density(), shifts)
    assert res.positive
    assert res.product == pytest.approx(math.exp(-BASEL / 8.0), abs=1e-3)
    assert res.product <= math.exp(-BASEL / 8.0) + 1e-12  # certified lower bound


def test_kakutani_inverse_sqrt_k_diverges():
    res = kakutani_product(normal_density(), Point((), tail=PowerTail(1.0, -0.5)))
    assert not res.positive and res.product == 0.0


def test_kakutani_dichotomy():
    phi = logistic_density()
    convergent = Point((0.5,), tail=PowerTail(2.0, -0.8))
    divergent = Point((0.5,), tail=PowerTail(0.1, -0.45))
    res_c = kakutani_product(phi, convergent)
    res_d = kakutani_product(phi, divergent)
    assert res_c.positive and res_c.product > 0.0
    assert not res_d.positive and res_d.product == 0.0


# -- positivity decision -------------------------------------------------------------

def test_positivity_examples():
    g = gaussian_model()
    assert positivity_decision(Point.inverse_k(1.0), g).decision == "POSITIVE"
    assert positivity_decision(Point.inverse_k(0.5), g).decision == "ZERO"
    res = positivity_decision(Point.zero(), stable_model(1.0),
                              assumptions=AI_AII)
    assert res.decision == "UNDECIDED"


def test_positivity_requires_symmetry():
    asym = uniform_model(0.0, 1.0, K=3)
    for assumptions in (AI_AII, AIII):
        dec = positivity_decision(Point.zero(), asym, assumptions=assumptions)
        assert (dec.decision, dec.reason) == ("UNDECIDED",
                                              "symmetry not declared")


def test_positivity_undeclared_symmetry_is_undecided():
    # phi(x) (1 + sin(10 pi x) / 2) is positive, normalized and asymmetric,
    # but equal to its mirror image at +-0.3, 0.7, 1.1 and 1.9; without a
    # declaration the moment route must not certify it
    c = 1.0 / math.sqrt(2.0 * math.pi)
    wiggle = Density(pdf=lambda x: c * np.exp(-0.5 * np.square(x))
                     * (1.0 + 0.5 * np.sin(10.0 * math.pi * np.asarray(x))))
    assert wiggle.normalization_defect() < 1e-8
    model = SequenceModel.iid(density_law(wiggle))
    for assumptions in (AI_AII, AIII):
        dec = positivity_decision(Point.inverse_k(1.0), model,
                                  assumptions=assumptions)
        assert (dec.decision, dec.reason) == ("UNDECIDED",
                                              "symmetry not declared")


def test_unknown_assumption_bundle_is_an_input_error():
    from depthlab.errors import InputError
    with pytest.raises(InputError, match="unknown assumption bundle"):
        positivity_decision(Point.zero(), gaussian_model(), assumptions="X")


@pytest.mark.parametrize("name", ["normal", "cauchy"])
def test_positivity_variance_comes_from_the_law_not_the_name(name):
    # a Cauchy density has no variance, whatever it is called: the scaled-
    # iid route must not take variance 1 from the name "normal", nor let
    # the moment error escape
    cauchy = Density(pdf=lambda x: 1.0 / (math.pi * (1.0 + np.square(x))),
                     symmetric=True, name=name)
    dec = positivity_decision(Point.zero(), SequenceModel.iid(
        density_law(cauchy)))
    assert (dec.decision, dec.reason) == (
        "UNDECIDED", "shape density has no finite variance")


def test_positivity_scaled_iid_route_on_a_density_model():
    # a density family, not the Gaussian one: phi is the model's common
    # shape density, with Fisher information 1/3
    model = SequenceModel.iid(density_law(logistic_density()))
    dec = positivity_decision(Point.inverse_k(1.0), model)
    assert dec.decision == "POSITIVE"
    assert dec.verdict.admissible and dec.verdict.route == "SHEPP-SERIES"
    assert dec.verdict.fisher_information == pytest.approx(1.0 / 3.0,
                                                           abs=1e-6)
    assert 0.0 < dec.verdict.kakutani_product < 1.0


def test_positivity_undecided_for_an_unnormalized_density():
    bad = Density(pdf=lambda x: np.exp(-0.5 * np.square(x)),  # missing constant
                  symmetric=True)
    dec = positivity_decision(Point.inverse_k(1.0),
                              SequenceModel.iid(density_law(bad)),
                              assumptions=AIII)
    assert dec.decision == "UNDECIDED"
    assert dec.reason.startswith("density does not integrate to 1")


def test_positivity_ai_aii_validates_the_density():
    # 3 exp(-x^2/2) has defect 6.52; its moment ratio 0.398942 is below 1,
    # which no law has, and once read as a constant it certified POSITIVE
    bad = Density(pdf=lambda x: 3.0 * np.exp(-0.5 * np.square(x)),
                  symmetric=True)
    dec = positivity_decision(Point.inverse_k(1.0),
                              SequenceModel.iid(density_law(bad)),
                              assumptions=AI_AII)
    assert dec.decision == "UNDECIDED"
    assert dec.reason.startswith("density does not integrate to 1")


def test_positivity_ai_aii_rejects_a_moment_ratio_below_one(monkeypatch):
    monkeypatch.setattr(bounds, "kurtosis_bound", lambda model: 0.75)
    dec = positivity_decision(Point.inverse_k(1.0), gaussian_model(),
                              assumptions=AI_AII)
    assert (dec.decision, dec.reason) == (
        "UNDECIDED", "moment-ratio constant c=0.75 is below 1")


def test_declared_symmetry_is_checked():
    # phi(x) (1 + sin(x) / 2) integrates to 1, so only the mirror check
    # can refuse its declaration
    c = 1.0 / math.sqrt(2.0 * math.pi)
    tilted = Density(pdf=lambda x: c * np.exp(-0.5 * np.square(x))
                     * (1.0 + 0.5 * np.sin(x)), symmetric=True)
    assert tilted.normalization_defect() < 1e-8
    # the integral of phi(x) |sin x| over the line, by mpmath
    assert tilted.asymmetry() == pytest.approx(0.5791532187230360, rel=1e-9)
    with pytest.raises(ValueError, match="declared symmetry does not hold"):
        tilted.validate()
    assert normal_density().asymmetry() == 0.0
    assert Density(pdf=lambda x: np.ones(np.shape(x)), support=(0.0, 1.0),
                   symmetric=True).asymmetry() == math.inf
    model = SequenceModel.iid(density_law(tilted))
    for assumptions in (AI_AII, AIII):
        dec = positivity_decision(Point.inverse_k(1.0), model,
                                  assumptions=assumptions)
        assert dec.decision == "UNDECIDED"
        assert dec.reason.startswith("declared symmetry does not hold")


def test_positivity_ai_aii_routes():
    sym_uniform = uniform_model(-1.0, 1.0, K=4)
    # bounded support has no everywhere-positive density: bundle cannot fire
    res = positivity_decision(Point((0.1, 0.1)), sym_uniform,
                              assumptions=AI_AII)
    assert res.decision == "UNDECIDED"
    res_g = positivity_decision(Point((0.3, -0.2)), gaussian_model(),
                                assumptions=AI_AII)
    assert res_g.decision == "POSITIVE"


def test_positivity_verdict_contents():
    res = positivity_decision(Point.inverse_k(1.0), gaussian_model(),
                              assumptions=AIII)
    assert res.verdict is not None
    assert res.verdict.admissible
    assert res.verdict.fisher_information == pytest.approx(1.0, abs=1e-6)
    assert res.verdict.kakutani_product > 0.0
    assert res.verdict.route == "SHEPP-SERIES"


def test_positivity_agrees_with_gaussian_closed_form():
    rng = _column_rng(512, 7)
    g = gaussian_model()
    for i in range(30):
        if i % 3 == 0:
            a = Point((), tail=PowerTail(float(rng.uniform(0.2, 2.0)),
                                         float(rng.uniform(-1.5, -0.2))))
        else:
            width = int(rng.integers(1, 8))
            a = Point(tuple(rng.standard_normal(width)))
        decision = positivity_decision(a, g).decision
        depth = gaussian_sequence_depth(a, g)
        assert decision == ("POSITIVE" if depth.value > 0.0 else "ZERO")
