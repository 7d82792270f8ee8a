import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracreg.errors import UnsupportedOrderError
from fracreg.model import (INPUT, FracPoly, PdController, PiController, Plant,
                           StateModel, Term, build_pd_model, build_pi_model, char_poly_pd,
                           char_poly_pi, closed_loop)

BENCH_PLANT = Plant(a0=1.0, a1=0.5, a2=0.8, alpha=2.2, beta=0.9)
GOLDEN_PD = PdController(K=24.0, Td=6.9407, delta=0.71859)
#: The loop of configs/pd_delta_lead_sim.json: delta > alpha, stable.
LEAD_PLANT = Plant(a0=0.9225351668944356, a1=-0.8435371461297985, a2=-1.0133280608219897,
                   alpha=0.5402943742160626, beta=0.43812183691062384)
LEAD_PD = PdController(K=1.2201114630455272, Td=0.9021325595455443, delta=0.7367160641556495)


def terms_by_target(eq):
    return {(t.target, round(t.order, 12)): t.gain for t in eq}


class TestTypes:
    def test_plant_rejects_zero_a2(self):
        with pytest.raises(ValueError):
            Plant(a0=1, a1=1, a2=0, alpha=2, beta=1)

    def test_plant_rejects_order_inversion(self):
        with pytest.raises(ValueError):
            Plant(a0=1, a1=1, a2=1, alpha=0.5, beta=0.9)

    def test_plant_rejects_alpha_above_range(self):
        with pytest.raises(ValueError):
            Plant(a0=1, a1=1, a2=1, alpha=3.5, beta=1)

    def test_pd_allows_negative_parameters(self):
        PdController(K=49.0, Td=-79.74427, delta=-0.55194)

    def test_pi_requires_positive_lambda(self):
        with pytest.raises(ValueError):
            PiController(K=1, Ti=1, lam=0.0)

    def test_state_model_dim_is_its_number_of_equations(self):
        eqs = ((Term(1, 0.0, 1.0),), (Term(0, 0.0, -1.0), Term(INPUT, 0.0, 1.0)))
        assert StateModel(state_terms=eqs, output_terms=(Term(0, 0.0, 1.0),)).dim == 2
        with pytest.raises(TypeError):  # derived, not given
            StateModel(dim=2, state_terms=eqs, output_terms=())
        with pytest.raises(ValueError, match="need 2 or 3 state equations, got 1"):
            StateModel(state_terms=eqs[:1], output_terms=())

    def test_state_model_rejects_a_target_past_its_states(self):
        eqs = ((Term(1, 0.0, 1.0),), (Term(0, 0.0, -1.0), Term(INPUT, 0.0, 1.0)))
        with pytest.raises(ValueError, match="bad term target 5"):
            StateModel(state_terms=eqs, output_terms=(Term(5, 0.0, 1.0),))


class TestBuildPdModel:
    def test_benchmark_gains_and_orders(self):
        model = build_pd_model(BENCH_PLANT, GOLDEN_PD)
        assert model.dim == 2
        eq2 = terms_by_target(model.state_terms[1])
        assert eq2[(0, -0.2)] == pytest.approx(-31.25)
        assert eq2[(1, -0.48141)] == pytest.approx(-8.675875)
        assert eq2[(1, -0.3)] == pytest.approx(-0.625)
        assert eq2[(INPUT, -0.2)] == pytest.approx(1.25)

    def test_integer_degeneration(self):
        plant = Plant(a0=1, a1=2, a2=1, alpha=2, beta=1)
        model = build_pd_model(plant, PdController(K=3, Td=0, delta=1))
        assert all(t.order == 0 for eq in model.state_terms for t in eq)
        assert all(t.order == 0 for t in model.output_terms)

    def test_zero_controller_zeroes_output(self):
        model = build_pd_model(BENCH_PLANT, PdController(K=0, Td=0, delta=0.5))
        assert all(t.gain == 0 for t in model.output_terms)

    def test_delta_above_alpha_leads(self):
        # the x2 equation is divided by Td, so every order on x2 is below 1
        plant, ctrl = LEAD_PLANT, LEAD_PD
        a, b, d = plant.alpha, plant.beta, ctrl.delta
        eq2 = terms_by_target(build_pd_model(plant, ctrl).state_terms[1])
        assert eq2 == pytest.approx({
            (0, round(2 - d, 12)): -(plant.a0 + ctrl.K) / ctrl.Td,
            (1, round(1 + b - d, 12)): -plant.a1 / ctrl.Td,
            (1, round(1 + a - d, 12)): -plant.a2 / ctrl.Td,
            (INPUT, round(2 - d, 12)): 1 / ctrl.Td}, rel=1e-15)

    def test_delta_equal_to_alpha_merges(self):
        ctrl = PdController(K=24.0, Td=6.9407, delta=2.2)
        eq2 = terms_by_target(build_pd_model(BENCH_PLANT, ctrl).state_terms[1])
        lead = 0.8 + 6.9407
        assert eq2 == pytest.approx({(0, -0.2): -25.0 / lead, (1, -0.3): -0.5 / lead,
                                     (INPUT, -0.2): 1 / lead}, rel=1e-15)

    def test_cancelled_lead_hands_over_to_the_next_order(self):
        # a2 + Td = 0 at delta = alpha: beta leads
        eq2 = terms_by_target(build_pd_model(
            BENCH_PLANT, PdController(K=24.0, Td=-0.8, delta=2.2)).state_terms[1])
        assert eq2 == pytest.approx({(0, 1.1): -50.0, (INPUT, 1.1): 2.0}, rel=1e-15)
        # and with a1 = 0 no derivative is left: (a0 + K) x1 = w
        plant = Plant(a0=1.0, a1=0.0, a2=0.8, alpha=2.2, beta=0.9)
        with pytest.raises(ValueError, match="no derivative term"):
            build_pd_model(plant, PdController(K=24.0, Td=-0.8, delta=2.2))


class TestBuildPiModel:
    def test_benchmark_plant_orders(self):
        model = build_pi_model(BENCH_PLANT, PiController(K=24, Ti=10, lam=0.8))
        assert model.dim == 3
        eq3 = terms_by_target(model.state_terms[2])
        assert (0, 0.0) in eq3  # 3 - 2.2 - 0.8
        assert (1, -0.2) in eq3
        assert (2, round(-0.3, 12)) in eq3

    def test_integer_degeneration(self):
        plant = Plant(a0=1, a1=2, a2=1, alpha=2, beta=1)
        model = build_pi_model(plant, PiController(K=3, Ti=1, lam=1))
        assert all(t.order == 0 for eq in model.state_terms for t in eq)

    def test_unsupported_order(self):
        plant = Plant(a0=1, a1=1, a2=1, alpha=3.0, beta=1)
        with pytest.raises(UnsupportedOrderError):
            build_pi_model(plant, PiController(K=1, Ti=1, lam=3.0))


class TestCharPolyPd:
    def test_benchmark_terms(self):
        poly = char_poly_pd(BENCH_PLANT, GOLDEN_PD)
        assert poly.terms == ((0.8, 2.2), (0.5, 0.9), (6.9407, 0.71859), (25.0, 0.0))

    def test_open_loop(self):
        poly = char_poly_pd(BENCH_PLANT, PdController(K=0, Td=0, delta=1))
        assert poly.terms == ((0.8, 2.2), (0.5, 0.9), (1.0, 0.0))

    def test_like_terms_merge(self):
        poly = char_poly_pd(BENCH_PLANT, PdController(K=0, Td=1.5, delta=0.9))
        assert dict((e, c) for c, e in poly.terms)[0.9] == pytest.approx(2.0)

    def test_exponent_set(self):
        poly = char_poly_pd(BENCH_PLANT, GOLDEN_PD)
        assert set(poly.exponents) == {2.2, 0.9, 0.71859, 0.0}


class TestCharPolyPi:
    def test_benchmark_plant(self):
        poly = char_poly_pi(BENCH_PLANT, PiController(K=24, Ti=10, lam=0.8))
        assert poly.terms == ((0.8, 3.0), (0.5, pytest.approx(1.7)), (25.0, 0.8), (10.0, 0.0))

    def test_integer_cubic(self):
        plant = Plant(a0=1, a1=4, a2=1, alpha=2, beta=1)
        poly = char_poly_pi(plant, PiController(K=5, Ti=4, lam=1))
        assert poly.terms == ((1.0, 3.0), (4.0, 2.0), (6.0, 1.0), (4.0, 0.0))

    def test_ti_zero_factors_into_pd(self):
        lam = 0.7
        poly = char_poly_pi(BENCH_PLANT, PiController(K=24, Ti=0, lam=lam))
        pd = char_poly_pd(BENCH_PLANT, PdController(K=24, Td=0, delta=1))
        assert len(poly.terms) == len(pd.terms)
        for (c1, e1), (c2, e2) in zip(poly.terms, pd.terms):
            assert c1 == pytest.approx(c2)
            assert e1 == pytest.approx(e2 + lam)


class TestClosedLoop:
    def test_unknown_controller_rejected(self):
        with pytest.raises(TypeError, match="unsupported controller type object"):
            closed_loop(BENCH_PLANT, object())


def denominator_from_model(model, plant):
    """Characteristic polynomial rebuilt from the 2-state model's terms.

    det(sI - A(s)) expanded and rescaled by a2 s^(alpha-2): the x2-row
    terms of the model are exactly the entries of A(s).
    """
    terms = [(plant.a2, plant.alpha)]
    for t in model.state_terms[1]:
        if t.target == INPUT:
            continue
        offset = 1 if t.target == 1 else 2
        terms.append((-plant.a2 * t.gain, t.order + plant.alpha - offset))
    return FracPoly.from_terms(terms)


class TestTransferConsistency:
    @pytest.mark.parametrize(
        "plant,ctrl",
        [
            (BENCH_PLANT, GOLDEN_PD),
            (BENCH_PLANT, PdController(K=49.0, Td=-79.74427, delta=-0.55194)),
            (Plant(a0=2, a1=3, a2=1.5, alpha=1.8, beta=0.4), PdController(K=5, Td=2, delta=0.6)),
        ],
    )
    def test_state_model_denominator_matches_char_poly(self, plant, ctrl):
        rebuilt = denominator_from_model(build_pd_model(plant, ctrl), plant)
        direct = char_poly_pd(plant, ctrl)
        assert len(rebuilt.terms) == len(direct.terms)
        for (c1, e1), (c2, e2) in zip(rebuilt.terms, direct.terms):
            assert c1 == pytest.approx(c2, rel=1e-12)
            assert e1 == pytest.approx(e2, abs=1e-12)


def monic_denominator(model):
    """det(sI - A(s)) = s^2 - s A22(s) - A21(s) of the 2-state model, normalized.

    The x2-row terms of the model are the entries of A(s).  The result is
    shifted to a smallest exponent of 0 and divided by its leading
    coefficient, which removes the model's divisor and its s^(L-2).
    """
    terms = [(1.0, 2.0)] + [(-t.gain, t.order + (t.target == 1))
                            for t in model.state_terms[1] if t.target != INPUT]
    return monic(FracPoly.from_terms(terms))


def monic(poly):
    shift, lead = min(poly.exponents), poly.coefficients[0]
    return FracPoly.from_terms((c / lead, e - shift) for c, e in poly.terms)


class TestLeadingOrderTransfer:
    @pytest.mark.parametrize("plant, ctrl", [
        (BENCH_PLANT, GOLDEN_PD),
        (LEAD_PLANT, LEAD_PD),
        (BENCH_PLANT, PdController(K=24.0, Td=6.9407, delta=2.2)),
        (BENCH_PLANT, PdController(K=24.0, Td=-0.8, delta=2.2)),
        (BENCH_PLANT, PdController(K=24.0, Td=6.9407, delta=0.9)),
    ], ids=["delta-below", "delta-above", "delta-equal", "delta-equal-cancelled",
            "delta-equal-beta"])
    def test_model_denominator_is_the_char_poly(self, plant, ctrl):
        rebuilt = monic_denominator(build_pd_model(plant, ctrl))
        direct = monic(char_poly_pd(plant, ctrl))
        assert len(rebuilt.terms) == len(direct.terms)
        for (c1, e1), (c2, e2) in zip(rebuilt.terms, direct.terms):
            assert c1 == pytest.approx(c2, rel=1e-12)
            assert e1 == pytest.approx(e2, abs=1e-12)


class TestFracPoly:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            FracPoly(terms=((1.0, 1.0), (1.0, 2.0)))

    @pytest.mark.parametrize("exponent", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_exponent(self, exponent):
        # nan compares false both ways, so the ordering check alone let it through
        with pytest.raises(ValueError, match="exponents must be finite"):
            FracPoly(terms=((1.0, 2.0), (1.0, exponent), (1.0, 0.0)))
        with pytest.raises(ValueError, match="exponents must be finite"):
            FracPoly.from_terms([(1.0, exponent), (1.0, 0.0)])

    def test_rejects_zero_coefficient(self):
        with pytest.raises(ValueError, match="zero coefficients must be dropped"):
            FracPoly(terms=((1.0, 2.0), (0.0, 1.0), (1.0, 0.0)))

    def test_from_terms_drops_zero(self):
        poly = FracPoly.from_terms([(0.0, 2.0), (1.0, 1.0)])
        assert poly.terms == ((1.0, 1.0),)

    @given(
        coeffs=st.lists(st.floats(-10, 10), min_size=1, max_size=6),
        exps=st.lists(st.floats(0, 3), min_size=6, max_size=6),
    )
    @settings(max_examples=50)
    def test_canonical_form(self, coeffs, exps):
        poly = FracPoly.from_terms(zip(coeffs, exps))
        es = poly.exponents
        assert all(a > b for a, b in zip(es, es[1:]))
        assert all(c != 0 for c in poly.coefficients)

    def test_cached_parts_leave_equality_and_hash_alone(self):
        poly = FracPoly(terms=((0.8, 2.2), (0.5, 0.9), (25.0, 0.0)))
        fresh = FracPoly(terms=poly.terms)
        assert poly.exponents == (2.2, 0.9, 0.0) and poly.coefficients == (0.8, 0.5, 25.0)
        assert poly.exponents is poly.exponents  # built once
        assert poly == fresh and hash(poly) == hash(fresh) and repr(poly) == repr(fresh)
        with pytest.raises(AttributeError):
            poly.terms = ()
