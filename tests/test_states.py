"""State types, validation, pointwise algebra, and region classification."""

import copy
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from chapgas import (
    AlphaOutOfRange,
    GasParams,
    NegativeAmplitude,
    NonFiniteInput,
    NonPositiveDensity,
    ParabolicPath,
    PrimState,
    Region,
    RiemannProblem,
    pressureless_case,
    problem_scale,
    riemann_invariants,
)
from chapgas.states import eigenvalues
from helpers import draw_region_problem, make_problem


class TestValidation:
    def test_good_params_pass(self):
        make_problem(1.0, 0.0, 2.0, 1.0, a=0.25, alpha=0.5, beta=-1.0)
        make_problem(1.0, 0.0, 2.0, 1.0, a=0.0, alpha=0.5, beta=0.0)

    def test_negative_amplitude(self):
        with pytest.raises(NegativeAmplitude, match=r"^A must be >= 0, got -0\.1$"):
            make_problem(1.0, 0.0, 2.0, 1.0, a=-0.1)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5])
    def test_alpha_out_of_range_with_pressure(self, alpha):
        with pytest.raises(AlphaOutOfRange, match=r"^alpha must lie in \(0, 1\), got "):
            make_problem(1.0, 0.0, 2.0, 1.0, a=1.0, alpha=alpha)

    def test_nonfinite_params(self):
        with pytest.raises(NonFiniteInput, match=r"^A must be finite, got inf$"):
            make_problem(1.0, 0.0, 2.0, 1.0, a=math.inf)
        with pytest.raises(NonFiniteInput, match=r"^beta must be finite, got nan$"):
            make_problem(1.0, 0.0, 2.0, 1.0, a=1.0, beta=math.nan)

    @pytest.mark.parametrize("rho", [0.0, -1.0])
    def test_nonpositive_density(self, rho):
        with pytest.raises(NonPositiveDensity, match=rf"^left\.rho must be > 0, got {rho!r}$"):
            make_problem(rho, 1.0, 1.0, 1.0)

    def test_nonfinite_state(self):
        with pytest.raises(NonFiniteInput, match=r"^left\.v must be finite, got inf$"):
            make_problem(1.0, math.inf, 1.0, 1.0)

    def test_construction_checks_both_sides(self):
        with pytest.raises(NonPositiveDensity, match=r"^right\.rho must be > 0, got -1\.0$"):
            make_problem(1.0, 0.0, -1.0, 0.0)


GOOD_FIELDS = {
    "left": PrimState(rho=1.0, v=1.0),
    "right": PrimState(rho=2.0, v=0.0),
    "params": GasParams(A=0.25, alpha=0.5, beta=1.0),
}


class TestProblemConstruction:
    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("left", PrimState(rho=math.nan, v=1.0), NonFiniteInput),
            ("right", PrimState(rho=2.0, v=math.inf), NonFiniteInput),
            ("params", GasParams(A=math.inf, alpha=0.5), NonFiniteInput),
            ("params", GasParams(A=0.25, alpha=math.nan), NonFiniteInput),
            ("params", GasParams(A=0.25, alpha=0.5, beta=-math.inf), NonFiniteInput),
            ("left", PrimState(rho=0.0, v=1.0), NonPositiveDensity),
            ("right", PrimState(rho=-2.0, v=0.0), NonPositiveDensity),
            ("params", GasParams(A=-0.25, alpha=0.5), NegativeAmplitude),
            ("params", GasParams(A=0.25, alpha=1.0), AlphaOutOfRange),
            ("params", GasParams(A=0.25, alpha=0.0), AlphaOutOfRange),
            ("params", GasParams(A=0.0, alpha=1.5), AlphaOutOfRange),
            ("params", GasParams(A=0.0, alpha=3000.0), AlphaOutOfRange),
            ("params", GasParams(A=0.0, alpha=-3000.0), AlphaOutOfRange),
        ],
    )
    def test_constructor_raises_what_validation_raises(self, field, value, error):
        fields = dict(GOOD_FIELDS, **{field: value})
        with pytest.raises(error) as constructed:
            RiemannProblem(**fields)
        assert constructed.type is error

    @pytest.mark.parametrize(
        "change, error",
        [
            ({"params": GasParams(A=-1.0, alpha=0.5)}, NegativeAmplitude),
            ({"params": GasParams(A=0.0, alpha=2.0)}, AlphaOutOfRange),
            ({"left": PrimState(rho=0.0, v=1.0)}, NonPositiveDensity),
        ],
    )
    def test_replace_revalidates(self, change, error):
        p = RiemannProblem(**GOOD_FIELDS)
        with pytest.raises(error):
            replace(p, **change)


class TestPressure:
    def test_chap_term(self):
        g = GasParams(A=0.25, alpha=0.5)
        assert g.chap(4.0) == 0.125

    def test_pressureless_flag(self):
        assert GasParams(A=0.0, alpha=0.5).pressureless
        assert not GasParams(A=0.1, alpha=0.5).pressureless


class TestEigenvalues:
    def test_contract_example_left(self):
        lam1, lam2 = eigenvalues(PrimState(1.0, 2.0), GasParams(0.25, 0.5))
        assert lam1 == pytest.approx(1.875, abs=1e-15)
        assert lam2 == pytest.approx(2.0, abs=1e-15)

    def test_contract_example_right(self):
        lam1, lam2 = eigenvalues(PrimState(4.0, 0.0), GasParams(0.25, 0.5))
        assert lam1 == pytest.approx(-0.0625, abs=1e-15)
        assert lam2 == pytest.approx(0.0, abs=1e-15)

    def test_pressureless_coalescence(self):
        lam1, lam2 = eigenvalues(PrimState(3.0, -1.5), GasParams(0.0, 0.5))
        assert lam1 == lam2 == -1.5

    def test_time_drift(self):
        g = GasParams(0.25, 0.5, beta=2.0)
        lam1_0, lam2_0 = eigenvalues(PrimState(1.0, 2.0), g, t=0.0)
        lam1_3, lam2_3 = eigenvalues(PrimState(1.0, 2.0), g, t=3.0)
        assert lam1_3 == lam1_0 + 6.0
        assert lam2_3 == lam2_0 + 6.0

    def test_ordering_sweep(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            rho = rng.uniform(0.1, 10.0)
            v = rng.uniform(-5.0, 5.0)
            a = rng.uniform(0.01, 3.0)
            alpha = rng.choice([0.3, 0.5, 0.8])
            lam1, lam2 = eigenvalues(PrimState(rho, v), GasParams(a, alpha))
            assert lam1 < lam2


class TestInvariants:
    def test_contract_example(self):
        w, z = riemann_invariants(PrimState(1.0, 1.0), GasParams(0.25, 0.5))
        assert w == pytest.approx(0.75, abs=1e-15)
        assert z == pytest.approx(1.0, abs=1e-15)

    def test_w_below_z_with_pressure(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            st = PrimState(rng.uniform(0.1, 10.0), rng.uniform(-5.0, 5.0))
            g = GasParams(rng.uniform(0.01, 2.0), 0.5)
            w, z = riemann_invariants(st, g)
            assert w < z
            assert z == st.v


class TestParabolicPath:
    def test_position_and_speed(self):
        path = ParabolicPath(c=0.5, beta=2.0)
        assert path.position(3.0) == 0.5 * 3.0 + 0.5 * 2.0 * 9.0
        assert path.speed(3.0) == 0.5 + 6.0

    def test_straight_when_frictionless(self):
        path = ParabolicPath(c=-1.0, beta=0.0)
        assert path.position(4.0) == -4.0
        assert path.speed(4.0) == -1.0


class TestPressurelessCase:
    @pytest.mark.parametrize(
        "u_l,u_r,expected",
        [(0.0, 1.0, "expansion"), (1.0, 1.0, "contact"), (1.0, 0.0, "compression")],
    )
    def test_cases(self, u_l, u_r, expected):
        assert pressureless_case(make_problem(1.0, u_l, 2.0, u_r)) == expected

    @pytest.mark.parametrize(
        "u_r, region, expected",
        [
            (2.0, Region.I, "expansion"),
            (1.0, Region.OnJ, "contact"),
            (0.8, Region.II, "compression"),
            (0.75, Region.OnSdelta, "compression"),  # w_l = 1 - 0.25 exactly
            (0.0, Region.III, "compression"),
        ],
    )
    def test_pressureless_limit_of_each_region(self, u_r, region, expected):
        p = make_problem(1.0, 1.0, 2.0, u_r, a=0.25)
        assert p.region is region
        assert pressureless_case(p) == expected


class TestClassifyRegion:
    @pytest.mark.parametrize("a", [0.0, -0.0], ids=["zero", "negative-zero"])
    @pytest.mark.parametrize(
        "u_r, region", [(2.0, Region.I), (1.0, Region.OnJ), (0.0, Region.III)]
    )
    def test_pressureless_data(self, a, u_r, region):
        # at A = 0 the S_delta line is the contact line, so region II is empty
        assert make_problem(1.0, 1.0, 2.0, u_r, a=a).region is region

    def test_contract_examples(self):
        assert make_problem(1.0, 1.0, 1.0, 2.0, a=0.25).region is Region.I
        assert make_problem(1.0, 1.0, 2.0, 0.8, a=0.25).region is Region.II
        assert make_problem(1.0, 1.0, 1.0, -1.0, a=0.25).region is Region.III

    def test_boundary_tags_take_priority(self):
        # v_r equals u_l exactly: J boundary between I and II
        assert make_problem(1.0, 1.0, 3.0, 1.0, a=0.5).region is Region.OnJ
        # v_r equals w_l exactly: S_delta boundary between II and III
        p = make_problem(1.0, 1.0, 3.0, 0.5, a=0.5)  # w_l = 1 - 0.5 = 0.5
        assert p.region is Region.OnSdelta

    def test_region_buckets_sweep(self):
        rng = np.random.default_rng(23)
        for region in ("I", "II", "III"):
            for _ in range(50):
                p = draw_region_problem(rng, region, 0.5, 0.0)
                assert p.region.value == region

    def test_classification_is_beta_independent(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            p0 = draw_region_problem(rng, "II", 0.3, 0.0)
            p2 = make_problem(
                p0.left.rho, p0.left.v, p0.right.rho, p0.right.v,
                p0.params.A, p0.params.alpha, 2.0,
            )
            assert p2.region is p0.region


class TestStoredRegion:
    """region is decided on construction and derived from the data alone."""

    def test_survives_pickle_and_deepcopy(self):
        p = make_problem(1.0, 1.0, 2.0, 0.8, a=0.25)  # region II
        for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p), copy.copy(p)):
            assert q == p and hash(q) == hash(p)
            assert q.region is Region.II

    def test_replace_recomputes_it(self):
        p = make_problem(1.0, 1.0, 2.0, 0.8, a=0.25)
        assert replace(p, params=GasParams(A=0.1, alpha=0.5)).region is Region.III
        assert replace(p, right=PrimState(rho=2.0, v=1.0)).region is Region.OnJ
        assert replace(p, params=GasParams(A=0.0, alpha=0.5)).region is Region.III
        with pytest.raises(ValueError):
            replace(p, region=Region.I)

    def test_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            RiemannProblem(PrimState(1.0, 1.0), PrimState(1.0, 2.0), GasParams(0.5, 0.5), Region.I)

    def test_repr_and_equality_see_only_the_data(self):
        p = make_problem(1.0, 1.0, 2.0, 0.75, a=0.25)
        assert repr(p) == (
            "RiemannProblem(left=PrimState(rho=1.0, v=1.0), "
            "right=PrimState(rho=2.0, v=0.75), "
            "params=GasParams(A=0.25, alpha=0.5, beta=0.0))"
        )
        assert p == make_problem(1.0, 1.0, 2.0, 0.75, a=0.25)
        assert hash(p) == hash(make_problem(1.0, 1.0, 2.0, 0.75, a=0.25))
        assert p != make_problem(1.0, 1.0, 2.0, 0.7, a=0.25)
        # A = 0 and A = -0.0 are equal data and the same region
        assert make_problem(1.0, 1.0, 2.0, 0.0) == make_problem(1.0, 1.0, 2.0, 0.0, a=-0.0)
        assert make_problem(1.0, 1.0, 2.0, 0.0, a=-0.0).region is Region.III


class TestProblemScale:
    def test_floor_at_one(self):
        assert problem_scale(make_problem(0.2, 0.1, 0.3, -0.2, a=0.05)) == 1.0

    def test_picks_largest_magnitude(self):
        assert problem_scale(make_problem(0.2, -7.0, 0.3, 0.2, a=0.05)) == 7.0
        assert problem_scale(make_problem(9.0, 1.0, 0.3, 0.2, a=0.05, beta=-12.0)) == 12.0
