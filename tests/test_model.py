import dataclasses
import warnings

import numpy as np
import pytest

from trimarket.model import (
    EQ_KINDS,
    ROLES,
    DispatchPlan,
    EssParams,
    MarketData,
    ModelWarning,
    ValidationError,
    assemble_qp,
    default_config,
    plan_to_vector,
    quota_cap,
    recover_plan,
    validate_config,
    variable_layout,
)

from _instances import build, hand_case, random_instance
from _sparse import scipy_csr


def _series(T, v):
    return np.full(T, float(v))


def _data(T):
    return MarketData(
        pi_g=_series(T, 50), pi_r=_series(T, 20), pi_c=_series(T, 30),
        e=_series(T, 10), l=_series(T, 5),
    )


class TestLayout:
    def test_time_major_ordering(self):
        lay = variable_layout(3)
        assert lay.n == 39
        # hour t occupies the contiguous block [13t, 13(t+1))
        for role_pos, role in enumerate(ROLES):
            np.testing.assert_array_equal(lay.indices(role), 13 * np.arange(3) + role_pos)

    def test_flatten_recover_round_trip(self):
        lay = variable_layout(4)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(lay.n)
        parts = lay.recover(x)
        assert set(parts) == set(ROLES)
        np.testing.assert_array_equal(lay.flatten(parts), x)

    def test_layout_rejects_bad_shapes(self):
        lay = variable_layout(2)
        with pytest.raises(ValueError, match="expected vector of length 26"):
            lay.recover(np.zeros(25))
        with pytest.raises(ValueError, match=r"role 'g' has shape \(3,\), expected \(2,\)"):
            lay.flatten({role: np.zeros(3) for role in ROLES})
        for horizon in (0, 2.0):
            with pytest.raises(ValidationError, match="horizon must be a positive integer"):
                variable_layout(horizon)


class TestValidation:
    def test_happy_path_freezes_arrays(self):
        cfg, data = hand_case()
        model = validate_config(cfg, data)
        assert not model.data.pi_g.flags.writeable
        assert model.horizon == 1

    def test_series_length_mismatch(self):
        cfg = default_config(4)
        with pytest.raises(ValidationError, match="expected horizon T=4"):
            validate_config(cfg, _data(5))

    def test_series_must_be_one_dimensional(self):
        data = dataclasses.replace(_data(4), pi_g=np.ones((4, 1)))
        with pytest.raises(ValidationError, match=r"pi_g must be a 1-D series, got shape \(4, 1"):
            validate_config(default_config(4), data)

    @pytest.mark.parametrize("horizon", [0, 4.0])
    def test_horizon_must_be_a_positive_integer(self, horizon):
        cfg = dataclasses.replace(default_config(4), horizon=horizon)
        with pytest.raises(ValidationError, match="horizon must be a positive integer"):
            validate_config(cfg, _data(4))

    def test_non_finite_series(self):
        cfg = default_config(2)
        data = _data(2)
        bad = MarketData(**{**data.__dict__, "e": np.array([1.0, np.nan])})
        with pytest.raises(ValidationError, match="non-finite"):
            validate_config(cfg, bad)

    def test_negative_price_rejected(self):
        cfg = default_config(2)
        data = _data(2)
        bad = MarketData(**{**data.__dict__, "pi_r": np.array([5.0, -1.0])})
        with pytest.raises(ValidationError, match="pi_r"):
            validate_config(cfg, bad)

    def test_rps_level_domain(self):
        cfg, data = hand_case()
        with pytest.raises(ValidationError, match="policy.r"):
            validate_config(cfg.with_policy(r=1.5), data)

    def test_zero_rps_warns(self):
        cfg, data = hand_case()
        with pytest.warns(ModelWarning, match="degenerate"):
            validate_config(cfg.with_policy(r=0.0), data)

    def test_intraday_certificate_price_warns(self):
        cfg = default_config(25)
        data = _data(25)
        moving = MarketData(**{**data.__dict__, "pi_c": np.linspace(10, 20, 25)})
        with pytest.warns(ModelWarning, match="pi_c"):
            validate_config(cfg, moving)

    def test_eta_domain(self):
        cfg, data = hand_case()
        bad = EssParams(p_c_max=10, p_d_max=10, q_max=10, eta_c=0.0)
        with pytest.raises(ValidationError, match="eta_c"):
            validate_config(type(cfg)(**{**cfg.__dict__, "ess": bad}), data)

    @pytest.mark.parametrize("key, value, match", [
        ("caps.g_cap", -np.inf, "caps.g_cap must be >= 0"),
        ("caps.r_cap", np.nan, "caps.r_cap must be >= 0"),
        ("ess.p_c_max", np.nan, "ess.p_c_max must be >= 0"),
        ("rec_inventory.i_max", np.nan, "rec_inventory.i_max must be >= 0"),
        ("tg.a", np.inf, "tg.a must be finite"),
        ("tg.b", np.inf, "tg.b must be finite"),
        ("tg.g_min", np.nan, "tg.g_min must be finite"),
        ("tg.g_max", np.inf, "tg.g_max must be finite"),
        ("tg.k", np.nan, "tg.k must be finite"),
        ("tg.a", 0.0, "tg.a must be > 0"),
        ("tg.g_min", -1.0, "need 0 <= g_min <= g_max"),
        ("tg.k", -0.1, "tg.k must be >= 0"),
        ("policy.alpha", 1.5, r"policy.alpha must lie in \[0, 1\]"),
    ])
    def test_non_finite_parameters_rejected(self, key, value, match):
        cfg, data = hand_case()
        section, name = key.split(".")
        part = dataclasses.replace(getattr(cfg, section), **{name: value})
        with pytest.raises(ValidationError, match=match):
            validate_config(dataclasses.replace(cfg, **{section: part}), data)

    def test_infinite_limits_mean_unlimited(self):
        cfg, data = hand_case()
        inf = np.inf
        cfg = dataclasses.replace(
            cfg.with_caps(g_cap=inf, r_cap=inf, c_cap=inf),
            ess=EssParams(p_c_max=inf, p_d_max=inf, q_max=inf),
            rec_inventory=dataclasses.replace(cfg.rec_inventory, w_max=inf, d_max=inf, i_max=inf),
        )
        assert validate_config(cfg, data).config.ess.q_max == inf

    def test_disabled_inventory_normalised_to_zero_caps(self):
        cfg, data = hand_case()
        off = cfg.with_inventories(rec=False, cer=True)
        model = validate_config(off, data)
        inv = model.config.rec_inventory
        assert (inv.w_max, inv.d_max, inv.i_max) == (0.0, 0.0, 0.0)

    def test_quota_cap_scales_with_alpha_and_horizon(self):
        cfg = default_config(10)
        assert quota_cap(cfg) == pytest.approx(80.0 * 0.9 * 10 * 0.2)
        assert quota_cap(cfg.with_policy(alpha=0.0)) == 0.0


class TestAssembly:
    def test_shapes_and_row_indexing(self):
        cfg, data = random_instance(3, horizon=3)
        _, p = build(cfg, data)
        T = 3
        assert p.h_diag.shape == (13 * T,)
        assert p.a_eq.shape == (6 * T, 13 * T)
        assert p.coup.shape == (2, 13 * T)
        for t in range(T):
            for k, kind in enumerate(EQ_KINDS):
                assert p.eq_row_index(kind, t) == 6 * t + k
        assert p.eq_row_name(p.eq_row_index("elec_bal", 0)) == "elec_bal[1]"
        assert p.eq_row_name(p.eq_row_index("cer_bal", 2)) == "cer_bal[3]"

    def test_curvature_only_on_thermal_output(self):
        cfg, data = hand_case()
        _, p = build(cfg, data)
        g_idx = p.layout.indices("g")
        assert np.all(p.h_diag[g_idx] == -2.0 * cfg.tg.a)
        others = np.setdiff1d(np.arange(p.n), g_idx)
        assert np.all(p.h_diag[others] == 0.0)

    def test_storage_dynamics_wrap_cyclically(self):
        cfg, data = random_instance(11, horizon=3)
        _, p = build(cfg, data)
        lay = p.layout
        row = scipy_csr(p.a_eq)[p.eq_row_index("ess_dyn", 0)].toarray().ravel()
        # hour 1 references the final hour's state of charge
        q_last = lay.indices("q")[-1]
        assert row[q_last] != 0.0

    def test_no_explicit_zero_coefficients(self):
        # a zero coefficient (tg.k = 0, policy.r = 0), or terms that cancel
        # (at T = 1 the offset-0 and cyclic offset -1 terms of the storage
        # and inventory rows land on one hour), stores no entry; each case
        # stored zeros before
        cfg, data = default_config(168), _data(168)
        for c, d in (random_instance(11),
                     (dataclasses.replace(cfg, tg=dataclasses.replace(cfg.tg, k=0.0)), data),
                     (cfg.with_policy(r=0.0), data)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ModelWarning)  # k and r out of their usual range
                _, p = build(c, d)
            for m in (p.a_eq, p.coup):
                assert np.all(m.data != 0.0) and scipy_csr(m).has_canonical_format

    def test_quota_override_changes_only_quota_row(self):
        cfg, data = hand_case()
        _, p = build(cfg, data)
        model, _ = build(cfg, data)
        p2 = assemble_qp(model, quota_override=model.quota + 5.0)
        assert p2.coup_rhs[1] == pytest.approx(p.coup_rhs[1] + 5.0)
        np.testing.assert_array_equal(p2.coup_rhs[:1], p.coup_rhs[:1])
        np.testing.assert_array_equal(p2.f, p.f)


class TestPlanRecovery:
    def test_round_trip_through_plan(self):
        cfg, data = random_instance(7, horizon=2)
        _, p = build(cfg, data)
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, p.n)
        # make charge/discharge and the certificate flows one-sided so the
        # plan maps back to the same vector
        lay = p.layout
        for role in ("p_c", "p_d"):
            x[lay.indices(role)] = np.abs(x[lay.indices(role)])
        x[lay.indices("p_d")] = 0.0
        plan = recover_plan(x, lay)
        np.testing.assert_allclose(plan_to_vector(plan, lay), x, atol=1e-15)

    def test_lossless_overlap_netting(self):
        lay = variable_layout(1)
        x = np.zeros(lay.n)
        x[lay.indices("p_c")[0]] = 7.0
        x[lay.indices("p_d")[0]] = 3.0
        plan = recover_plan(x, lay)
        assert plan.netted
        assert plan.p_c[0] == pytest.approx(4.0)
        assert plan.p_d[0] == pytest.approx(0.0)
        assert plan.simultaneous_flow[0] == pytest.approx(3.0)

    def test_lossy_flows_kept_verbatim(self):
        lay = variable_layout(1)
        x = np.zeros(lay.n)
        x[lay.indices("p_c")[0]] = 7.0
        x[lay.indices("p_d")[0]] = 3.0
        plan = recover_plan(x, lay, eta_c=0.95, eta_d=0.95)
        assert not plan.netted
        assert plan.p_c[0] == pytest.approx(7.0)
        assert plan.p_d[0] == pytest.approx(3.0)

    def test_certificate_flow_split(self):
        lay = variable_layout(2)
        x = np.zeros(lay.n)
        x[lay.indices("x_r")] = [5.0, -2.0]
        plan = recover_plan(x, lay)
        np.testing.assert_allclose(plan.r_w, [5.0, 0.0])
        np.testing.assert_allclose(plan.r_d, [0.0, 2.0])

    def test_csv_columns_cover_every_series(self):
        cfg, data = hand_case()
        _, p = build(cfg, data)
        plan = recover_plan(np.zeros(p.n), p.layout)
        for col in DispatchPlan.CSV_COLUMNS:
            assert len(getattr(plan, col)) == 1
