"""The package's public surface."""

import pushpull

# a name joins or leaves the surface by an edit of this list
PUBLIC = """
    Belief BestResponse BestResponseKind DynamicsError DynamicsResult
    EquilibriumError EquilibriumKind EquilibriumSet GridSpec
    InfiniteHorizonError MetricKind ModelParams NumericsError PushKind
    Quality Scenario SideInfoDiagnostics SimConfig Trajectory UtilityError
    __version__ activation_time best_response_dynamics
    best_response_exponential best_response_linear best_response_side_info
    beta_tau check_equilibrium_set classify classify_exponential
    classify_linear classify_side_info classify_variable_horizon
    closed_form_best_response crossing_time_raw decide_rows deviation_sweep
    find_symmetric_equilibria grid_best_response horizon_window make_report
    sample_trajectory side_info_lambda_pu_s side_info_peaks simulate_views
    strategy_cap symmetric_cap utility utility_surface utility_terms
    viewcount
""".split()


def test_public_surface_is_the_listed_names():
    assert len(PUBLIC) == 51
    assert sorted(pushpull.__all__) == sorted(PUBLIC)
    assert len(set(pushpull.__all__)) == len(pushpull.__all__)
    for name in PUBLIC:
        assert getattr(pushpull, name) is not None, name
