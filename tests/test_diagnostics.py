import warnings

import numpy as np
import pytest

from condflow import diagnostics, study
from condflow.diagnostics import (
    DiagnosticsReport,
    checkpoints_for,
    diagnostics_series,
    mpsrf,
    posterior_cov,
    psrf,
    read_report_csv,
    write_report_csv,
)
from condflow.errors import ArgumentError, NumericalError, ParseError
from oracles import between_chain_cov, matrix_series, within_chain_cov


class FakeTrace:
    def __init__(self, thetas):
        self.thetas = np.asarray(thetas, dtype=float)


def test_within_hand_value():
    # k=2, l=2, one parameter, chains {0,2} and {0,2}: W = 2
    chains = np.array([[[0.0], [2.0]], [[0.0], [2.0]]])
    assert within_chain_cov(chains)[0, 0] == pytest.approx(2.0)


def test_within_matches_average_sample_cov():
    rng = np.random.default_rng(0)
    chains = rng.standard_normal((3, 50, 4))
    W = within_chain_cov(chains)
    expected = np.mean([np.cov(c, rowvar=False) for c in chains], axis=0)
    assert np.max(np.abs(W - expected)) <= 1e-12


def test_within_degenerate_chain():
    chains = np.zeros((2, 5, 2))
    chains[1] = np.random.default_rng(1).standard_normal((5, 2))
    with pytest.raises(NumericalError, match=r"chain\(s\) \[0\]"):
        within_chain_cov(chains)


def test_between_zero_when_means_equal():
    base = np.array([[0.0], [2.0]])
    chains = np.stack([base, base + 0.0])
    assert between_chain_cov(chains)[0, 0] == 0.0


def test_between_hand_value():
    # k=2, l=4, means 0 and 1: B = 4/1 * (0.25 + 0.25) = 2
    c1 = np.array([[-1.0], [1.0], [-1.0], [1.0]])  # mean 0
    c2 = c1 + 1.0  # mean 1
    chains = np.stack([c1, c2])
    assert between_chain_cov(chains)[0, 0] == pytest.approx(2.0)


def test_between_rank_bound():
    rng = np.random.default_rng(2)
    k = 4
    chains = rng.standard_normal((k, 30, 6))
    B = between_chain_cov(chains)
    assert np.linalg.matrix_rank(B, tol=1e-10) <= k - 1


def test_posterior_cov_b_zero():
    W = np.diag([2.0, 3.0])
    V = posterior_cov(W, np.zeros((2, 2)), k=4, l=10)
    assert np.allclose(V, 0.9 * W)


def test_posterior_cov_plugin():
    l = 8
    W = np.eye(3)
    B = l * np.eye(3)
    V = posterior_cov(W, B, k=4, l=l)
    assert np.allclose(V, ((l - 1) / l + 1.25) * np.eye(3))


def test_posterior_cov_large_l_limit():
    W = np.diag([1.0, 2.0])
    for l in (100, 10_000, 1_000_000):
        B = l * np.array([[0.5, 0.1], [0.1, 0.3]])  # B/l fixed
        V = posterior_cov(W, B, k=4, l=l)
        limit = W + 1.25 * B / l
        assert np.max(np.abs(V - limit)) <= 2.0 / l * np.max(np.abs(W))


def test_psrf_identical_chains():
    l = 100
    base = np.random.default_rng(3).standard_normal((l, 3))
    chains = np.stack([base, base.copy()])
    W = within_chain_cov(chains)
    B = between_chain_cov(chains)
    V = posterior_cov(W, B, k=2, l=l)
    values = psrf(W, V)
    assert np.allclose(values, np.sqrt((l - 1) / l))
    assert values[0] == pytest.approx(np.sqrt(0.99), abs=1e-12)


def test_psrf_degenerate_parameter():
    W = np.diag([1.0, 0.0])
    with pytest.raises(NumericalError, match=r"\[1\]"):
        psrf(W, W)


def test_mpsrf_b_zero():
    l = 50
    W = np.eye(2)
    assert mpsrf(W, np.zeros((2, 2)), k=3, l=l) == pytest.approx(
        np.sqrt((l - 1) / l))


def test_mpsrf_scalar_reduction():
    k, l = 4, 20
    W = np.array([[2.0]])
    B = np.array([[3.0]])
    expected = np.sqrt((l - 1) / l + (k + 1) / k * B[0, 0] / (l * W[0, 0]))
    assert mpsrf(W, B, k, l) == pytest.approx(expected, rel=1e-12)


def test_mpsrf_bounds_max_psrf():
    rng = np.random.default_rng(4)
    for _ in range(100):
        k = int(rng.integers(2, 6))
        l = int(rng.integers(5, 40))
        n = int(rng.integers(1, 5))
        chains = rng.standard_normal((k, l, n))
        chains += rng.standard_normal((k, 1, n))  # distinct chain means
        W = within_chain_cov(chains)
        B = between_chain_cov(chains)
        V = posterior_cov(W, B, k, l)
        assert mpsrf(W, B, k, l) >= np.max(psrf(W, V)) - 1e-8


def test_mpsrf_converges_for_same_distribution():
    rng = np.random.default_rng(5)
    chains = rng.standard_normal((4, 10_000, 20))
    W = within_chain_cov(chains)
    B = between_chain_cov(chains)
    assert mpsrf(W, B, 4, 10_000) <= 1.05


def test_mpsrf_detects_mean_offset():
    rng = np.random.default_rng(6)
    chains = rng.standard_normal((4, 10_000, 3))
    chains[0] += 3.0  # 3 standard deviations off
    W = within_chain_cov(chains)
    B = between_chain_cov(chains)
    assert mpsrf(W, B, 4, 10_000) > 1.2


def test_hand_oracle_k2_l3_n2():
    # chains: j=0 -> (0,0), (1,2), (2,4); j=1 -> (1,1), (3,2), (2,0)
    c0 = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 4.0]])
    c1 = np.array([[1.0, 1.0], [3.0, 2.0], [2.0, 0.0]])
    chains = np.stack([c0, c1])
    k, l = 2, 3
    m0, m1 = c0.mean(axis=0), c1.mean(axis=0)
    W_hand = np.zeros((2, 2))
    for c, m in ((c0, m0), (c1, m1)):
        for row in c:
            d = row - m
            W_hand += np.outer(d, d)
    W_hand /= k * (l - 1)
    mall = (m0 + m1) / 2
    B_hand = np.zeros((2, 2))
    for m in (m0, m1):
        d = m - mall
        B_hand += np.outer(d, d)
    B_hand *= l / (k - 1)
    V_hand = (l - 1) / l * W_hand + (1 + 1 / k) * B_hand / l

    W = within_chain_cov(chains)
    B = between_chain_cov(chains)
    V = posterior_cov(W, B, k, l)
    assert np.max(np.abs(W - W_hand)) <= 1e-12
    assert np.max(np.abs(B - B_hand)) <= 1e-12
    assert np.max(np.abs(V - V_hand)) <= 1e-12
    assert np.max(np.abs(psrf(W, V)
                         - np.sqrt(np.diag(V_hand) / np.diag(W_hand)))) \
        <= 1e-12
    lam_hand = np.max(np.linalg.eigvals(
        np.linalg.inv(W_hand) @ B_hand / l)).real
    expected = np.sqrt((l - 1) / l + (k + 1) / k * lam_hand)
    assert mpsrf(W, B, k, l) == pytest.approx(expected, abs=1e-12)


def test_shape_validation():
    with pytest.raises(ArgumentError):
        within_chain_cov(np.zeros((1, 10, 2)))
    with pytest.raises(ArgumentError):
        within_chain_cov(np.zeros((2, 1, 2)))
    with pytest.raises(ArgumentError):
        within_chain_cov(np.zeros((2, 10)))


@pytest.mark.parametrize("length, spacing, expected", [
    (600, 250, [250, 500, 600]),
    (500, 250, [250, 500]),
    (100, 250, [100]),
    (3, 1, [1, 2, 3]),
])
def test_checkpoints_for(length, spacing, expected):
    assert checkpoints_for(length, spacing) == expected


def test_study_binds_the_checkpoint_rule():
    # the bench reads study.checkpoints_for
    assert study.checkpoints_for is diagnostics.checkpoints_for


def test_series_identical_chains():
    rng = np.random.default_rng(7)
    base = rng.standard_normal((100, 2))
    traces = [FakeTrace(base), FakeTrace(base.copy())]
    report = diagnostics_series(traces, 50)
    assert report.checkpoints == [50, 100]
    assert report.max_psrf[0] == pytest.approx(np.sqrt(49 / 50))
    assert report.max_psrf[1] == pytest.approx(np.sqrt(99 / 100))
    assert report.mpsrf[0] == pytest.approx(np.sqrt(49 / 50))


def test_series_mpsrf_bounds_psrf():
    rng = np.random.default_rng(8)
    traces = [FakeTrace(rng.standard_normal((200, 3)) + i)
              for i in range(3)]
    report = diagnostics_series(traces, 50)
    for p, m in zip(report.max_psrf, report.mpsrf):
        assert m >= p - 1e-8


def test_series_skips_degenerate_and_small():
    rng = np.random.default_rng(9)
    a = np.zeros((100, 2))
    a[50:] = rng.standard_normal((50, 2))  # constant early prefix
    b = rng.standard_normal((100, 2))
    report = diagnostics_series([FakeTrace(a), FakeTrace(b)], 1)
    assert report.checkpoints == list(range(51, 101))
    assert report.notices[0] == "checkpoint 1: fewer than 2 draws, skipped"
    assert report.notices[1:] == [
        f"checkpoint {c}: chain(s) [0] have zero variance in every parameter"
        for c in range(2, 51)]


def test_series_length_mismatch():
    with pytest.raises(ArgumentError):
        diagnostics_series(
            [FakeTrace(np.zeros((10, 2))), FakeTrace(np.zeros((11, 2)))],
            10,
        )


@pytest.mark.parametrize("traces, message", [
    ([], "need at least 2 chains, got k=0"),
    ([np.zeros((10, 2))], "need at least 2 chains, got k=1"),
    ([np.zeros((10, 2)), np.zeros(10)],
     "trace 2: draws must have shape (draws, parameters), got (10,)"),
    ([np.ones((10, 2)), np.ones((10, 2)), np.ones((9, 2)), np.ones((8, 3))],
     "trace shapes differ: [(9, 2), (10, 2)]"),
    ([np.ones((10, 2)), np.full((10, 2), np.nan)],
     "trace 2 contains non-finite values"),
    ([np.ones((0, 2)), np.ones((0, 2))],
     "at least 2 draws are needed, got traces of 0"),
    ([np.ones((1, 2)), np.ones((1, 2))],
     "at least 2 draws are needed, got traces of 1"),
], ids=["no_trace", "one_trace", "one_dimensional", "third_differs",
        "non_finite", "no_draws", "one_draw"])
def test_series_rejects_traces_as_it_reads_them(traces, message):
    # the rules hold for a generator, which the series reads only once;
    # a shape error names the first trace's shape and the offending one,
    # and other errors the offending trace by its position
    with pytest.raises(ArgumentError) as exc:
        diagnostics_series((FakeTrace(t) for t in traces), 5)
    assert (exc.value.module, str(exc.value)) == ("diagnostics", message)


def _unread():
    """Traces that fail the test if the series pulls one."""
    pytest.fail("a trace was read before the arguments were checked")
    yield


@pytest.mark.parametrize("options, message", [
    ({"burn_in": -1}, "burn-in must be at least 0, got -1"),
    ({"spacing": 0}, "checkpoint spacing must be at least 1, got 0"),
    ({"burn_in": -1, "spacing": 0}, "burn-in must be at least 0, got -1"),
    ({"Q": np.ones(3)}, "nullspace basis Q must be 2-D, got shape (3,)"),
], ids=["burn_in", "spacing", "burn_in_first", "one_dimensional_basis"])
def test_series_checks_its_arguments_before_reading(options, message):
    with pytest.raises(ArgumentError) as exc:
        diagnostics_series(_unread(), **options)
    assert (exc.value.module, str(exc.value)) == ("diagnostics", message)


@pytest.mark.parametrize("traces", [[], iter([])], ids=["list", "iterator"])
def test_series_rejects_an_empty_input(traces):
    with pytest.raises(ArgumentError) as exc:
        diagnostics_series(traces)
    assert (exc.value.module, str(exc.value)) == (
        "diagnostics", "need at least 2 chains, got k=0")


@pytest.mark.parametrize("traces, message", [
    ([np.ones((10, 3)), np.ones((10, 3))],
     "trace 1: 3 parameters, but Q has 4 rows"),
    ([np.ones((10, 4)), np.ones((10, 3))],
     "trace 2: 3 parameters, but Q has 4 rows"),
], ids=["first", "second"])
def test_series_rejects_a_basis_of_the_wrong_rows(traces, message):
    with pytest.raises(ArgumentError) as exc:
        diagnostics_series((FakeTrace(t) for t in traces), 5, Q=np.ones((4, 2)))
    assert (exc.value.module, str(exc.value)) == ("diagnostics", message)


def test_series_cuts_the_burn_in_and_maps_to_the_basis():
    # the series of the cut, mapped traces, given whole, equals that of
    # the traces cut and mapped beforehand
    rng = np.random.default_rng(14)
    chains = rng.standard_normal((3, 60, 4)) + rng.standard_normal((3, 1, 4))
    Q = np.linalg.qr(rng.standard_normal((4, 2)))[0]
    got = diagnostics_series([FakeTrace(c) for c in chains], 10,
                             burn_in=15, Q=Q)
    want = diagnostics_series([FakeTrace(c[15:] @ Q) for c in chains], 10)
    assert got == want
    assert got.checkpoints == [10, 20, 30, 40, 45]


def test_report_csv_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    traces = [FakeTrace(rng.standard_normal((100, 2))) for _ in range(3)]
    report = diagnostics_series(traces, 50)
    path = tmp_path / "diag.csv"
    write_report_csv(report, path)
    back = read_report_csv(path)
    assert back.checkpoints == report.checkpoints
    assert back.max_psrf == report.max_psrf
    assert back.mpsrf == report.mpsrf


def test_report_csv_without_checkpoints_round_trip(tmp_path):
    # a series whose every checkpoint was skipped is written header-only
    path = tmp_path / "diag.csv"
    write_report_csv(DiagnosticsReport([], [], []), path)
    back = read_report_csv(path)
    assert (back.checkpoints, back.max_psrf, back.mpsrf) == ([], [], [])


@pytest.mark.parametrize("text, message", [
    ("checkpoint,max_psrf,mpsrf\n50,1.1,1.2\n100,1.05\n",
     "number of columns changed"),
    ("checkpoint,max_psrf,mpsrf\n50,1.1\n100,1.05\n",
     "rows have 2 values, the header 3"),
    ("checkpoint,max_psrf,mpsrf\n50,1.1,abc\n",
     "could not convert string 'abc'"),
    ("checkpoint,psrf,mpsrf\n50,1.1,1.2\n", "not a diagnostics CSV"),
], ids=["short_row", "short_rows", "bad_token", "bad_header"])
def test_report_csv_malformed(tmp_path, text, message):
    path = tmp_path / "diag.csv"
    path.write_text(text)
    with pytest.raises(ParseError) as exc:
        read_report_csv(path)
    assert exc.value.module == "diagnostics"
    assert str(exc.value).startswith(f"{path}: ")
    assert message in str(exc.value)


# Dense per-prefix oracle: two-pass W and B over each prefix, recomputed
# from scratch at every checkpoint. Deviations are taken from each
# chain's first draw, as in the module, so a column that never moved in
# a chain has exactly zero within-chain variance.


def dense_within(chains):
    k, l, n = chains.shape
    y = chains - chains[:, :1]
    dev = y - y.mean(axis=1, keepdims=True)
    constant = np.flatnonzero(np.all(dev.var(axis=1) == 0.0, axis=1))
    if constant.size:
        raise NumericalError(
            f"chain(s) {constant.tolist()} have zero variance in every "
            "parameter", module="diagnostics", code="degenerate")
    return np.einsum("jci,jcm->im", dev, dev) / (k * (l - 1))


def dense_between(chains):
    k, l, n = chains.shape
    means = (chains - chains[0, 0]).mean(axis=1)
    dev = means - means.mean(axis=0)
    return l / (k - 1) * (dev.T @ dev)


def dense_series(chains, spacing):
    k, L, n = chains.shape
    out = dict(checkpoints=[], max_psrf=[], mpsrf=[], notices=[])
    for c in checkpoints_for(L, spacing):
        if c < 2:
            out["notices"].append(f"checkpoint {c}: fewer than 2 draws, "
                                  "skipped")
            continue
        try:
            W = dense_within(chains[:, :c])
            B = dense_between(chains[:, :c])
            V = posterior_cov(W, B, k, c)
            p = psrf(W, V)
            m = mpsrf(W, B, k, c)
        except NumericalError as exc:
            out["notices"].append(f"checkpoint {c}: {exc}")
            continue
        out["checkpoints"].append(c)
        out["max_psrf"].append(float(np.max(p)))
        out["mpsrf"].append(m)
    return out


def assert_series_match_oracle(chains, spacing):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = diagnostics_series([FakeTrace(c) for c in chains], spacing)
        expected = dense_series(chains, spacing)
    assert report.notices == expected["notices"]
    assert report.checkpoints == expected["checkpoints"]
    for key in ("max_psrf", "mpsrf"):
        got, want = np.array(getattr(report, key)), np.array(expected[key])
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), key
    return report


def single_component_chains(rng, k, L, n, accept):
    """Chains that move one coordinate per accepted step, as the
    single-component sampler does."""
    steps = np.zeros((k, L, n))
    for j in range(k):
        moved = np.flatnonzero(rng.random(L) < accept)
        steps[j, moved, rng.integers(0, n, moved.size)] = \
            rng.standard_normal(moved.size)
    steps[:, 0] = 0.0
    return rng.standard_normal((k, 1, n)) + np.cumsum(steps, axis=1)


def test_public_covariances_match_dense_oracle():
    rng = np.random.default_rng(11)
    chains = np.cumsum(rng.standard_normal((3, 400, 5)), axis=1) + 50.0
    W, B = within_chain_cov(chains), between_chain_cov(chains)
    assert np.max(np.abs(W - dense_within(chains))) \
        <= 1e-12 * np.max(np.abs(W))
    assert np.max(np.abs(B - dense_between(chains))) \
        <= 1e-12 * np.max(np.abs(B))


def test_series_random_walk_matches_oracle():
    rng = np.random.default_rng(12)
    chains = np.cumsum(rng.standard_normal((4, 3000, 6)), axis=1)
    report = assert_series_match_oracle(chains, 250)
    assert len(report.checkpoints) == 12


def test_series_large_offset_matches_oracle():
    # near-constant chains far from 0: a sum of x x^T without the shift
    # would lose every digit of the variance to cancellation
    rng = np.random.default_rng(13)
    chains = 1e6 + 1e-3 * rng.standard_normal((4, 2000, 3))
    chains[1] += 2e-4
    report = assert_series_match_oracle(chains, 100)
    assert len(report.checkpoints) == 20
    assert report.max_psrf[-1] > 1.0


def test_series_single_component_skips_early_checkpoints():
    rng = np.random.default_rng(14)
    chains = single_component_chains(rng, 4, 600, 20, accept=0.3)
    report = assert_series_match_oracle(chains, 5)
    assert any("zero variance in every parameter" in s
               for s in report.notices)
    assert any("zero within-chain variance" in s for s in report.notices)
    assert report.checkpoints[-1] == 600


def _random_walks():
    rng = np.random.default_rng(15)
    return np.cumsum(rng.standard_normal((4, 1000, 3)), axis=1)


def test_series_badly_scaled_w_matches_oracle():
    # one parameter on a 1e-7 scale: cond(W) is about 1e14, but W's
    # correlation matrix is well conditioned, so no checkpoint is skipped
    chains = _random_walks()
    chains[:, :, 2] *= 1e-7
    report = assert_series_match_oracle(chains, 250)
    assert report.checkpoints == [250, 500, 750, 1000]


@pytest.mark.parametrize("scale", [1e-7, 1e7, 2.0**-40],
                         ids=["1e-7", "1e7", "2^-40"])
def test_series_is_free_of_parameter_scale(scale):
    # the PSRFs and the MPSRF do not change when a parameter is rescaled
    chains = _random_walks()
    scaled = chains.copy()
    scaled[:, :, 2] *= scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = diagnostics_series([FakeTrace(c) for c in chains], 250)
        report = diagnostics_series([FakeTrace(c) for c in scaled], 250)
    assert report.checkpoints == expected.checkpoints == [250, 500, 750, 1000]
    assert report.notices == expected.notices == []
    for key in ("max_psrf", "mpsrf"):
        got = np.array(getattr(report, key))
        want = np.array(getattr(expected, key))
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), key


def test_series_skips_a_degenerate_w():
    # 2 chains of 6 parameters: W has rank at most 2 (c - 1) < 6 before
    # checkpoint 4, though every parameter varies
    rng = np.random.default_rng(16)
    chains = np.cumsum(rng.standard_normal((2, 10, 6)), axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = diagnostics_series([FakeTrace(c) for c in chains], 1)
    assert report.checkpoints == list(range(4, 11))
    assert [s.split(":")[0] for s in report.notices] == [
        "checkpoint 1", "checkpoint 2", "checkpoint 3"]
    assert all("within-chain covariance is not positive definite" in s
               for s in report.notices[1:])


def test_series_skips_parameter_that_never_moved():
    # column 1 is constant in each chain at values whose mean does not
    # round back to them: its within-chain variance must be exactly 0
    rng = np.random.default_rng(0)
    constants = [-1.5295553718681685, -1.4501219455767214,
                 -1.3943426718826368, -1.520136679022679]
    traces = []
    for value in constants:
        thetas = np.empty((250, 2))
        thetas[:, 0] = rng.standard_normal(250)
        thetas[:, 1] = value
        traces.append(FakeTrace(thetas))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = diagnostics_series(traces, 250)
    assert report.checkpoints == []
    assert report.notices == [
        "checkpoint 250: parameter(s) [1] have zero within-chain variance"]
    chains = np.stack([t.thetas for t in traces])
    assert within_chain_cov(chains)[1, 1] == 0.0


def test_series_non_finite_draw_between_checkpoints():
    rng = np.random.default_rng(17)
    a, b = rng.standard_normal((2, 100, 2))
    a[90, 1] = np.inf
    with pytest.raises(ArgumentError, match="non-finite"):
        diagnostics_series([FakeTrace(a), FakeTrace(b)], 50)


def _matrix_form_cases():
    rng = np.random.default_rng(19)
    walk = np.cumsum(rng.standard_normal((4, 600, 5)), axis=1) + 40.0
    yield "random", walk, 50
    prefix = walk.copy()
    prefix[:, :120] = prefix[:, :1]  # no chain moves for 120 draws
    yield "constant_prefix", prefix, 40
    still = walk.copy()
    still[:, :, 3] = rng.standard_normal((4, 1))  # parameter 3 never moves
    yield "parameter_never_moves", still, 100
    yield "spacing_one", walk[:3, :200], 1
    yield "single_component", single_component_chains(
        rng, 3, 500, 8, accept=0.3), 5


MATRIX_FORM_CASES = list(_matrix_form_cases())


@pytest.mark.parametrize("as_generator", [False, True],
                         ids=["list", "generator"])
@pytest.mark.parametrize("name, chains, spacing", MATRIX_FORM_CASES,
                         ids=[case[0] for case in MATRIX_FORM_CASES])
def test_series_equals_matrix_form_bitwise(name, chains, spacing,
                                           as_generator):
    # one chain at a time gives the bits of all chains at once
    traces = [FakeTrace(c) for c in chains]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = diagnostics_series(
            (t for t in traces) if as_generator else traces, spacing)
        expected = matrix_series(chains,
                                 checkpoints_for(chains.shape[1], spacing))
    assert report.notices == expected.notices
    assert report.checkpoints == expected.checkpoints
    assert report.max_psrf == expected.max_psrf
    assert report.mpsrf == expected.mpsrf
    assert report.checkpoints or name == "parameter_never_moves"


# The numpy Cholesky reduction in mpsrf against scipy's generalized
# symmetric eigensolver (LAPACK dsygvd), imported here only.


def _spd(rng, n, low=0.1, high=3.0):
    """Random SPD matrix with eigenvalues in [low, high]."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (Q * rng.uniform(low, high, n)) @ Q.T


def _mpsrf_by_scipy(W, B, k, l):
    import scipy.linalg

    mu = scipy.linalg.eigh(B, W, eigvals_only=True)[-1]
    return np.sqrt((l - 1) / l + (k + 1) / k * max(mu, 0.0) / l)


def _differential_cases():
    rng = np.random.default_rng(18)
    for n in range(2, 21):
        W = _spd(rng, n)
        X = rng.standard_normal((n, n))
        yield f"random_n{n}", W, X @ X.T
        yield f"zero_n{n}", W, np.zeros((n, n))
        x = rng.standard_normal((n, 1))
        yield f"rank1_n{n}", W, x @ x.T
        # cond(W) near 1e11 from one parameter on a small scale, as a
        # trace gives it. Ill-conditioning from a rotation instead makes
        # the largest eigenvalue itself sensitive to rounding in W: both
        # solvers then agree with a 60-digit reference only to about
        # eps * cond(W).
        d = np.ones(n)
        d[n // 2] = 10.0 ** -5.5
        Wd = _spd(rng, n, 1.0, 2.0) * np.outer(d, d)
        X = rng.standard_normal((n, n)) * d[:, None]
        yield f"scaled_n{n}", Wd, X @ X.T


DIFFERENTIAL_CASES = list(_differential_cases())


@pytest.mark.parametrize("name, W, B", DIFFERENTIAL_CASES,
                         ids=[case[0] for case in DIFFERENTIAL_CASES])
def test_mpsrf_matches_scipy_generalized_eigh(name, W, B):
    # every W has cond(W) below 1e12, and none is degenerate
    low = 5e10 if name.startswith("scaled") else 1.0
    assert low <= np.linalg.cond(W) < 1e12
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k, l in ((2, 2), (4, 1000)):
            assert mpsrf(W, B, k, l) == pytest.approx(
                _mpsrf_by_scipy(W, B, k, l), rel=1e-12, abs=0.0)


def test_mpsrf_is_exact_on_a_badly_scaled_w():
    # cond(W) is 1e13, its correlation matrix the identity
    W = np.diag([1.0, 1e-13])
    B = np.array([[2.0, 1.0], [1.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = mpsrf(W, B, 4, 100)
    assert value == pytest.approx(_mpsrf_by_scipy(W, B, 4, 100), rel=1e-12,
                                  abs=0.0)


@pytest.mark.parametrize("W", [
    np.array([[1.0, 2.0], [2.0, 1.0]]),  # symmetric, eigenvalues 3 and -1
    np.array([[1.0, 1.0], [1.0, 1.0]]),  # rank 1
    np.diag([1.0, 0.0]),
], ids=["indefinite", "rank_deficient", "zero_variance"])
def test_mpsrf_rejects_a_degenerate_w(W):
    B = np.array([[2.0, 1.0], [1.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="not positive definite") \
                as info:
            mpsrf(W, B, 4, 100)
    assert (info.value.module, info.value.code) == ("diagnostics",
                                                    "degenerate")
