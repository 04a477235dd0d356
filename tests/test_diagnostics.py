import warnings

import numpy as np
import pytest

from condflow.diagnostics import (
    DiagnosticsReport,
    between_chain_cov,
    diagnostics_series,
    mpsrf,
    posterior_cov,
    psrf,
    read_report_csv,
    within_chain_cov,
    write_report_csv,
)
from condflow.errors import ArgumentError, NumericalError, ParseError


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


def test_series_identical_chains():
    rng = np.random.default_rng(7)
    base = rng.standard_normal((100, 2))
    traces = [FakeTrace(base), FakeTrace(base.copy())]
    report = diagnostics_series(traces, [50, 100])
    assert report.checkpoints == [50, 100]
    assert report.max_psrf[0] == pytest.approx(np.sqrt(49 / 50))
    assert report.max_psrf[1] == pytest.approx(np.sqrt(99 / 100))
    assert report.mpsrf[0] == pytest.approx(np.sqrt(49 / 50))


def test_series_mpsrf_bounds_psrf():
    rng = np.random.default_rng(8)
    traces = [FakeTrace(rng.standard_normal((200, 3)) + i)
              for i in range(3)]
    report = diagnostics_series(traces, [50, 100, 150, 200])
    for p, m in zip(report.max_psrf, report.mpsrf):
        assert m >= p - 1e-8


def test_series_skips_degenerate_and_small():
    rng = np.random.default_rng(9)
    a = np.zeros((100, 2))
    a[50:] = rng.standard_normal((50, 2))  # constant early prefix
    b = rng.standard_normal((100, 2))
    report = diagnostics_series([FakeTrace(a), FakeTrace(b)], [1, 30, 100])
    assert 1 not in report.checkpoints
    assert 30 not in report.checkpoints
    assert 100 in report.checkpoints
    assert len(report.notices) == 2


def test_series_length_mismatch():
    with pytest.raises(ArgumentError):
        diagnostics_series(
            [FakeTrace(np.zeros((10, 2))), FakeTrace(np.zeros((11, 2)))],
            [10],
        )


def test_report_csv_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    traces = [FakeTrace(rng.standard_normal((100, 2))) for _ in range(3)]
    report = diagnostics_series(traces, [50, 100])
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


def dense_series(chains, checkpoints, mpsrf_):
    k, L, n = chains.shape
    out = dict(checkpoints=[], max_psrf=[], mpsrf=[], notices=[])
    for c in sorted(checkpoints):
        if c < 2:
            out["notices"].append(f"checkpoint {c}: fewer than 2 draws, "
                                  "skipped")
            continue
        if c > L:
            out["notices"].append(f"checkpoint {c}: beyond trace length, "
                                  "skipped")
            continue
        try:
            W = dense_within(chains[:, :c])
            B = dense_between(chains[:, :c])
            V = posterior_cov(W, B, k, c)
            p = psrf(W, V)
        except NumericalError as exc:
            out["notices"].append(f"checkpoint {c}: {exc}")
            continue
        out["checkpoints"].append(c)
        out["max_psrf"].append(float(np.max(p)))
        out["mpsrf"].append(mpsrf_(W, B, k, c))
    return out


def recording_mpsrf(fell_back):
    """``mpsrf`` that appends to ``fell_back`` the draw count of every
    call that fell back to the pseudo-inverse."""

    def call(W, B, k, l):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = mpsrf(W, B, k, l)
        if any("pseudo-inverse" in str(w.message) for w in caught):
            fell_back.append(l)
        return value

    return call


def assert_series_match_oracle(chains, checkpoints, monkeypatch):
    import condflow.diagnostics as diag

    fell_back, expected_fell_back = [], []
    monkeypatch.setattr(diag, "mpsrf", recording_mpsrf(fell_back))
    report = diagnostics_series([FakeTrace(c) for c in chains], checkpoints)
    expected = dense_series(chains, checkpoints,
                            recording_mpsrf(expected_fell_back))
    assert report.notices == expected["notices"]
    assert report.checkpoints == expected["checkpoints"]
    assert fell_back == expected_fell_back
    for key in ("max_psrf", "mpsrf"):
        got, want = np.array(getattr(report, key)), np.array(expected[key])
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), key
    return report, fell_back


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


def test_series_random_walk_matches_oracle(monkeypatch):
    rng = np.random.default_rng(12)
    chains = np.cumsum(rng.standard_normal((4, 3000, 6)), axis=1)
    report, _ = assert_series_match_oracle(
        chains, list(range(250, 3001, 250)), monkeypatch)
    assert len(report.checkpoints) == 12


def test_series_large_offset_matches_oracle(monkeypatch):
    # near-constant chains far from 0: a sum of x x^T without the shift
    # would lose every digit of the variance to cancellation
    rng = np.random.default_rng(13)
    chains = 1e6 + 1e-3 * rng.standard_normal((4, 2000, 3))
    chains[1] += 2e-4
    report, _ = assert_series_match_oracle(
        chains, list(range(100, 2001, 100)), monkeypatch)
    assert len(report.checkpoints) == 20
    assert report.max_psrf[-1] > 1.0


def test_series_single_component_skips_early_checkpoints(monkeypatch):
    rng = np.random.default_rng(14)
    chains = single_component_chains(rng, 4, 600, 20, accept=0.3)
    report, _ = assert_series_match_oracle(
        chains, list(range(5, 601, 5)), monkeypatch)
    assert any("zero variance in every parameter" in s
               for s in report.notices)
    assert any("zero within-chain variance" in s for s in report.notices)
    assert report.checkpoints[-1] == 600


def test_series_ill_conditioned_w_falls_back_like_oracle(monkeypatch):
    # one parameter on a 1e-7 scale: W is non-singular but cond(W) is
    # about 1e14, above the 1e12 switch to the pseudo-inverse
    rng = np.random.default_rng(15)
    chains = np.cumsum(rng.standard_normal((4, 1000, 3)), axis=1)
    chains[:, :, 2] *= 1e-7
    report, fell_back = assert_series_match_oracle(
        chains, [250, 500, 750, 1000], monkeypatch)
    assert fell_back == [250, 500, 750, 1000]
    assert report.checkpoints == fell_back


def test_series_unsorted_duplicate_and_out_of_range_checkpoints(
        monkeypatch):
    rng = np.random.default_rng(16)
    chains = np.cumsum(rng.standard_normal((3, 300, 4)), axis=1)
    report, _ = assert_series_match_oracle(
        chains, [300, 0, 120, 1, 120, 2, 301, 50, 1000, 300, -4],
        monkeypatch)
    assert report.checkpoints == [2, 50, 120, 120, 300, 300]
    assert report.notices == [
        "checkpoint -4: fewer than 2 draws, skipped",
        "checkpoint 0: fewer than 2 draws, skipped",
        "checkpoint 1: fewer than 2 draws, skipped",
        "checkpoint 301: beyond trace length, skipped",
        "checkpoint 1000: beyond trace length, skipped",
    ]


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
        report = diagnostics_series(traces, [250])
    assert report.checkpoints == []
    assert report.notices == [
        "checkpoint 250: parameter(s) [1] have zero within-chain variance"]
    chains = np.stack([t.thetas for t in traces])
    assert within_chain_cov(chains)[1, 1] == 0.0


def test_series_non_finite_draw_beyond_every_checkpoint():
    rng = np.random.default_rng(17)
    a, b = rng.standard_normal((2, 100, 2))
    a[90, 1] = np.inf
    with pytest.raises(ArgumentError, match="non-finite"):
        diagnostics_series([FakeTrace(a), FakeTrace(b)], [50])
