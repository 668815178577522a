"""Erdos-Renyi adapter: matrix validation, flattening, graph-level RDP."""

import io
import json
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bernrdp import (DomainError, EdgeAllocation, EdgeProbabilityMatrix, flatten, graph_rdp,
                     load_matrix, normalize, rdp, scalar_rdp)
from bernrdp.core import h2_arr

TRIPLE_TERN = 0.714233365554124956  # 3 * scalar ternary branch at (0.1, 0.05, 0.25)


def _matrix_bytes(n, probs):
    return json.dumps({"n_vertices": n, "probs": probs}).encode()


class TestLoadMatrix:
    def test_two_vertex_valid(self):
        m = load_matrix(_matrix_bytes(2, [[0.0, 0.3], [0.3, 0.0]]))
        assert m.n_vertices == 2
        assert m.probs[0, 1] == 0.3

    def test_asymmetric_rejected(self):
        with pytest.raises(DomainError, match=r"probs\[0\]\[1\]"):
            load_matrix(_matrix_bytes(2, [[0.0, 0.3], [0.4, 0.0]]))

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(DomainError, match="diagonal"):
            load_matrix(_matrix_bytes(2, [[0.1, 0.3], [0.3, 0.0]]))

    def test_parse_error(self):
        with pytest.raises(DomainError, match="JSON"):
            load_matrix(b"not json at all {")

    def test_missing_keys(self):
        with pytest.raises(DomainError, match="n_vertices"):
            load_matrix(b'{"probs": [[0]]}')

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            load_matrix(_matrix_bytes(3, [[0.0, 0.3], [0.3, 0.0]]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_entry_rejected(self, bad):
        probs = [[0.0, 0.3, 0.1], [0.3, 0.0, bad], [0.1, bad, 0.0]]
        with pytest.raises(DomainError, match=re.escape(f"entry (1, 2) is {bad!r}")):
            load_matrix(_matrix_bytes(3, probs))
        with pytest.raises(DomainError, match=re.escape(f"entry (1, 2) is {bad!r}")):
            EdgeProbabilityMatrix(3, np.array(probs))

    def test_overflowing_entry_rejected(self):
        # orjson refuses 1e400; json reads it as inf, which the entry check names.
        text = b'{"n_vertices": 2, "probs": [[0.0, 1e400], [1e400, 0.0]]}'
        with pytest.raises(DomainError, match=re.escape("entry (0, 1) is inf")):
            load_matrix(text)

    @pytest.mark.parametrize("data", [
        b'{"n_vertices": 2, "probs": [[0.0, 0.3], [0.3, 0.0]]}\xff',
        b'{"n_vertices": 2, "probs": [[0.0, \xff0.3], [0.3, 0.0]]}',
        b"[" * 100_000,
    ], ids=["trailing_ff", "inner_ff", "deep_nesting"])
    def test_unparsable_bytes_rejected(self, data):
        with pytest.raises(DomainError, match="not valid JSON"):
            load_matrix(data)

    @pytest.mark.parametrize("probs", [[[0.0, 0.3], [0.3]], [[0.0, "x"], ["x", 0.0]],
                                       [[0.0, [0.3]], [0.3, 0.0]]])
    def test_malformed_probs_rejected(self, probs):
        with pytest.raises(DomainError, match="^probs must be a real number or an array of them"):
            load_matrix(_matrix_bytes(2, probs))

    def test_numeric_text_probability_rejected(self):
        # text is not parsed: "0.3" once loaded as the probability 0.3
        with pytest.raises(DomainError, match="^probs must be a real number or an array of them"):
            load_matrix('{"n_vertices": 2, "probs": [[0, "0.3"], ["0.3", 0]]}')

    @pytest.mark.parametrize("n", [2.5, "two", "2", True, None, [2]])
    def test_non_integer_vertex_count_rejected(self, n):
        probs = [[0.0, 0.3], [0.3, 0.0]]
        with pytest.raises(DomainError, match="n_vertices must be an integer"):
            load_matrix(_matrix_bytes(n, probs))
        with pytest.raises(DomainError, match="n_vertices must be an integer"):
            EdgeProbabilityMatrix(n, np.array(probs))

    @pytest.mark.parametrize("n, probs, match", [
        (1, [[0.0]], "at least 2 vertices"),
        (2, [[0.0, 1.5], [1.5, 0.0]], r"must lie in \[0, 1\]"),
        (2, [[0.0, -0.2], [-0.2, 0.0]], r"must lie in \[0, 1\]"),
    ], ids=["one_vertex", "above_one", "negative"])
    def test_out_of_domain_matrix_rejected(self, n, probs, match):
        with pytest.raises(DomainError, match=match):
            EdgeProbabilityMatrix(n, np.array(probs))
        with pytest.raises(DomainError, match=match):
            load_matrix(_matrix_bytes(n, probs))

    def test_unreadable_source_rejected(self):
        with pytest.raises(DomainError, match="cannot read matrix from int"):
            load_matrix(5)

    def test_integral_float_vertex_count_accepted(self):
        assert load_matrix(_matrix_bytes(2.0, [[0.0, 0.3], [0.3, 0.0]])).n_vertices == 2

    def test_tiny_asymmetry_symmetrized(self):
        m = load_matrix(_matrix_bytes(2, [[0.0, 0.3], [0.3 + 1e-13, 0.0]]))
        assert m.probs[0, 1] == m.probs[1, 0]


SMALLEST_NORMAL = 2.2250738585072014e-308
#: Edge probabilities in [0, 1], with the smallest subnormal, subnormals,
#: the largest double below 1 and 17-digit decimals.
PROBS = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(0.0, SMALLEST_NORMAL),
    st.integers(0, 10**17).map(lambda k: k / 10**17),
    st.sampled_from([0.0, 5e-324, SMALLEST_NORMAL, 1 - 2**-53, 1.0]),
)


def _matrix_text(n, upper, fmt):
    probs = [[0.0] * n for _ in range(n)]
    for (a, b), v in zip(zip(*np.triu_indices(n, 1)), upper):
        probs[a][b] = probs[b][a] = v
    rows = ", ".join("[" + ", ".join(fmt(v) for v in row) + "]" for row in probs)
    return f'{{"n_vertices": {n}, "probs": [{rows}]}}'


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 7).flatmap(
           lambda n: st.tuples(st.just(n), st.lists(PROBS, min_size=n * (n - 1) // 2,
                                                    max_size=n * (n - 1) // 2))),
       st.sampled_from([repr, "%.17g".__mod__, "%.25g".__mod__]),
       st.sampled_from(["bytes", "str", "file"]))
@example((2, [5e-324]), repr, "bytes")
@example((3, [1 - 2**-53, SMALLEST_NORMAL / 3, 0.12345678901234567]), "%.17g".__mod__, "file")
def test_load_matrix_parses_bit_for_bit_like_json(case, fmt, form):
    n, upper = case
    text = _matrix_text(n, upper, fmt)
    want = EdgeProbabilityMatrix(n, np.asarray(json.loads(text)["probs"], dtype=float))
    source = {"bytes": text.encode(), "str": text, "file": io.BytesIO(text.encode())}[form]
    # Valid JSON must never take the json fallback.
    with mock.patch.object(json, "loads", side_effect=AssertionError("json.loads called")):
        got = load_matrix(source)
    assert got.n_vertices == want.n_vertices
    assert got.probs.tobytes() == want.probs.tobytes()


class TestFlatten:
    def test_three_vertex_order_and_flips(self):
        m = EdgeProbabilityMatrix(3, np.array([
            [0.0, 0.2, 0.5],
            [0.2, 0.0, 0.9],
            [0.5, 0.9, 0.0]]))
        src, (i, j) = flatten(m)
        assert i.tolist() == [0, 0, 1] and j.tolist() == [1, 2, 2]
        assert np.allclose(src.raw(), [0.2, 0.5, 0.9])
        assert np.allclose(src.q, [0.5, 0.2, 0.1])
        assert src.flip_mask.tolist() == [False, False, True]

    def test_two_vertex_single_component(self):
        m = EdgeProbabilityMatrix(2, np.array([[0.0, 0.3], [0.3, 0.0]]))
        src, (i, j) = flatten(m)
        assert src.n == 1
        assert i.tolist() == [0] and j.tolist() == [1]

    def test_homogeneous_gives_equal_q(self):
        n = 4
        probs = np.full((n, n), 0.25)
        np.fill_diagonal(probs, 0.0)
        src, _ = flatten(EdgeProbabilityMatrix(n, probs))
        assert src.n == n * (n - 1) // 2
        assert np.allclose(src.q, 0.25)


class TestGraphRdp:
    def _homogeneous(self, n, p):
        probs = np.full((n, n), p)
        np.fill_diagonal(probs, 0.0)
        return EdgeProbabilityMatrix(n, probs)

    def test_homogeneous_triangle(self):
        res = graph_rdp(self._homogeneous(3, 0.25), (0.3, 0.15))
        assert res.rate == pytest.approx(TRIPLE_TERN, abs=1e-9)
        assert res.rate == pytest.approx(3 * scalar_rdp(0.1, 0.05, 0.25), abs=1e-9)

    def test_zero_rate_beyond_caps(self):
        m = self._homogeneous(3, 0.25)
        caps = 3 * 2 * 0.25 * 0.75
        assert graph_rdp(m, (caps + 0.01, 0.0)).rate == 0.0

    def test_zero_distortion_entropy(self):
        m = EdgeProbabilityMatrix(3, np.array([
            [0.0, 0.2, 0.5],
            [0.2, 0.0, 0.9],
            [0.5, 0.9, 0.0]]))
        res = graph_rdp(m, (0.0, 0.4))
        want = h2_arr(np.array([0.2, 0.5, 0.1])).sum()
        assert res.rate == pytest.approx(want, abs=1e-12)

    def test_matches_flattened_solver(self):
        m = EdgeProbabilityMatrix(3, np.array([
            [0.0, 0.2, 0.5],
            [0.2, 0.0, 0.9],
            [0.5, 0.9, 0.0]]))
        src, _ = flatten(m)
        for budget in [(0.3, 0.1), (0.05, 0.01), (1.2, 0.5)]:
            assert graph_rdp(m, budget).rate == pytest.approx(
                rdp(src, budget).rate, abs=0.0)

    def test_vertex_relabeling_invariance(self):
        rng = np.random.default_rng(51)
        n = 4
        probs = rng.uniform(0.0, 1.0, (n, n))
        probs = 0.5 * (probs + probs.T)
        np.fill_diagonal(probs, 0.0)
        m = EdgeProbabilityMatrix(n, probs)
        base = graph_rdp(m, (0.6, 0.2)).rate
        for _ in range(5):
            perm = rng.permutation(n)
            m2 = EdgeProbabilityMatrix(n, probs[np.ix_(perm, perm)])
            assert graph_rdp(m2, (0.6, 0.2)).rate == pytest.approx(base, abs=1e-10)

    def test_edge_allocation_round_trip(self):
        m = EdgeProbabilityMatrix(3, np.array([
            [0.0, 0.2, 0.5],
            [0.2, 0.0, 0.9],
            [0.5, 0.9, 0.0]]))
        res = graph_rdp(m, (0.3, 0.12))
        assert abs(sum(e.d for e in res.edges) - 0.3) <= 1e-8
        assert abs(sum(e.p for e in res.edges) - 0.12) <= 1e-8
        assert sum(e.rate for e in res.edges) == pytest.approx(res.rate, abs=1e-12)
        # edges keep their original orientation and probabilities
        assert [(e.i, e.j) for e in res.edges] == [(0, 1), (0, 2), (1, 2)]
        assert [e.q for e in res.edges] == [0.2, 0.5, 0.9]

    def test_edge_arrays_and_rows(self):
        rng = np.random.default_rng(52)
        n = 6
        probs = np.triu(rng.uniform(0.0, 1.0, (n, n)), 1)
        probs[1, 4] = 0.0
        probs = probs + probs.T
        res = graph_rdp(EdgeProbabilityMatrix(n, probs), (2.0, 0.4))
        i, j = np.triu_indices(n, 1)
        assert res.i.tolist() == i.tolist() and res.j.tolist() == j.tolist()
        assert res.q.tolist() == probs[i, j].tolist()
        assert res.edge_rate.sum() == pytest.approx(res.rate, abs=1e-12)
        rows = res.edges
        assert res.edges is rows  # one view, made on first read
        for k, e in enumerate(rows):
            assert (e.i, e.j, e.q, e.d, e.p, e.rate) == (
                int(res.i[k]), int(res.j[k]), float(res.q[k]), float(res.d[k]),
                float(res.p[k]), float(res.edge_rate[k]))
            assert type(e.i) is int and type(e.d) is float

    def test_structurally_absent_edges_kept(self):
        m = EdgeProbabilityMatrix(3, np.array([
            [0.0, 0.0, 0.3],
            [0.0, 0.0, 0.3],
            [0.3, 0.3, 0.0]]))
        res = graph_rdp(m, (0.1, 0.05))
        assert len(res.edges) == 3
        absent = [e for e in res.edges if e.q == 0.0]
        assert len(absent) == 1 and absent[0].d == 0.0 and absent[0].rate == 0.0


def _six_vertex_result():
    rng = np.random.default_rng(53)
    probs = np.triu(rng.uniform(0.0, 1.0, (6, 6)), 1)
    return graph_rdp(EdgeProbabilityMatrix(6, probs + probs.T), (2.0, 0.4))


def _row(res, k):
    """Edge k's fields, read from the result's arrays."""
    return EdgeAllocation(int(res.i[k]), int(res.j[k]), float(res.q[k]), float(res.d[k]),
                          float(res.p[k]), float(res.edge_rate[k]))


class TestEdgeRows:
    """``GraphRdpResult.edges`` is a read-only sequence view of the per-edge
    arrays: it builds only the rows that are read."""

    def test_length_and_identity(self):
        res = _six_vertex_result()
        assert len(res.edges) == 15
        assert res.edges is res.edges

    @pytest.mark.parametrize("k", [0, 7, 14, -1, -15, np.int64(3), np.int32(-2)])
    def test_index(self, k):
        res = _six_vertex_result()
        e = res.edges[k]
        assert e == _row(res, int(k) % 15)
        assert type(e.i) is int and type(e.j) is int and type(e.q) is float

    @pytest.mark.parametrize("k", [15, -16, 10**6])
    def test_index_past_either_end(self, k):
        with pytest.raises(IndexError):
            _six_vertex_result().edges[k]

    @pytest.mark.parametrize("s", [slice(None, None, 4), slice(1, 12, 3), slice(None, None, -5),
                                   slice(-3, None), slice(5, 5), slice(20, None)])
    def test_slice(self, s):
        res = _six_vertex_result()
        assert res.edges[s] == tuple(_row(res, k) for k in range(15)[s])

    def test_iteration_matches_the_arrays(self, monkeypatch):
        res = _six_vertex_result()
        # several chunks, the last one short
        monkeypatch.setattr(type(res.edges), "_CHUNK", 4)
        rows = list(res.edges)
        assert rows == [_row(res, k) for k in range(15)]
        assert all(type(e.i) is int and type(e.d) is float for e in rows)

    def test_sequence_methods(self):
        res = _six_vertex_result()
        e = _row(res, 9)
        assert e in res.edges and res.edges.index(e) == 9
        assert EdgeAllocation(0, 0, 0.0, 0.0, 0.0, 0.0) not in res.edges
        assert list(reversed(res.edges)) == list(res.edges)[::-1]

    def test_length_and_strided_slice_build_no_rows(self):
        # 300 vertices, 44,850 edges: a tuple of all the rows takes about 10 MB
        rng = np.random.default_rng(54)
        probs = np.triu(rng.uniform(0.05, 0.45, (300, 300)), 1)
        res = graph_rdp(EdgeProbabilityMatrix(300, probs + probs.T), (2000.0, 2000.0))
        assert res.result.region == "A"
        tracemalloc.start()
        try:
            n = len(res.edges)
            picked = res.edges[:: n // 64]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n == 44_850 and len(picked) == 65
        assert peak < 1_000_000


def _homogeneous_budget(q, n_edges, region):
    """Budgets (D, P) = N (d, p) placing a homogeneous source in a region:
    per edge d = 0.1 < q in A, C and at P = 0, with p above, below and at
    0 next to the per-edge T = d (1 - 2q) / (1 - 2d); in B, d between q and
    2q(1 - q) and p above the per-edge S = (2q(1 - q) - d) / (1 - 2q)."""
    if region == "B":
        d = 0.5 * (q + 2.0 * q * (1.0 - q))
        p = (2.0 * q * (1.0 - q) - d) / (1.0 - 2.0 * q) + 0.05
    else:
        d = 0.1
        p = {"A": 1.5, "C": 0.5, "P0": 0.0}[region] * d * (1.0 - 2.0 * q) / (1.0 - 2.0 * d)
    return n_edges * d, n_edges * p


class TestHomogeneousExact:
    """A homogeneous source of N components is one run: the solver works on
    one value and its rate is exactly N R(D/N, P/N, q).  The region-C cases
    have N = 179,700 (a 600-vertex graph), the others N = 1,225 (50)."""

    @pytest.mark.parametrize("entry", ["rdp", "graph_rdp"])
    @pytest.mark.parametrize("region", ["A", "B", "C", "P0"])
    def test_rate_is_n_scalar_rates(self, region, entry):
        nv = 600 if region == "C" else 50
        n_edges = nv * (nv - 1) // 2
        raw = 0.7  # folds to 1 - 0.7
        q = float(normalize([raw]).q[0])
        D, P = _homogeneous_budget(q, n_edges, region)
        if entry == "rdp":
            res = rdp([raw] * n_edges, (D, P))
            d, p = res.allocation.d, res.allocation.p
        else:
            probs = np.full((nv, nv), raw)
            np.fill_diagonal(probs, 0.0)
            gres = graph_rdp(EdgeProbabilityMatrix(nv, probs), (D, P))
            res, d, p = gres.result, gres.d, gres.p
        assert res.region == ("C" if region == "P0" else region)
        want = n_edges * scalar_rdp(D / n_edges, P / n_edges, q)
        assert abs(res.rate - want) <= 1e-12 * max(1.0, res.rate)
        # tied components get equal shares
        assert np.ptp(d) == 0.0 and np.ptp(p) == 0.0
        assert d[0] == pytest.approx(D / n_edges, rel=1e-9)
        assert p[0] == pytest.approx(P / n_edges, rel=1e-9, abs=1e-300)
