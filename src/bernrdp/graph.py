"""Inhomogeneous Erdos-Renyi adapter.

Independent edges make an ER graph a Bernoulli vector source: the
n(n-1)/2 upper-triangle edge probabilities become the component
probabilities, and the graph RDP function is the vector solver applied to
that source.  Allocation results are reported per edge (i, j); the
distortion and perception shares are invariant under the normalization
flips, so undoing them is purely an indexing matter.

Edges are held as arrays in row-major upper-triangle order
(``np.triu_indices(n, 1)``): ``flatten`` returns the vertex index arrays
(i, j), and ``GraphRdpResult`` carries i, j, q, d, p and the per-edge rate
as arrays in that order.  Its ``edges`` is a read-only sequence view of
those arrays: each ``EdgeAllocation`` row is built when it is read, so no
per-edge Python objects are kept.
"""

from __future__ import annotations

import functools
import json
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import orjson

from .core import DOMAIN_TOL, _as_unit
from .errors import DomainError
from .solver import BernoulliVectorSource, RdpResult, normalize, rdp


@dataclass(frozen=True)
class EdgeProbabilityMatrix:
    """Symmetric matrix of edge probabilities with a zero diagonal."""

    n_vertices: int
    probs: np.ndarray

    def __post_init__(self):
        n = self.n_vertices
        if isinstance(n, (float, np.floating)) and float(n).is_integer():
            n = int(n)
        if isinstance(n, (bool, np.bool_)) or not isinstance(n, (int, np.integer)):
            raise DomainError(f"n_vertices must be an integer, got {n!r}")
        n = int(n)
        probs = _as_unit(self.probs, "probs")
        if n < 2:
            raise DomainError("a graph source needs at least 2 vertices")
        if probs.shape != (n, n):
            raise DomainError(f"probs must be {n}x{n}, got {probs.shape}")
        asym = np.abs(probs - probs.T)
        if np.any(asym > DOMAIN_TOL):
            i, j = np.unravel_index(int(np.argmax(asym)), probs.shape)
            raise DomainError(
                f"probs[{i}][{j}]={probs[i, j]!r} != probs[{j}][{i}]={probs[j, i]!r}")
        if np.any(np.abs(np.diag(probs)) > DOMAIN_TOL):
            i = int(np.argmax(np.abs(np.diag(probs))))
            raise DomainError(f"diagonal must be zero; probs[{i}][{i}]={probs[i, i]!r}")
        sym = 0.5 * (probs + probs.T)
        np.fill_diagonal(sym, 0.0)
        object.__setattr__(self, "n_vertices", n)
        object.__setattr__(self, "probs", sym)


def _parse_json(data):
    """Parse one JSON input document (bytes or text).

    ``orjson`` reads floats about 5x faster than ``json`` and to the same
    doubles.  It refuses the ``NaN`` and ``Infinity`` literals that Python's
    ``json.dumps`` writes and numbers that overflow a double (``1e400``);
    ``json`` reads those as non-finite floats, so such documents are parsed
    again by ``json`` and reach the callers' range checks.  Invalid JSON
    and bytes that are not UTF-8 raise ``ValueError``; nesting too deep for
    ``json`` raises ``RecursionError``.
    """
    try:
        return orjson.loads(data)
    except orjson.JSONDecodeError:
        return json.loads(data)


def load_matrix(source) -> EdgeProbabilityMatrix:
    """Parse the documented matrix format: a JSON object with
    ``n_vertices`` (int) and ``probs`` (dense row list).

    Accepts bytes, text, or a readable file object in binary or text mode;
    bytes are parsed without a decoded copy.  ``orjson`` refuses the
    ``NaN``/``Infinity`` literals and overflowing numbers such as ``1e400``,
    so ``_parse_json`` re-reads those documents with ``json``: they then fail
    the range check, which names the entry, not the parse.  Symmetry is
    enforced within ``DOMAIN_TOL`` and then made exact; any larger mismatch,
    a nonzero diagonal or an entry outside [0, 1] (NaN and inf among them)
    is a validation error naming the offending entry.  So is a non-integer
    ``n_vertices``, a ``probs`` that is not a dense list of rows of numbers
    (text such as ``"0.3"`` included), invalid JSON or bytes that are not
    UTF-8.
    """
    data = source.read() if hasattr(source, "read") else source
    if not isinstance(data, (bytes, bytearray, str)):
        raise DomainError(f"cannot read matrix from {type(source).__name__}")
    try:
        doc = _parse_json(data)
    except (ValueError, RecursionError) as exc:
        raise DomainError(f"matrix file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "n_vertices" not in doc or "probs" not in doc:
        raise DomainError('matrix file needs keys "n_vertices" and "probs"')
    return EdgeProbabilityMatrix(doc["n_vertices"], doc["probs"])


def _edge_probs(matrix: EdgeProbabilityMatrix) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """The upper-triangle edge probabilities in row-major order, with their
    vertex index arrays (i, j)."""
    if not isinstance(matrix, EdgeProbabilityMatrix):
        raise DomainError(f"matrix must be an EdgeProbabilityMatrix, got {type(matrix).__name__}")
    i, j = np.triu_indices(matrix.n_vertices, 1)
    return matrix.probs[i, j], (i, j)


def flatten(matrix: EdgeProbabilityMatrix) -> tuple[BernoulliVectorSource,
                                                    tuple[np.ndarray, np.ndarray]]:
    """View the graph as a Bernoulli vector source: one component per
    upper-triangle edge (i, j), i < j, in row-major order.  Returns the
    normalized source and the vertex index arrays (i, j) mapping raw
    component index k -> edge (i[k], j[k])."""
    q, ij = _edge_probs(matrix)
    return normalize(q), ij


@dataclass(frozen=True, slots=True)
class EdgeAllocation:
    """One edge's share of the budgets and its rate contribution (nats)."""

    i: int
    j: int
    q: float
    d: float
    p: float
    rate: float


def _rows(cols) -> map:
    """``EdgeAllocation`` rows over equal-length columns, with Python
    ``int`` and ``float`` fields."""
    return map(EdgeAllocation, *(c.tolist() for c in cols))


class _EdgeRows(Sequence):
    """Read-only sequence of ``EdgeAllocation`` rows over the per-edge
    arrays (i, j, q, d, p, rate).  A row is built when it is read: an index
    or a slice builds the rows it names, and iteration builds them
    ``_CHUNK`` at a time."""

    __slots__ = ("_cols",)
    _CHUNK = 4096

    def __init__(self, cols: tuple[np.ndarray, ...]):
        self._cols = cols

    def __len__(self) -> int:
        return len(self._cols[0])

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(_rows(c[k] for c in self._cols))
        k = operator.index(k)
        return EdgeAllocation(*(c[k].item() for c in self._cols))

    def __iter__(self):
        for lo in range(0, len(self), self._CHUNK):
            yield from _rows(c[lo:lo + self._CHUNK] for c in self._cols)


@dataclass(frozen=True)
class GraphRdpResult:
    """Vector-solver result plus the allocation indexed by edge.

    ``i``, ``j``, ``q``, ``d``, ``p`` and ``edge_rate`` are per-edge arrays
    in raw edge order (the order of ``flatten``): the vertices, the edge
    probability (the matrix entry), the distortion and perception
    shares and the rate contribution in nats.  ``edges`` is a read-only
    sequence of the same data as ``EdgeAllocation`` rows, in the same
    order.  It holds no rows: each is built from the arrays when it is
    read, and a slice gives a tuple of rows.
    """

    result: RdpResult
    i: np.ndarray
    j: np.ndarray
    q: np.ndarray
    d: np.ndarray
    p: np.ndarray
    edge_rate: np.ndarray

    @property
    def rate(self) -> float:
        return self.result.rate

    @functools.cached_property
    def edges(self) -> Sequence[EdgeAllocation]:
        return _EdgeRows((self.i, self.j, self.q, self.d, self.p, self.edge_rate))


def graph_rdp(matrix: EdgeProbabilityMatrix, budget) -> GraphRdpResult:
    """RDP function of the ER graph at budgets (D, P): the vector solver on
    the flattened source, with the allocation reported per original edge."""
    q, (i, j) = _edge_probs(matrix)
    source = normalize(q)
    result = rdp(source, budget)
    alloc = result.allocation
    by_raw = np.empty((3, source.n))
    for row, values in zip(by_raw, (alloc.d, alloc.p, alloc.per_component_rate)):
        row[source.permutation] = values
    return GraphRdpResult(result, i, j, q, *by_raw)
