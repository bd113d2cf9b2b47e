"""Integer partitions and Jack polynomials in the C normalization.

The series modules need, for each weight k, the values of all Jack
polynomials C_lambda^alpha at a vector of eigenvalues, normalized so that

    sum over |lambda| = k of  C_lambda^alpha(xi)  =  (xi_1 + ... + xi_q)^k.

The implementation expands the monic Jack polynomial P_lambda in the
monomial symmetric basis with the classical eigenoperator recurrence: the
coefficient of m_mu in P_lambda is

    c(lambda, mu) = (2/alpha) / (rho(lambda) - rho(mu))
                    * sum over raising moves (mu_i + t, mu_j - t) of
                      (mu_i - mu_j + 2t) * c(lambda, sorted move result),

with rho(lambda) = sum_i lambda_i (lambda_i - 1 - (2/alpha)(i-1)).  The
denominator is strictly positive for mu strictly below lambda in dominance
order, so the recurrence is well defined for every alpha > 0.  Coefficients
are computed in exact rational arithmetic and converted to floats once.

The C normalization is obtained from P through the arm/leg hook product

    C_lambda = alpha^k k! / prod over cells (alpha (arm+1) + leg) * P_lambda,

which is independent of the power-trace identity above; that identity is
kept as a test of the whole pipeline rather than being built in.

Expansion coefficients do not depend on the number of variables, and the
set of partitions with at most q parts is closed upward in dominance
order, so the table for q variables restricts every sum to partitions of
length at most q.  Tables are memoized per (alpha, q) and filled one
weight at a time under a lock.
"""

from __future__ import annotations

import itertools
import math
import threading
from fractions import Fraction

import numpy as np

from .errors import DomainError

__all__ = [
    "Partition",
    "partitions_of_weight",
    "gen_pochhammer",
    "layers",
    "unit_layers",
    "layer_values",
]


class Partition(tuple):
    """Non-increasing tuple of positive integers (weakly, trailing zeros dropped)."""

    def __new__(cls, parts=()):
        cleaned = []
        prev = None
        for p in parts:
            ip = int(p)
            if ip != p or ip < 0:
                raise DomainError(f"partition parts must be nonnegative integers, got {p!r}")
            if prev is not None and ip > prev:
                raise DomainError(f"partition parts must be non-increasing, got {tuple(parts)}")
            prev = ip
            if ip > 0:
                cleaned.append(ip)
            # a zero part forces all later parts to be zero via the ordering check
        return super().__new__(cls, cleaned)

    @property
    def weight(self) -> int:
        return sum(self)

    @property
    def length(self) -> int:
        return len(self)

    def conjugate(self) -> "Partition":
        if not self:
            return Partition()
        return Partition(sum(1 for p in self if p > j) for j in range(self[0]))

    def __repr__(self):
        return f"Partition{tuple(self)}"


def partitions_of_weight(weight: int, max_parts: int) -> list[Partition]:
    """All partitions of the given weight into at most max_parts parts.

    Returned in reverse lexicographic order, e.g. weight 3, max_parts 2
    gives [(3,), (2, 1)].  That order refines dominance order, which the
    coefficient recurrence relies on.
    """
    if weight < 0 or max_parts < 0:
        raise DomainError("weight and max_parts must be nonnegative")

    out: list[Partition] = []

    def rec(prefix, remaining, max_part, slots):
        if remaining == 0:
            out.append(Partition(prefix))
            return
        if slots == 0:
            return
        top = min(remaining, max_part)
        # remaining units must fit into the available slots
        low = -(-remaining // slots)
        for first in range(top, low - 1, -1):
            rec(prefix + [first], remaining - first, first, slots - 1)

    rec([], weight, weight, max_parts)
    return out


def gen_pochhammer(mu: float, lam, alpha: float) -> float:
    """Generalized rising factorial prod_j (mu - (j-1)/alpha)_{lam_j}."""
    if alpha <= 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    total = 1.0
    inv = 1.0 / float(alpha)
    for j, part in enumerate(lam):
        base = float(mu) - j * inv
        for m in range(int(part)):
            total *= base + m
    return total


def _dominated(mu, lam) -> bool:
    """True when mu <= lam in dominance order (same weight assumed)."""
    acc_l = acc_m = 0
    for i in range(max(len(mu), len(lam))):
        acc_l += lam[i] if i < len(lam) else 0
        acc_m += mu[i] if i < len(mu) else 0
        if acc_m > acc_l:
            return False
    return True


def _hook_norm(lam: Partition, alpha: Fraction) -> Fraction:
    """C-normalization constant alpha^k k! / prod(alpha (arm+1) + leg)."""
    k = lam.weight
    conj = lam.conjugate()
    denom = Fraction(1)
    for i, part in enumerate(lam):
        for j in range(part):
            arm = part - j - 1
            leg = conj[j] - i - 1
            denom *= alpha * (arm + 1) + leg
    return alpha**k * Fraction(math.factorial(k)) / denom


class _JackTable:
    """Per-(alpha, q) cache of C-normalized monomial expansion coefficients."""

    def __init__(self, alpha: Fraction, q: int):
        self.alpha = alpha
        self.q = q
        self._layers = {}
        self._lock = threading.Lock()

    def layer(self, k: int):
        """(partitions, coeff matrix, exponent arrays, values at ones) for
        weight k.

        coeff[i, j] is the coefficient of m_{parts[j]} in C_{parts[i]};
        exponent arrays list, per partition, the distinct permutations of
        its parts padded to q slots, ready for monomial evaluation; the
        values at ones are C_{parts[i]}(1, ..., 1).
        """
        with self._lock:
            got = self._layers.get(k)
            if got is None:
                got = self._build(k)
                self._layers[k] = got
            return got

    def _build(self, k: int):
        parts = partitions_of_weight(k, self.q)
        n = len(parts)
        index = {p: i for i, p in enumerate(parts)}
        alpha = self.alpha
        two_over_alpha = Fraction(2) / alpha

        rho = []
        for lam in parts:
            val = Fraction(0)
            for i, part in enumerate(lam):
                val += part * (Fraction(part - 1) - two_over_alpha * i)
            rho.append(val)

        # raising moves out of each mu: (target row index, integer factor)
        moves: list[list[tuple[int, int]]] = []
        for mi, mu in enumerate(parts):
            lst = []
            mlist = list(mu)
            for j in range(1, len(mlist)):
                for i in range(j):
                    for t in range(1, mlist[j] + 1):
                        cand = mlist.copy()
                        cand[i] += t
                        cand[j] -= t
                        nu = Partition(sorted(cand, reverse=True))
                        lst.append((index[nu], mlist[i] - mlist[j] + 2 * t))
            moves.append(lst)

        coeff = np.zeros((n, n))
        for li, lam in enumerate(parts):
            row = {li: Fraction(1)}
            for mi in range(li + 1, n):
                if not _dominated(parts[mi], lam):
                    continue
                total = Fraction(0)
                for ci, factor in moves[mi]:
                    c = row.get(ci)
                    if c is not None:
                        total += factor * c
                if total:
                    row[mi] = two_over_alpha * total / (rho[li] - rho[mi])
            scale = _hook_norm(lam, alpha)
            for mi, c in row.items():
                coeff[li, mi] = float(scale * c)

        expo = []
        for mu in parts:
            padded = tuple(mu) + (0,) * (self.q - len(mu))
            perms = sorted(set(itertools.permutations(padded)))
            expo.append(np.asarray(perms, dtype=np.intp))
        # C_lambda(1, ..., 1), by the arithmetic layers does at one point
        ones = coeff @ _monomial_values(expo, np.ones((self.q, k + 1, 1)))
        return parts, coeff, expo, ones[:, 0]


_TABLES: dict = {}
_TABLES_LOCK = threading.Lock()


def _alpha_key(alpha) -> Fraction:
    if isinstance(alpha, Fraction):
        key = alpha
    elif isinstance(alpha, int):
        key = Fraction(alpha)
    else:
        key = Fraction(float(alpha))
    if key <= 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    return key


def _get_table(alpha, q: int) -> _JackTable:
    key = (_alpha_key(alpha), int(q))
    with _TABLES_LOCK:
        table = _TABLES.get(key)
        if table is None:
            table = _JackTable(key[0], key[1])
            _TABLES[key] = table
    return table


def _more_powers(xi_batch: np.ndarray, powers: np.ndarray, n: int) -> np.ndarray:
    """The power table extended to the exponents 0, ..., n - 1.

    powers[v, e] = xi_batch[:, v] ** e, shape (q, exponents, batch), so
    that each (variable, exponent) row is contiguous.  The new exponents
    vary along the innermost axis while the powers are taken, and there
    are always at least two of them, so every entry goes through the
    general pow: a constant exponent would let numpy square by x * x,
    which is not always the same float.
    """
    done = powers.shape[1]
    out = np.empty((powers.shape[0], n, powers.shape[2]))
    out[:, :done] = powers
    out[:, done:] = (xi_batch[:, :, None] ** np.arange(done, n)).transpose(1, 2, 0)
    return out


def _monomial_values(expo_list, powers: np.ndarray) -> np.ndarray:
    """Monomial symmetric polynomial values, shape (n partitions, batch).

    Each term is the left-to-right product powers[0, a] * powers[1, b] * ...
    over one exponent permutation (a, b, ...).
    """
    q, _, n_batch = powers.shape
    out = np.zeros((len(expo_list), n_batch))
    buf = np.empty(n_batch)
    for acc, expo in zip(out, expo_list):
        for perm in expo.tolist():
            term = powers[0, perm[0]]
            for v in range(1, q):
                term = np.multiply(term, powers[v, perm[v]], out=buf)
            acc += term
    return out


def layers(alpha, q: int, xi_batch: np.ndarray):
    """Yield (partitions, values) for the weights k = 1, 2, ... in turn.

    Each item is the weight-k layer: every C_lambda^alpha with |lambda| = k
    and len(lambda) <= q, with values of shape (n partitions, batch) at the
    rows of xi_batch, which has shape (batch, q).  All layers read one
    power table, extended to 2k exponents when weight k outgrows it.
    """
    table = _get_table(alpha, q)
    xi = np.asarray(xi_batch, dtype=float)
    powers = np.empty((q, 0, xi.shape[0]))
    for k in itertools.count(1):
        if powers.shape[1] <= k:
            powers = _more_powers(xi, powers, 2 * k)
        parts, coeff, expo, _ = table.layer(k)
        yield parts, coeff @ _monomial_values(expo, powers)


def unit_layers(alpha, q: int):
    """Yield the weight-k values C_lambda^alpha(1, ..., 1) for k = 1, 2, ...,
    tabulated once per layer of the (alpha, q) table, bit for bit the values
    of layers(alpha, q, np.ones((1, q)))."""
    table = _get_table(alpha, q)
    for k in itertools.count(1):
        yield table.layer(k)[3]


def layer_values(alpha, q: int, k: int, xi_batch: np.ndarray):
    """The weight-k item of layers(alpha, q, xi_batch), for k >= 1."""
    if k < 1:
        raise DomainError(f"weight must be at least 1, got {k}")
    return next(itertools.islice(layers(alpha, q, xi_batch), k - 1, None))
