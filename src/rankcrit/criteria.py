"""Rank verdicts from constant-term divisibility.

For y^2 = x^3 + p x (family "Ep", p = 1 or 9 mod 16) the tested quantity is
f_{3(p-1)/8}(0) mod p; for x^3 + y^3 = p (family "Ap", p = 1 mod 9) both
a_{(p-1)/3}(0) and x_{(p-1)/3}(0) are tested and must agree, residue and all.
Divisibility predicts rank 2 under BSD, non-divisibility rank 0.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from ._modp import constant_term_mod, constant_terms_mod, paired_constant_terms_mod
from ._primality import is_prime, primes_in
from .recurrences import _P_MAX, A_VZ, F_E, X_A, RecurrenceFamily, _check_fits


class CrossCheckError(RuntimeError):
    """The a-path and x-path verdicts disagree, on divisibility or on the residue
    (implementation bug)."""


class Admissibility(NamedTuple):
    ok: bool
    index: Optional[int]


class CriterionVerdict(NamedTuple):
    p: int
    family: str              # "Ep" | "Ap"
    path: str                # recurrence family key used: "f", "a" or "x"
    index: int               # recurrence index N or n
    weight_k: int
    residue: int             # F_index(0) mod p
    divisible: bool
    predicted_rank_bsd: int

    def as_record(self) -> dict:
        return {
            "p": self.p,
            "family": self.family,
            "index": self.index,
            "k": self.weight_k,
            "residue": self.residue,
            "divisible": self.divisible,
            "predicted_rank_bsd": self.predicted_rank_bsd,
            "path": self.path,
        }


class _Criterion(NamedTuple):
    modulus: int                         # admissible primes: p % modulus in classes
    classes: tuple[int, ...]
    index: Callable[[int], int]          # N(p), the recurrence index tested
    weight: Callable[[int], int]         # k(p)
    paths: tuple[RecurrenceFamily, ...]  # the recurrence families tested, in record order


_CRITERIA = {
    "Ep": _Criterion(16, (1, 9), lambda p: 3 * (p - 1) // 8, lambda p: (3 * p + 1) // 4, (F_E,)),
    "Ap": _Criterion(9, (1,), lambda p: (p - 1) // 3, lambda p: (2 * p + 1) // 3, (A_VZ, X_A)),
}


def _criterion(family: str) -> _Criterion:
    if family not in _CRITERIA:
        raise ValueError(f"unknown family {family!r}")
    return _CRITERIA[family]


def admissible(p: int, family: str) -> Admissibility:
    """Whether p is prime and in the family's congruence class; index if so."""
    row = _criterion(family)
    if p % row.modulus not in row.classes or not is_prime(p):
        return Admissibility(False, None)
    return Admissibility(True, row.index(p))


def _verdicts(p: int, family: str, residues: list[int]) -> list[CriterionVerdict]:
    """The verdicts of an admissible p from its residues, one per path in record
    order; the a- and x-paths of Ap are cross-checked."""
    row = _CRITERIA[family]
    index, k = row.index(p), row.weight(p)
    verdicts = [CriterionVerdict(p=p, family=family, path=path.key, index=index, weight_k=k, residue=r,
                                 divisible=r == 0, predicted_rank_bsd=2 if r == 0 else 0)
                for path, r in zip(row.paths, residues)]
    if len(verdicts) == 2:
        _cross_check(p, *verdicts)
    return verdicts


def _admitted_index(p: int, family: str) -> int:
    """N(p) for an admissible p; a ValueError naming the family's congruence class otherwise."""
    ok, index = admissible(p, family)
    if not ok:
        row = _CRITERIA[family]
        needs = f"p = {', '.join(map(str, row.classes))} mod {row.modulus}"
        raise ValueError(f"{p} is not an admissible prime for {family} (needs {needs})")
    return index


def verdict_Ep(p: int) -> CriterionVerdict:
    (v,) = _verdicts(p, "Ep", [constant_term_mod(F_E, _admitted_index(p, "Ep"), p)])
    return v


def verdict_Ap(p: int) -> tuple[CriterionVerdict, CriterionVerdict]:
    """(a-path, x-path) verdicts; raises CrossCheckError on disagreement."""
    index = _admitted_index(p, "Ap")
    va, vx = _verdicts(p, "Ap", [constant_term_mod(A_VZ, index, p), constant_term_mod(X_A, index, p)])
    return va, vx


def _cross_check(p: int, va: CriterionVerdict, vx: CriterionVerdict) -> None:
    """CrossCheckError unless the two paths agree on divisibility and on the residue.

    The residues agree because a_n(0) = (-1)^n x_n(0) and N = (p-1)/3 is even.  That
    identity is checked (as integers for every n <= 600, and for the residues of every
    admissible p < 20000), not proven; a path that kept divisibility but changed its
    residue would pass a divisibility check unseen."""
    if va.divisible != vx.divisible:
        raise CrossCheckError(
            f"p={p}: a-path residue {va.residue} and x-path residue {vx.residue} disagree on divisibility"
        )
    if va.residue != vx.residue:
        raise CrossCheckError(f"p={p}: a-path residue {va.residue} and x-path residue {vx.residue} differ")


def _residues(args: tuple[str, list[int]]) -> list[list[int]]:
    """Per path of the family, F_index(0) mod p for every admissible p given, in one
    lockstep batch: the a- and x-paths of Ap share theirs."""
    family, primes = args
    index = _CRITERIA[family].index
    targets = [(index(p), p) for p in primes]
    if family == "Ap":
        return list(paired_constant_terms_mod(targets))
    return [constant_terms_mod(F_E, targets)]


# Recurrence steps (N summed over a scan's primes and paths) that each worker of a process
# pool must get for the pool to pay for its start: on two cores, whole `criterion` calls with
# --jobs 2 and --jobs 1 took the same time near 70000 steps (Ep and Ap 2..3000-3500), the pool
# losing about 40 ms below that and winning from there on (0.29 against 0.42 s at Ep 2..5000).
_STEPS_PER_WORKER = 35_000


def scan(family: str, lo: int, hi: int, jobs: int = 1) -> list[CriterionVerdict]:
    """Verdicts for every admissible prime in [lo, hi], ordered by p (then path).

    A lone prime goes through ``verdict_Ep``/``verdict_Ap``.  More are stepped
    in lockstep batches, at most ``jobs`` of them in parallel, and the Ap paths
    are cross-checked in order of p afterwards.  A process pool starts only
    when each of its workers gets ``_STEPS_PER_WORKER`` recurrence steps or
    more; a smaller scan runs in this process as one batch.  A prime past the
    bound of a batch (Ep p > 104561, Ap p > 272539) steps alone, as a lone
    verdict does.  A range with an admissible prime at or past ``_P_MAX`` is
    refused with the kernel's OverflowError for the first such prime, before
    any prime below the bound is listed."""
    if lo < 2 or hi < lo:
        raise ValueError("range bounds must satisfy 2 <= lo <= hi")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    row = _criterion(family)
    past = next((q for q in range(max(lo, _P_MAX), hi + 1) if q % row.modulus in row.classes and is_prime(q)), None)
    if past is not None:
        _check_fits(past)
    primes = primes_in(lo, hi, row.modulus, row.classes)
    if len(primes) == 1:
        return [verdict_Ep(primes[0])] if family == "Ep" else list(verdict_Ap(primes[0]))
    steps = sum(map(row.index, primes)) * len(row.paths)
    jobs = max(1, min(jobs, len(primes), steps // _STEPS_PER_WORKER))
    batches = [(family, primes[i::jobs]) for i in range(jobs)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        from ._modp import np
        np.int64  # noqa: B018  (load numpy before the fork, so that every worker inherits it)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_residues, batches))
    else:
        results = [_residues(batch) for batch in batches]
    residues = {}
    for (_, batch), paths in zip(batches, results):
        for p, *per_path in zip(batch, *paths):
            residues[p] = per_path
    return [v for p in primes for v in _verdicts(p, family, residues[p])]


def sp_congruence_rhs(p: int) -> int:
    """((p-1)/4)!^2 * 2^(4k-5) * 3^(3k-3) * f_N(0)^2 mod p, with k = (3p+1)/4, N = 3(p-1)/8.

    The normalized central value S_p is congruent to plus or minus this
    residue mod p whenever S_p is an integer.
    """
    ok, index = admissible(p, "Ep")
    if not ok:
        raise ValueError(f"{p} is not admissible for Ep")
    k = _CRITERIA["Ep"].weight(p)
    fact = 1
    for i in range(2, (p - 1) // 4 + 1):
        fact = fact * i % p
    f0 = constant_term_mod(F_E, index, p)
    return fact * fact % p * pow(2, 4 * k - 5, p) % p * pow(3, 3 * k - 3, p) % p * (f0 * f0 % p) % p
