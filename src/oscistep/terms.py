"""Expansion terms: words, truncation policies and iterated integrals.

Each term of the macro-step expansion is encoded by a word over the
letters ``T`` (an integral against dt) and ``V`` (an integral against
dV = v dt), written innermost integral first.  The outermost letter fixes
the target coefficient (``T`` -> a, ``V`` -> b); the remaining letters,
innermost letter leftmost, form the operator word applied to that target.
A word with Q0 letters ``T`` and Q1 letters ``V`` is retained by policy
(kappa0, kappa1) when Q0/kappa0 + Q1/kappa1 <= 1.

Iterated integrals are evaluated exactly by symbolic recursion on basis
polynomials: multiply by v for a ``V`` letter, antidifferentiate, anchor
at the step start, repeat; the result is a closed-form function of the
step size and of the phase at the step start, reusable for every start
time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .jets import _integral
from .oscillator import BasisPoly, OscillatorSpec, v_poly

__all__ = [
    "Word",
    "TruncationPolicy",
    "enumerate_words",
    "term_count",
    "iterated_integral",
    "word_primitive",
    "stochastic_scheme_words",
    "policy_matches_scheme",
    "RETENTION_TOL",
]

# slack on the retention inequality so float-derived policy bounds keep
# words that sit exactly on the boundary
RETENTION_TOL = 1e-9

MAX_WORD_LEN = 20  # enumerate_words is exponential; longer policies are refused

# word integrals kept by (letters, Fourier structure): twice the 511 that
# one build of the largest policy in use needs (510 words at (8,2) with
# nu = -1/2, and the empty word), so a build never evicts its own prefixes
PRIMITIVE_CACHE_SIZE = 1024


@dataclass(frozen=True)
class Word:
    """A nested-integral term, letters ordered innermost to outermost."""

    letters: tuple[str, ...]

    def __post_init__(self):
        if not self.letters:
            raise ValueError("words must be non-empty")
        if any(ch not in ("T", "V") for ch in self.letters):
            raise ValueError(f"letters must be 'T' or 'V', got {self.letters}")

    @staticmethod
    def of(text: str) -> "Word":
        return Word(tuple(text))

    def __str__(self) -> str:
        return "".join(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def q0(self) -> int:
        return self.letters.count("T")

    @property
    def q1(self) -> int:
        return self.letters.count("V")

    @property
    def target(self) -> str:
        """Coefficient the term multiplies: outermost 'T' -> a, 'V' -> b."""
        return "a" if self.letters[-1] == "T" else "b"

    @property
    def operator_word(self) -> tuple[str, ...]:
        """Operator letters in application order (leftmost applied last)."""
        return tuple("L0" if ch == "T" else "L1" for ch in self.letters[:-1])


@dataclass(frozen=True)
class TruncationPolicy:
    """Retention rule for words: keep when Q0/kappa0 + Q1/kappa1 <= 1."""

    kappa0: float
    kappa1: float

    def __post_init__(self):
        if not all(math.isfinite(k) and k > 0 for k in (self.kappa0, self.kappa1)):
            raise ValueError("retention orders must be finite and positive")

    @staticmethod
    def from_order(kappa: float, rho: float, nu: float = 0.0) -> "TruncationPolicy":
        """Policy for accuracy order kappa in the regime omega^(-1) ~ h^rho
        with oscillator amplitude scaling omega^(-nu)."""
        if not (math.isfinite(kappa) and kappa > 0 and math.isfinite(rho) and rho > 0):
            raise ValueError("kappa and rho must be finite and positive")
        if not (math.isfinite(nu) and nu > -1):
            raise ValueError("amplitude exponent must be finite and satisfy nu > -1")
        return TruncationPolicy(kappa0=float(kappa), kappa1=kappa / (rho * (nu + 1.0)))

    def weight(self, q0: float, q1: float) -> float:
        return q0 / self.kappa0 + q1 / self.kappa1

    def retains(self, word: Word) -> bool:
        return self.weight(word.q0, word.q1) <= 1.0 + RETENTION_TOL

    def monomial_weight(self, p: float, sigma: float, nu: float = 0.0) -> float:
        """Order weight of an evaluated monomial h^p omega^(-sigma).

        sigma counts raw powers of omega^(-1), so the V-direction scale is
        kappa1 * (1 + nu): a whole V integral contributes sigma = 1 + nu.
        """
        return p / self.kappa0 + sigma / (self.kappa1 * (1.0 + nu))


def enumerate_words(policy: TruncationPolicy) -> list[Word]:
    """All retained words, ordered by length then lexicographically (T < V)."""
    # the longest retained word is all of the letter with the larger kappa:
    # floor(kappa) letters, or one more where that word's weight is on the
    # edge 1 + RETENTION_TOL
    kappa = max(policy.kappa0, policy.kappa1)
    longest = math.floor(kappa)
    if longest <= MAX_WORD_LEN and (longest + 1) / kappa <= 1.0 + RETENTION_TOL:
        longest += 1
    if longest > MAX_WORD_LEN:
        raise ValueError(
            f"policy retains words up to length {longest}; enumeration is "
            f"exponential and capped at {MAX_WORD_LEN}")
    out: list[Word] = []
    for length in range(1, longest + 1):
        for letters in product("TV", repeat=length):
            # policy.retains on the letter counts, before a Word is built
            q0 = letters.count("T")
            if policy.weight(q0, length - q0) <= 1.0 + RETENTION_TOL:
                out.append(Word(letters))
    return out


def term_count(kappa: int, rho: int) -> int:
    """Number of integral terms retained at order kappa in the regime
    omega^(-1) ~ h^rho: distinct words with Q0 + rho*Q1 <= kappa.

    Equals 2 (2^kappa - 1) when rho = 1 and always matches the live
    enumeration under the policy (kappa0, kappa1) = (kappa, kappa/rho).
    There are C(i + j, i) words with Q0 = i and Q1 = j, and by the
    hockey-stick identity the sum over j <= J of C(i + j, i) is
    C(i + J + 1, i + 1), so the count is one sum over Q0, less the empty
    word.
    """
    if not all(_integral(x) and x >= 1 for x in (kappa, rho)):
        raise ValueError("term_count is defined on the integer grid kappa, rho >= 1")
    kappa, rho = int(kappa), int(rho)
    return sum(math.comb(i + (kappa - i) // rho + 1, i + 1) for i in range(kappa + 1)) - 1


@lru_cache(maxsize=PRIMITIVE_CACHE_SIZE)
def _primitive_cached(letters: tuple[str, ...],
                      coeffs: tuple[tuple[int, complex], ...]) -> BasisPoly:
    if not letters:
        return BasisPoly.one()
    # extend the cached integral of the prefix by the outermost letter
    poly = _primitive_cached(letters[:-1], coeffs)
    if letters[-1] == "V":
        poly = poly * _v_cached(coeffs)
    return poly.definite_from_ref()


@lru_cache(maxsize=32)
def _v_cached(coeffs: tuple[tuple[int, complex], ...]) -> BasisPoly:
    """The oscillator of Fourier structure `coeffs` as a basis polynomial,
    made once for all the V letters of a build."""
    return v_poly(OscillatorSpec(omega=1.0, coeffs=coeffs))


def word_primitive(word: Word, osc: OscillatorSpec) -> BasisPoly:
    """The word's iterated integral as an exact symbolic function of the
    step size, anchored (and phase-referenced) at the step start.

    Cached per (word, Fourier structure); frequency, phase and amplitude
    exponent only enter at evaluation time, so one primitive serves a whole
    family of oscillators and every start time.
    """
    return _primitive_cached(word.letters, osc.coeffs)


def iterated_integral(word: Word, osc: OscillatorSpec, t_n: float,
                      h: float) -> complex:
    """Exact value of the word's nested integral over [t_n, t_n + h]: 0j
    over an empty interval, h = 0 of either sign."""
    if not (math.isfinite(t_n) and math.isfinite(h) and h >= 0):
        raise ValueError(f"t_n must be finite and h finite and non-negative; got {t_n}, {h}")
    # the primitive vanishes at h = 0 only in exact arithmetic: its tau^0
    # terms cancel against its anchor up to rounding
    return 0j if h == 0 else word_primitive(word, osc).eval_shifted(osc, h, t_n)


_SCHEME_WORDS = {
    "euler": (Word.of("T"), Word.of("V")),
    "milstein": (Word.of("T"), Word.of("V"), Word.of("VV")),
}


def stochastic_scheme_words(scheme: str) -> frozenset[Word]:
    """Defining term set of the named classical one-step scheme."""
    try:
        return frozenset(_SCHEME_WORDS[scheme])
    except KeyError:
        raise ValueError(f"unknown scheme {scheme!r}; choices: {sorted(_SCHEME_WORDS)}") from None


def policy_matches_scheme(kappa: float, rho_prime: float, scheme: str) -> bool:
    """True when the policy (kappa, kappa/rho') retains exactly the named
    scheme's words.  rho' is the increment exponent: V increments ~ h^rho'.

    Retention is monotone under deleting letters, so it suffices to test
    words up to one letter longer than the scheme's longest word: any
    longer retained word would contain a retained subword of that length.
    """
    if kappa <= 0 or rho_prime <= 0:
        raise ValueError("kappa and rho' must be positive")
    policy = TruncationPolicy(kappa0=kappa, kappa1=kappa / rho_prime)
    target = stochastic_scheme_words(scheme)
    probe_len = max(len(w.letters) for w in target) + 1
    for length in range(1, probe_len + 1):
        for letters in product("TV", repeat=length):
            w = Word(letters)
            if policy.retains(w) != (w in target):
                return False
    return True
