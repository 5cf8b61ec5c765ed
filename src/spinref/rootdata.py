"""Character and cocharacter lattices for GL(2n) and GSpin(2n+1).

The GL(2n) torus has character lattice with basis e_1, ..., e_{2n}; the
GSpin(2n+1) torus has basis f_0, f_1, ..., f_n (rank n+1, with f_0 the
spinor-norm direction).  The transfer map sends

    f_i |--> e_i - e_{2n-i+1}   (1 <= i <= n),
    f_0 |--> e_{n+1} + ... + e_{2n},

and its image is exactly the sublattice of pure characters, those with
lambda_i + lambda_{2n-i+1} independent of i.  The dual transfer on
cocharacters is defined by adjunction against the dual-basis pairings
<e_i, e_j*> = <f_i, f_j*> = delta_ij.

Everything here is an immutable integer vector; the rank n is an explicit
parameter on every constructor (no global state).  Half-sums of positive
roots are stored doubled so all lattice arithmetic stays integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional


class RankMismatchError(ValueError):
    """A lattice vector has the wrong length for its rank, or meets another rank or lattice."""


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise RankMismatchError(msg)


@dataclass(frozen=True)
class _LatticeVector:
    """Integer vector of a rank-n torus lattice; vectors of different lattices are unequal."""

    n: int
    coeffs: tuple[int, ...]
    label: ClassVar[str]
    length: ClassVar[str]  # "2n" on GL(2n), "n+1" on GSpin(2n+1)

    def __post_init__(self) -> None:
        _check(self.n >= 1, "rank must be >= 1")
        size = 2 * self.n if self.length == "2n" else self.n + 1
        _check(len(self.coeffs) == size,
               f"{self.label} needs {self.length}={size} entries, got {len(self.coeffs)}")


class GLCharacter(_LatticeVector):
    """Integer vector of length 2n in the basis e_1, ..., e_{2n}."""

    label = "GL character"
    length = "2n"

    def __add__(self, other: "GLCharacter") -> "GLCharacter":
        _check(type(other) is GLCharacter and other.n == self.n,
               f"cannot add a rank-{other.n} {other.label} to a rank-{self.n} {self.label}")
        return GLCharacter(self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))


class GLCocharacter(_LatticeVector):
    """Integer vector of length 2n in the dual basis e_1*, ..., e_{2n}*."""

    label = "GL cocharacter"
    length = "2n"


class GSpinCharacter(_LatticeVector):
    """Integer vector of length n+1 in the basis f_0, f_1, ..., f_n."""

    label = "GSpin character"
    length = "n+1"


class GSpinCocharacter(_LatticeVector):
    """Integer vector of length n+1 in the dual basis f_0*, ..., f_n*."""

    label = "GSpin cocharacter"
    length = "n+1"


def pairing(mu: GLCharacter | GSpinCharacter, nu: GLCocharacter | GSpinCocharacter) -> int:
    """Dual-basis pairing of a character with a cocharacter of the same lattice and rank."""
    _check((type(mu), type(nu)) in ((GLCharacter, GLCocharacter),
                                     (GSpinCharacter, GSpinCocharacter)) and mu.n == nu.n,
           f"cannot pair a rank-{mu.n} {mu.label} with a rank-{nu.n} {nu.label}")
    return sum(a * b for a, b in zip(mu.coeffs, nu.coeffs))


def jmath_char(mu: GSpinCharacter, n: int) -> GLCharacter:
    """Transfer a GSpin character into the GL(2n) character lattice.

    Linear on f_i |--> e_i - e_{2n-i+1} and f_0 |--> e_{n+1} + ... + e_{2n};
    injective, with image the pure sublattice.
    """
    _check(mu.n == n, f"character has rank {mu.n}, expected {n}")
    out = [0] * (2 * n)
    f0 = mu.coeffs[0]
    for j in range(n, 2 * n):
        out[j] += f0
    for i in range(1, n + 1):
        c = mu.coeffs[i]
        out[i - 1] += c
        out[2 * n - i] -= c
    return GLCharacter(n, tuple(out))


def jmath_char_inverse(lam: GLCharacter) -> Optional[GSpinCharacter]:
    """Invert the transfer on its image, or return None off the image.

    A GL character is in the image exactly when it is pure; then the
    preimage has f_0-coefficient the purity weight and f_i-coefficient
    lambda_i for 1 <= i <= n.
    """
    sw = is_pure(lam)
    if sw is None:
        return None
    return GSpinCharacter(lam.n, (sw,) + lam.coeffs[: lam.n])


def jmath_vee_cochar(nu: GLCocharacter, n: int) -> GSpinCocharacter:
    """Dual transfer of cocharacters, defined so the pairings match.

    The f_i*-coefficient is the GL pairing of the transferred basis
    character f_i against nu, making <mu, jv(nu)> = <j(mu), nu> hold for
    every GSpin character mu.
    """
    _check(nu.n == n, f"cocharacter has rank {nu.n}, expected {n}")
    coeffs = []
    for i in range(n + 1):
        basis = GSpinCharacter(n, tuple(1 if k == i else 0 for k in range(n + 1)))
        coeffs.append(pairing(jmath_char(basis, n), nu))
    return GSpinCocharacter(n, tuple(coeffs))


def rho_doubled(group: str, n: int) -> GLCharacter | GSpinCharacter:
    """Doubled half-sum 2*rho of the positive roots, kept integral.

    group is "GL" (type A_{2n-1}, positive roots e_i - e_j for i < j) or
    "GSpin" (positive roots f_i and f_i +- f_j for i < j).
    """
    _check(n >= 1, "rank must be >= 1")
    if group == "GL":
        N = 2 * n
        return GLCharacter(n, tuple(N - 2 * i + 1 for i in range(1, N + 1)))
    if group == "GSpin":
        # sum of {f_i} and {f_i +- f_j : i < j} is sum_i (2(n-i)+1) f_i
        return GSpinCharacter(n, (0,) + tuple(2 * (n - i) + 1 for i in range(1, n + 1)))
    raise ValueError(f"unknown group {group!r}")


def is_pure(lam: GLCharacter) -> Optional[int]:
    """Purity weight of a GL character, or None if the pair sums differ."""
    n = lam.n
    sw = lam.coeffs[0] + lam.coeffs[2 * n - 1]
    for i in range(1, n):
        if lam.coeffs[i] + lam.coeffs[2 * n - 1 - i] != sw:
            return None
    return sw


@dataclass(frozen=True)
class PureWeight:
    """A pure integer weight of GL(2n): lambda_i + lambda_{2n-i+1} = sw for all i."""

    n: int
    coeffs: tuple[int, ...]
    sw: int

    def __post_init__(self) -> None:
        _check(len(self.coeffs) == 2 * self.n,
               f"weight needs 2n={2 * self.n} entries, got {len(self.coeffs)}")
        if is_pure(GLCharacter(self.n, self.coeffs)) != self.sw:
            raise ValueError(f"weight {self.coeffs} is not pure")

    @classmethod
    def from_coeffs(cls, coeffs: tuple[int, ...] | list[int]) -> "PureWeight":
        coeffs = tuple(coeffs)
        if len(coeffs) % 2 != 0 or not coeffs:
            raise ValueError("pure weight needs an even, positive number of entries")
        return cls(len(coeffs) // 2, coeffs, coeffs[0] + coeffs[-1])

    @property
    def is_dominant(self) -> bool:
        return all(a >= b for a, b in zip(self.coeffs, self.coeffs[1:]))

    def gap(self, i: int) -> int:
        """lambda_i - lambda_{i+1} for 1 <= i <= 2n-1."""
        return self.coeffs[i - 1] - self.coeffs[i]
