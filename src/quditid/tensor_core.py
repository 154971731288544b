"""Index arithmetic and product-state assembly for a (d+1)-qudit register.

The register holds one probe qudit (position 0) and d reference qudits
(positions 1..d), each of local dimension d, so the total Hilbert space
has dimension D = d**(d+1).  Flat basis indices are big-endian with the
probe digit most significant:

    flat = sum_j digits[j] * d**(d - j)

Each input rule is written once, in a _check_* function here: _check_factors
holds the factors of a product input, unit norm included.
"""

import functools
from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-12

# Largest d with d**(d+1) < 2**62, so every flat index fits an int64.
MAX_DIM = 14

# Largest d whose d**(d+1)-entry vectors are formed.  At d=6 the d*d
# measurement vectors alone would take 36 * 6**7 * 16 B, about 161 MB.
DENSE_MAX_D = 5


def check_dim(d):
    """Validate the single-qudit dimension (= number of reference states)."""
    return _check_index("dimension", d, 2, MAX_DIM)


def check_dense_dim(d):
    """check_dim, refusing d above DENSE_MAX_D before anything is allocated."""
    d = check_dim(d)
    if d > DENSE_MAX_D:
        raise ValueError(f"d**(d+1) vectors are formed densely for d <= {DENSE_MAX_D}, not d={d}")
    return d


def _check_index(name, value, low, high):
    """Validate an integer in low..high (bools refused); returns it as an int."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not low <= value <= high:
        raise ValueError(f"{name} must lie in {low}..{high}, got {value}")
    return int(value)


def _check_real(name, value, low, high):
    """Validate a real in the caller's finite bounds [low, high], which are
    required (bools, strings, NaN, ±inf refused); returns it as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not low <= value <= high:  # NaN and ±inf fail too
        raise ValueError(f"{name} must lie in [{low}, {high}], got {value}")
    return float(value)


def _check_numbers(name, values, dtype=np.float64):
    """A new `dtype` array of numbers of its kind (bools and strings refused)."""
    values = np.asarray(values)
    if values.dtype.kind == "b" or not np.can_cast(values.dtype, dtype, "same_kind"):
        raise ValueError(f"{name} must hold numbers, got dtype {values.dtype}")
    return values.astype(dtype)


def _check_finite(name, values, dtype=np.float64):
    """_check_numbers, refusing NaN and ±inf too."""
    if not np.isfinite(values := _check_numbers(name, values, dtype)).all():
        raise ValueError(f"{name} must be finite")
    return values


def _check_factors(d, factors):
    """The d+1 factors of a product input as (d,) vectors, each refused
    unless its norm lies within NORM_TOL of 1 and returned over its norm."""
    if len(factors) != d + 1:
        raise ValueError(f"expected {d + 1} factors, got {len(factors)}")
    units = []
    for j, f in enumerate(factors):
        f = _check_numbers(f"factor {j}", f, np.complex128)
        if f.shape != (d,):
            raise ValueError(f"factor {j} has shape {f.shape}, expected ({d},)")
        if not abs((norm := np.linalg.norm(f)) - 1.0) <= NORM_TOL:  # NaN fails
            raise ValueError(f"factor {j} is not normalized")
        units.append(f / norm)
    return units


def total_dim(d):
    """Dimension D = d**(d+1) of the full (d+1)-qudit space."""
    d = check_dim(d)
    return d ** (d + 1)


def encode_index(digits, d):
    """Flat index of the basis vector with the given per-qudit digits.

    `digits` has length d+1; position 0 is the probe qudit and is the most
    significant digit.  Each digit must be an integer in 0..d-1: a float
    or a bool is refused, not truncated.
    """
    d = check_dim(d)
    if len(digits) != d + 1:
        raise ValueError(f"expected {d + 1} digits, got {len(digits)}")
    flat = 0
    for x in digits:
        flat = flat * d + _check_index("digit", x, 0, d - 1)
    return flat


def haar_state(d, rng):
    """Haar-random single-qudit pure state.

    Drawn as an i.i.d. standard complex Gaussian vector, normalized; the
    real parts are drawn before the imaginary parts.  A draw of norm zero
    (probability 0 for a numpy Generator) is refused with ValueError, not
    redrawn, so the call ends after one draw.  Linear independence of repeated
    draws holds with probability 1 and is not checked.
    """
    d = check_dim(d)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    if not (norm := np.linalg.norm(v)) > 0.0:
        raise ValueError("haar_state drew a zero vector")
    return v / norm


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state of the full (d+1)-qudit register, as
    product_state, build_povm_vector and LowRankPovmElement.vectors make it.

    Immutable after construction; the amplitude buffer is copied and
    marked read-only so instances are safe to share across threads.
    """

    d: int
    amps: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amps, dtype=np.complex128)
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)


def product_state(factors):
    """Tensor product of d+1 single-qudit states, probe factor first, for d
    at most DENSE_MAX_D.  The factors pass _check_factors, the rule
    overlap_with_product shares, which divides each by its norm.
    """
    d = check_dense_dim(len(factors := list(factors)) - 1)
    return StateVector(d, functools.reduce(np.kron, _check_factors(d, factors)))


def inner_product(a, b):
    """<a|b> with the first argument conjugated."""
    if a.d != b.d:
        raise ValueError(f"dimension mismatch: d={a.d} vs d={b.d}")
    return complex(np.vdot(a.amps, b.amps))


def state_to_dict(state):
    """JSON-ready form: {"d": int, "amps": (D, 2) float64 array}.

    Row i of `amps` holds (re, im) of flat amplitude i; jsonio.dumps
    renders it as the nested list [[re, im], ...].  `amps` is a read-only
    view of the state's own buffer, not a copy.
    """
    return {"d": state.d, "amps": state.amps.view(np.float64).reshape(-1, 2)}
