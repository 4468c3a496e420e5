"""Two-prover commitment scheme toolkit.

Implements the CHSH^n string/bit commitment scheme over GF(2^n), its
multi-round self-composition, optimal classical attack strategies, and
exact analyzers for the binding and hiding properties, plus a networked
mode with verifier-side round deadlines.
"""

from .field import FieldSpec
from .scheme import BOT, SchemeParams

__all__ = ["FieldSpec", "SchemeParams", "BOT"]
__version__ = "0.1.0"
