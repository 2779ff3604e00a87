"""The word kernel the engines call on reduced words (growthlab._purewords)."""

from __future__ import annotations

from growthlab._purewords import (
    concat_reduce,
    free_key_payload,
    invert_word,
    pow_word,
    substitute,
)

HAVE_COMPILED = False
