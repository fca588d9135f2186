"""Random small economies and the flag type shared by the experiment scripts.

Values and bounds are uniform integers in ``[0, max_value]``; each cap is
drawn at or above its floor.  The scripts put ``src`` on ``sys.path``
before importing this module.
"""

import argparse

from rigidmarket import validate_economy

ITEM_LETTERS = "abcdefgh"


def random_economy(rng, n_buyers, n_real, max_value=8):
    names = ("o",) + tuple(ITEM_LETTERS[:n_real])
    rows = [
        tuple([0] + [rng.randint(0, max_value) for _ in range(n_real)])
        for _ in range(n_buyers)
    ]
    lower = [0]
    upper = [0]
    for _ in range(n_real):
        lo = rng.randint(0, max_value)
        lower.append(lo)
        upper.append(rng.randint(lo, max_value))
    return validate_economy(names, rows, tuple(lower), tuple(upper))


def int_at_least(low):
    """An argparse ``type``: an integer no smaller than ``low``, else a usage error."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below {low}")
        return value

    return parse
