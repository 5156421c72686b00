"""Applications written against the LambdaObjects public API.

- :mod:`repro.apps.retwis` — the microblogging service from the paper's
  Listing 1 and evaluation (§2, §3.2, §5);
- :mod:`repro.apps.bank` — digital payments, the strong-consistency
  motivation of §2.
"""

from repro.apps.retwis import user_type
from repro.apps.bank import account_type

__all__ = ["account_type", "user_type"]
