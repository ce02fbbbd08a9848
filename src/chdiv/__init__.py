from .core import (Block, Valuation, Instance, Solution, BalanceReport,
                   balance, verify, encoded_value, truncate,
                   disjoint_copies, rat, rat_str)
from . import core, dp, greedy, lp, simplex, oracle, tucker, fixp
