"""scalemetrics: commit-history production scaling analysis.

Heavy-tail exponent estimation, windowed team metrics under competing
team definitions, ranked-contribution (Zipf) oracles, and critical-cascade
detection, with synthetic generators closing the loop for end-to-end tests.
"""

from .cascades import *
from .ingest import *
from .metrics import *
from .scaling import *
from .simulate import *
from .tails import *
from .windows import *

__version__ = "0.1.0"
