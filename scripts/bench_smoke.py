"""Fast perf smoke pass: run the ``perf_smoke`` marked tests at a tiny scale.

A cheap pre-merge guard that the vectorized kernels still beat their
``_reference`` twins and that a warm cache beats a cold build (the cache
check builds at scale 0.05), without paying for a full benchmark run
(``perfbench/``).

Usage:
    PYTHONPATH=src python scripts/bench_smoke.py [extra pytest args...]
"""

from __future__ import annotations

import sys

import pytest


def main(argv: list[str]) -> int:
    return pytest.main(["-m", "perf_smoke", "-q", *argv])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
