"""Planted-fault catalogue: which verify checks a wrong Z table fails.

Each case plants one fault in the Z coefficient tables in-process, by
wrapping ``lorentz_harmonics._angular_row``: it changes tables of the plain
(rapidity-side) rows, and the alternating (rotation-side) rows, which the
cached original builds from the plain row through the module's own name,
follow.  The run is ``verify all`` at lmax 6 and grid density 4, and each
case names the checks whose unflagged records then fail, so a new check
that catches a fault shows up here.  The faults at l = 5 pass the default
config (lmax 3), whose checks stop at l = 3.

Negating one k's table in every row of a weight is no fault of Z: the two
sides' signs cancel in every product, so each case changes one row.
"""

import functools

import pytest

from poincarewaves import lorentz_harmonics
from poincarewaves.suites import SuiteConfig, run_suite

ORIGINAL_ROW = lorentz_harmonics._angular_row

#: The Z layer's caches, cleared before and after each fault.
CACHES = ("_angular_row", "_z_table", "_side_block", "_series_block",
          "_validated_doubled")


def clear_caches():
    for name in CACHES:
        getattr(lorentz_harmonics, name).cache_clear()


def plain_tables(change):
    """An ``_angular_row`` whose plain rows hold change(L, A, K, table) for
    each table; the alternating rows follow."""
    def row(L, A, alternating):
        tables = ORIGINAL_ROW(L, A, alternating)
        if alternating:
            return tables
        return tuple(change(L, A, K, table)
                     for K, table in zip(range(-L, L + 1, 2), tables))
    return row


def one_table(L0, A0, K0, factor):
    """Every coefficient of the table (L0, A0, K0), doubled, times factor."""
    return plain_tables(lambda L, A, K, table: tuple(
        (p, q, factor * c) for p, q, c in table)
        if (L, A, K) == (L0, A0, K0) else table)


def unsigned(L, A, alternating):
    """The rotation side at l = 2 without its (-1)^j signs."""
    return ORIGINAL_ROW(L, A, alternating and L != 4)


@pytest.mark.parametrize("row, caught", [
    # The wrapping alone fails nothing.
    pytest.param(ORIGINAL_ROW.__wrapped__, set(), id="no-fault"),
    pytest.param(plain_tables(lambda L, A, K, table: tuple(
        (p, q, c * (1 + 1e-6) if p - (A - K) // 2 == 2 else c)
        for p, q, c in table)),
        {"cross_formula", "casimir", "unitarity", "legendre"},
        id="j1-coefficient-scaled"),
    pytest.param(unsigned, {"cross_formula", "casimir", "unitarity", "legendre"},
                 id="l2-rotation-sign-dropped"),
    pytest.param(one_table(4, 0, 0, 1.001), {"identity", "unitarity", "casimir"},
                 id="l2-a0-k0-table-scaled"),
    pytest.param(one_table(4, 2, 0, -1.0), {"unitarity", "legendre"},
                 id="l2-a1-k0-table-negated"),
    pytest.param(one_table(10, 0, 0, 1.001), {"identity", "unitarity"},
                 id="l5-a0-k0-table-scaled"),
    pytest.param(one_table(10, 2, 0, -1.0), {"unitarity"},
                 id="l5-a1-k0-table-negated"),
])
def test_planted_table_faults_fail_these_checks(monkeypatch, row, caught):
    clear_caches()
    monkeypatch.setattr(lorentz_harmonics, "_angular_row",
                        functools.lru_cache(maxsize=None)(row))
    try:
        failed = {record.check_name for _, record in run_suite(
            "all", SuiteConfig(lmax=6, grid_density=4))
            if not (record.passed or record.flagged)}
    finally:
        monkeypatch.undo()
        clear_caches()
    assert failed == caught
