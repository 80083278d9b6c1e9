"""Cache file format: round trips, refusals, integrity verification."""

from fractions import Fraction

import pytest

from pshodge.cache import (HEADER, CacheFormatError, cache_load, cache_store,
                           cache_verify)
from pshodge.wk import WKTable


def warmed_table():
    table = WKTable()
    table.integral(1, (1,))
    table.integral(2, (4,))
    table.integral(0, (0, 0, 1, 2))
    table.integral(1, (0, 1, 3))
    return table


class TestRoundTrip:
    def test_store_then_load(self, tmp_path):
        path = tmp_path / "wk.cache"
        table = warmed_table()
        count = cache_store(path, table)
        assert count == len(table) > 0
        loaded = cache_load(path)
        assert loaded.psi_items() == table.psi_items()

    def test_loaded_lookup_results(self, tmp_path):
        path = tmp_path / "wk.cache"
        cache_store(path, warmed_table())
        loaded = cache_load(path)
        assert loaded.lookup(2, (4,)) == Fraction(1, 1152)

    def test_missing_file_is_empty(self, tmp_path):
        table = cache_load(tmp_path / "absent.cache")
        assert len(table) == 0


class TestFormat:
    def test_header_line(self, tmp_path):
        path = tmp_path / "wk.cache"
        cache_store(path, warmed_table())
        first = path.read_text().splitlines()[0]
        assert first == "PSHODGE-WKCACHE v1" == HEADER

    def test_pinned_line_encoding(self, tmp_path):
        path = tmp_path / "wk.cache"
        table = WKTable()
        table.integral(1, (1,))
        cache_store(path, table)
        assert path.read_text().splitlines()[1] == "1\t1\t1\t1\t24"

    def test_corrupted_header_refused(self, tmp_path):
        path = tmp_path / "wk.cache"
        path.write_text("PSHODGE-WKCACHE v2\n1\t1\t1\t1\t24\n")
        with pytest.raises(CacheFormatError):
            cache_load(path)

    @pytest.mark.parametrize("line", [
        "1\t1\t1\t1",              # missing field
        "1\t2\t1\t1\t24",          # n does not match exponent list
        "1\t1\t1\t1\t-24",         # negative denominator
        "1\t1\t1\t2\t48",          # not lowest terms
        "0\t2\t1,0\t1\t1",         # exponents not sorted
        "a\t1\t1\t1\t24",          # non-integer
    ])
    def test_malformed_line_reports_number(self, tmp_path, line):
        path = tmp_path / "wk.cache"
        path.write_text(HEADER + "\n" + line + "\n")
        with pytest.raises(CacheFormatError) as err:
            cache_load(path)
        assert err.value.line == 2


V1_FILE = (
    "PSHODGE-WKCACHE v1\n"
    "0\t3\t0,0,0\t1\t1\n"
    "1\t3\t0,1,2\t1\t12\n"
    "1\t2\t0,2\t1\t24\n"
    "1\t1\t1\t1\t24\n"
    "1\t2\t1,1\t1\t24\n"
    "2\t2\t2,3\t29\t5760\n"
    "2\t1\t4\t1\t1152\n"
)


class TestCompatibility:
    """A v1 file written before the memo held scaled integers."""

    def test_v1_file_loads_to_same_values(self, tmp_path):
        path = tmp_path / "v1.cache"
        path.write_text(V1_FILE)
        loaded = cache_load(path)
        assert len(loaded) == 7
        assert loaded.lookup(0, (0, 0, 0)) == 1
        assert loaded.lookup(1, (1,)) == Fraction(1, 24)
        assert loaded.lookup(1, (2, 1, 0)) == Fraction(1, 12)
        assert loaded.lookup(2, (3, 2)) == Fraction(29, 5760)
        assert loaded.lookup(2, (4,)) == Fraction(1, 1152)
        fresh = WKTable()
        for (g, d), value in loaded.psi_items():
            assert fresh.integral(g, d) == value, (g, d)

    def test_v1_file_stores_back_byte_identical(self, tmp_path):
        path = tmp_path / "v1.cache"
        path.write_text(V1_FILE)
        again = tmp_path / "again.cache"
        assert cache_store(again, cache_load(path)) == 7
        assert again.read_bytes() == path.read_bytes()


class TestVerify:
    def test_clean_cache_verifies(self, tmp_path):
        path = tmp_path / "wk.cache"
        cache_store(path, warmed_table())
        checked, mismatches = cache_verify(path, sample=10)
        assert checked > 0
        assert mismatches == []

    def test_tampered_value_detected(self, tmp_path):
        path = tmp_path / "wk.cache"
        table = WKTable()
        table.integral(1, (1,))
        cache_store(path, table)
        lines = path.read_text().splitlines()
        lines[1] = "1\t1\t1\t1\t25"
        path.write_text("\n".join(lines) + "\n")
        checked, mismatches = cache_verify(path, sample=10)
        assert checked == 1
        assert len(mismatches) == 1
        g, d, stored, again = mismatches[0]
        assert (g, d) == (1, (1,))
        assert stored == Fraction(1, 25)
        assert again == Fraction(1, 24)
