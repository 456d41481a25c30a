"""Operation counting: closed forms and instrumented cross-checks."""

import csv

import pytest

from sidlab import cli
from sidlab import (
    CodebookSpec,
    OpsRow,
    count_softmax_ops,
    measure_lookup_counts,
    ops_sweep,
    write_csv,
)


class TestClosedForms:
    def test_reference_shape(self):
        got = count_softmax_ops(CodebookSpec(k=3, X=256))
        assert got.ntp_ops == 768
        assert got.full_ops == 16777216
        assert got.ratio == 16777216 / 768

    def test_k_one_has_no_advantage(self):
        got = count_softmax_ops(CodebookSpec(k=1, X=64))
        assert got.ntp_ops == got.full_ops == 64
        assert got.ratio == 1.0

    @pytest.mark.parametrize("k,X", [(2, 2), (2, 16), (3, 4), (4, 8)])
    def test_counts_are_k_X_and_X_to_the_k(self, k, X):
        got = count_softmax_ops(CodebookSpec(k=k, X=X))
        assert got.ntp_ops == k * X
        assert got.full_ops == X**k
        assert got.ratio == X**k / (k * X)


class TestInstrumentedCounts:
    @pytest.mark.parametrize("k,X", [(1, 2), (2, 3), (3, 4), (2, 8)])
    def test_lookup_counter_matches_closed_forms(self, k, X):
        spec = CodebookSpec(k=k, X=X)
        ntp_entries, fv_entries = measure_lookup_counts(spec)
        assert ntp_entries == k * X
        assert fv_entries == k * spec.sequence_space_size

    def test_sweep_rows_are_complete(self):
        rows = ops_sweep([1, 2, 3], [2, 4], C=1)
        assert len(rows) == 6
        for row in rows:
            assert row.ntp_ops == row.k * row.X
            assert row.full_ops == row.X**row.k
            assert row.ntp_entries_closed == row.k * row.X
            assert row.fv_entries_closed == row.k * row.X**row.k
            assert row.ntp_entries_counted == row.ntp_entries_closed
            assert row.fv_entries_counted == row.fv_entries_closed

    def test_sweep_skips_instrumentation_over_the_cap(self):
        # k=4, X=64 has 17M table entries, over MAX_TABLE_ENTRIES; nothing is allocated
        small, row = ops_sweep([4], [2, 64], C=1)
        assert small.ntp_entries_counted == small.ntp_entries_closed
        assert row.ntp_entries_counted is None
        assert row.fv_entries_counted is None
        assert row.full_ops == 64**4  # closed forms are always present

    def test_ops_csv_layout(self, tmp_path):
        rows = ops_sweep([4], [2, 64], C=1)
        path = tmp_path / "ops.csv"
        write_csv(path, cli._columns(OpsRow, rows))
        with open(path, newline="") as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0][:6] == ["k", "X", "C", "ntp_ops", "full_ops", "ratio"]
        assert len(parsed) == 3
        # X = 64 overruns the cap, so its counted columns are blank
        assert parsed[2][6] == "" and parsed[2][7] == ""
        assert parsed[1][6] != ""

    def test_ops_csv_header_without_rows(self, tmp_path):
        # an empty sweep still names its columns, from OpsRow's fields
        path = tmp_path / "ops.csv"
        write_csv(path, cli._columns(OpsRow, ops_sweep([], [2], C=1)))
        assert path.read_text().splitlines() == [
            "k,X,C,ntp_ops,full_ops,ratio,ntp_entries_counted,fv_entries_counted,"
            "ntp_entries_closed,fv_entries_closed"]
