import numpy as np
import pytest

import helpers
from precisionlab import MatrixParseError, dump_symmetric_matrix, load_symmetric_matrix


def write(tmp_path, text):
    path = tmp_path / "m.txt"
    path.write_text(text)
    return path


class TestLoad:
    def test_roundtrip(self, tmp_path):
        a = helpers.random_spd(4, seed=2)
        path = write(tmp_path, dump_symmetric_matrix(a))
        assert np.array_equal(load_symmetric_matrix(path), a)

    def test_entries_near_float_max_load_finite(self, tmp_path):
        path = write(tmp_path, "2\n1.5e308 -1e308\n-1e308 1.7e308\n")
        m = load_symmetric_matrix(path)
        assert np.array_equal(m, np.array([[1.5e308, -1e308], [-1e308, 1.7e308]]))

    def test_trailing_blank_lines_ok(self, tmp_path):
        path = write(tmp_path, "2\n1 0\n0 1\n\n\n")
        assert np.array_equal(load_symmetric_matrix(path), np.eye(2))

    def test_missing_header(self, tmp_path):
        with pytest.raises(MatrixParseError) as err:
            load_symmetric_matrix(write(tmp_path, ""))
        assert err.value.line == 1

    def test_bad_header(self, tmp_path):
        with pytest.raises(MatrixParseError) as err:
            load_symmetric_matrix(write(tmp_path, "two\n1 0\n0 1\n"))
        assert err.value.line == 1

    def test_wrong_row_count(self, tmp_path):
        with pytest.raises(MatrixParseError):
            load_symmetric_matrix(write(tmp_path, "3\n1 0 0\n0 1 0\n"))

    def test_wrong_entry_count_location(self, tmp_path):
        with pytest.raises(MatrixParseError) as err:
            load_symmetric_matrix(write(tmp_path, "3\n1 0 0\n0 1\n0 0 1\n"))
        assert err.value.line == 3

    def test_bad_token_location(self, tmp_path):
        with pytest.raises(MatrixParseError) as err:
            load_symmetric_matrix(write(tmp_path, "2\n1 x\nx 1\n"))
        assert (err.value.line, err.value.column) == (2, 2)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_entry_location(self, tmp_path, token):
        text = f"3\n1 0 0\n0 1 {token}\n0 {token} 1\n"
        with pytest.raises(MatrixParseError) as err:
            load_symmetric_matrix(write(tmp_path, text))
        assert (err.value.line, err.value.column) == (3, 3)

    def test_asymmetry_rejected_with_location(self, tmp_path):
        with pytest.raises(MatrixParseError) as err:
            load_symmetric_matrix(write(tmp_path, "2\n1 0.5\n0.4 1\n"))
        assert "symmetric" in str(err.value)

    def test_zero_matrix_is_symmetric(self, tmp_path):
        assert np.array_equal(load_symmetric_matrix(write(tmp_path, "2\n0 0\n0 0\n")),
                              np.zeros((2, 2)))

    def test_missing_file(self, tmp_path):
        with pytest.raises(MatrixParseError):
            load_symmetric_matrix(tmp_path / "absent.txt")
