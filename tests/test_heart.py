import numpy as np
import pytest

import poismoe as pm
from poismoe.errors import DataFormatError

# Synthetic rows in the processed-file layout (14 attributes, "?" for
# missing); values are made up and only exercise the format contract.
COMPLETE_1 = "63.0,1.0,1.0,145.0,233.0,1.0,2.0,150.0,0.0,2.3,3.0,0.0,6.0,0"
MISSING_CA = "67.0,1.0,4.0,160.0,286.0,0.0,2.0,108.0,1.0,1.5,2.0,?,3.0,2"
COMPLETE_2 = "41.0,0.0,2.0,130.0,204.0,0.0,2.0,172.0,0.0,1.0,2.0,0.0,3.0,2"
MISSING_OLDPEAK = "56.0,1.0,2.0,120.0,236.0,0.0,0.0,178.0,0.0,?,1.0,0.0,3.0,1"
COMPLETE_3 = "57.0,0.0,4.0,120.0,354.0,0.0,0.0,163.0,1.0,0.5,1.0,0.0,3.0,4"


def write_heart_file(tmp_path, lines, name="heart.csv"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


def test_loader_drops_rows_with_any_missing_value(tmp_path):
    path = write_heart_file(tmp_path, [COMPLETE_1, MISSING_CA, COMPLETE_2,
                                       MISSING_OLDPEAK, COMPLETE_3])
    data = pm.load_heart_dataset(path)
    assert data.n == 3
    assert data.X[0, 1] == 2.3 and data.X[0, 2] == 3.0
    assert np.array_equal(data.y, [0, 2, 4])


def test_dataset_layout_numeric_encoding(tmp_path):
    path = write_heart_file(tmp_path, [COMPLETE_1, COMPLETE_2, COMPLETE_3])
    data = pm.load_heart_dataset(path)
    assert data.n == 3
    assert data.p == data.q == 3
    assert np.allclose(data.X[:, 0], 1.0)
    assert np.allclose(data.X[:, 1], [2.3, 1.0, 0.5])
    assert np.allclose(data.X[:, 2], [3.0, 2.0, 1.0])
    assert np.array_equal(np.asarray(data.X), np.asarray(data.Omega))
    assert np.array_equal(data.y, [0, 2, 4])


def test_dataset_dummy_encoding(tmp_path):
    path = write_heart_file(tmp_path, [COMPLETE_1, COMPLETE_2, COMPLETE_3])
    data = pm.load_heart_dataset(path, slope_encoding="dummy")
    assert data.p == 4
    assert np.array_equal(data.X[:, 2], [0.0, 1.0, 0.0])  # slope == 2
    assert np.array_equal(data.X[:, 3], [1.0, 0.0, 0.0])  # slope == 3


def test_wrong_column_count_reports_line_number(tmp_path):
    path = write_heart_file(tmp_path, [COMPLETE_1, "1.0,2.0,3.0"])
    with pytest.raises(DataFormatError, match="line 2"):
        pm.load_heart_dataset(path)


def test_unparseable_value_reports_line_number(tmp_path):
    bad = COMPLETE_2.replace("1.0,2.0,0.0,3.0,2", "abc,2.0,0.0,3.0,2")
    path = write_heart_file(tmp_path, [COMPLETE_1, bad])
    with pytest.raises(DataFormatError, match="line 2"):
        pm.load_heart_dataset(path)


@pytest.mark.parametrize("field, value", [(9, "nan"), (10, "inf"),
                                          (13, "nan")])
def test_non_finite_value_reports_line_number(tmp_path, field, value):
    row = COMPLETE_2.split(",")
    row[field] = value  # oldpeak, slope, stage
    path = write_heart_file(tmp_path, [COMPLETE_1, ",".join(row)])
    with pytest.raises(DataFormatError, match="line 2: non-finite"):
        pm.load_heart_dataset(path)


def test_out_of_range_stage_rejected(tmp_path):
    bad = COMPLETE_1[:-1] + "5"
    path = write_heart_file(tmp_path, [bad])
    with pytest.raises(DataFormatError, match="line 1"):
        pm.load_heart_dataset(path)


def test_empty_file_rejected(tmp_path):
    path = write_heart_file(tmp_path, [""])
    with pytest.raises(DataFormatError):
        pm.load_heart_dataset(path)
