import os
import tracemalloc

import numpy as np
import pytest

from fbsplab.runio import write_csv


def test_write_csv_streams_a_generator_to_exact_bytes(tmp_path):
    path = tmp_path / "t.csv"
    rows = ([i, np.int64(i), 0.1 * i, np.float64(-2.5) ** i, "x", i % 2 == 0] for i in range(3))
    write_csv(str(path), ["i", "n", "f", "g", "s", "b"], rows)
    assert path.read_bytes() == (b"i,n,f,g,s,b\n"
                                 b"0,0,0,1,x,True\n"
                                 b"1,1,0.10000000000000001,-2.5,x,False\n"
                                 b"2,2,0.20000000000000001,6.25,x,True\n")


def test_write_csv_holds_no_copy_of_the_file_text(tmp_path):
    # 1,000 rows of 500 floats make a 10 MB file; building its lines first
    # peaks at about three times that, writing row by row at under 1%
    rows = np.random.default_rng(0).standard_normal((1000, 500)).tolist()
    path = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        write_csv(str(path), [f"frame_{t}" for t in range(500)], rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < os.path.getsize(path) / 20


@pytest.mark.parametrize("matrix", [
    np.array([[1e-05, 1e+17, -0.0, 3.0, -23.025850929940457],
              [0.1, -1e-300, 2.0 ** 60, 1.0 / 3.0, 7.0]]),
    np.array([[1e-05], [-0.0], [12.0]]),  # one column
    np.empty((0, 3)),  # no rows
    (np.arange(12.0).reshape(3, 4) / 7.0).T,  # column-major, as a spectrogram's values
])
def test_float_matrix_writes_the_bytes_of_the_per_value_path(tmp_path, matrix):
    header = [f"c{j}" for j in range(matrix.shape[1])]
    write_csv(str(tmp_path / "values.csv"), header, matrix.tolist())
    write_csv(str(tmp_path / "matrix.csv"), header, matrix)
    assert (tmp_path / "matrix.csv").read_bytes() == (tmp_path / "values.csv").read_bytes()

