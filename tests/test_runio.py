import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fbsplab import runio
from fbsplab.cli import main
from fbsplab.runio import SPLIT_MIN_VALUES, write_csv
from fbsplab.signals import Waveform
from fbsplab.wavio import write_wav


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


@pytest.fixture
def two_cpus(monkeypatch):
    """The helper pids os.fork returned; the split runs whatever CPUs the host has."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(runio, "_cpu_count", lambda: 2)
    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def _spread(rows, cols):
    """Floats of every magnitude, so the 17-digit fields vary in width."""
    rng = np.random.default_rng(rows)
    return rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-300, 300, (rows, cols))


def _powers_of_ten():
    """1e-5 to 1e17, where fixed notation starts and ends, and their float64 neighbours."""
    powers = np.array([float(f"1e{p}") for p in range(-5, 18)])
    near = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    return np.concatenate([near, -near]).reshape(6, -1)


@pytest.mark.parametrize("matrix", [
    np.array([[1e-05, 1e+17, -0.0, 3.0, -23.025850929940457],
              [0.1, -1e-300, 2.0 ** 60, 1.0 / 3.0, 7.0]]),
    np.array([[1e-05], [-0.0], [12.0]]),  # one column
    np.empty((0, 3)),  # no rows
    (np.arange(12.0).reshape(3, 4) / 7.0).T,  # column-major, as a spectrogram's values
    # the split writer's sizes
    _spread(SPLIT_MIN_VALUES - 1, 1),  # one value short of the threshold (2**17 - 1 is prime)
    _spread(SPLIT_MIN_VALUES // 256, 256),  # exactly the threshold
    _spread(SPLIT_MIN_VALUES // 128 + 1, 128),  # an odd row count
    _spread(1, SPLIT_MIN_VALUES + 3),  # a single row wider than the threshold
    np.empty((0, SPLIT_MIN_VALUES + 1)),  # no rows
    np.log(np.random.default_rng(1).random((2 * SPLIT_MIN_VALUES // 129 + 1, 129))).T,
    np.random.default_rng(2).standard_normal((129, 124)),  # a short_calls spectrogram
    _powers_of_ten(),
    # exact ties at the 17th digit, rounded half to even: odd quarters above 1e15,
    # odd eighths above 1e14
    np.array([1e15 + (2 * np.arange(64) + 1) / 4, -1e14 - (2 * np.arange(64) + 1) / 8]),
    np.array([[0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, np.inf, -np.inf, np.nan,
               1.7976931348623157e308, -1.7976931348623157e308]]),
])
def test_float_matrix_writes_the_bytes_of_the_per_value_path(tmp_path, two_cpus, matrix):
    header = [f"c{j}" for j in range(matrix.shape[1])]
    write_csv(str(tmp_path / "values.csv"), header, matrix.tolist())
    write_csv(str(tmp_path / "matrix.csv"), header, matrix)
    assert (tmp_path / "matrix.csv").read_bytes() == (tmp_path / "values.csv").read_bytes()
    assert len(two_cpus) == (matrix.size >= SPLIT_MIN_VALUES)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["matrix.csv", "values.csv"]


def _per_value_bytes(matrix):
    return "".join(",".join(map(runio.format_value, row)) + "\n"
                   for row in matrix.tolist()).encode()


@settings(max_examples=300, deadline=None, database=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=9), elements=(
    st.integers(0, 2 ** 64 - 1).map(lambda bits: np.array(bits, np.uint64).view(np.float64))
    | st.floats(-1e18, 1e18))))
def test_matrix_path_writes_the_per_value_bytes_of_any_float64(matrix):
    assert b"".join(runio._row_lines(matrix)) == _per_value_bytes(matrix)


def test_log_powers_rarely_fall_back_to_the_per_value_path(monkeypatch):
    # a spectrogram_long matrix at n_fft 1,024: a path that sent every value through
    # format_value would write the same bytes, only slower
    matrix = np.log(np.random.default_rng(3).random((1873, 513)) ** 4 + 1e-10).T
    calls = []
    real = runio.format_value
    monkeypatch.setattr(runio, "format_value", lambda value: calls.append(value) or real(value))
    text = b"".join(runio._row_lines(matrix))
    assert len(calls) < 0.01 * matrix.size
    monkeypatch.setattr(runio, "format_value", real)
    assert text == _per_value_bytes(matrix)


# ---------------------------------------------------------------------------
# large float arrays: the lower half of the rows is formatted in a forked helper
# ---------------------------------------------------------------------------

def test_a_spectrogram_long_sized_matrix_forks_one_helper(tmp_path, two_cpus):
    matrix = np.random.default_rng(4).standard_normal((1873, 257)).T
    write_csv(str(tmp_path / "s.csv"), [f"frame_{t}" for t in range(1873)], matrix)
    assert len(two_cpus) == 1
    assert [p.name for p in tmp_path.iterdir()] == ["s.csv"]
    with pytest.raises(ChildProcessError):
        os.waitpid(two_cpus[0], os.WNOHANG)  # the helper was reaped


def test_rows_and_one_cpu_write_a_large_matrix_without_a_fork(tmp_path, two_cpus, monkeypatch):
    matrix = np.random.default_rng(5).standard_normal((257, 1873))
    write_csv(str(tmp_path / "rows.csv"), ["c"] * 1873, iter(matrix.tolist()))
    monkeypatch.setattr(runio, "_cpu_count", lambda: 1)
    write_csv(str(tmp_path / "one_cpu.csv"), ["c"] * 1873, matrix)
    assert two_cpus == []
    assert (tmp_path / "one_cpu.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def _fail_in_the_helper(monkeypatch):
    """Make the row formatter raise in any process but this one."""
    parent, real_row_lines = os.getpid(), runio._row_lines

    def row_lines_failing_in_the_helper(rows):
        if os.getpid() != parent:
            raise RuntimeError("formatting failed in the helper")
        return real_row_lines(rows)

    monkeypatch.setattr(runio, "_row_lines", row_lines_failing_in_the_helper)


def test_a_failed_helper_raises_oserror_naming_the_path(tmp_path, two_cpus, monkeypatch):
    _fail_in_the_helper(monkeypatch)
    path = tmp_path / "s.csv"
    with pytest.raises(OSError, match=f"could not write {path}: the helper process"):
        write_csv(str(path), ["c"] * 300, np.ones((SPLIT_MIN_VALUES // 300 + 1, 300)))
    assert len(two_cpus) == 1
    assert [p.name for p in tmp_path.iterdir()] == ["s.csv"]  # no temporary file
    with pytest.raises(ChildProcessError):
        os.waitpid(two_cpus[0], os.WNOHANG)


def test_spectrogram_exits_2_when_the_helper_fails(tmp_path, capsys, two_cpus, monkeypatch):
    # 4,096 frames of 33 filters at n_fft 64, hop 1: a matrix that splits
    wav = tmp_path / "in.wav"
    write_wav(str(wav), Waveform(np.sin(0.01 * np.arange(4096 + 63)), 8000))
    _fail_in_the_helper(monkeypatch)
    out = tmp_path / "s.csv"
    assert main(["spectrogram", "--input", str(wav), "--n-fft", "64", "--hop", "1",
                 "--out", str(out)]) == 2
    assert f"error: could not write {out}: the helper process" in capsys.readouterr().err
    assert len(two_cpus) == 1


def test_split_write_holds_no_copy_of_the_file_text(tmp_path, two_cpus):
    # the array twin of test_write_csv_holds_no_copy_of_the_file_text
    matrix = np.random.default_rng(0).standard_normal((1000, 500))
    path = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        write_csv(str(path), [f"frame_{t}" for t in range(500)], matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(two_cpus) == 1
    assert peak < os.path.getsize(path) / 20
