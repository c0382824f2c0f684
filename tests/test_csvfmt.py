"""csvfmt's block formatter against the row-wise "%" reference, byte for byte."""

import numpy as np
import pytest

from pipenet import TimeSeries, csvfmt

PRECISIONS = range(1, 18)


def reference(rows, p, labels=None):
    return csvfmt.rowwise(rows, p, labels).encode()


def hard_values(rng):
    """Every class of double the fast path must either decide right or hand to "%"."""
    bits = rng.integers(0, 2 ** 64, size=4000, dtype=np.uint64).view(np.float64)
    special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308,
               2.2250738585072009e-308, 1.7976931348623157e308, 9.999995e-5, 999999.5,
               9.5, 0.95, 0.0001, 0.00001, 99999.95, 1e16, 1e15 - 0.5]
    decades = np.array([float(f"1e{k}") for k in range(-323, 309)])
    neighbours = np.concatenate([decades, np.nextafter(decades, 0), np.nextafter(decades, np.inf)])
    # k + 1/2 at p digits for every p, exact and scaled, and their one-ulp neighbours
    ties = []
    for p in PRECISIONS:
        k = rng.integers(10 ** (p - 1), 10 ** p, size=40).astype(float) + 0.5
        for scale in (1.0, 10.0, 1e3, 1e-1, 1e-3, 1e-7, 1e20, 1e-20, 2.0 ** -10):
            ties.append(k * scale)
    ties = np.concatenate(ties)
    ties = np.concatenate([ties, np.nextafter(ties, 0), np.nextafter(ties, np.inf)])
    # 10^n - 1/2 (and neighbours) carry into the next decade when rounded
    carries = np.array([(10.0 ** p - 0.5) * 10.0 ** s for p in PRECISIONS for s in range(-12, 12)])
    carries = np.concatenate([carries, np.nextafter(carries, 0), np.nextafter(carries, np.inf)])
    normal = rng.standard_normal(2000) * 10.0 ** rng.integers(-12, 12, size=2000)
    values = np.concatenate([bits, special, neighbours, ties, carries, normal])
    return np.concatenate([values, -values])


@pytest.fixture(scope="module")
def values():
    return hard_values(np.random.default_rng(12))


@pytest.mark.parametrize("p", PRECISIONS)
def test_block_matches_percent_on_hard_values(values, p):
    rows = values[: values.size // 7 * 7].reshape(-1, 7)
    assert csvfmt.block(rows, p) == reference(rows, p)


@pytest.mark.parametrize("p", PRECISIONS)
def test_block_matches_percent_with_labels(values, p):
    rows = values[:300].reshape(-1, 3)
    labels = [f"P{i}.r.q" for i in range(len(rows))]
    assert csvfmt.block(rows, p, labels) == reference(rows, p, labels)


def _shapes():
    c, b = csvfmt.CROSSOVER, csvfmt.BLOCK_CELLS
    return [(1, 1), (1, 9), (9, 1), (1, c - 1), (1, c), (c - 1, 1), (c, 1), (c + 1, 1),
            (b // 7 - 1, 7), (b // 7, 7), (b // 7 + 1, 7), (2 * b // 7 + 3, 7), (3, b + 5)]


@pytest.mark.parametrize("shape", _shapes(), ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("p", [1, 6, 10, 14, 17])
def test_table_matches_percent_at_every_size(values, shape, p):
    rows = np.resize(values, shape)
    header = [f"c{j}" for j in range(shape[1])]
    want = (",".join(header) + "\n").encode() + reference(rows, p)
    assert b"".join(csvfmt.table(header, rows, p)) == want


def test_table_of_no_rows_is_its_header():
    assert b"".join(csvfmt.table(["t", "y"], np.empty((0, 2)), 6)) == b"t,y\n"


def test_blocks_hold_whole_rows(values):
    rows = np.resize(values, (3 * (csvfmt.BLOCK_CELLS // 5), 5))
    blocks = list(csvfmt.table(["a"] * 5, rows, 6))[1:]
    assert len(blocks) == 3
    assert all(block.endswith(b"\n") for block in blocks)
    assert max(block.count(b"\n") for block in blocks) == csvfmt.BLOCK_CELLS // 5


def test_time_series_csv_matches_savetxt(values, tmp_path):
    rows = np.resize(values, (1500, 4))
    TimeSeries(rows[:, 0], rows[:, 1:], ("a", "b", "c")).to_csv(tmp_path / "ts.csv")
    np.savetxt(tmp_path / "ref.csv", rows, fmt="%.12g", delimiter=",", newline="\n",
               header="t,a,b,c", comments="")
    assert (tmp_path / "ts.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
