import csv
import io
from decimal import Decimal
import tracemalloc
import warnings
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catprep import files, tomography
from catprep.cli import write_scan_csv
from catprep.rsp import TARGET_KINDS
from catprep.wigner import write_grid_csv

# every float, with -0.0, subnormals, the largest magnitudes and integers-as-floats drawn often
FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e308, -1e308,
                     1.7976931348623157e308, 0.1, 1 / 3]),
    st.integers(-(2**60), 2**60).map(float),
)


def csv_writer_bytes(rows) -> bytes:
    """The bytes csv.writer gives for rows whose floats are formatted to 17 digits."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    for row in rows:
        writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])
    return buf.getvalue().encode()


@settings(max_examples=60, deadline=None)
@given(n_x=st.integers(0, 5), n_p=st.integers(0, 5), data=st.data())
def test_grid_csv_bytes_match_csv_writer(tmp_path_factory, n_x, n_p, data):
    xs = data.draw(st.lists(FLOATS, min_size=n_x, max_size=n_x))
    ps = data.draw(st.lists(FLOATS, min_size=n_p, max_size=n_p))
    values = [data.draw(st.lists(FLOATS, min_size=n_x, max_size=n_x)) for _ in range(n_p)]
    path = tmp_path_factory.mktemp("grid") / "wigner.csv"
    write_grid_csv(np.array(xs), np.array(ps), np.array(values).reshape(n_p, n_x), path)
    assert path.read_bytes() == csv_writer_bytes([["xs"] + xs, ["ps"] + ps] + values)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(FLOATS, st.sampled_from(TARGET_KINDS), FLOATS), max_size=20))
def test_scan_csv_bytes_match_csv_writer(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("scan") / "fig.csv"
    write_scan_csv([r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows], path)
    assert path.read_bytes() == csv_writer_bytes([["param", "target", "fidelity"]] + rows)


@settings(max_examples=60, deadline=None)
@given(pairs=st.lists(st.tuples(FLOATS, FLOATS), max_size=20))
# %.17g writes 0.0 as 0 and -0.0 as -0: each zero must keep its own text, wherever it sits
@example(pairs=[(0.0, 1.0), (-0.0, 2.0), (0.0, -0.0), (-0.0, 0.0), (-0.0, 0.5), (0.0, 0.25)])
@example(pairs=[(-0.0, 1.0), (0.0, 2.0), (-0.0, 3.0)])
@example(pairs=[(t, 0.1 * k) for k, t in enumerate(
    (0.0, -0.0, 5e-324, -5e-324, 0.1, 1 / 3, -1e308, 1.7976931348623157e308,
     float("inf"), float("-inf"), float("nan"), 2.0**60))])  # every theta distinct
def test_records_csv_bytes_match_csv_writer(tmp_path_factory, pairs):
    path = tmp_path_factory.mktemp("records") / "records.csv"
    thetas, qs = [a for a, _ in pairs], [q for _, q in pairs]
    tomography.write_records((np.array(thetas), np.array(qs)), path)
    assert path.read_bytes() == csv_writer_bytes([["theta_rad", "q"]] + pairs)



def test_records_with_few_distinct_thetas_match_csv_writer(tmp_path):
    # thetas from a small pool, each formatted once: zeros of both signs, two NaN
    # payloads and the 12 phases, over more rows than one FORMAT_BLOCK holds
    nan2 = np.array(0x7FF8000000000123, np.int64).view(float)
    pool = np.array([0.0, -0.0, np.nan, nan2, *(np.arange(12) * np.pi / 12)])
    rng = np.random.default_rng(3)
    n = 3 * files.FORMAT_BLOCK // 2 + 7
    thetas, qs = rng.permutation(np.resize(pool, n)), rng.standard_normal(n)
    path = tmp_path / "records.csv"
    tomography.write_records((thetas, qs), path)
    rows = [["theta_rad", "q"]] + list(zip(thetas.tolist(), qs.tolist()))
    assert path.read_bytes() == csv_writer_bytes(rows)


def sample_values(kind: str, seed: int, size: int) -> np.ndarray:
    """size floats of one kind, both signs; every kind reaches the % fallback somewhere."""
    rng = np.random.default_rng(seed)
    sign = rng.choice([-1.0, 1.0], size)
    if kind == "bits":  # every float64 alike, NaN payloads and subnormals included
        return rng.integers(0, 2**64, size, dtype=np.uint64).view(np.float64)
    if kind == "powers":  # 10^e and its two float neighbours
        base = 10.0 ** rng.integers(-300, 301, size)
        towards = np.array([0.0, np.inf])[rng.integers(0, 2, size)]
        return sign * np.where(rng.random(size) < 1 / 3, base, np.nextafter(base, towards))
    if kind == "near_ties":  # (N + 1/2) 10^-s for 15- to 17-digit N
        n = rng.integers(10**14, 10**17, size)
        return sign * (n + 0.5) / 10.0 ** rng.integers(0, 40, size)
    if kind == "exact_ties":  # odd multiples of 1/8 from 2^49: 18 digits ending in 5
        return sign * (rng.integers(2**52, 2**53, size) | 1) * 2.0**-3
    if kind == "special":  # subnormals, zeros, infinities and NaN among ordinary values
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310,
                            2.2250738585072014e-308])
        return np.where(rng.random(size) < 0.5, special[rng.integers(0, special.size, size)],
                        rng.standard_normal(size))
    return sign * np.exp(rng.uniform(-250, 40, size))  # "magnitudes": 1e-108 to 2e17


def texts(cells: np.ndarray) -> list[str]:
    return [bytes(row[row != 0]).decode() for row in cells]


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["bits", "powers", "near_ties", "exact_ties", "special", "magnitudes"]),
       seed=st.integers(0, 2**32 - 1), size=st.integers(1, 5000),
       block=st.sampled_from([1, 7, None]))
def test_formatter_matches_percent(tmp_path_factory, kind, seed, size, block):
    values = sample_values(kind, seed, size)
    want = ["%.17g" % v for v in values.tolist()]
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # the Dekker split overflows nowhere
        assert texts(files._g17(values)) == want
        # through the writer too, FORMAT_BLOCK values at a time
        path = tmp_path_factory.mktemp("g17") / "values.csv"
        with mock.patch.object(files, "FORMAT_BLOCK", block or files.FORMAT_BLOCK):
            files.write_csv(path, (values.reshape(-1, 1 + (size % 2 == 0)),))
    rows = np.array(want).reshape(-1, 1 + (size % 2 == 0))
    assert path.read_bytes() == "".join(",".join(r) + "\r\n" for r in rows).encode()


def test_formatter_on_every_power_of_ten():
    base = 10.0 ** np.arange(-300, 301)
    values = np.concatenate([base, np.nextafter(base, 0), np.nextafter(base, np.inf)])
    values = np.concatenate([values, -values])
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert texts(files._g17(values)) == ["%.17g" % v for v in values.tolist()]


def test_formatter_sends_ties_of_the_inexact_product_to_percent():
    # exact ties, 18 digits ending in 5, past 10^22, where the power is a double-double;
    # only 10^23 and 10^24 meet them: odd r 2^-24 from 1e-7 to 1e-6, odd r 2^-25 below 1e-7
    values = np.array([r * 2.0**-24 for r in range(3, 17, 2)] + [2.0**-25, 3 * 2.0**-25])
    for v in values.tolist():
        digits = Decimal(v).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5
    values = np.concatenate([values, -values])
    assert texts(files._g17(values)) == ["%.17g" % v for v in values.tolist()]


def test_formatter_chooses_the_exponent_from_the_exact_product():
    # 1e-06 lies just below 10^-6, and |x| 10^22 rounds to exactly 1e16: its digits
    # are those of |x| 10^23, in the decade below
    assert texts(files._g17(np.array([1e-06, -1e-06, 1e-05, 0.0001]))) == [
        "9.9999999999999995e-07", "-9.9999999999999995e-07", "1.0000000000000001e-05", "0.0001"]


def traced_peak(write) -> int:
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writers_memory(tmp_path):
    # the peaks of the writers that formatted with one % operation: 4.4 MB for the
    # default 241 x 241 grid and 6.3 MB for 50 000 records
    rng = np.random.default_rng(7)
    axis = np.linspace(-6.0, 6.0, 241)
    values = rng.standard_normal((241, 241)) * 0.05
    path = tmp_path / "wigner.csv"
    assert traced_peak(lambda: write_grid_csv(axis, axis.copy(), values, path)) <= 4.4e6
    records = (rng.choice(np.arange(12) * np.pi / 12, 50_000), rng.standard_normal(50_000))
    assert traced_peak(lambda: tomography.write_records(records, tmp_path / "records.csv")) <= 6.3e6
