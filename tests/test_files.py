import csv
import io

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catprep import tomography
from catprep.cli import write_scan_csv
from catprep.rsp import TARGET_KINDS
from catprep.wigner import WignerGrid, write_grid_csv

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
    write_grid_csv(WignerGrid(np.array(xs), np.array(ps), np.array(values).reshape(n_p, n_x)), path)
    assert path.read_bytes() == csv_writer_bytes([["xs"] + xs, ["ps"] + ps] + values)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(FLOATS, st.sampled_from(TARGET_KINDS), FLOATS), max_size=20))
def test_scan_csv_bytes_match_csv_writer(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("scan") / "fig.csv"
    write_scan_csv([{"param": a, "target": t, "fidelity": f} for a, t, f in rows], path)
    assert path.read_bytes() == csv_writer_bytes([["param", "target", "fidelity"]] + rows)


@settings(max_examples=60, deadline=None)
@given(pairs=st.lists(st.tuples(FLOATS, FLOATS), max_size=20))
# write_records formats each distinct theta once: 0.0 and -0.0 must keep their own text
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

