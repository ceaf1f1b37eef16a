import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topoflux.config import resolve
from topoflux.dynamics import Trajectory
from topoflux.experiments import run_evolution
from topoflux.output import (
    emit_outputs,
    read_trajectory_csv,
    write_matrix_csv,
    write_trajectory_csv,
    write_trajectory_svg,
)
from topoflux.presets import scenario_preset
from writer_oracle import matrix_csv_text, trajectory_csv_text, trajectory_svg_text

SUBNORMAL = 5e-324


def make_trajectory(times, rho11, rho22, rho12, rho21, trace, purity, min_eig):
    return Trajectory(
        times=np.array(times, dtype=float),
        rho11=np.array(rho11, dtype=complex),
        rho22=np.array(rho22, dtype=complex),
        rho12=np.array(rho12, dtype=complex),
        rho21=np.array(rho21, dtype=complex),
        trace=np.array(trace, dtype=float),
        purity=np.array(purity, dtype=float),
        min_eigenvalue=np.array(min_eig, dtype=float),
        final_state=np.eye(4, dtype=complex) / 4,
    )


def assert_writers_match_oracle(traj, tmp_path):
    csv = write_trajectory_csv(traj, tmp_path / "traj.csv")
    svg = write_trajectory_svg(traj, tmp_path / "traj.svg")
    assert csv.read_bytes() == trajectory_csv_text(traj).encode()
    assert svg.read_bytes() == trajectory_svg_text(traj).encode()


@pytest.mark.parametrize("name", ["fig2a", "fig2b", "altParams"])
def test_preset_files_match_oracle(tmp_path, name):
    assert_writers_match_oracle(run_evolution(resolve(scenario_preset(name))), tmp_path)


# rho12 columns for rho21 = conj(rho12); np.negative(np.nan) is a NaN with its sign bit set
MIRRORED = np.array(
    [
        complex(-0.0, 0.0),
        complex(np.negative(np.nan), -0.0),
        complex(SUBNORMAL, -SUBNORMAL),
        complex(math.inf, math.inf),
        complex(-1e-310, -math.inf),
    ]
)
MIRRORED_NAN = np.array([complex(0.25, -0.0), complex(0.5, np.negative(np.nan)), 1j])
PURE_IMAGINARY = np.array([0j, 0.5j, complex(0.0, -0.0)])

EDGE_CASES = {
    # one sample: t_span falls back to 1e-30 and the point sits on the axis
    "single-sample": make_trajectory(
        [0.25], [0.5 + 0.1j], [0.5], [0.25j], [-0.25j], [1.0], [0.75], [-1e-17]
    ),
    "negative-zero": make_trajectory(
        [-0.0, 0.5, 1.0],
        [complex(-0.0, -0.0), 0.5, 1.0],
        [1.0, 0.5, complex(-0.0, 0.0)],
        [complex(-0.0, -0.0), 0.5j, -0.0],
        [0.0, -0.5j, complex(0.0, -0.0)],
        [1.0, -0.0, 1.0],
        [1.0, 0.5, -0.0],
        [-0.0, 0.0, -0.0],
    ),
    # the SVG clamps populations and |rho12| to [0, 1]; the CSV keeps them
    "out-of-range": make_trajectory(
        [0.0, 0.1, 0.2, 0.3],
        [-0.3, 1.7, -1e-12, 1.0 + 1e-12],
        [2.0, -2.0, 0.999999, 1e-7],
        [1.5 + 1.5j, -0.2, 0.3 - 0.4j, -3.0j],
        [1.5 - 1.5j, -0.2, 0.3 + 0.4j, 3.0j],
        [1.0000001, 0.9999999, 1.0, 1.0],
        [1.2, -0.1, 1.0, 0.5],
        [-0.2, -1e-9, 0.0, 0.3],
    ),
    "subnormal-and-huge": make_trajectory(
        [0.0, SUBNORMAL, 1e-300, 1e300],
        [SUBNORMAL, 1e300, -SUBNORMAL, complex(1e-310, -1e300)],
        [1e300, SUBNORMAL, complex(0.0, SUBNORMAL), -1e300],
        [complex(SUBNORMAL, SUBNORMAL), 1e300j, 2.2250738585072014e-308, 1e-320],
        [complex(-SUBNORMAL, 1e300), 0.0, 1e300, -1e-320],
        [1e300, SUBNORMAL, 1.0, -SUBNORMAL],
        [SUBNORMAL, 1e300, 1.0, 0.5],
        [-1e300, -SUBNORMAL, 0.0, 1e-310],
    ),
    # x pixels 83.075 and 94.415 lie on rounding ties: computing (t - t0) * 540 / t_span
    # instead of (t - t0) / t_span * 540 moves each by one ulp and prints it .01 apart
    "pixel-ties": make_trajectory(
        [0.0, 14.88375, 19.98675, 243.0],
        [0.25, 0.5, 0.75, 1.0],
        [0.75, 0.5, 0.25, 0.0],
        [0.0, 0.5, 0.5j, 0.0],
        [0.0, 0.5, -0.5j, 0.0],
        [1.0, 1.0, 1.0, 1.0],
        [1.0, 0.5, 0.5, 1.0],
        [0.0, 0.0, 0.0, 0.0],
    ),
    # rho21 = conj(rho12) bit for bit: the writer formats re_rho12 and im_rho12 and reuses
    # their cells, im_rho21's with the sign toggled; the sign-bit NaN sits in the real part,
    # whose copy keeps its bits, and ±0.0, ±inf and subnormals in the negated imaginary part
    "mirrored": make_trajectory(
        [0.0, 0.25, 0.5, 0.75, 1.0],
        [0.5, 0.25, 1.0, 0.0, 0.5],
        [0.5, 0.75, 0.0, 1.0, 0.5],
        MIRRORED,
        np.conj(MIRRORED),
        [1.0] * 5,
        [1.0] * 5,
        [0.0] * 5,
    ),
    # a sign-bit NaN in im_rho12: its negation holds a NaN, whose repr drops the sign, so
    # im_rho21 is formatted on its own and prints "nan" too, never "-nan"
    "mirrored-nan": make_trajectory(
        [0.0, 0.5, 1.0],
        [1.0, 0.5, 0.0],
        [0.0, 0.5, 1.0],
        MIRRORED_NAN,
        np.conj(MIRRORED_NAN),
        [1.0] * 3,
        [1.0] * 3,
        [0.0] * 3,
    ),
    # im_rho11, im_rho22, re_rho12 and re_rho21 are all +0.0, so three columns share the
    # first one's cells through a tee of a tee, and im_rho21 = -im_rho12 toggles each sign
    "repeated-zero": make_trajectory(
        [0.0, 0.5, 1.0],
        [1.0, 0.5, 0.0],
        [0.0, 0.5, 1.0],
        PURE_IMAGINARY,
        np.conj(PURE_IMAGINARY),
        [1.0, 1.0, 1.0],
        [1.0, 0.5, 1.0],
        [0.0, -0.0, 0.0],
    ),
    # a NaN in the values prints as "nan" in the CSV and the SVG alike
    "nan": make_trajectory(
        [0.0, 0.5, 1.0],
        [0.0, complex(math.nan, 0.0), 1.0],
        [1.0, 0.5, math.nan],
        [0.0, 0.5j, complex(math.nan, math.nan)],
        [0.0, -0.5j, 0.0],
        [1.0, 1.0, math.nan],
        [1.0, math.nan, 0.5],
        [0.0, math.nan, -0.0],
    ),
}


@pytest.mark.parametrize("case", EDGE_CASES)
def test_edge_values_match_oracle(tmp_path, case):
    assert_writers_match_oracle(EDGE_CASES[case], tmp_path)


# finite floats of every magnitude, subnormals and both zeros included; times
# stay below 1e300 so that t[-1] - t[0] cannot overflow
VALUE = st.floats(-1e300, 1e300)
COMPLEX = st.builds(complex, VALUE, VALUE)


@st.composite
def trajectories(draw):
    n = draw(st.integers(1, 8))
    complex_columns = [draw(st.lists(COMPLEX, min_size=n, max_size=n)) for _ in range(4)]
    real_columns = [draw(st.lists(VALUE, min_size=n, max_size=n)) for _ in range(3)]
    if draw(st.booleans()):
        # as evolve gives it: the writer reuses rho12's cells for rho21
        complex_columns[3] = [z.conjugate() for z in complex_columns[2]]
    times = sorted(draw(st.lists(VALUE, min_size=n, max_size=n)))
    return make_trajectory(times, *complex_columns, *real_columns)


@given(trajectories())
@settings(max_examples=100, deadline=None)
def test_finite_values_match_oracle(tmp_path_factory, traj):
    assert_writers_match_oracle(traj, tmp_path_factory.mktemp("writers"))


MATRIX_HEADER = ["eta_per_ns", "F1_gprime_over_g_0", "F1_gprime_over_g_3"]
MATRIX_CASES = {
    # an int cell prints as a float (0 -> 0.0), as repr(float(x)) does
    "mixed": [
        [0, 0.9871234567890123, -0.0],
        [0.5, math.nan, SUBNORMAL],
        [1e300, 1.0, 0.1],
    ],
    "zero-rows": [],
    # the second column repeats the first, the third negates it: both reuse its cells
    "equal-and-negated": [
        [1, 1.0, -1],
        [-0.0, -0.0, 0.0],
        [SUBNORMAL, SUBNORMAL, -SUBNORMAL],
        [-math.inf, -math.inf, math.inf],
    ],
}


@pytest.mark.parametrize("case", MATRIX_CASES)
def test_matrix_csv_matches_oracle(tmp_path, case):
    rows = MATRIX_CASES[case]
    path = write_matrix_csv(MATRIX_HEADER, rows, tmp_path / "sweep.csv")
    assert path.read_bytes() == matrix_csv_text(MATRIX_HEADER, rows).encode()


def test_matrix_csv_cells(tmp_path):
    mixed = write_matrix_csv(MATRIX_HEADER, MATRIX_CASES["mixed"], tmp_path / "mixed.csv")
    assert mixed.read_text().splitlines() == [
        "eta_per_ns,F1_gprime_over_g_0,F1_gprime_over_g_3",
        "0.0,0.9871234567890123,-0.0",
        "0.5,nan,5e-324",
        "1e+300,1.0,0.1",
    ]
    empty = write_matrix_csv(MATRIX_HEADER, [], tmp_path / "empty.csv")
    assert empty.read_text() == ",".join(MATRIX_HEADER) + "\n"


@pytest.mark.parametrize(
    "header, rows, bad",
    [
        # a short row would cut the third column from every row
        (["a", "b", "c"], [[1, 2, 3], [4, 5]], 1),
        # long rows would write three cells under two names
        (["a", "b"], [[1, 2, 3], [4, 5, 6]], 0),
    ],
)
def test_matrix_csv_refuses_ragged_rows(tmp_path, header, rows, bad):
    path = tmp_path / "sweep.csv"
    with pytest.raises(ValueError, match=f"^row {bad} has {len(rows[bad])} cells"):
        write_matrix_csv(header, rows, path)
    assert not path.exists()


def test_trajectory_csv_reader_refuses_another_header(tmp_path):
    path = write_matrix_csv(["t", "rho11"], [[0.0, 1.0]], tmp_path / "sweep.csv")
    with pytest.raises(ValueError, match="unexpected CSV header"):
        read_trajectory_csv(path)


def test_emit_outputs_refuses_an_empty_trajectory(tmp_path):
    traj = make_trajectory(*[[]] * 8)
    with pytest.raises(ValueError, match="cannot emit an empty trajectory"):
        emit_outputs(traj, tmp_path / "out", "fig2a", ("csv", "svg", "json"), {})
    assert not (tmp_path / "out").exists()


def test_trajectory_csv_peak_memory(tmp_path):
    # the cells are formatted a row at a time, so the writer's peak stays a few times the
    # file: 3.5 times on fig2a; 5.1 times when every cell was held at once, and 5.2 times
    # with one repr per column and no reuse
    traj = run_evolution(resolve(scenario_preset("fig2a")))
    write_trajectory_csv(traj, tmp_path / "warm.csv")
    tracemalloc.start()
    try:
        path = write_trajectory_csv(traj, tmp_path / "traj.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(path.read_bytes())
