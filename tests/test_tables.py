"""The column formatter: its float kernel against repr, and its line-at-a-time fallback."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoflow import ingest, tables


def kernel_lines(values) -> bytes | None:
    """The kernel's text of each value, one per line; None if the kernel refuses them."""
    values = np.asarray(values, dtype=np.float64)
    parts = tables._float_text(values)
    if parts is None:
        return None
    matrix = np.concatenate([*parts, np.full((len(values), 1), ord("\n"), dtype=np.uint8)], axis=1)
    return matrix[matrix != 0].tobytes()


def repr_lines(values) -> bytes:
    return "".join(f"{x!r}\n" for x in np.asarray(values, dtype=np.float64).tolist()).encode()


def in_kernel_range(x: float) -> bool:
    return x == 0 or 1e-4 <= abs(x) < 2.0**50


def assert_kernel_is_repr(values) -> None:
    """The kernel takes every value and writes repr's text; a failure names the first value it gets wrong."""
    values = np.asarray(values, dtype=np.float64)
    if kernel_lines(values) != repr_lines(values):
        bad = next(x for x in values.tolist() if kernel_lines([x]) != repr_lines([x]))
        pytest.fail(f"{bad!r}: the kernel wrote {kernel_lines([bad])!r}")


finite = st.floats(allow_nan=False, allow_infinity=False)
in_range = st.floats(1e-4, 2.0**50, exclude_max=True).flatmap(lambda x: st.sampled_from([x, -x]))


@settings(max_examples=400)
@given(st.lists(finite | in_range, min_size=1, max_size=30))
def test_float_text_is_repr(values):
    for x in values:
        assert kernel_lines([x]) == (repr_lines([x]) if in_kernel_range(x) else None), x
    # Rows of every width side by side in one matrix; any value out of range sends the block to repr.
    assert kernel_lines(values) == (repr_lines(values) if all(map(in_kernel_range, values)) else None)
    assert b"".join(tables.csv_blocks([np.array(values)])) == repr_lines(values)


def test_float_text_matches_repr_on_a_million_bit_patterns():
    rng = np.random.default_rng(2018)
    n = 1 << 20
    sign = rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
    exponent = rng.integers(1009, 1073, n, dtype=np.uint64) << np.uint64(52)  # 2**-14 <= |x| < 2**50
    values = (sign | exponent | rng.integers(0, 1 << 52, n, dtype=np.uint64)).view(np.float64)
    values = values[np.abs(values) >= 1e-4]  # below 1e-4 repr takes exponent form: the kernel refuses those
    assert len(values) > 1_000_000
    for start in range(0, len(values), 1 << 16):
        assert_kernel_is_repr(values[start : start + (1 << 16)])


def halfway_dyadics(rng: np.random.Generator) -> np.ndarray:
    """n + t / 2**s for odd t, exact: some lie halfway between two shortest decimals, as 562949953421312.25
    does between ...312.2 and ...312.3, and repr takes the even one."""
    out = []
    for top in range(36, 50):
        for s in range(1, 53 - top):  # n * 2**s + t < 2**53, so each value is exact
            n = rng.integers(1 << top, 1 << (top + 1), 64, dtype=np.int64)
            t = rng.integers(0, 1 << (s - 1), 64, dtype=np.int64) * 2 + 1
            out.append(np.ldexp(((n << s) + t).astype(np.float64), -s))
    return np.concatenate(out)


def test_float_text_matches_repr_on_edge_cases():
    powers = 2.0 ** np.arange(-14, 50)
    cases = np.concatenate([
        [0.0, -0.0, 1e-4, 2.0**-14, 1.0, 0.1, 0.3, 2.0**50 - 0.125, 1e15, 999999999999999.9, 0.00012345678901234567],
        powers,
        np.nextafter(powers, 0),
        np.nextafter(powers, np.inf),
        [np.nextafter(1e-4, 1)],
        halfway_dyadics(np.random.default_rng(7)),
        np.round(np.random.default_rng(3).uniform(-180, 180, 10_000), 6),  # coordinates as people write them
    ])
    cases = cases[[in_kernel_range(x) for x in cases.tolist()]]
    assert_kernel_is_repr(cases)
    assert_kernel_is_repr(-cases)
    assert kernel_lines([562949953421312.25, 562949953421312.75]) == b"562949953421312.2\n562949953421312.8\n"


@pytest.mark.parametrize("x", [
    5e-324, 2.2250738585072014e-308, 2.0**-14 * 0.75, np.nextafter(1e-4, 0), 5e-05,
    2.0**50, np.nextafter(2.0**50, np.inf), 1e16, 1e300, float("nan"), float("inf"), float("-inf"),
])
def test_out_of_range_floats_take_the_repr_path(x):
    assert kernel_lines([x]) is None
    assert kernel_lines([-x]) is None
    block = [1.5, x, -2.25]
    assert b"".join(tables.csv_blocks([np.array(block)])) == repr_lines(block)


def test_int_text_is_str():
    values = np.array([0, 7, -7, 10, 9999, 10_000, -10_001, 1_341_100_800, 2**62, 2**63 - 1, -(2**63)], np.int64)
    assert b"".join(tables.csv_blocks([values])) == "".join(f"{v}\n" for v in values.tolist()).encode()


def table_lines(columns) -> bytes:
    """The f-string rendering of a csv_blocks table."""
    cells = [[c[0][k] for k in c[1].tolist()] if isinstance(c, tuple) else c.tolist() for c in columns]
    return "".join(",".join(map(str, [f"{v!r}" if isinstance(v, float) else v for v in row])) + "\n"
                   for row in zip(*cells)).encode()


@pytest.mark.parametrize("odd_name", [None, "nul\0name", "x" * 65, "ü€𝄞"])
@pytest.mark.parametrize("block", [1, 5, 4096])
def test_csv_blocks_write_what_f_strings_write(monkeypatch, block, odd_name):
    # A block with a NUL or a name over _MAX_NAME_BYTES goes line by line; its neighbours do not.
    rng = np.random.default_rng(block)
    monkeypatch.setattr(ingest, "BLOCK_ROWS", block)
    names = ["", "a", "user_17", "x" * 64, "é"] + ([odd_name] if odd_name else [])
    n = 40
    columns = [
        (names, rng.integers(0, len(names), n)),
        rng.integers(-(10**12), 10**12, n),
        np.array([round(x, digits) for x, digits in zip(rng.uniform(-90, 90, n).tolist(), range(n))]),
        rng.choice([0.0, -0.0, 1e-4, 123456.789, 2.0**49 + 0.5, 3e-05], n),
        (names, np.full(n, -1)),
    ]
    assert b"".join(tables.csv_blocks(columns)) == table_lines(columns)


def test_csv_blocks_write_bools_as_fmt_does():
    # On both paths: the matrix, and the line loop that a NaN sends the block to.
    flags = np.array([True, False])
    assert b"".join(tables.csv_blocks([flags, np.array([1.5, 2.0])])) == b"true,1.5\nfalse,2.0\n"
    assert b"".join(tables.csv_blocks([flags, np.array([np.nan, 2.0])])) == b"true,nan\nfalse,2.0\n"


cell_names = st.sampled_from(["", "a", "user_17", "x" * 64, "\u00e9", "nul\0name", "x" * 65])


@settings(max_examples=300)
@given(st.lists(st.tuples(st.booleans(), in_range | st.floats(), st.integers(-(2**63), 2**63 - 1), cell_names),
                min_size=1, max_size=40))
def test_csv_blocks_write_what_write_rows_writes(rows):
    """Every kind of column csv_blocks takes, in the bytes of tables.fmt a row at a time, as write_rows writes
    them: a float out of the kernel's range (NaN, infinities, subnormals) sends the block to the line loop."""
    flags, floats, integers, cells = (list(column) for column in zip(*rows))
    vocabulary = sorted(set(cells))
    columns = [np.array(flags), np.array(floats), np.array(integers, dtype=np.int64),
               (vocabulary, np.array([vocabulary.index(cell) for cell in cells]))]
    want = "".join(",".join(map(tables.fmt, row)) + "\n" for row in rows).encode()
    assert b"".join(tables.csv_blocks(columns)) == want
