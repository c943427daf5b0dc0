"""Table IO determinism and configuration loading."""

import json

import numpy as np
import pytest

from geoflow import ingest, tables
from geoflow.config import ConfigError, default_config, load_config
from geoflow.ingest import GeoEvent
from geoflow.tables import fmt, read_capitals, read_census, read_json, read_rows, write_json, write_rows
from helpers import read_events, read_reference, table_of, write_events

# ---------------------------------------------------------------- cells and rows


def test_fmt_cases():
    assert fmt(None) == ""
    assert fmt(0.1) == "0.1"
    assert fmt(1 / 3) == "0.3333333333333333"
    assert fmt(True) == "true"
    assert fmt(False) == "false"
    assert fmt(42) == "42"
    assert fmt("x") == "x"


def test_rows_round_trip(tmp_path):
    path = str(tmp_path / "t.csv")
    write_rows(path, ["a", "b"], [[1, 0.5], [None, "z"]])
    assert read_rows(path, {"a": tables.COUNT.or_empty(), "b": tables.NAME}) == {"a": [1, None], "b": ["0.5", "z"]}


def test_rows_writer_is_byte_stable(tmp_path):
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    rows = [[1.5, "x"], [2.25, "y"]]
    write_rows(p1, ["v", "s"], rows)
    write_rows(p2, ["v", "s"], rows)
    assert open(p1, "rb").read() == open(p2, "rb").read()
    assert open(p1, "rb").read().endswith(b"\n")
    assert b"\r" not in open(p1, "rb").read()


def test_rows_header_mismatch(tmp_path):
    path = str(tmp_path / "t.csv")
    write_rows(path, ["a", "b"], [[1, 2]])
    with pytest.raises(ValueError, match="header"):
        read_rows(path, {"a": tables.NAME, "c": tables.NAME})


def test_empty_table_rejected(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_rows(str(path), {"a": tables.NAME})


def test_json_round_trip_sorted(tmp_path):
    path = str(tmp_path / "o.json")
    write_json(path, {"b": 1, "a": [1.5, None]})
    text = open(path, encoding="utf-8").read()
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")
    assert read_json(path) == {"a": [1.5, None], "b": 1}


# ---------------------------------------------------------------- event tables


def events_fixture():
    return [
        GeoEvent("u1", 100, -33.5, 18.25, "app_a", "ZA"),
        GeoEvent("u1", 2000, 48.857142857142854, 2.3, "app_a", None),
        GeoEvent("u2", 150, 0.0, 180.0, "app_b", "FJ"),
    ]


def test_events_round_trip_with_country(tmp_path):
    path = str(tmp_path / "ev.csv")
    write_events(path, events_fixture())
    assert read_events(path) == events_fixture()


MULTIBYTE_EVENTS = [  # 1- to 4-byte UTF-8 in user ids and sources
    GeoEvent("ü€𝄞", 100, -33.5, 18.25, "app_wéb", "ZA"),
    GeoEvent("u1", 2000, 48.857142857142854, 2.3, "应用", "FR"),
    GeoEvent("ü2", 150, 0.0, 180.0, "app_b", "FJ"),
    GeoEvent("𝄞", 7, 1.0, -2.5, "𝄞app", "FJ"),
    GeoEvent("u1", 9, 3.0, 4.0, "app_b", "FR"),
]


@pytest.mark.parametrize("block", [1, 2, 3, 4096])
def test_event_writer_offsets_are_byte_offsets(tmp_path, monkeypatch, block):
    monkeypatch.setattr(ingest, "BLOCK_ROWS", block)
    table = table_of(MULTIBYTE_EVENTS)
    path = tmp_path / "labeled.csv"
    tables.write_events(str(path), table)
    data, ends = path.read_bytes(), tables.line_ends(str(path))
    lines = data.splitlines(keepends=True)
    assert ends.tolist() == np.cumsum([len(line) for line in lines]).tolist() and len(lines) == len(table) + 1
    assert [data[a:b].decode() for a, b in zip(ends[:-1].tolist(), ends[1:].tolist())] == data.decode().splitlines(
        keepends=True
    )[1:]
    rows = np.array([3, 0, 4])
    copied = tmp_path / "copied.csv"
    tables.write_events(str(copied), table.take(rows), tables.EventLines(str(path), ends, rows))
    tables.write_events(str(tmp_path / "formatted.csv"), table.take(rows))
    assert copied.read_bytes() == (tmp_path / "formatted.csv").read_bytes()
    copied_data, copied_ends = copied.read_bytes(), tables.line_ends(str(copied))
    assert [copied_data[a:b] for a, b in zip(copied_ends[:-1].tolist(), copied_ends[1:].tolist())] == [
        lines[k + 1] for k in rows.tolist()
    ]


def test_line_ends_need_a_final_line_end(tmp_path):
    path = tmp_path / "events.csv"
    path.write_bytes(b"user_id,timestamp,lat,lon,source,country\nu1,1,0.0,0.0,app,AA")
    with pytest.raises(ValueError, match="no line end"):
        tables.line_ends(str(path))


def test_read_events_is_strict(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("user_id,timestamp,lat,lon,source\nu1,xx,0,0,app\n")
    with pytest.raises(ValueError, match="timestamp"):
        read_events(str(path))


# ---------------------------------------------------------------- reference inputs


def test_read_census(tmp_path):
    path = tmp_path / "census.csv"
    path.write_text("code,population,gdp_per_capita\nza,52000000,7500.5\nFR,65000000,\n")
    populations, gdp = read_census(str(path))
    assert populations == {"ZA": 52000000, "FR": 65000000}
    assert gdp == {"ZA": 7500.5}


def test_read_census_field_count(tmp_path):
    path = tmp_path / "census.csv"
    path.write_text("code,population\nZA\n")
    with pytest.raises(ValueError):
        read_census(str(path))


def test_read_capitals(tmp_path):
    path = tmp_path / "capitals.csv"
    path.write_text("code,lat,lon\nza,-25.75,28.19\nFR,48.86,2.35\n")
    assert read_capitals(str(path)) == {"ZA": (-25.75, 28.19), "FR": (48.86, 2.35)}


def test_read_reference_column_select(tmp_path):
    path = tmp_path / "ref.csv"
    path.write_text("code,arrivals,departures\nZA,100.0,50.0\nFR,7,9\n")
    assert read_reference(str(path)) == {"ZA": 100.0, "FR": 7.0}
    assert read_reference(str(path), column=2) == {"ZA": 50.0, "FR": 9.0}
    with pytest.raises(ValueError, match="column"):
        read_reference(str(path), column=5)


@pytest.mark.parametrize(
    "read, text",
    [
        (read_census, "code,population\nAA,100\nBB,200\naa,300\n"),
        (read_capitals, "code,lat,lon\nAA,1.0,2.0\n aa ,3.0,4.0\n"),
        (read_reference, "AA,1.0\nBB,2.0\nAA,3.0\n"),
    ],
)
def test_code_tables_reject_a_repeated_code(tmp_path, read, text):
    path = tmp_path / "table.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"{path}: code AA appears on more than one row"):
        read(str(path))


@pytest.mark.parametrize(
    "read, text, cell",
    [
        (read_census, "code,population\nAA,abc\n", "'abc' is not a number"),
        (read_census, "code,population\nAA,1.5\n", "'1.5' is not a number"),
        (read_census, "code,population,gdp_per_capita\nAA,100,x\n", "'x' is not a number"),
        (read_census, "code,population,gdp_per_capita\nAA,100,nan\n", "'nan' is not finite"),
        (read_capitals, "code,lat,lon\nAA,nan,inf\n", "'nan' is not finite"),
        (read_capitals, "code,lat,lon\nAA,1.0,-inf\n", "'-inf' is not finite"),
        (read_capitals, "code,lat,lon\nAA,1.0,\n", "'' is not a number"),
        (read_capitals, "code,lat,lon\nAA,90.5,0\n", "outside |lat| <= 90"),
        (read_capitals, "code,lat,lon\nAA,0,-181\n", "outside |lat| <= 90, |lon| <= 180"),
        (read_reference, "code,arrivals\nAA,abc\n", "'abc' is not a number"),
        (read_reference, "code,arrivals\nAA,1e999\n", "'1e999' is not finite"),
        (read_reference, "AA,nan\n", "'nan' is not finite"),
    ],
)
def test_code_tables_name_the_file_and_code_of_a_bad_value(tmp_path, read, text, cell):
    path = tmp_path / "table.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as caught:
        read(str(path))
    assert str(caught.value).startswith(f"{path}: code AA: ") and cell in str(caught.value)


def test_capitals_on_the_range_bounds_are_kept(tmp_path):
    path = tmp_path / "capitals.csv"
    path.write_text("code,lat,lon\nAA,90,-180\nAB,-90.0,180.0\n")
    assert read_capitals(str(path)) == {"AA": (90.0, -180.0), "AB": (-90.0, 180.0)}


def test_code_tables_without_header_keep_their_first_row(tmp_path):
    census = tmp_path / "census.csv"
    census.write_text("za,52000000,7500.5\nFR,65000000,\n")
    assert read_census(str(census)) == ({"ZA": 52000000, "FR": 65000000}, {"ZA": 7500.5})
    capitals = tmp_path / "capitals.csv"
    capitals.write_text("za,-25.75,28.19\nFR,48.86,2.35\n")
    assert read_capitals(str(capitals)) == {"ZA": (-25.75, 28.19), "FR": (48.86, 2.35)}
    reference = tmp_path / "ref.csv"
    reference.write_text("ZA,100.0,50.0\nFR,7,9\n")
    assert read_reference(str(reference), column=2) == {"ZA": 50.0, "FR": 9.0}


def test_tables_split_lines_at_lf_only(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"a,b\r\nx\ry,1\r\nz,2\n")
    assert read_rows(str(path), {"a": tables.NAME, "b": tables.NAME}) == {"a": ["x\ry", "z"], "b": ["1", "2"]}


# ---------------------------------------------------------------- configuration


def test_defaults_pass_validation():
    config = load_config(env={})
    assert config == default_config()
    assert config["clean"]["coverage"] == 0.95
    assert config["network"]["top_k"] == 30


def test_default_config_is_a_fresh_copy():
    a = default_config()
    a["clean"]["coverage"] = 0.5
    assert default_config()["clean"]["coverage"] == 0.95


def test_file_overlay(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"seed": 7, "clean": {"coverage": 0.9}}))
    config = load_config(str(path), env={})
    assert config["seed"] == 7
    assert config["clean"]["coverage"] == 0.9
    assert config["clean"]["max_speed_kmh"] == 1000.0  # untouched default


def test_env_overrides_file(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"clean": {"coverage": 0.9}}))
    env = {"GEOFLOW_CLEAN_COVERAGE": "0.8", "GEOFLOW_SEED": "3", "OTHER": "ignored"}
    config = load_config(str(path), env=env)
    assert config["clean"]["coverage"] == 0.8
    assert config["seed"] == 3


def test_env_string_and_list_values():
    config = load_config(env={"GEOFLOW_CLEAN_WEIGHT_MODE": "events"})
    assert config["clean"]["weight_mode"] == "events"
    config = load_config(env={"GEOFLOW_SYNTH_GRAVITY": "[2.0, 0.9, 0.7, 1.1]"})
    assert config["synth"]["gravity"] == [2.0, 0.9, 0.7, 1.1]


def test_env_string_settings_are_taken_as_written():
    for raw in ("2024", "1e5", "true", "null", '"quoted"', "[1]"):
        assert load_config(env={"GEOFLOW_PATHS_WORKDIR": raw})["paths"]["workdir"] == raw


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"cleanup": {}}))
    with pytest.raises(ConfigError, match="unknown"):
        load_config(str(path), env={})
    path.write_text(json.dumps({"clean": {"coverag": 0.9}}))
    with pytest.raises(ConfigError, match="clean.coverag"):
        load_config(str(path), env={})
    with pytest.raises(ConfigError, match="GEOFLOW_CLEAN_COVERAG"):
        load_config(env={"GEOFLOW_CLEAN_COVERAG": "0.9"})
    with pytest.raises(ConfigError):
        load_config(env={"GEOFLOW_NOPE": "1"})


def test_type_errors_rejected(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"seed": "seven"}))
    with pytest.raises(ConfigError, match="integer"):
        load_config(str(path), env={})
    path.write_text(json.dumps({"clean": {"coverage": "high"}}))
    with pytest.raises(ConfigError, match="number"):
        load_config(str(path), env={})
    path.write_text(json.dumps({"synth": {"gravity": [1.0, 2.0]}}))
    with pytest.raises(ConfigError, match="4 numbers"):
        load_config(str(path), env={})
    path.write_text(json.dumps({"clean": "fast"}))
    with pytest.raises(ConfigError, match="object"):
        load_config(str(path), env={})
    # booleans are not integers here
    with pytest.raises(ConfigError):
        load_config(env={"GEOFLOW_SEED": "true"})


def test_range_errors_rejected(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"clean": {"coverage": 1.5}}))
    with pytest.raises(ConfigError, match="coverage"):
        load_config(str(path), env={})
    with pytest.raises(ConfigError, match="seed"):
        load_config(env={"GEOFLOW_SEED": "-1"})
    with pytest.raises(ConfigError, match="weight_mode"):
        load_config(env={"GEOFLOW_CLEAN_WEIGHT_MODE": "bytes"})
    for year in ("1969", "10000"):
        with pytest.raises(ConfigError, match="year"):
            load_config(env={"GEOFLOW_YEAR": year})
    assert load_config(env={"GEOFLOW_YEAR": "1970"})["year"] == 1970
    with pytest.raises(ConfigError, match="n_countries"):
        load_config(env={"GEOFLOW_SYNTH_N_COUNTRIES": "677"})
    with pytest.raises(ConfigError, match="n_blocks"):
        load_config(env={"GEOFLOW_SYNTH_N_COUNTRIES": "3", "GEOFLOW_SYNTH_N_BLOCKS": "4"})


def test_malformed_json_and_missing_file(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="valid JSON"):
        load_config(str(path), env={})
    path.write_text(json.dumps([1, 2]))
    with pytest.raises(ConfigError, match="object"):
        load_config(str(path), env={})
    with pytest.raises(FileNotFoundError):
        load_config(str(tmp_path / "absent.json"), env={})
    path.write_bytes(b'{"seed": "\xff"}')
    with pytest.raises(ConfigError, match="valid JSON"):
        load_config(str(path), env={})
    deep = "[" * 100_000 + "]" * 100_000  # past the JSON parser's recursion limit
    path.write_text(deep)
    with pytest.raises(ConfigError, match="nests too deeply"):
        load_config(str(path), env={})
    with pytest.raises(ConfigError, match="seed"):
        load_config(env={"GEOFLOW_SEED": deep})


def test_int_accepted_where_float_expected(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"clean": {"max_speed_kmh": 900}}))
    config = load_config(str(path), env={})
    assert config["clean"]["max_speed_kmh"] == 900.0
    assert isinstance(config["clean"]["max_speed_kmh"], float)


def test_interrupted_write_keeps_previous_file(tmp_path):
    path = tmp_path / "t.csv"
    write_rows(str(path), ["a"], [[1]])
    before = path.read_bytes()

    def rows():
        yield [2]
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError):
        write_rows(str(path), ["a"], rows())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
