"""The shared key-table reader, and writer/reader key parity: each writer
writes exactly the key paths its reader's table names."""

import json

import pytest

from nettom import agents as ag
from nettom import cyberenv as ce
from nettom import dataset as ds
from nettom import graph_core as gc
from nettom.errors import DataError
from nettom.jsonkeys import Key, number_map, number_vector, read_keys

TABLE = {
    "count": Key(int, bounds=(0, 3)),
    "ratio": Key(float, 0.5),
    "names": Key(list, (), item=str),
    "inner": Key({"a": Key(int)}, None),
    "rows": Key(list, (), item={"id": Key(str)}),
    "by_id": Key(dict, None, item={"x": Key(int)}),
    "vectors": Key(dict, None, convert=number_map),
}


class TestReadKeys:
    def test_reads_every_kind(self):
        got = read_keys({"count": 2, "ratio": 1, "names": ["a", "b"], "inner": {"a": 1},
                         "rows": [{"id": "r"}], "by_id": {"k": {"x": 3}},
                         "vectors": {"0.5": [1, 0.0]}}, TABLE)
        assert got == {"count": 2, "ratio": 1.0, "names": ("a", "b"), "inner": {"a": 1},
                       "rows": ({"id": "r"},), "by_id": {"k": {"x": 3}},
                       "vectors": {"0.5": (1.0, 0.0)}}
        assert type(got["ratio"]) is float
        assert read_keys({"count": 0}, TABLE) == {
            "count": 0, "ratio": 0.5, "names": (), "inner": None, "rows": (),
            "by_id": None, "vectors": None}

    @pytest.mark.parametrize("obj, message", [
        ({"count": 1, "extra": 2},
         "unknown key extra (known: count, ratio, names, inner, rows, by_id, vectors)"),
        ({}, "count: required field is missing"),
        ({"count": True}, "count: expected int, got bool"),
        ({"count": 1.0}, "count: expected int, got float"),
        ({"count": 4}, "count: must be >= 0 and at most 3, got 4"),
        ({"count": -1}, "count: must be >= 0 and at most 3, got -1"),
        ({"count": 1, "ratio": False}, "ratio: expected float, got bool"),
        ({"count": 1, "ratio": "0.5"}, "ratio: expected float, got str"),
        ({"count": 1, "ratio": 10**400}, "ratio: expected float, got int"),
        ({"count": 1, "names": "a"}, "names: expected list, got str"),
        ({"count": 1, "names": ["a", 1]}, "names[1]: expected str, got int"),
        ({"count": 1, "inner": []}, "inner: expected an object, got list"),
        ({"count": 1, "inner": {"a": 1, "b": 2}}, "unknown key inner.b (known: a)"),
        ({"count": 1, "inner": {}}, "inner.a: required field is missing"),
        ({"count": 1, "inner": {"a": None}}, "inner.a: expected int, got null"),
        ({"count": 1, "rows": [{"id": "r"}, {"id": 3}]}, "rows[1].id: expected str, got int"),
        ({"count": 1, "by_id": {"k": {"x": "1"}}}, "by_id[k].x: expected int, got str"),
        ({"count": 1, "by_id": {"k": 1}}, "by_id[k]: expected an object, got int"),
        ({"count": 1, "by_id": []}, "by_id: expected an object, got list"),
        ({"count": 1, "vectors": {"0.5": [True]}}, "vectors[0.5] must be a list of numbers"),
        ([], "not a JSON object, got list"),
    ])
    def test_refusal_names_the_key_path(self, obj, message):
        with pytest.raises(ValueError) as info:
            read_keys(obj, TABLE)
        assert str(info.value) == message

    def test_where_prefixes_every_path(self):
        with pytest.raises(ValueError, match=r"^config\.inner\.a: expected int"):
            read_keys({"count": 1, "inner": {"a": None}}, TABLE, "config")
        with pytest.raises(ValueError, match=r"^config: expected an object, got int$"):
            read_keys(3, TABLE, "config")
        with pytest.raises(ValueError, match=r"^unknown key config\.x \(known: "):
            read_keys({"count": 1, "x": 1}, TABLE, "config")

    @pytest.mark.parametrize("value", [[True], ["1"], [None], (1.0,), {"0": 1.0},
                                       [10**400], "1"])
    def test_number_vector_refuses_non_numbers(self, value):
        with pytest.raises(ValueError, match="^P must be a list of numbers$"):
            number_vector(value, "P")

    def test_number_vector_reads_ints_as_floats(self):
        vec = number_vector([1, 0.5, 0], "P")
        assert vec == (1.0, 0.5, 0.0) and all(type(x) is float for x in vec)


def _table_paths(table, at=""):
    """Every key path a table names; ``[]`` stands for any list index or
    any key of an object keyed by id."""
    paths = set()
    for name, key in table.items():
        path = f"{at}.{name}" if at else name
        paths.add(path)
        if isinstance(key.kind, dict):
            paths |= _table_paths(key.kind, path)
        elif isinstance(key.item, dict):
            paths |= _table_paths(key.item, path + "[]")
    return paths


def _written_paths(obj, table, at=""):
    """Every key path of the written object ``obj``, walked into each nested
    object, list item and map value that ``table`` reads as a table."""
    paths = set()
    for name, value in obj.items():
        path = f"{at}.{name}" if at else name
        paths.add(path)
        key = table.get(name)
        if key is not None and isinstance(key.kind, dict):
            paths |= _written_paths(value, key.kind, path)
        elif key is not None and isinstance(key.item, dict):
            for item in value.values() if isinstance(value, dict) else value:
                paths |= _written_paths(item, key.item, path + "[]")
    return paths


@pytest.fixture(scope="module")
def tiny_build(tmp_path_factory):
    """Two one-current games on tree30: blue.sleep's current episode becomes
    a sample and blue.isolate's is excluded, so every list the manifest
    writes has an item."""
    out = tmp_path_factory.mktemp("tiny")
    config = ds.DatasetConfig(
        blues=("blue.sleep", "blue.isolate"),
        reds=(ag.parse_red_id("red.hvt_pref_sp:alpha=0.01,seed=5,index=0"),),
        networks=("tree30",), master_seed=0, n_c=1, n_p=1, n_past=1, past_k=2)
    manifest = ds.build_dataset(config, out)
    assert manifest.samples and manifest.excluded
    return out


class TestWriterReaderParity:
    def test_manifest_keys(self, tiny_build):
        written = json.loads((tiny_build / "manifest.json").read_text(encoding="utf-8"))
        assert _written_paths(written, ds.MANIFEST_KEYS) == _table_paths(ds.MANIFEST_KEYS)

    def test_trajectory_header_keys(self, tiny_build):
        for path in sorted((tiny_build / "episodes").iterdir()):
            with open(path, encoding="utf-8") as fh:
                header = json.loads(fh.readline())
            assert _written_paths(header, ce.HEADER_KEYS) == _table_paths(ce.HEADER_KEYS)

    def test_network_keys(self):
        for name in gc.TOPOLOGIES:
            written = json.loads(gc.network_to_json_str(gc.topology(name)[0]))
            assert _written_paths(written, gc.NETWORK_KEYS) == _table_paths(gc.NETWORK_KEYS)

    def test_a_key_the_table_lacks_shows(self, tiny_build, tmp_path):
        written = json.loads((tiny_build / "manifest.json").read_text(encoding="utf-8"))
        written["samples"][0]["note"] = "x"
        assert _written_paths(written, ds.MANIFEST_KEYS) ^ _table_paths(ds.MANIFEST_KEYS) == {
            "samples[].note"}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(written), encoding="utf-8")
        with pytest.raises(DataError, match=r"unknown key samples\[0\]\.note \(known: "):
            ds.read_manifest(path)
