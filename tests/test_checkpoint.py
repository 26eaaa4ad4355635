import contextlib
import filecmp
import io
import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from topolstm import cli
from topolstm.checkpoint import load_model, save_model
from topolstm.errors import CheckpointError
from topolstm.model import Model, ModelConfig
from topolstm.numeric import ParameterStore
from topolstm.version import TOOL_VERSION


@pytest.fixture
def model():
    config = ModelConfig(hidden_dim=4, node_count=6, score_mode="precedent-only")
    return Model.initialize(config, np.random.default_rng(0))


LABELS = tuple("abcdef")
MAGIC = b"TOPOLSTM-CKPT-1\n"
FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])


def reference_save(path, model, labels, extra=None):
    """Per-slot writer following the documented format: magic line, 8-byte
    little-endian header length, sorted compact JSON header, then each slot's
    values as little-endian float64 in row-major order, slot after slot."""
    slots, payload = [], b""
    for name, arr in model.params.items():
        data = b"".join(struct.pack("<d", float(x)) for x in np.asarray(arr).ravel())
        slots.append({"name": name, "shape": list(arr.shape),
                      "offset": len(payload), "nbytes": len(data)})
        payload += data
    header = {
        "format": 1,
        "tool_version": TOOL_VERSION,
        "config": {"hidden_dim": model.config.hidden_dim,
                   "node_count": model.config.node_count,
                   "score_mode": model.config.score_mode},
        "labels": list(labels),
        "extra": extra or {},
        "slots": slots,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<Q", len(blob)) + blob + payload)


def split(data):
    """(header dict, payload bytes) of a checkpoint's bytes."""
    (n,) = struct.unpack_from("<Q", data, len(MAGIC))
    start = len(MAGIC) + 8
    return json.loads(data[start:start + n]), data[start + n:]


def join(header, payload):
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return MAGIC + struct.pack("<Q", len(blob)) + blob + payload


class TestCheckpointRoundTrip:
    def test_bit_exact(self, model, tmp_path):
        path = tmp_path / "model.bin"
        save_model(path, model, LABELS, extra={"seed": 3})
        loaded, labels, header = load_model(path)
        assert labels == LABELS
        assert loaded.config == model.config
        assert header["extra"] == {"seed": 3}
        for name, arr in model.params.items():
            np.testing.assert_array_equal(loaded.params[name], arr)

    def test_same_model_same_bytes(self, model, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_model(a, model, LABELS)
        save_model(b, model, LABELS)
        assert filecmp.cmp(a, b, shallow=False)

    def test_label_count_must_match(self, model, tmp_path):
        with pytest.raises(CheckpointError):
            save_model(tmp_path / "x.bin", model, ("a", "b"))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError, match="not a model checkpoint"):
            load_model(path)

    def test_truncated_payload_rejected(self, model, tmp_path):
        path = tmp_path / "model.bin"
        save_model(path, model, LABELS)
        data = path.read_bytes()
        path.write_bytes(data[:-64])
        with pytest.raises(CheckpointError):
            load_model(path)

    @pytest.mark.parametrize("error", [OSError(28, "No space left on device"),
                                       KeyboardInterrupt()])
    def test_a_save_cut_midway_keeps_the_old_file(self, model, tmp_path, monkeypatch, error):
        # The write fails after the header and the first slot; the earlier
        # checkpoint keeps its bytes and no temporary file is left behind.
        path = tmp_path / "checkpoint.bin"
        save_model(path, model, LABELS)
        old = path.read_bytes()
        items = ParameterStore.items

        def cut_items(store):
            slots = iter(items(store))
            yield next(slots)
            raise error

        monkeypatch.setattr(ParameterStore, "items", cut_items)
        newer = Model.initialize(model.config, np.random.default_rng(1))
        with pytest.raises(type(error)):
            save_model(path, newer, LABELS)
        assert path.read_bytes() == old
        assert list(tmp_path.iterdir()) == [path]
        monkeypatch.undo()
        save_model(path, newer, LABELS)
        reference_save(tmp_path / "reference.bin", newer, LABELS)
        assert path.read_bytes() == (tmp_path / "reference.bin").read_bytes()


class TestFormat:
    def _seeded(self):
        config = ModelConfig(hidden_dim=3, node_count=6, score_mode="all-active")
        model = Model.initialize(config, np.random.default_rng(7))
        model.params.flat[:] += np.random.default_rng(8).normal(size=model.params.flat.size)
        return model

    def test_save_matches_the_per_slot_reference_writer(self, tmp_path):
        model = self._seeded()
        reference_save(tmp_path / "ref.bin", model, LABELS, extra={"k": 1})
        save_model(tmp_path / "new.bin", model, LABELS, extra={"k": 1})
        assert (tmp_path / "new.bin").read_bytes() == (tmp_path / "ref.bin").read_bytes()

    def test_reference_file_loads_bit_exact(self, tmp_path):
        model = self._seeded()
        reference_save(tmp_path / "ref.bin", model, LABELS)
        loaded, labels, _ = load_model(tmp_path / "ref.bin")
        assert labels == LABELS
        assert loaded.params.names() == model.params.names()
        for name, arr in model.params.items():
            np.testing.assert_array_equal(loaded.params[name], arr)
        np.testing.assert_array_equal(loaded.params.flat, model.params.flat)


class TestMalformed:
    @pytest.fixture
    def data(self, model, tmp_path):
        save_model(tmp_path / "model.bin", model, LABELS)
        return (tmp_path / "model.bin").read_bytes()

    def _load(self, tmp_path, data):
        path = tmp_path / "bad.bin"
        path.write_bytes(data)
        return load_model(path)

    @pytest.mark.parametrize("cut", [len(MAGIC), len(MAGIC) + 3, len(MAGIC) + 8,
                                     len(MAGIC) + 40])
    def test_truncated_header(self, data, tmp_path, cut):
        with pytest.raises(CheckpointError):
            self._load(tmp_path, data[:cut])

    def test_payload_not_a_whole_number_of_floats(self, data, tmp_path):
        with pytest.raises(CheckpointError, match="payload holds"):
            self._load(tmp_path, data[:-3])

    def test_trailing_bytes(self, data, tmp_path):
        with pytest.raises(CheckpointError, match="payload holds"):
            self._load(tmp_path, data + b"\0" * 8)

    def test_non_finite_parameter(self, data, tmp_path):
        header, payload = split(data)
        entry = next(e for e in header["slots"] if e["name"] == "U_f_qp")
        payload = bytearray(payload)
        payload[entry["offset"]:entry["offset"] + 8] = struct.pack("<d", float("nan"))
        with pytest.raises(CheckpointError, match="non-finite.*U_f_qp"):
            self._load(tmp_path, join(header, bytes(payload)))

    def test_slots_must_be_back_to_back(self, data, tmp_path):
        header, payload = split(data)
        a, b = header["slots"][0], header["slots"][1]
        a["offset"], b["offset"] = b["offset"], a["offset"]
        with pytest.raises(CheckpointError, match="slot table"):
            self._load(tmp_path, join(header, payload))

    def test_duplicate_slot(self, data, tmp_path):
        header, payload = split(data)
        header["slots"][1] = dict(header["slots"][0], offset=header["slots"][1]["offset"])
        with pytest.raises(CheckpointError):
            self._load(tmp_path, join(header, payload))

    @pytest.mark.parametrize("blob", [b"\xff\xfe{", b"{not json", b"[1, 2]", b'"x"',
                                      b'{"config": 3}', b'{"config": {"hidden_dim": 1e999}}',
                                      {"hidden_dim": 4.9}, {"hidden_dim": "4"},
                                      {"node_count": 6.0}, {"node_count": True},
                                      ("labels", "abcdef"), ("labels", [0, 1, 2, 3, 4, 5]),
                                      ("labels", list("abcdea"))])
    def test_corrupt_header(self, data, tmp_path, blob):
        # A dict edits the saved model's config: a size that is no JSON integer
        # is refused, even where int() would give the saved one back.  A
        # ("labels", value) pair replaces the label table, which must be a
        # list of node_count distinct strings.
        if isinstance(blob, tuple):
            header, payload = split(data)
            header["labels"] = blob[1]
            with pytest.raises(CheckpointError, match="label table must be a list of 6 distinct"):
                self._load(tmp_path, join(header, payload))
            return
        if isinstance(blob, dict):
            header, payload = split(data)
            header["config"].update(blob)
            with pytest.raises(CheckpointError, match="must be JSON integers"):
                self._load(tmp_path, join(header, payload))
            return
        with pytest.raises(CheckpointError):
            self._load(tmp_path, MAGIC + struct.pack("<Q", len(blob)) + blob)

    def test_oversized_config_is_rejected_before_allocating(self, data, tmp_path):
        header, payload = split(data)
        header["config"]["node_count"] = 10 ** 12
        with pytest.raises(CheckpointError):
            self._load(tmp_path, join(header, payload))


class TestFuzz:
    """load_model raises nothing but CheckpointError, and the CLI turns any
    malformed checkpoint into exit code 4 with a one-line message."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz")
        config = ModelConfig(hidden_dim=2, node_count=6, score_mode="precedent-only")
        model = Model.initialize(config, np.random.default_rng(1))
        save_model(root / "model.bin", model, LABELS)
        (root / "graph.txt").write_text("a b\nb c\nc d\nd e\ne f\n", encoding="utf-8")
        return root

    def _load_or_checkpoint_error(self, path, data):
        path.write_bytes(data)
        try:
            load_model(path)
        except CheckpointError:
            return False
        return True

    def test_every_truncation(self, files):
        data = (files / "model.bin").read_bytes()
        for cut in range(len(data)):
            assert not self._load_or_checkpoint_error(files / "cut.bin", data[:cut]), cut

    @FUZZ
    @given(flips=st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 255)),
                          min_size=1, max_size=4))
    def test_header_byte_flips(self, files, flips):
        data = bytearray((files / "model.bin").read_bytes())
        (n,) = struct.unpack_from("<Q", data, len(MAGIC))
        for pos, value in flips:
            data[len(MAGIC) + pos % (8 + n)] = value
        self._load_or_checkpoint_error(files / "flip.bin", bytes(data))

    @FUZZ
    @given(tail=st.binary(max_size=300), with_magic=st.booleans())
    def test_random_bytes(self, files, tail, with_magic):
        data = (MAGIC if with_magic else b"") + tail
        assert not self._load_or_checkpoint_error(files / "random.bin", data)

    @FUZZ
    @given(cut=st.integers(0, 10 ** 6), tail=st.binary(max_size=40))
    def test_cli_predict_exits_4(self, files, cut, tail):
        # A truncated file, or a whole one with bytes after its payload.
        data = (files / "model.bin").read_bytes()
        bad = data + tail if tail else data[:cut % len(data)]
        (files / "cli.bin").write_bytes(bad)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["predict", "--checkpoint", str(files / "cli.bin"),
                             "--graph", str(files / "graph.txt"), "--prefix", "a"])
        assert code == 4
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
