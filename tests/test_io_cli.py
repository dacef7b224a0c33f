"""Config documents, artifact formats, manifests, and the CLI surface."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cltlab.cli import (
    DEFAULT_N_GRID,
    DEFAULT_REPLICATES,
    EXIT_CHECK,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    MODEL_TAGS,
    VERIFY_CE_CSV_COLUMNS,
    _grid_models,
    _measure,
    build_parser,
    main,
    resolve_config,
)
from cltlab.distances import (
    DISTANCE_CSV_COLUMNS,
    EmpiricalSample,
    compute_report,
    reports_to_csv,
)
from cltlab.errors import ConfigurationError, DataFormatError
from cltlab.io import (
    BATCH_HEADER_BYTES,
    BATCH_MAGIC,
    KNOWN_BOUND_TAGS,
    MAX_GRID_POINTS,
    MIN_REPLICATES,
    build_manifest,
    canonical_json,
    load_config,
    parse_config,
    read_batch,
    read_distance_csv,
    sha256_file,
    sha256_text,
    write_batch,
    write_manifest,
    write_text,
)
from cltlab.models import KNOWN_FAMILIES, ModelSpec, make_model
from cltlab.models import base as models_base
from cltlab.models.ce import CELowerBound, CEParams
from cltlab.numerics import SeedLineage
from helpers import increment_matrix

SRC = Path(__file__).resolve().parents[1] / "src"


def config_doc(**overrides):
    doc = {
        "schema_version": 1,
        "model": {"family": "rademacher_iid", "n": 8, "p": 3.0, "params": {}},
        "n_grid": [8, 16],
        "replicates": 100,
        "master_seed": 7,
        "outputs": "out",
        "bound_requests": [],
    }
    doc.update(overrides)
    return doc


class TestParseConfig:
    def test_full_document_round_trip(self):
        cfg = parse_config(
            config_doc(
                a=2.0,
                distance_kind="w1",
                target_exponent=-0.5,
                tolerance=0.1,
                fit_seeds=3,
                bound_requests=["theorem1_rhs", "heyde_brown"],
            )
        )
        assert cfg.model == ModelSpec(family="rademacher_iid", n=8, p=3.0, params={})
        assert cfg.n_grid == (8, 16)
        assert cfg.replicates == 100
        assert cfg.master_seed == 7
        assert cfg.a == 2.0
        assert cfg.distance_kind == "w1"
        assert cfg.target_exponent == -0.5
        assert cfg.tolerance == 0.1
        assert cfg.fit_seeds == 3
        assert cfg.bound_requests == ("theorem1_rhs", "heyde_brown")
        # document -> config -> document -> config is a fixed point
        assert parse_config(cfg.to_json_dict()) == cfg
        digest = cfg.digest()
        assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")

    def test_defaults(self):
        cfg = parse_config(
            {"schema_version": 1, "model": {"family": "gaussian_iid", "n": 4}}
        )
        assert cfg.n_grid == (4,)
        assert cfg.replicates == MIN_REPLICATES
        assert cfg.master_seed == 0
        assert cfg.outputs == "out"
        assert cfg.bound_requests == ()
        assert cfg.a == 1.0
        assert cfg.distance_kind == "kolmogorov"
        assert cfg.target_exponent is None
        assert cfg.tolerance == 0.05
        assert cfg.fit_seeds == 1

    def test_auto_a(self):
        cfg = parse_config(config_doc(a="auto"))
        assert cfg.a is None
        assert cfg.to_json_dict()["a"] == "auto"

    def bad_documents():
        """One pytest.param per rejected document, each with a fixed id.

        A new document gets its own name as its id and renames no other
        case.  The ids with a ``-docN`` suffix are kept verbatim from when
        pytest numbered these cases by their position in the sorted list.
        """
        no_model = config_doc()
        del no_model["model"]
        return [
            pytest.param(config_doc(a=0.5), id="a_below_one-doc0"),
            pytest.param(config_doc(a=True), id="a_bool-doc1"),
            pytest.param(config_doc(a="sometimes"), id="a_word-doc2"),
            pytest.param(config_doc(bound_requests=["magic"]), id="bad_bound_tag-doc3"),
            pytest.param(config_doc(distance_kind="levy"), id="bad_distance-doc4"),
            pytest.param(config_doc(model={"family": "weibull", "n": 8}), id="bad_family-doc5"),
            pytest.param(config_doc(target_exponent="soon"), id="bad_target-doc6"),
            pytest.param(config_doc(fit_seeds=0), id="fit_seeds_zero-doc7"),
            pytest.param(config_doc(n_grid=[16, 8]), id="grid_decreasing-doc8"),
            pytest.param(config_doc(n_grid=[]), id="grid_empty-doc9"),
            pytest.param(config_doc(n_grid=[8, "x"]), id="grid_nonint-doc10"),
            pytest.param(config_doc(n_grid=[8, 8]), id="grid_repeat-doc11"),
            pytest.param(config_doc(n_grid="8,16"), id="grid_string-doc12"),
            pytest.param(
                config_doc(n_grid=list(range(1, MAX_GRID_POINTS + 2))), id="grid_too_long-doc13"
            ),
            pytest.param(no_model, id="missing_model-doc14"),
            pytest.param([], id="not_object-doc15"),
            pytest.param(config_doc(replicates=MIN_REPLICATES - 1), id="replicates_low-doc16"),
            pytest.param(config_doc(schema_version=2), id="schema_version-doc17"),
            pytest.param(config_doc(master_seed=-1), id="seed_negative-doc18"),
            pytest.param(config_doc(master_seed=2**64), id="seed_overflow-doc19"),
            pytest.param(config_doc(tolerance=0.0), id="tolerance_zero-doc20"),
            pytest.param(config_doc(zzz=1), id="unknown_key-doc21"),
            pytest.param(
                config_doc(model={"family": "rademacher_iid", "n": 8.7}), id="model_n_fraction"
            ),
            pytest.param(
                config_doc(model={"family": "rademacher_iid", "n": True}), id="model_n_bool"
            ),
            pytest.param(config_doc(n_grid=[8.9, 16.2]), id="grid_fraction"),
            pytest.param(config_doc(replicates=150.9), id="replicates_fraction"),
            pytest.param(config_doc(master_seed=3.99), id="seed_fraction"),
            pytest.param(config_doc(master_seed=True), id="seed_bool"),
            pytest.param(config_doc(fit_seeds=1.5), id="fit_seeds_fraction"),
            pytest.param(config_doc(tolerance=True), id="tolerance_bool"),
            pytest.param(config_doc(tolerance="0.1"), id="tolerance_string"),
            pytest.param(config_doc(target_exponent=True), id="target_bool"),
            pytest.param(config_doc(target_exponent="-0.5"), id="target_string"),
            pytest.param(
                config_doc(model={"family": "rademacher_iid", "n": 8, "p": "3"}),
                id="model_p_string",
            ),
            pytest.param(
                config_doc(model={"family": "rademacher_iid", "n": 8, "p": [3.0]}),
                id="model_p_list",
            ),
            # integers past the float range, which float() cannot convert
            pytest.param(config_doc(a=10**400), id="a_overflow"),
            pytest.param(config_doc(tolerance=10**400), id="tolerance_overflow"),
            pytest.param(config_doc(target_exponent=-(10**400)), id="target_overflow"),
            pytest.param(
                config_doc(model={"family": "rademacher_iid", "n": 8, "p": 10**400}),
                id="model_p_overflow",
            ),
            pytest.param(config_doc(bound_requests=5), id="bound_requests_number"),
            pytest.param(config_doc(outputs=None), id="outputs_null"),
        ]

    @pytest.mark.parametrize("doc", bad_documents())
    def test_rejected_documents(self, doc):
        with pytest.raises(ConfigurationError):
            parse_config(doc)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("a", math.inf),
            ("a", math.nan),
            ("tolerance", math.inf),
            ("target_exponent", math.nan),
            ("target_exponent", -math.inf),
        ],
    )
    def test_nonfinite_values_rejected(self, key, value):
        with pytest.raises(ConfigurationError, match=key):
            parse_config(config_doc(**{key: value}))

    # config_sha256 of valid documents, recorded before the real-valued keys
    # stopped coercing strings and bools; a JSON integer still reads as its float
    @pytest.mark.parametrize(
        "overrides,digest",
        [
            ({}, "c25e7d979f8796d5b4891af8c973791019a794ee73cd05aad996749440550320"),
            (
                {"tolerance": 1, "target_exponent": -1,
                 "model": {"family": "rademacher_iid", "n": 8, "p": 3, "params": {}}},
                "3c08ada0bebefc5487052ec1dcccbc8531900f2625edf30cc2f1ffea1b4afbe0",
            ),
            (
                {"a": 2.0, "tolerance": 0.1, "target_exponent": -0.5, "fit_seeds": 3},
                "ad7a475eb97c95d0528d4e5915555b17d3595b19ebef81ff1bafa6883b2f5e11",
            ),
        ],
        ids=("defaults", "integer_reals", "float_reals"),
    )
    def test_valid_documents_keep_their_digest(self, overrides, digest):
        assert parse_config(config_doc(**overrides)).digest() == digest

    def test_unknown_family_names_the_known_ones(self):
        with pytest.raises(ConfigurationError) as err:
            parse_config(config_doc(model={"family": "weibull", "n": 8}))
        message = str(err.value)
        assert message.startswith("bad model block: unknown model family 'weibull'")
        assert all(family in message for family in KNOWN_FAMILIES)

    def test_seed_range_must_stay_below_2_64(self):
        assert parse_config(config_doc(master_seed=2**64 - 2, fit_seeds=2)).fit_seeds == 2
        with pytest.raises(ConfigurationError):
            parse_config(config_doc(master_seed=2**64 - 2, fit_seeds=3))

    def test_spec_for_replaces_n_only(self):
        cfg = parse_config(config_doc())
        spec = cfg.spec_for(16)
        assert spec.n == 16
        assert spec == dataclasses.replace(cfg.model, n=16)

    def test_numpy_params_become_plain_json(self):
        doc = config_doc(
            model={
                "family": "linear_statistic",
                "n": 8,
                "p": 3.0,
                "params": {"base": {"kind": "ar1", "phi": np.float64(0.5)}},
            }
        )
        out = parse_config(doc).to_json_dict()
        phi = out["model"]["params"]["base"]["phi"]
        assert type(phi) is float and phi == 0.5
        json.loads(canonical_json(out))  # must serialize cleanly

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("not json {", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_config(path)

    def test_known_bound_tags(self):
        assert KNOWN_BOUND_TAGS == (
            "theorem1_rhs",
            "w1_upper",
            "berry_esseen",
            "heyde_brown",
            "linear_w1",
            "rho_mixing",
            "seqdyn",
        )


class TestCanonicalJson:
    def test_key_order_is_irrelevant(self):
        a = canonical_json({"b": 1, "a": [1.5, "x"], "c": {"z": 0, "y": 1}})
        b = canonical_json({"c": {"y": 1, "z": 0}, "a": [1.5, "x"], "b": 1})
        assert a == b == '{"a":[1.5,"x"],"b":1,"c":{"y":1,"z":0}}'

    def test_floats_are_shortest_round_trip(self):
        assert canonical_json({"x": 0.1}) == '{"x":0.1}'
        third = 1.0 / 3.0
        assert json.loads(canonical_json({"x": third}))["x"] == third

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_json({"x": math.nan})

    def test_sha256_text_golden(self):
        # SHA-256 of the empty string, the standard test vector
        assert (
            sha256_text("")
            == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )


def write_whole(path, values, digest):
    """A batch of one block: the whole array, put at once."""
    return write_batch(path, lambda put: put(values), digest, np.shape(values))


class TestBatchFormat:
    DIGEST = "ab" * 32

    def test_vector_round_trip(self, tmp_path):
        path = tmp_path / "v.bin"
        values = np.arange(5, dtype=float) / 7.0
        write_whole(path, values, self.DIGEST)
        assert path.stat().st_size == BATCH_HEADER_BYTES + 8 * 5
        back, digest = read_batch(path)
        assert digest == self.DIGEST
        assert back.shape == (5,)
        np.testing.assert_array_equal(back, values)

    def test_matrix_round_trip(self, tmp_path):
        path = tmp_path / "m.bin"
        values = np.arange(12, dtype=float).reshape(3, 4) * math.pi
        write_whole(path, values, self.DIGEST)
        assert path.stat().st_size == BATCH_HEADER_BYTES + 8 * 12
        back, _ = read_batch(path)
        assert back.shape == (3, 4)
        np.testing.assert_array_equal(back, values)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "h.bin"
        write_whole(path, np.zeros((2, 3)), self.DIGEST)
        raw = path.read_bytes()
        magic, version, kind, rows, cols, digest = struct.unpack_from("<4sHHQQ64s", raw)
        assert magic == BATCH_MAGIC == b"CLTB"
        assert BATCH_HEADER_BYTES == 88
        assert (version, kind, rows, cols) == (1, 2, 2, 3)
        assert digest == self.DIGEST.encode("ascii")

    def test_noncontiguous_and_float32_inputs(self, tmp_path):
        path = tmp_path / "n.bin"
        base = np.arange(10, dtype=np.float32)
        write_whole(path, base[::2], self.DIGEST)
        back, _ = read_batch(path)
        assert back.dtype == np.float64
        np.testing.assert_array_equal(back, [0.0, 2.0, 4.0, 6.0, 8.0])

    def test_write_rejects_bad_payloads(self, tmp_path):
        with pytest.raises(DataFormatError, match="1-D or 2-D"):
            write_whole(tmp_path / "x.bin", np.zeros((2, 2, 2)), self.DIGEST)
        with pytest.raises(DataFormatError, match="64 hex"):
            write_whole(tmp_path / "x.bin", np.zeros(3), "abcd")
        assert not (tmp_path / "x.bin").exists()

    def test_read_rejects_corrupt_files(self, tmp_path):
        good = tmp_path / "good.bin"
        write_whole(good, np.zeros(3), self.DIGEST)
        raw = good.read_bytes()

        cases = {
            "truncated": raw[:10],
            "bad_magic": b"XLTB" + raw[4:],
            "bad_version": raw[:4] + struct.pack("<H", 9) + raw[6:],
            "bad_kind": raw[:6] + struct.pack("<H", 7) + raw[8:],
            "length_mismatch": raw + b"\x00",
        }
        for name, blob in cases.items():
            bad = tmp_path / f"{name}.bin"
            bad.write_bytes(blob)
            with pytest.raises(DataFormatError):
                read_batch(bad)


# One spec per family at an odd n; the MA(1) statistic draws n + 1 wide.
STREAMED_SPECS = {
    "gaussian_iid": ("gaussian_iid", {"sigma": {"rule": "affine"}}),
    "rademacher_iid": ("rademacher_iid", {}),
    "ce_lowerbound": ("ce_lowerbound", {}),
    "linear_ar1": MODEL_TAGS["linear_ar1"],
    "linear_ma": MODEL_TAGS["linear_ma"],
    "rho_mixing_chain": ("rho_mixing_chain", {}),
    "sequential_maps": ("sequential_maps", {}),
}


class TestStreamedBatch:
    """write_batch fed one block of rows at a time."""

    DIGEST = "cd" * 32

    @pytest.mark.parametrize("name", list(STREAMED_SPECS))
    def test_blocks_write_the_bytes_of_the_whole_matrix(self, tmp_path, name):
        # the rows statistic_values puts while it draws the statistics
        family, params = STREAMED_SPECS[name]
        model = make_model(ModelSpec(family, 257, params=params))
        reps = model.chunk_size() + 37  # a full chunk and a partial one
        whole, streamed = tmp_path / "whole.bin", tmp_path / "streamed.bin"
        write_whole(whole, increment_matrix(model, 11, reps, block=3), self.DIGEST)
        stats = write_batch(
            streamed,
            lambda put: model.statistic_values(11, reps, 3, increments=put),
            self.DIGEST,
            (reps, 257),
        )
        assert streamed.read_bytes() == whole.read_bytes()
        assert stats.tobytes() == model.statistic_values(11, reps, 3).tobytes()

    @pytest.mark.parametrize(
        "shape,blocks",
        [
            ((6, 3), [np.ones((4, 3)), np.ones((1, 3))]),  # too few rows
            ((6, 3), [np.ones((4, 3)), np.ones((3, 3))]),  # too many rows
            ((6, 3), [np.ones((4, 3)), np.ones((2, 4))]),  # the wrong width
            ((6, 3), [np.ones(6)]),  # not a row block
            ((6,), [np.ones(4), np.ones(1)]),  # too few values
            ((6,), [np.ones(4), np.ones(3)]),  # too many values
            ((6,), [np.ones((6, 1))]),  # a row block for a vector
        ],
        ids=("short", "long", "wide", "flat", "vector_short", "vector_long", "vector_rows"),
    )
    def test_a_stream_of_the_wrong_size_leaves_no_batch(self, tmp_path, shape, blocks):
        path = tmp_path / "bad.bin"
        write_whole(path, np.zeros(shape), self.DIGEST)  # an older, complete batch
        with pytest.raises(DataFormatError, match="header"):
            write_batch(path, lambda put: list(map(put, blocks)), self.DIGEST, shape)
        assert not path.exists()

    def test_a_failing_stream_leaves_no_batch(self, tmp_path):
        def fill(put):
            put(np.ones((2, 3)))
            raise OSError("disk gone")

        path = tmp_path / "bad.bin"
        with pytest.raises(OSError, match="disk gone"):
            write_batch(path, fill, self.DIGEST, (6, 3))
        assert not path.exists()


class TestDistanceCsvRoundTrip:
    def make_reports(self):
        rng = np.random.default_rng(5)
        reports = []
        for n in (8, 16):
            sample = EmpiricalSample.from_values(rng.standard_normal(200))
            reports.append(compute_report(sample, f"model_n{n}", n, 3.0))
        return reports

    def test_round_trip_is_exact(self, tmp_path):
        reports = self.make_reports()
        path = tmp_path / "distances.csv"
        write_text(path, reports_to_csv(reports))
        assert read_distance_csv(path) == reports

    @pytest.mark.parametrize(
        "family",
        [
            "gaussian_iid",
            "rademacher_iid",
            "linear_statistic",
            "rho_mixing_chain",
            "ce_lowerbound",
            "sequential_maps",
        ],
    )
    def test_cli_table_reads_back_as_measured(self, tmp_path, family):
        out = tmp_path / family
        argv = ["distance", "--model", family, "--n-grid", "32,64", "--reps", "200",
                "--seed", "5", "--out", str(out)]
        assert run_cli(*argv) == EXIT_OK
        cfg = resolve_config(build_parser().parse_args(argv))
        measured = _measure(cfg, _grid_models(cfg), cfg.master_seed)
        assert read_distance_csv(out / "distances.csv") == measured

    def test_header_must_match_schema(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="header"):
            read_distance_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataFormatError, match="empty"):
            read_distance_csv(path)

    def test_short_row_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(",".join(DISTANCE_CSV_COLUMNS) + "\nonlyone\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=":2:"):
            read_distance_csv(path)

    @pytest.mark.parametrize("flag", ["maybe", "True", "1", ""], ids=["maybe", "True", "1", "empty"])
    def test_upper_bound_flag_must_read_true_or_false(self, tmp_path, flag):
        fields = ["m", "8", "3.0", "100"] + ["0.1"] * 6 + [flag, "0.2"]
        path = tmp_path / "flag.csv"
        path.write_text(",".join(DISTANCE_CSV_COLUMNS) + "\n" + ",".join(fields) + "\n")
        with pytest.raises(DataFormatError, match=":2: wr_is_upper_bound must be true or false"):
            read_distance_csv(path)

    def test_non_numeric_field_rejected(self, tmp_path):
        fields = ["m", "x", "3.0", "100"] + ["0.1"] * 6 + ["false", "0.2"]
        path = tmp_path / "ill.csv"
        path.write_text(",".join(DISTANCE_CSV_COLUMNS) + "\n" + ",".join(fields) + "\n")
        with pytest.raises(DataFormatError, match=":2:"):
            read_distance_csv(path)


class TestManifest:
    def test_files_are_hashed_and_bytes_are_stable(self, tmp_path):
        cfg = parse_config(config_doc(outputs=str(tmp_path)))
        write_text(tmp_path / "one.csv", "a,b\n1,2\n")
        write_text(tmp_path / "two.csv", "c\n3\n")
        blocks = {"one.csv": np.int64(0), "two.csv": 1}
        m1 = build_manifest(cfg, tmp_path, ["two.csv", "one.csv"], blocks)
        m2 = build_manifest(cfg, tmp_path, ["two.csv", "one.csv"], blocks)
        # no timestamps or other run-varying content anywhere
        assert canonical_json(m1) == canonical_json(m2)
        assert list(m1["files"]) == ["one.csv", "two.csv"]
        for name in ("one.csv", "two.csv"):
            assert m1["files"][name] == sha256_file(tmp_path / name)
        assert m1["config_sha256"] == cfg.digest()
        assert m1["master_seed"] == 7
        assert m1["stream_blocks"] == {"one.csv": 0, "two.csv": 1}
        assert type(m1["stream_blocks"]["one.csv"]) is int
        for key in ("cltlab", "numpy", "python"):
            assert key in m1["versions"]

    def test_write_manifest_emits_canonical_json(self, tmp_path):
        cfg = parse_config(config_doc(outputs=str(tmp_path)))
        manifest = build_manifest(cfg, tmp_path, [], {})
        path = write_manifest(tmp_path, manifest)
        assert path.name == "manifest.json"
        text = path.read_text(encoding="utf-8")
        assert text == canonical_json(manifest) + "\n"
        assert json.loads(text)["schema_version"] == 1


class TestCliParsing:
    def test_five_subcommands(self):
        parser = build_parser()
        for cmd in ("simulate", "distance", "bounds", "ratefit", "verify-ce"):
            args = parser.parse_args([cmd, "--model", "rademacher_iid"])
            assert args.command == cmd

    def test_defaults_from_flags_only(self):
        args = build_parser().parse_args(["distance", "--model", "linear_ar1"])
        cfg = resolve_config(args)
        assert cfg.model.family == "linear_statistic"
        assert cfg.model.params["base"] == {"kind": "ar1", "phi": 0.5}
        assert cfg.n_grid == DEFAULT_N_GRID == tuple(2**k for k in range(7, 15))
        assert cfg.replicates == DEFAULT_REPLICATES == 200_000
        assert sorted(MODEL_TAGS) == ["linear_ar1", "linear_ma"]

    def test_flag_overrides_on_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_doc()), encoding="utf-8")
        args = build_parser().parse_args(
            [
                "distance", "--config", str(path), "--seed", "9", "--reps", "150",
                "--out", str(tmp_path / "o2"), "--n-grid", "32, 64", "--p", "2.5",
                "--a", "auto",
            ]
        )
        cfg = resolve_config(args)
        assert cfg.master_seed == 9
        assert cfg.replicates == 150
        assert cfg.outputs == str(tmp_path / "o2")
        assert cfg.n_grid == (32, 64)
        assert cfg.model.p == 2.5
        assert cfg.a is None

    def test_config_or_model_required(self):
        args = build_parser().parse_args(["distance"])
        with pytest.raises(ConfigurationError, match="--config PATH or --model TAG"):
            resolve_config(args)

    def test_unknown_tag_rejected(self):
        args = build_parser().parse_args(["distance", "--model", "cauchy_iid"])
        with pytest.raises(ConfigurationError, match="unknown model tag"):
            resolve_config(args)


def run_cli(*argv):
    return main(list(argv))


# The bound set `cltlab bounds` evaluates for each family by default.
DEFAULT_BOUND_SETS = {
    "gaussian_iid": ("theorem1_rhs", "w1_upper", "berry_esseen", "heyde_brown"),
    "rademacher_iid": ("theorem1_rhs", "w1_upper", "berry_esseen", "heyde_brown"),
    "ce_lowerbound": ("w1_upper", "berry_esseen", "heyde_brown"),
    "linear_statistic": ("linear_w1",),
    "rho_mixing_chain": ("theorem1_rhs", "w1_upper", "berry_esseen", "rho_mixing"),
    "sequential_maps": ("seqdyn",),
}


# SHA-256 of (bounds.csv, bounds_meta.json) from `cltlab bounds`, keyed by
# case id.  A case is either the flags after `--model` (run with `--seed 0`)
# or a config document, written to a file and run with `--config`.
# benchmarks/reference.json pins the first three, but only the benchmark reads it.
CHAIN_S3 = {
    "transition": [[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.25, 0.25, 0.5]],
    "state_values": [1.0, -0.7, 0.3],
}
BOUND_ARTIFACT_DIGESTS = {
    "rho_mixing_chain": (
        ["rho_mixing_chain", "--n-grid", "64,128", "--a", "auto"],
        "7736f5040532c95322005cef6e8250de2f35e07e7834072020207bdf14394b9e",
        "0d3154fe68e6c66c4af48fc05ed869198ed3b5c69cdf2df6ec8bfda8d461b8dd",
    ),
    "rademacher_iid": (
        ["rademacher_iid", "--n-grid", "64,256"],
        "6f626f6a09ce86435a8bc6ad030f159e66f6ed712fb8504696e35e5e13244698",
        "146bcccc79e17ba75abaf19cbcf88428324bb7c3a933176cdefedba725f4259f",
    ),
    "ce_lowerbound": (
        ["ce_lowerbound", "--n-grid", "256,1024"],
        "3dd2dfbe04695161b69b226e333ce0ab02fae548c0f133f6a09336df2db6fe32",
        "04ebfe4e76e80c79ab9d655ab39c7cc141d69685477195ad89f5323eec15cf22",
    ),
    "sequential_maps_cos12": (
        config_doc(
            model={"family": "sequential_maps", "n": 64, "p": 3.0, "params": {
                "observable": "cos12", "multipliers": {"rule": "cycle", "values": [2, 3]},
            }},
            n_grid=[64, 500], master_seed=0,
        ),
        "ffd49f7b1fe37f925614211a5c357954e9113015c0be4ce659559452151c90de",
        "6f9bcc61b0a4f7c4e7f8c1aeb463cd6d47ac665de94a50f9f9cd3735e6d52aae",
    ),
    "linear_ma_p26": (
        ["linear_ma", "--n-grid", "64,256", "--p", "2.6"],
        "7ca5f1543a769fc5ce26a5c483843dc6c6d198a4e02f713348dbe2a2ae41541d",
        "31ac693b3e379e5ecaa27b724324963ef2883efdb733d6e41fe4a2f3ff458d05",
    ),
    "chain_s3_all_tags": (
        config_doc(
            model={"family": "rho_mixing_chain", "n": 300, "p": 2.75, "params": CHAIN_S3},
            n_grid=[300], master_seed=5,
            bound_requests=[
                "theorem1_rhs", "w1_upper", "berry_esseen", "heyde_brown", "rho_mixing", "seqdyn",
            ],
        ),
        "7ccf821f5abfab46a0c15ea2593a03e2747d22f82de0f6d2fd9887ba7371cb00",
        "17ec1512d5bcbe564c8fe09eb8bb6735cc2010977509ce5944a531c293f02c1b",
    ),
    "gaussian_affine_auto": (
        config_doc(
            model={"family": "gaussian_iid", "n": 64, "p": 2.5, "params": {
                "sigma": {"rule": "affine", "intercept": 0.3, "slope": 1.7},
            }},
            n_grid=[64, 256], master_seed=0, a="auto",
        ),
        "0e086a44de60ca1a8f58f96be23797ce617dbb9b55204c440c15f35620c7ca3a",
        "c4857d027ee07c4749aacf3ca5bc8b7fa5fc07ffd8a43bf702593b93b505340f",
    ),
    "rademacher_p24_auto": (
        ["rademacher_iid", "--n-grid", "64,256", "--p", "2.4", "--a", "auto"],
        "d5907949cf96247467f163b5b089a0f43563a9483a6bbdc792b2d54a2837f07f",
        "eaf0cdbc4ccedc2174f5dd486e27c83a8daf7400ed9f58b362ec89a043e6e078",
    ),
    # p = 3.5 lies outside (2, 3], which only tags that read E|xi|^p reject
    "sequential_maps_p35": (
        ["sequential_maps", "--n-grid", "64", "--p", "3.5"],
        "482ea0e995adc627cfb5f3bbc7f101df48ff3e9875700d2ceae9f5c50a5fdf4b",
        "2ca4c9a82e5277cad4d28211d54045f60e8c0e8961dfbfa4c43fa484917219c5",
    ),
    "heyde_brown_p35": (
        config_doc(
            model={"family": "rademacher_iid", "n": 64, "p": 3.5, "params": {}},
            n_grid=[64], master_seed=0, bound_requests=["heyde_brown"],
        ),
        "58a01490e458c2bb7e0ab509f25521db2703346ce6acb25ea601abeb3c3c2d1a",
        "381e28eca25a7581cc22dbe6897a62047a645b00257fad2a2e751ce4046981a0",
    ),
}


@pytest.mark.pinned
@pytest.mark.parametrize("case", list(BOUND_ARTIFACT_DIGESTS))
def test_bound_artifacts_are_pinned(tmp_path, case):
    source, *digests = BOUND_ARTIFACT_DIGESTS[case]
    if isinstance(source, dict):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(source), encoding="utf-8")
        argv = ["--config", str(path)]
    else:
        argv = ["--model", *source, "--seed", "0"]
    assert run_cli("bounds", *argv, "--out", str(tmp_path / "out")) == EXIT_OK
    got = [sha256_file(tmp_path / "out" / name) for name in ("bounds.csv", "bounds_meta.json")]
    assert got == digests


# SHA-256 of verify_ce.csv from `cltlab verify-ce`, recorded while the moment
# table was still one (replicates, n) array.  At n = 1024 the moment table
# spans three chunks (256, 256 and 88 rows), at n = 333 two.
VERIFY_CE_DIGESTS = {
    ("64,1024", "600", "4", "3"): "85fe881995f2be9b805e11ef94b9ae706e9dd380ad7d7aa07563949c84a300c5",
    ("20,333", "1000", "9", "2.5"): "1e2e165ba1128b3768d4b2683353a7f7e9a844c94f970692f5484ffce2ec650d",
}


@pytest.mark.pinned
@pytest.mark.parametrize("case", list(VERIFY_CE_DIGESTS), ids=lambda case: case[0])
def test_verify_ce_table_is_pinned(tmp_path, case):
    grid, reps, seed, p = case
    argv = ["verify-ce", "--n-grid", grid, "--reps", reps, "--seed", seed, "--p", p]
    assert run_cli(*argv, "--out", str(tmp_path)) == EXIT_OK
    assert sha256_file(tmp_path / "verify_ce.csv") == VERIFY_CE_DIGESTS[case]


# SHA-256 of distances.csv from `cltlab distance`, keyed by case id: the flags
# after `--model`, run with `--seed 0 --reps 4000`.  At p = 3 the report reads
# Phi, J and Phi^-1 through the W1 pieces; at p = 2.5 W_r reads the midpoint
# quantile grid.  Recorded while Phi and Phi^-1 came from scipy.special.
DISTANCE_ARTIFACT_DIGESTS = {
    "gaussian_iid": (
        ["gaussian_iid", "--n-grid", "16,64"],
        "07d176834d72dfb04fea6692d1f2efbfaa2bcba5a844604165d3dccdd9372c41",
    ),
    "rademacher_iid": (
        ["rademacher_iid", "--n-grid", "16,64"],
        "4fac7162bfbc9161ca75487ccbc7f72df06269139c30943ee89887199700c9c9",
    ),
    "rho_mixing_chain": (
        ["rho_mixing_chain", "--n-grid", "16,64"],
        "84ea6f519ce6679158b1a3fbd10b6fccd7f9a802a37ffb7c3a845d138185fe15",
    ),
    "sequential_maps": (
        ["sequential_maps", "--n-grid", "16,64"],
        "a8e718716a29b2ca78bd922a616bb9de675c2817b6ca127742585487e978b3ae",
    ),
    "linear_ar1": (
        ["linear_ar1", "--n-grid", "16,64"],
        "c59d122adfd27759a91c2615945191129eb1d9b4f28d3904e03571666c82b81b",
    ),
    "ce_lowerbound": (
        ["ce_lowerbound", "--n-grid", "64,128"],
        "0f07ca9ad0545b1336ac5e3a44c7dda5dd19e2a9530a90d44d99c3cf314eecb6",
    ),
    "gaussian_iid_p25": (
        ["gaussian_iid", "--n-grid", "16,64", "--p", "2.5"],
        "bdf16376157493d8a56ea2897430b48003e059ca483a8827a32329cb3dedf566",
    ),
}


@pytest.mark.pinned
@pytest.mark.parametrize("case", list(DISTANCE_ARTIFACT_DIGESTS))
def test_distance_artifacts_are_pinned(tmp_path, case):
    flags, digest = DISTANCE_ARTIFACT_DIGESTS[case]
    argv = ["--model", *flags, "--seed", "0", "--reps", "4000", "--out", str(tmp_path)]
    assert run_cli("distance", *argv) == EXIT_OK
    assert sha256_file(tmp_path / "distances.csv") == digest


# SHA-256 of (distances.csv, ratefit.csv) from a measuring w1 `cltlab ratefit`,
# recorded while Phi and Phi^-1 came from scipy.special
RATEFIT_W1_DIGESTS = (
    "df4716e89bac08fb7790988aa2ab5befbcb6c3ee1466a5fbbb6c05c7633fa784",
    "14044ddc189da9d84f32b137f26f630ab0a2562f53945191eeb61af3d181487c",
)


@pytest.mark.pinned
def test_w1_ratefit_artifacts_are_pinned(tmp_path):
    doc = config_doc(
        n_grid=[8, 32, 128, 512], replicates=2000, master_seed=0,
        distance_kind="w1", outputs=str(tmp_path / "fit"),
    )
    path = tmp_path / "fit.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli("ratefit", "--config", str(path)) == EXIT_OK
    got = tuple(sha256_file(tmp_path / "fit" / name) for name in ("distances.csv", "ratefit.csv"))
    assert got == RATEFIT_W1_DIGESTS


# SHA-256 of each batch payload (the bytes after the header, which holds the
# config digest and so the output path) from `cltlab simulate --model TAG
# --n-grid 64,2048 --reps 300 --seed 3`, in the order statistics_n64,
# increments_n64, statistics_n2048, increments_n2048.  Recorded while simulate
# drew every replicate twice, once per file.  At n = 2048 the 300 replicates
# span three chunks (five for linear_ma) and the rows are drawn on every CPU.
SIMULATE_GRID = (64, 2048)
SIMULATE_PAYLOAD_DIGESTS = {
    "gaussian_iid": (
        "2d9a91030a1e88c59ed95427c3b8c5106e424e60190f012c6007aa87c8403148",
        "1c64d202fc2084b845dcdbb831a11c6755d5308fd3235d6eca457a0c947d2312",
        "b7776040c58e9e423c2292cff69860436c6bd2e87420559f4f86698990896b28",
        "a6677cb588a464dd2e635753c4ed2434db8e5c231d808975da68eeb127edd0ee",
    ),
    "rademacher_iid": (
        "4c526fa1f463c408e9adba1a32276f887f9693d3c62a257c3b043774a3fc01d5",
        "7cd16e14682e6fc35252919c0435e3df272b26d8bb496e1f51bd40de9d40c382",
        "31074738a53850a8eecb7343aac5c88e6c6a6c050421aeca4869971eba7818fb",
        "41da9f5b72ebab021358eaefeee104cc61670b375088d3f8344776bafc7f555d",
    ),
    "ce_lowerbound": (
        "612b9f1dc327ecef0a054c7a48fe560f4e67d27fde2ea83179221532f66cb577",
        "c239b7d1ea0436a5bf7463bc54002ed588ae92e6e9db53ebdc4408c28695341d",
        "805d435c68bcb7cc36013be2a87b291215a13865f869e068292f5e335c1afa21",
        "f51e08a2ec244f58ed6258e1940329087d7057a51837ee1a965e7223b4edb902",
    ),
    "linear_ar1": (
        "70ebe7f46ff95a0fdfa5c5f23e0c3474bbaaaee768427462388dbe0d9f337f3d",
        "7e2b938ebac2a71f40fbe499d9a722909691b7e5e84970d81e71070665fb23b4",
        "318e69f68b29e48ff4fcc33202c0dd32e71355984a090d1b2596836dfbbc202d",
        "0ee342b325097182ce444c222a47bc0d3eddfd823f14a1544e6fd9185bbd715c",
    ),
    "linear_ma": (
        "5871aaacafb7460627017cb560f51fa5e540705694017dfa1a1a243060b43bf2",
        "dfbba839ed4418c8f61828936e3deff6723c3fc96e27e0c7ae6b950d72a5101b",
        "7bd992f8ea1b8e6867b8868140f012b45313a1f5a145b5c38b7d63ea3bd4e7f1",
        "fc9dfb83ec30c4893e3f3d36c58773017611bb721a7c94263a256690d8886264",
    ),
    "rho_mixing_chain": (
        "0720bb5f23ea87d97aece2dad8841a2ce3720ff054127a397175f467903645b8",
        "0b4cbf7a7d5701369b5428a9524c2a06856bcaa3ef4662d5fe1e187d2143ed41",
        "683cb9023f719b0c1f44ca61531aa21da1e8ca44a2edfef41af826e06348d0e0",
        "fcaaf97da9214153d2a764b30f58fe01ea6fa172e2d695885442e9b2a24e0381",
    ),
    "sequential_maps": (
        "4c5ef6cbae91abeed71403e47c6872e585d039cd6577270572586f6b08c57d51",
        "39ce9b534ac2dabf2eb8eeeef324b355448b885c47529a8cc0c6fe2e0e1ddebf",
        "2792a6dbe67895f0beaee5d8c92861c49ab27349991f3f3d903b9778fb2c3ab2",
        "c02cc499b54738747e8114a64c7dbd3b385b005c81e901d8de21a6d01a29adf1",
    ),
}


@pytest.mark.pinned
@pytest.mark.parametrize("tag", list(SIMULATE_PAYLOAD_DIGESTS))
def test_simulate_payloads_are_pinned(tmp_path, tag):
    grid = ",".join(map(str, SIMULATE_GRID))
    argv = ["simulate", "--model", tag, "--n-grid", grid, "--reps", "300", "--seed", "3"]
    assert run_cli(*argv, "--out", str(tmp_path)) == EXIT_OK
    got = tuple(
        hashlib.sha256((tmp_path / f"{kind}_n{n}.bin").read_bytes()[BATCH_HEADER_BYTES:]).hexdigest()
        for n in SIMULATE_GRID
        for kind in ("statistics", "increments")
    )
    assert got == SIMULATE_PAYLOAD_DIGESTS[tag]


@pytest.mark.parametrize("command", ["simulate", "distance"])
def test_each_replicate_is_drawn_once(tmp_path, monkeypatch, command):
    # simulate maps one draw matrix to both its statistics and its increments
    drawn = []
    draws = models_base.Model._draws

    def counted(self, first, count):
        drawn.append(count)
        return draws(self, first, count)

    monkeypatch.setattr(models_base.Model, "_draws", counted)
    argv = [command, "--model", "ce_lowerbound", "--n-grid", "64,1024", "--reps", "300"]
    assert run_cli(*argv, "--out", str(tmp_path)) == EXIT_OK
    assert sum(drawn) == 300 * 2


def peak_memory_kb(argv: list[str]) -> int:
    """The VmHWM of a fresh interpreter that ran `cltlab argv`.

    The child reads its own peak resident set: its RUSAGE_SELF ru_maxrss
    would start from this test process's peak, which exec carries over.
    """
    code = (
        "import contextlib, io, sys; from cltlab.cli import main\n"
        f"with contextlib.redirect_stdout(io.StringIO()): rc = main({argv!r})\n"
        "print(rc, *[l.split()[1] for l in open('/proc/self/status') if l.startswith('VmHWM:')])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True,
    )
    rc, peak = out.stdout.split()
    assert int(rc) in (EXIT_OK, EXIT_CHECK)
    return int(peak)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Linux's VmHWM")
class TestStreamedMemory:
    """simulate and verify-ce take their (replicates, n) tables one chunk at a
    time: a 164 MB table costs at most 40 MB more than a tenth of it.  The
    chain draws chunks of the same budget as every other family."""

    N = 4096
    REPS = 5000  # 8 * 5000 * 4096 bytes = 164 MB

    def peak_growth_kb(self, tmp_path, argv):
        grid = ["--n-grid", str(self.N), "--seed", "2"]
        small = peak_memory_kb([*argv, *grid, "--reps", str(self.REPS // 10)])
        return peak_memory_kb([*argv, *grid, "--reps", str(self.REPS)]) - small

    def test_simulate_streams_its_increments(self, tmp_path):
        argv = ["simulate", "--model", "rademacher_iid", "--out", str(tmp_path / "sim")]
        assert self.peak_growth_kb(tmp_path, argv) < 40 * 1024

    def test_verify_ce_streams_its_moment_table(self, tmp_path):
        assert self.peak_growth_kb(tmp_path, ["verify-ce"]) < 40 * 1024

    def test_chain_distance_peaks_near_gaussian(self, tmp_path):
        # with 16 MB draw chunks the chain peaked 22.7 MB above gaussian_iid
        peaks = {
            family: peak_memory_kb([
                "distance", "--model", family, "--n-grid", "2048,8192", "--reps", "3000",
                "--out", str(tmp_path / family),
            ])
            for family in ("rho_mixing_chain", "gaussian_iid")
        }
        assert peaks["rho_mixing_chain"] - peaks["gaussian_iid"] < 10 * 1024


class TestCliCommands:
    def test_distance_rerun_is_byte_identical(self, tmp_path):
        base = ["distance", "--model", "rademacher_iid", "--n-grid", "8,16",
                "--reps", "400", "--seed", "7"]
        out1 = tmp_path / "one"
        assert run_cli(*base, "--out", str(out1)) == EXIT_OK
        first_csv = (out1 / "distances.csv").read_bytes()
        first_manifest = (out1 / "manifest.json").read_bytes()

        assert run_cli(*base, "--out", str(out1)) == EXIT_OK
        assert (out1 / "distances.csv").read_bytes() == first_csv
        assert (out1 / "manifest.json").read_bytes() == first_manifest

        out2 = tmp_path / "two"
        assert run_cli(*base, "--out", str(out2)) == EXIT_OK
        assert (out2 / "distances.csv").read_bytes() == first_csv

        reports = read_distance_csv(out1 / "distances.csv")
        assert [r.n for r in reports] == [8, 16]
        assert all(r.replicates == 400 for r in reports)

    def test_simulate_writes_sized_batches_and_manifest(self, tmp_path):
        out = tmp_path / "sim"
        argv = ["simulate", "--model", "rademacher_iid", "--n-grid", "8",
                "--reps", "128", "--seed", "3", "--out", str(out)]
        assert run_cli(*argv) == EXIT_OK
        stats = out / "statistics_n8.bin"
        incs = out / "increments_n8.bin"
        assert stats.stat().st_size == BATCH_HEADER_BYTES + 8 * 128
        assert incs.stat().st_size == BATCH_HEADER_BYTES + 8 * 128 * 8

        cfg = resolve_config(build_parser().parse_args(argv))
        vec, digest = read_batch(stats)
        assert digest == cfg.digest()
        mat, _ = read_batch(incs)
        assert mat.shape == (128, 8)
        assert set(np.unique(mat)) <= {-1.0, 1.0}
        # the statistic is the normalized row sum of the increments
        np.testing.assert_allclose(vec, mat.sum(axis=1) / math.sqrt(8.0), atol=1e-12)

        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["files"]) == ["increments_n8.bin", "statistics_n8.bin"]
        for name, digest in manifest["files"].items():
            assert digest == sha256_file(out / name)
        assert manifest["stream_blocks"] == {"increments_n8.bin": 0, "statistics_n8.bin": 0}

    @pytest.mark.parametrize("family", tuple(DEFAULT_BOUND_SETS))
    def test_bounds_writes_csv_and_meta(self, tmp_path, family):
        out = tmp_path / "bounds"
        rc = run_cli("bounds", "--model", family, "--n-grid", "32",
                     "--reps", "100", "--out", str(out))
        assert rc == EXIT_OK
        tags = list(DEFAULT_BOUND_SETS[family])
        header, *rows = csv.reader((out / "bounds.csv").read_text().splitlines())
        assert all(len(r) == len(header) for r in rows)
        assert [r[0] for r in rows if r[1] == "total"] == tags
        meta = json.loads((out / "bounds_meta.json").read_text())
        assert [e["bound_id"] for e in meta["entries"]] == tags
        assert all(e["n"] == 32 for e in meta["entries"])

    def test_bounds_tag_without_oracle_exits_2(self, tmp_path):
        doc = config_doc(
            model={"family": "gaussian_iid", "n": 8, "p": 3.0, "params": {}},
            outputs=str(tmp_path / "out"),
            bound_requests=["rho_mixing"],
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli("bounds", "--config", str(cfg_path)) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("family", ("rademacher_iid", "linear_statistic", "rho_mixing_chain"))
    def test_bounds_rejecting_p_leaves_no_directory(self, tmp_path, family):
        out = tmp_path / "out"
        argv = ["--model", family, "--n-grid", "64", "--p", "3.5", "--out", str(out)]
        assert run_cli("bounds", *argv) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides",
        [{"tolerance": True}, {"target_exponent": "-0.5"},
         {"model": {"family": "rademacher_iid", "n": 8, "p": "3"}}],
        ids=("tolerance_bool", "target_string", "model_p_string"),
    )
    def test_non_real_config_values_exit_2(self, tmp_path, overrides):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_doc(**overrides)), encoding="utf-8")
        assert run_cli("bounds", "--config", str(cfg_path)) == EXIT_CONFIG

    def prepared_ratefit_dir(self, tmp_path, distances, upper_bound_flag="false"):
        out = tmp_path / "fit"
        out.mkdir()
        lines = [",".join(DISTANCE_CSV_COLUMNS)]
        for n, d in distances:
            lines.append(
                ",".join(
                    (
                        f"rademacher_iid(n={n})", str(n), "3.0", "100",
                        repr(d), repr(0.001), repr(d), repr(0.001),
                        "3.0", repr(d), upper_bound_flag, repr(2.0 * d),
                    )
                )
            )
        write_text(out / "distances.csv", "\n".join(lines) + "\n")
        doc = config_doc(
            model={"family": "rademacher_iid", "n": 10, "p": 3.0, "params": {}},
            n_grid=[10, 100, 1000, 10000],
            outputs=str(out),
            target_exponent=-0.25,
        )
        cfg_path = tmp_path / "fit.json"
        cfg_path.write_text(json.dumps(doc), encoding="utf-8")
        return out, cfg_path

    def test_ratefit_inconsistent_series_exits_1(self, tmp_path):
        grid = (10, 100, 1000, 10000)
        out, cfg_path = self.prepared_ratefit_dir(
            tmp_path, [(n, 0.5) for n in grid]  # flat: exponent 0 vs target -0.25
        )
        assert run_cli("ratefit", "--config", str(cfg_path)) == EXIT_CHECK
        text = (out / "ratefit.csv").read_text()
        assert "inconsistent" in text

    def test_ratefit_consistent_series_exits_0(self, tmp_path):
        grid = (10, 100, 1000, 10000)
        out, cfg_path = self.prepared_ratefit_dir(
            tmp_path, [(n, 0.5 * n**-0.25) for n in grid]
        )
        assert run_cli("ratefit", "--config", str(cfg_path)) == EXIT_OK
        text = (out / "ratefit.csv").read_text()
        assert ",consistent," in text

    def test_ratefit_refuses_an_upper_bound_flag_that_is_not_true_or_false(self, tmp_path, capsys):
        # no manifest: the table's own bytes are all the refit reads
        grid = (10, 100, 1000, 10000)
        out, cfg_path = self.prepared_ratefit_dir(
            tmp_path, [(n, 0.5 * n**-0.25) for n in grid], upper_bound_flag="maybe"
        )
        assert run_cli("ratefit", "--config", str(cfg_path)) == EXIT_IO
        assert not (out / "ratefit.csv").exists()
        assert "wr_is_upper_bound must be true or false, got 'maybe'" in capsys.readouterr().err

    @pytest.mark.parametrize("fit_seeds", [1, 2])
    def test_ratefit_builds_each_grid_model_once(self, tmp_path, monkeypatch, fit_seeds):
        built = []
        real = make_model
        monkeypatch.setattr("cltlab.cli.make_model", lambda s: built.append(s.n) or real(s))
        out = tmp_path / "once"
        doc = config_doc(n_grid=[8, 16, 32], fit_seeds=fit_seeds, outputs=str(out))
        cfg_path = tmp_path / "fit.json"
        cfg_path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli("ratefit", "--config", str(cfg_path)) == EXIT_OK
        assert built == [8, 16, 32]
        if fit_seeds == 1:  # a refit reads the table it wrote
            built.clear()
            assert run_cli("ratefit", "--config", str(cfg_path)) == EXIT_OK
            assert built == [8, 16, 32]

    def test_ratefit_measures_when_no_csv_exists(self, tmp_path):
        out = tmp_path / "measured"
        rc = run_cli("ratefit", "--model", "rademacher_iid", "--n-grid", "8,16",
                     "--reps", "100", "--seed", "11", "--out", str(out))
        # two grid points cannot support a verdict; that is a warning, not a failure
        assert rc == EXIT_OK
        assert (out / "distances.csv").exists()
        header, row = csv.reader((out / "ratefit.csv").read_text().splitlines())
        assert len(row) == len(header)
        assert row[header.index("verdict")] == "inconclusive"

    @pytest.mark.parametrize(
        "fit_flags",
        [("--model", "rademacher_iid"), ("--model", "gaussian_iid", "--p", "2.5")],
    )
    def test_ratefit_refuses_a_stale_distance_table(self, tmp_path, fit_flags):
        out = str(tmp_path / "stale")
        grid = ("--n-grid", "8,16", "--reps", "100", "--out", out)
        assert run_cli("distance", "--model", "gaussian_iid", *grid) == EXIT_OK
        assert run_cli("ratefit", *fit_flags, *grid) == EXIT_IO
        assert not (tmp_path / "stale" / "ratefit.csv").exists()

    @pytest.mark.parametrize(
        "fit_grid, in_table, configured",
        [(("--n-grid", "8,16", "--reps", "5000"), "100 replicates", "replicates = 5000"),
         (("--n-grid", "8,16,32,64", "--reps", "100"), "n = [8, 16]", "n_grid = [8, 16, 32, 64]")],
    )
    def test_ratefit_refuses_a_table_of_another_size_or_grid(
        self, tmp_path, capsys, fit_grid, in_table, configured
    ):
        out = tmp_path / "sized"
        measured = ("--model", "rademacher_iid", "--out", str(out))
        assert run_cli("distance", *measured, "--n-grid", "8,16", "--reps", "100") == EXIT_OK
        assert run_cli("ratefit", *measured, *fit_grid) == EXIT_IO
        assert not (out / "ratefit.csv").exists()
        err = capsys.readouterr().err
        assert all(text in err for text in ("distances.csv", in_table, configured))

    def test_ratefit_refuses_a_table_of_another_seed(self, tmp_path, capsys):
        out = tmp_path / "seeded"
        grid = ("--model", "rademacher_iid", "--n-grid", "8,16", "--reps", "100",
                "--out", str(out))
        assert run_cli("distance", *grid, "--seed", "1") == EXIT_OK
        assert run_cli("ratefit", *grid, "--seed", "2") == EXIT_IO
        assert not (out / "ratefit.csv").exists()
        err = capsys.readouterr().err
        assert all(text in err for text in ("distances.csv", "= 1,", "master_seed = 2"))
        assert run_cli("ratefit", *grid, "--seed", "1") == EXIT_OK
        (out / "manifest.json").write_text("[1]", encoding="utf-8")
        assert run_cli("ratefit", *grid, "--seed", "1") == EXIT_IO

    def test_ratefit_refuses_a_table_its_manifest_does_not_attest(self, tmp_path, capsys):
        # bounds rewrites manifest.json for its own files and another seed
        out = tmp_path / "overwritten"
        grid = ("--model", "rademacher_iid", "--n-grid", "8,16", "--reps", "100",
                "--out", str(out))
        assert run_cli("distance", *grid, "--seed", "1") == EXIT_OK
        assert run_cli("bounds", *grid, "--seed", "2") == EXIT_OK
        assert run_cli("ratefit", *grid, "--seed", "2") == EXIT_IO
        assert not (out / "ratefit.csv").exists()
        err = capsys.readouterr().err
        assert all(text in err for text in ("distances.csv", "manifest.json", "SHA-256"))

    def test_ratefit_reads_a_chain_table(self, tmp_path):
        # the chain's model_id holds a comma, written bare into distances.csv
        out = tmp_path / "chain"
        grid = ("--model", "rho_mixing_chain", "--n-grid", "8,16", "--reps", "100",
                "--out", str(out))
        assert run_cli("distance", *grid) == EXIT_OK
        assert "," in make_model(ModelSpec("rho_mixing_chain", 8)).model_id
        assert run_cli("ratefit", *grid) in (EXIT_OK, EXIT_CHECK)
        assert (out / "ratefit.csv").exists()

    def test_a_refit_manifest_attests_the_table_it_read(self, tmp_path):
        out = tmp_path / "refit"
        grid = ("--model", "rademacher_iid", "--n-grid", "8,16", "--reps", "100",
                "--seed", "3", "--out", str(out))
        assert run_cli("distance", *grid) == EXIT_OK
        table = (out / "distances.csv").read_bytes()
        for _ in range(2):
            assert run_cli("ratefit", *grid) == EXIT_OK
            manifest = json.loads((out / "manifest.json").read_text())
            assert sorted(manifest["files"]) == ["distances.csv", "ratefit.csv"]
            assert manifest["files"]["distances.csv"] == sha256_file(out / "distances.csv")
            assert (out / "distances.csv").read_bytes() == table

    def test_ratefit_refuses_one_table_for_several_seeds(self, tmp_path):
        out = tmp_path / "seeds"
        grid = ("--n-grid", "8,16", "--reps", "100", "--out", str(out))
        assert run_cli("distance", "--model", "rademacher_iid", *grid) == EXIT_OK
        doc = config_doc(n_grid=[8, 16], fit_seeds=2, outputs=str(out))
        cfg_path = tmp_path / "fit.json"
        cfg_path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli("ratefit", "--config", str(cfg_path)) == EXIT_IO
        assert not (out / "ratefit.csv").exists()

    @pytest.mark.parametrize("fit_seeds", [1, 2])
    def test_ratefit_on_one_point_is_inconclusive_for_any_seed_count(self, tmp_path, fit_seeds):
        out = tmp_path / "one"
        doc = config_doc(
            model={"family": "gaussian_iid", "n": 64, "p": 3.0, "params": {}},
            n_grid=[64], replicates=200, fit_seeds=fit_seeds, outputs=str(out),
        )
        cfg_path = tmp_path / "fit.json"
        cfg_path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli("ratefit", "--config", str(cfg_path)) == EXIT_OK
        header, row = csv.reader((out / "ratefit.csv").read_text().splitlines())
        fields = dict(zip(header, row))
        assert fields["verdict"] == "inconclusive"
        assert fields["note"] == "too few usable points"
        assert (fields["points_used"], fields["n_min"], fields["n_max"]) == ("1", "0", "0")

    def test_verify_ce_quick_grid_passes(self, tmp_path):
        out = tmp_path / "ce"
        rc = run_cli("verify-ce", "--n-grid", "64", "--reps", "2000",
                     "--seed", "1", "--out", str(out))
        assert rc == EXIT_OK
        header, row = csv.reader((out / "verify_ce.csv").read_text().splitlines())
        assert tuple(header) == VERIFY_CE_CSV_COLUMNS == (
            "n", "atom", "atom_se", "atom_threshold", "atom_pass",
            "kolmogorov", "kolmogorov_se", "kolmogorov_threshold", "kolmogorov_pass",
            "max_moment", "max_moment_se", "moment_cap", "moment_pass",
        )
        assert len(row) == len(header) and row[0] == "64"

    def test_verify_ce_moment_columns_match_the_increment_table(self, tmp_path):
        # second route: max_k mean |xi_k|^p and its SE from the whole
        # (replicates, n) table, which verify-ce never holds
        seed, reps, grid = 5, 150, (64, 96)
        out = tmp_path / "ce"
        rc = run_cli("verify-ce", "--n-grid", ",".join(map(str, grid)), "--reps", str(reps),
                     "--seed", str(seed), "--out", str(out))
        assert rc in (EXIT_OK, EXIT_CHECK)
        rows = list(csv.DictReader((out / "verify_ce.csv").read_text().splitlines()))
        assert [int(r["n"]) for r in rows] == list(grid)
        for i, (n, row) in enumerate(zip(grid, rows)):
            model = make_model(ModelSpec("ce_lowerbound", n, 3.0))
            powers = np.abs(increment_matrix(model, seed, reps, block=1000 + i)) ** 3.0
            col = powers[:, int(np.argmax(powers.mean(axis=0)))]
            moment, se = float(row["max_moment"]), float(row["max_moment_se"])
            assert moment == pytest.approx(col.mean(), rel=1e-12, abs=0.0)
            assert se == pytest.approx(np.std(col, ddof=1) / math.sqrt(reps), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("check", ["atom", "kolmogorov", "moment"])
    def test_verify_ce_checks_allow_three_standard_errors(self, tmp_path, monkeypatch, check):
        # each threshold placed 2 SE past the measured value passes, 4 SE fails
        def run(name):
            argv = ("verify-ce", "--n-grid", "64", "--reps", "400", "--seed", "2")
            rc = run_cli(*argv, "--out", str(tmp_path / name))
            (row,) = csv.DictReader((tmp_path / name / "verify_ce.csv").read_text().splitlines())
            return rc, row

        rc, row = run("measured")
        assert rc in (EXIT_OK, EXIT_CHECK)
        value = {c: float(v) for c, v in row.items() if v not in ("true", "false")}

        def place(atom_k, dist_k, moment_k):
            atom = value["atom"] + atom_k * value["atom_se"]
            dist = value["kolmogorov"] + dist_k * value["kolmogorov_se"]
            cap = value["max_moment"] - moment_k * value["max_moment_se"]
            monkeypatch.setattr(CEParams, "atom_lower_bound", lambda self: atom)
            monkeypatch.setattr(CEParams, "kolmogorov_lower_bound", lambda self: dist)
            monkeypatch.setattr(CELowerBound, "moment_cap", lambda self, p: cap)
            return atom, dist, cap

        checks = ("atom", "kolmogorov", "moment")
        inside = place(2.0, 2.0, 2.0)
        rc, row = run("inside")
        assert rc == EXIT_OK
        thresholds = ("atom_threshold", "kolmogorov_threshold", "moment_cap")
        assert tuple(float(row[c]) for c in thresholds) == inside
        place(*(4.0 if c == check else 2.0 for c in checks))
        rc, row = run("beyond")
        assert rc == EXIT_CHECK
        assert [c for c in checks if row[f"{c}_pass"] == "false"] == [check]

    def test_verify_ce_config_writes_the_bytes_of_its_flags(self, tmp_path):
        flags = ("--n-grid", "64,128", "--reps", "500", "--seed", "4")
        rc = run_cli("verify-ce", *flags, "--out", str(tmp_path / "flags"))
        doc = config_doc(
            model={"family": "ce_lowerbound", "n": 64, "p": 3.0, "params": {}},
            n_grid=[64, 128], replicates=500, master_seed=4, outputs=str(tmp_path / "unused"),
        )
        path = tmp_path / "ce.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli("verify-ce", "--config", str(path), "--out", str(tmp_path / "cfg")) == rc
        written = (tmp_path / "cfg" / "verify_ce.csv").read_bytes()
        assert written == (tmp_path / "flags" / "verify_ce.csv").read_bytes()
        # without --out verify-ce writes nothing, not even to the config's outputs
        assert run_cli("verify-ce", "--config", str(path)) == rc
        assert not (tmp_path / "unused").exists()

    @pytest.mark.parametrize(
        "argv,code",
        [
            # config file with broken JSON syntax
            (("distance", "--config", "BADJSON"), EXIT_CONFIG),
            # config file that does not exist at all
            (("distance", "--config", "MISSING"), EXIT_IO),
            # lower-bound construction needs n >= 20
            (("verify-ce", "--n-grid", "19", "--reps", "100"), EXIT_CONFIG),
            # moment order outside (2, 3]
            (("verify-ce", "--p", "3.5", "--n-grid", "64", "--reps", "100"), EXIT_CONFIG),
            # too few replicates
            (("distance", "--model", "rademacher_iid", "--reps", "50"), EXIT_CONFIG),
            # unknown model tag
            (("distance", "--model", "cauchy_iid", "--reps", "100"), EXIT_CONFIG),
            # malformed a flag
            (("distance", "--model", "rademacher_iid", "--a", "few"), EXIT_CONFIG),
            # verify-ce checks the lower-bound construction only
            (("verify-ce", "--model", "gaussian_iid", "--n-grid", "64", "--reps", "200"), EXIT_CONFIG),
            # verify-ce shares the config rules: replicates >= 100 and a
            # strictly increasing grid
            (("verify-ce", "--n-grid", "64", "--reps", "30"), EXIT_CONFIG),
            (("verify-ce", "--n-grid", "64,64", "--reps", "200"), EXIT_CONFIG),
            (("verify-ce", "--n-grid", "256,64", "--reps", "200"), EXIT_CONFIG),
            # verify-ce reads --config like every other subcommand
            (("verify-ce", "--config", "MISSING", "--n-grid", "64", "--reps", "200"), EXIT_IO),
        ],
    )
    def test_exit_codes(self, tmp_path, argv, code):
        bad = tmp_path / "bad.json"
        bad.write_text("not json {", encoding="utf-8")
        argv = [str(bad) if a == "BADJSON" else a for a in argv]
        argv = [str(tmp_path / "nope.json") if a == "MISSING" else a for a in argv]
        assert main(argv) == code

    @pytest.mark.parametrize("command", ["distance", "ratefit"])
    def test_p_outside_the_range_exits_2_before_any_draw(self, tmp_path, monkeypatch, command):
        drawn = []
        monkeypatch.setattr(models_base.Model, "_draws", lambda self, *a: drawn.append(a))
        out = tmp_path / "never"
        rc = run_cli(command, "--model", "gaussian_iid", "--n-grid", "64,128",
                     "--reps", "200", "--p", "3.5", "--out", str(out))
        assert rc == EXIT_CONFIG
        assert drawn == [] and not out.exists()

    # family params of the wrong type or form: each family reads them in its
    # constructor, where float() or int() raises TypeError or ValueError
    MALFORMED_PARAMS = {
        "gaussian_intercept": ("gaussian_iid", {"sigma": {"rule": "affine", "intercept": "abc"}}),
        "chain_stay": ("rho_mixing_chain", {"transition": {"rule": "two_state", "stay": "high"}}),
        "maps_multiplier": ("sequential_maps", {"multipliers": {"rule": "constant", "m": [2]}}),
        "ma_theta": ("linear_statistic", {"base": {"kind": "ma", "theta": ["a"]}}),
        "chain_matrix": ("rho_mixing_chain", {"transition": [[0.5, "x"], [0.5, 0.5]]}),
    }

    @pytest.mark.parametrize("command", ["distance", "simulate", "bounds"])
    @pytest.mark.parametrize("name", sorted(MALFORMED_PARAMS))
    def test_malformed_params_exit_2_before_the_directory(self, tmp_path, capsys, command, name):
        family, params = self.MALFORMED_PARAMS[name]
        out = tmp_path / "out"
        doc = config_doc(model={"family": family, "n": 32, "p": 3.0, "params": params},
                         n_grid=[32, 64], outputs=str(out))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli(command, "--config", str(path)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error" in err and family in err
        assert not out.exists()

    # family params that are numbers of the wrong kind: bools, strings, and
    # fractions where an integer is read; none may be coerced
    WRONG_KIND_PARAMS = {
        "maps_constant_fraction": ("sequential_maps",
                                   {"multipliers": {"rule": "constant", "m": 2.7}}),
        "maps_list_fraction": ("sequential_maps", {"multipliers": [2] * 31 + [3.5]}),
        "maps_cycle_fraction": ("sequential_maps",
                                {"multipliers": {"rule": "cycle", "values": [2, 3.9]}}),
        "gaussian_sigma_bool": ("gaussian_iid", {"sigma": True}),
        "gaussian_intercept_bool": ("gaussian_iid",
                                    {"sigma": {"rule": "affine", "intercept": True}}),
        "gaussian_intercept_string": ("gaussian_iid",
                                      {"sigma": {"rule": "affine", "intercept": "1.5"}}),
        "rademacher_sigma_list_bool": ("rademacher_iid", {"sigma": [1.0] * 31 + [True]}),
    }

    @pytest.mark.parametrize("name", sorted(WRONG_KIND_PARAMS))
    def test_wrong_kind_params_are_refused(self, tmp_path, name):
        family, params = self.WRONG_KIND_PARAMS[name]
        with pytest.raises(ConfigurationError, match=family):
            make_model(ModelSpec(family, 32, 3.0, params))
        out = tmp_path / "out"
        doc = config_doc(model={"family": family, "n": 32, "p": 3.0, "params": params},
                         n_grid=[32], outputs=str(out))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli("distance", "--config", str(path)) == EXIT_CONFIG
        assert not out.exists()

    def test_whole_float_multipliers_are_integers(self):
        model = make_model(ModelSpec("sequential_maps", 4, 3.0,
                                     {"multipliers": {"rule": "cycle", "values": [2.0, 3]}}))
        assert model.m.tolist() == [2, 3, 2, 3]

    @pytest.mark.parametrize("kind,target", [("w1", -0.5), ("w1_normalized", 0.0)])
    def test_ratefit_default_target_of_each_w1_kind(self, tmp_path, kind, target):
        out = tmp_path / kind
        doc = config_doc(
            model={"family": "rademacher_iid", "n": 8, "p": 3.0, "params": {}},
            n_grid=[8, 16], distance_kind=kind, outputs=str(out),
        )
        cfg_path = tmp_path / f"{kind}.json"
        cfg_path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli("ratefit", "--config", str(cfg_path)) == EXIT_OK
        with open(out / "ratefit.csv", newline="", encoding="utf-8") as fh:
            (row,) = csv.DictReader(fh)
        assert float(row["target_exponent"]) == target

    def test_nonfinite_a_flag_exits_2_before_any_table(self, tmp_path):
        out = tmp_path / "d"
        rc = run_cli("distance", "--model", "rademacher_iid", "--n-grid", "8",
                     "--reps", "100", "--a", "inf", "--out", str(out))
        assert rc == EXIT_CONFIG
        assert not (out / "distances.csv").exists()

    @pytest.mark.parametrize(
        "key,value", [("a", math.inf), ("tolerance", math.inf), ("target_exponent", math.nan)]
    )
    def test_nonfinite_config_value_exits_2_before_any_table(self, tmp_path, key, value):
        # json.loads reads the Infinity and NaN literals that json.dumps writes
        out = tmp_path / "d"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_doc(outputs=str(out), **{key: value})), encoding="utf-8")
        assert run_cli("distance", "--config", str(path)) == EXIT_CONFIG
        assert not (out / "distances.csv").exists()

    @staticmethod
    def forbid_draws(monkeypatch):
        # every replicate stream comes from SeedLineage.generators
        def no_draw(lineage, count):
            raise AssertionError("a replicate was drawn before the seed range was checked")

        monkeypatch.setattr(SeedLineage, "generators", no_draw)

    def test_overflowing_seed_range_exits_2_before_any_draw(self, tmp_path, monkeypatch):
        self.forbid_draws(monkeypatch)
        path = tmp_path / "cfg.json"
        doc = config_doc(master_seed=2**64 - 2, fit_seeds=3, outputs=str(tmp_path / "fit"))
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli("ratefit", "--config", str(path)) == EXIT_CONFIG

    def test_forbidden_draws_do_fail(self, tmp_path, monkeypatch):
        # the guard above would pass vacuously if draws took another route
        self.forbid_draws(monkeypatch)
        with pytest.raises(AssertionError, match="drawn before"):
            run_cli("verify-ce", "--n-grid", "64", "--reps", "100", "--out", str(tmp_path / "ce"))

    def test_oversized_tables_exit_2_before_any_draw(self, tmp_path, monkeypatch, capsys):
        # the largest table below is 100 x 16 doubles = 12800 bytes
        monkeypatch.setattr(models_base, "MAX_TABLE_BYTES", 10_000)
        self.forbid_draws(monkeypatch)
        out = tmp_path / "sim"
        rc = run_cli("simulate", "--model", "rademacher_iid", "--n-grid", "8,16",
                     "--reps", "100", "--out", str(out))
        assert rc == EXIT_CONFIG
        assert not out.exists() or not any(out.iterdir())
        rc = run_cli("verify-ce", "--n-grid", "20,32", "--reps", "100", "--out", str(out))
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().out == ""
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_verify_ce_bad_seed_exits_2_before_any_draw(self, tmp_path, monkeypatch, capsys, seed):
        self.forbid_draws(monkeypatch)
        out = tmp_path / "ce"
        rc = run_cli("verify-ce", "--n-grid", "64", "--reps", "100",
                     "--seed", str(seed), "--out", str(out))
        assert rc == EXIT_CONFIG
        assert not out.exists()
        # refused up front: not even the table header was printed
        assert capsys.readouterr().out == ""

