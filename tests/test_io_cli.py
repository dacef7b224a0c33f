"""Config documents, artifact formats, manifests, and the CLI surface."""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import struct

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
    _measure,
    build_parser,
    main,
    resolve_config,
    worker_threads,
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
    ExperimentConfig,
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
from cltlab.models import KNOWN_FAMILIES, ModelSpec
from cltlab.numerics import SeedLineage


@pytest.fixture(autouse=True)
def _default_threads(monkeypatch):
    monkeypatch.delenv("CLTLAB_THREADS", raising=False)


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


class TestBatchFormat:
    DIGEST = "ab" * 32

    def test_vector_round_trip(self, tmp_path):
        path = tmp_path / "v.bin"
        values = np.arange(5, dtype=float) / 7.0
        write_batch(path, values, self.DIGEST)
        assert path.stat().st_size == BATCH_HEADER_BYTES + 8 * 5
        back, digest = read_batch(path)
        assert digest == self.DIGEST
        assert back.shape == (5,)
        np.testing.assert_array_equal(back, values)

    def test_matrix_round_trip(self, tmp_path):
        path = tmp_path / "m.bin"
        values = np.arange(12, dtype=float).reshape(3, 4) * math.pi
        write_batch(path, values, self.DIGEST)
        assert path.stat().st_size == BATCH_HEADER_BYTES + 8 * 12
        back, _ = read_batch(path)
        assert back.shape == (3, 4)
        np.testing.assert_array_equal(back, values)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "h.bin"
        write_batch(path, np.zeros((2, 3)), self.DIGEST)
        raw = path.read_bytes()
        magic, version, kind, rows, cols, digest = struct.unpack_from("<4sHHQQ64s", raw)
        assert magic == BATCH_MAGIC == b"CLTB"
        assert BATCH_HEADER_BYTES == 88
        assert (version, kind, rows, cols) == (1, 2, 2, 3)
        assert digest == self.DIGEST.encode("ascii")

    def test_noncontiguous_and_float32_inputs(self, tmp_path):
        path = tmp_path / "n.bin"
        base = np.arange(10, dtype=np.float32)
        write_batch(path, base[::2], self.DIGEST)
        back, _ = read_batch(path)
        assert back.dtype == np.float64
        np.testing.assert_array_equal(back, [0.0, 2.0, 4.0, 6.0, 8.0])

    def test_write_rejects_bad_payloads(self, tmp_path):
        with pytest.raises(DataFormatError, match="1-D or 2-D"):
            write_batch(tmp_path / "x.bin", np.zeros((2, 2, 2)), self.DIGEST)
        with pytest.raises(DataFormatError, match="64 hex"):
            write_batch(tmp_path / "x.bin", np.zeros(3), "abcd")

    def test_read_rejects_corrupt_files(self, tmp_path):
        good = tmp_path / "good.bin"
        write_batch(good, np.zeros(3), self.DIGEST)
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
            pytest.param("rho_mixing_chain", marks=pytest.mark.xfail(
                strict=True, raises=DataFormatError,
                reason="model_id holds a comma and distances.csv writes it unquoted",
            )),
            pytest.param("ce_lowerbound", marks=pytest.mark.xfail(
                strict=True, raises=DataFormatError,
                reason="model_id holds a comma and distances.csv writes it unquoted",
            )),
            "sequential_maps",
        ],
    )
    def test_cli_table_reads_back_as_measured(self, tmp_path, family):
        out = tmp_path / family
        argv = ["distance", "--model", family, "--n-grid", "32,64", "--reps", "200",
                "--seed", "5", "--out", str(out)]
        assert run_cli(*argv) == EXIT_OK
        cfg = resolve_config(build_parser().parse_args(argv))
        assert read_distance_csv(out / "distances.csv") == _measure(cfg, cfg.master_seed, 1)

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

    def test_worker_threads_env(self, monkeypatch):
        assert worker_threads() == 1
        monkeypatch.setenv("CLTLAB_THREADS", "4")
        assert worker_threads() == 4
        monkeypatch.setenv("CLTLAB_THREADS", "many")
        with pytest.raises(ConfigurationError):
            worker_threads()
        monkeypatch.setenv("CLTLAB_THREADS", "0")
        with pytest.raises(ConfigurationError):
            worker_threads()


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
        assert not (tmp_path / "out" / "bounds.csv").exists()

    def prepared_ratefit_dir(self, tmp_path, distances):
        out = tmp_path / "fit"
        out.mkdir()
        lines = [",".join(DISTANCE_CSV_COLUMNS)]
        for n, d in distances:
            lines.append(
                ",".join(
                    (
                        f"rademacher_iid(n={n})", str(n), "3.0", "100",
                        repr(d), repr(0.001), repr(d), repr(0.001),
                        "3.0", repr(d), "false", repr(2.0 * d),
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
        ],
    )
    def test_exit_codes(self, tmp_path, argv, code):
        bad = tmp_path / "bad.json"
        bad.write_text("not json {", encoding="utf-8")
        argv = [str(bad) if a == "BADJSON" else a for a in argv]
        argv = [str(tmp_path / "nope.json") if a == "MISSING" else a for a in argv]
        assert main(argv) == code

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

    def test_bad_thread_env_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CLTLAB_THREADS", "several")
        rc = run_cli("distance", "--model", "rademacher_iid", "--n-grid", "8",
                     "--reps", "100", "--out", str(tmp_path / "t"))
        assert rc == EXIT_CONFIG

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

    def test_thread_count_does_not_change_output(self, tmp_path, monkeypatch):
        # 16384 replicates crosses the worker-pool threshold at 2 threads
        base = ["distance", "--model", "rademacher_iid", "--n-grid", "8",
                "--reps", "16384", "--seed", "5"]
        monkeypatch.setenv("CLTLAB_THREADS", "1")
        assert run_cli(*base, "--out", str(tmp_path / "serial")) == EXIT_OK
        monkeypatch.setenv("CLTLAB_THREADS", "2")
        assert run_cli(*base, "--out", str(tmp_path / "pooled")) == EXIT_OK
        serial = (tmp_path / "serial" / "distances.csv").read_bytes()
        pooled = (tmp_path / "pooled" / "distances.csv").read_bytes()
        assert serial == pooled
