import functools
import hashlib
import os
import subprocess
import sys
from importlib.util import find_spec
from pathlib import Path
from threading import Event, Thread

import pytest

import eigengaze as eg
from eigengaze import eigenspace as eigenspace_module, imgio, registry as registry_module
from eigengaze.cli import _label_from_filename, build_parser, main
from eigengaze.eigenspace import load_model, save_sidecar
from eigengaze.errors import DimsTooLarge, EigengazeError, EmptyRegistry, NoImages
from eigengaze.registry import ObjectRegistry

from conftest import OBJECTS, QUERY_ANGLES, TRAIN_ANGLES, assert_cut_by_its_tau, held_files


def run(*argv):
    return main([str(a) for a in argv])


def file_hashes(directory):
    return {
        name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
        for name in sorted(os.listdir(directory))
    }


def tree(directory):
    """Every path under directory, each file with its digest, each directory with None."""
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        if p.is_file() else None
        for p in directory.rglob("*")
    }


def raises(error, *argv):
    """argv's command raises exactly `error`, and main reports it as exit 1."""
    args = build_parser().parse_args([str(a) for a in argv])
    with pytest.raises(error) as info:
        args.func(args)
    assert info.type is error
    assert run(*argv) == 1


# the CLI's value readers; argparse names one only in a message it phrases itself
READERS = ("_integer", "_decimal", "_parse_threshold", "_object_id", "_distinct", "_angles",
           "_rect", "_registry", "lambda")


def usage_error(capsys, message, *argv):
    """argv exits 1 with argparse's usage error, which holds `message` and names no reader."""
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert "usage:" in err and message in err
    assert not any(name in err for name in READERS)


def synth_dataset(tmp_path, objects=OBJECTS, angles=None, seed=1):
    out = tmp_path / "imgs"
    angle_arg = ",".join(str(a) for a in (angles or TRAIN_ANGLES))
    assert run("synth", "--objects", ",".join(objects), "--out", out,
               "--angles", angle_arg, "--seed", seed) == 0
    return out


def training_views(tmp_path, obj):
    """conftest.training_appearances as files: 10 views, the one at 40 degrees occluded."""
    imgs = synth_dataset(tmp_path, objects=[obj])
    assert run("occlude", imgs / f"{obj}_40.pgm", imgs / f"{obj}_40_occ.pgm",
               "--rect", "2,2,16,10") == 0
    (imgs / f"{obj}_40.pgm").unlink()
    return imgs


def learn_all(tmp_path, imgs, objects=OBJECTS, extra=()):
    reg = tmp_path / "registry"
    for obj in objects:
        files = sorted(imgs.glob(f"{obj}_*.pgm"))
        assert run("learn", "--object", obj, "--registry", reg, *files, *extra) == 0
    return reg


class TestSynth:
    def test_four_objects_forty_files(self, tmp_path):
        out = synth_dataset(tmp_path)
        assert len(list(out.glob("*.pgm"))) == 40

    def test_single_object_single_angle(self, tmp_path):
        out = tmp_path / "one"
        assert run("synth", "--objects", "A", "--out", out, "--angles", "0") == 0
        assert [p.name for p in out.iterdir()] == ["A_0.pgm"]

    def test_rerun_byte_identical(self, tmp_path):
        a = synth_dataset(tmp_path / "a")
        b = synth_dataset(tmp_path / "b")
        assert file_hashes(a) == file_hashes(b)

    @pytest.mark.parametrize("angles", ["1_0", "+5", "\u0665", "10,-5", "360"])
    def test_angle_outside_the_digit_rule_writes_nothing(self, tmp_path, angles):
        assert run("synth", "--objects", "A", "--out", tmp_path / "out", "--angles", angles) == 1
        assert list(tmp_path.iterdir()) == []

    def test_angles_may_carry_spaces(self, tmp_path):
        assert run("synth", "--objects", "A", "--out", tmp_path / "out", "--angles", "10, 20") == 0
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["A_10.pgm", "A_20.pgm"]

    def test_object_id_outside_the_registry_rule_writes_nothing(self, tmp_path, capsys):
        assert run("synth", "--objects", "A,../esc", "--out", tmp_path / "out") == 1
        assert "../esc" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("objects", ["", ","], ids=["empty", "comma"])
    def test_objects_naming_no_object_writes_nothing(self, tmp_path, capsys, objects):
        usage_error(capsys, f"argument --objects: {objects!r} has an empty field",
                    "synth", "--objects", objects, "--out", tmp_path / "out")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "objects, angles, message",
        [(",A,,B,", ",10,,20,", "argument --objects: ',A,,B,' has an empty field"),
         ("A,A", "0,10", "argument --objects: 'A,A' names A more than once"),
         ("A", "10,010", "argument --angles: '10,010' names 10 more than once")],
        ids=["empty-fields", "repeated-object", "repeated-angle-value"],
    )
    def test_list_outside_the_list_rule_writes_nothing(self, tmp_path, capsys, objects, angles,
                                                        message):
        usage_error(capsys, message, "synth", "--objects", objects, "--angles", angles,
                    "--out", tmp_path / "out")
        assert list(tmp_path.iterdir()) == []


class TestOcclude:
    def test_total_occlusion(self, tmp_path):
        out = synth_dataset(tmp_path, objects=["A"], angles=[0])
        src = out / "A_0.pgm"
        dst = tmp_path / "A_0_occ.pgm"
        assert run("occlude", src, dst, "--rect", "0,0,32,32", "--fill", "0") == 0
        img = eg.parse_pgm(dst.read_bytes())
        assert set(img.samples.tolist()) == {0}

    def test_outside_rectangle_fails(self, tmp_path):
        out = synth_dataset(tmp_path, objects=["A"], angles=[0])
        code = run("occlude", out / "A_0.pgm", tmp_path / "x.pgm",
                   "--rect", "40,40,4,4")
        assert code == 1

    def test_partial_occlusion_pixel_count(self, tmp_path):
        out = synth_dataset(tmp_path, objects=["A"], angles=[0])
        dst = tmp_path / "part.pgm"
        assert run("occlude", out / "A_0.pgm", dst, "--rect", "2,2,16,10",
                   "--fill", "0") == 0
        before = eg.parse_pgm((out / "A_0.pgm").read_bytes())
        after = eg.parse_pgm(dst.read_bytes())
        assert int((before.samples != after.samples).sum()) <= 160
        assert int((after.grid()[2:12, 2:18] == 0).sum()) == 160

    def test_rect_fields_may_carry_spaces(self, tmp_path):
        out = synth_dataset(tmp_path, objects=["A"], angles=[0])
        for name, rect in [("plain.pgm", "2,2,16,10"), ("spaced.pgm", "2, 2, 16, 10")]:
            assert run("occlude", out / "A_0.pgm", tmp_path / name, "--rect", rect) == 0
        assert (tmp_path / "plain.pgm").read_bytes() == (tmp_path / "spaced.pgm").read_bytes()


class TestLearn:
    def test_model_has_point_lines(self, tmp_path, capsys):
        imgs = training_views(tmp_path, "A")
        reg = learn_all(tmp_path, imgs, objects=["A"])
        text = (reg / "A.eig").read_text()
        assert text.startswith("EIGENGAZE 1\n")
        point_lines = [l for l in text.splitlines() if l.startswith("point ")]
        assert len(point_lines) == 10
        assert sum(l.split()[2] == "1" for l in point_lines) == 1
        assert "k = " in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, last_row",
        [(("--tau", "0.9"), ("2", "0.9235")),
         ((), ("3", "0.9541")), (("--tau", "1"), ("8", "1.0000"))],
        ids=["k3", "default", "every-eigenvalue"],
    )
    def test_energy_is_a_share_of_the_whole_spectrum(self, tmp_path, capsys, flags, last_row):
        """Each share divides by the views' summed |v - mean|^2, so the cumulative
        column shows what --tau drops, and reaches 1 only with every eigenvalue."""
        imgs = training_views(tmp_path, "mobile")
        capsys.readouterr()
        learn_all(tmp_path, imgs, objects=["mobile"], extra=flags)
        row = capsys.readouterr().out.splitlines()[-1].split()
        assert (row[0], row[-1]) == last_row

    def test_single_view_centered_fails(self, tmp_path):
        imgs = synth_dataset(tmp_path, objects=["A"], angles=[0])
        code = run("learn", "--object", "A", "--registry", tmp_path / "reg",
                   imgs / "A_0.pgm")
        assert code == 1

    def test_repeated_learn_byte_identical(self, tmp_path):
        imgs = synth_dataset(tmp_path)
        reg_a = learn_all(tmp_path / "ra", imgs)
        reg_b = learn_all(tmp_path / "rb", imgs)
        assert file_hashes(reg_a) == file_hashes(reg_b)

    def test_learn_from_manifest(self, tmp_path):
        imgs = synth_dataset(tmp_path, objects=["A"])
        manifest = tmp_path / "train.tsv"
        lines = [
            f"{imgs / f'A_{a}.pgm'}\tA\t{a}\t0" for a in TRAIN_ANGLES
        ]
        manifest.write_text("\n".join(lines) + "\n")
        assert run("learn", "--object", "A", "--manifest", manifest,
                   "--registry", tmp_path / "reg") == 0
        assert (tmp_path / "reg" / "A.eig").exists()

    @pytest.mark.parametrize(
        "angle, occluded, label",
        [("10", "0", (10, False)), ("370", "1", (10, True)), ("0010", "0", (10, False))],
    )
    def test_manifest_columns_carry_the_label(self, tmp_path, angle, occluded, label):
        imgs = synth_dataset(tmp_path, objects=["A"], angles=[0, 20])
        manifest = tmp_path / "train.tsv"
        manifest.write_text(f"{imgs / 'A_0.pgm'}\tA\t0\t0\n"
                            f"{imgs / 'A_20.pgm'}\tA\t{angle}\t{occluded}\n")
        assert run("learn", "--object", "A", "--manifest", manifest,
                   "--registry", tmp_path / "reg") == 0
        labels = eg.load_model((tmp_path / "reg" / "A.eig").read_bytes()).labels
        assert labels == (eg.ViewLabel("A", 0), eg.ViewLabel("A", *label))

    @pytest.mark.parametrize(
        "columns",
        ["A\t-10\t0", "A\t1_0\t0", "A\t+10\t0", "A\t 10\t0", "A\t10.0\t0", "A\t\t0",
         "A\t\u0661\t0", "A\t10\tyes", "A\t10\ttrue", "A\t10\t2", "A\t10\t",
         "A\t10\t0\tjunk", "mo,bile\t10\t0", "x y\t10\t0"],
        ids=["negative", "underscore", "plus", "space", "decimal", "empty", "arabic-indic",
             "flag-yes", "flag-true", "flag-2", "flag-empty", "extra-column", "comma-in-id",
             "space-in-id"],
    )
    @pytest.mark.parametrize("command", ["learn", "evaluate"])
    def test_bad_manifest_line_is_rejected(self, tmp_path, capsys, command, columns):
        imgs = synth_dataset(tmp_path, objects=["A"], angles=[0, 10])
        reg = learn_all(tmp_path, imgs, objects=["A"]) if command == "evaluate" else None
        before = file_hashes(reg) if reg else None
        manifest = tmp_path / "train.tsv"
        bad = f"{imgs / 'A_10.pgm'}\t{columns}"
        manifest.write_text(f"{imgs / 'A_0.pgm'}\tA\t0\t0\n{bad}\n", encoding="utf-8")
        if command == "learn":
            code = run("learn", "--object", "A", "--manifest", manifest,
                       "--registry", tmp_path / "reg")
        else:
            code = run("evaluate", "--manifest", manifest, "--registry", reg,
                       "--csv", tmp_path / "report.csv")
        assert code == 1
        err = capsys.readouterr().err
        assert f"{manifest}:2:" in err and repr(bad) in err
        if command == "learn":
            assert not (tmp_path / "reg").exists()
        else:
            assert file_hashes(reg) == before
            assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize("command", ["learn", "evaluate"])
    def test_manifest_line_that_is_not_utf8_is_rejected(self, tmp_path, capsys, command):
        imgs = synth_dataset(tmp_path, objects=["A"], angles=[0, 10])
        reg = learn_all(tmp_path, imgs, objects=["A"])
        manifest = tmp_path / "latin1.tsv"
        manifest.write_bytes("dätä/A_30.pgm\tA\t30\t0\n".encode("latin-1"))
        before = tree(tmp_path)
        if command == "learn":
            code = run("learn", "--object", "A", "--manifest", manifest,
                       "--registry", tmp_path / "reg")
        else:
            code = run("evaluate", "--manifest", manifest, "--registry", reg,
                       "--csv", tmp_path / "report.csv")
        assert code == 1
        err = capsys.readouterr().err
        assert f"{manifest}:1:" in err and "not UTF-8" in err
        assert tree(tmp_path) == before

    def test_manifest_skips_blank_and_comment_lines_and_resolves_paths_from_its_directory(
        self, tmp_path, monkeypatch
    ):
        imgs = synth_dataset(tmp_path, objects=["A"], angles=[0, 10, 20])
        (tmp_path / "lists").mkdir()
        (tmp_path / "lists" / "train.tsv").write_text(
            "# three views of A\n\n../imgs/A_0.pgm\tA\t0\n"
            f"{imgs / 'A_10.pgm'}\tA\t10\n\n#../imgs/A_20.pgm\tA\t20\t0\n"
            "../imgs/A_20.pgm\tA\t20\t1\n"
        )
        # a path relative to the working directory would name cwd/../imgs, which does not exist
        (tmp_path / "cwd" / "deeper").mkdir(parents=True)
        monkeypatch.chdir(tmp_path / "cwd" / "deeper")
        assert run("learn", "--object", "A", "--manifest", "../../lists/train.tsv",
                   "--registry", tmp_path / "reg") == 0
        labels = eg.load_model((tmp_path / "reg" / "A.eig").read_bytes()).labels
        assert labels == (eg.ViewLabel("A", 0), eg.ViewLabel("A", 10), eg.ViewLabel("A", 20, True))

    def test_manifest_and_image_files_together_are_rejected(self, tmp_path, capsys):
        imgs = synth_dataset(tmp_path, objects=["a"], angles=[0, 10, 20])
        manifest = tmp_path / "m.tsv"
        manifest.write_text(f"{imgs / 'a_0.pgm'}\ta\t0\n{imgs / 'a_10.pgm'}\ta\t10\n")
        before = tree(tmp_path)
        raises(EigengazeError, "learn", "--object", "a", "--manifest", manifest,
               "--registry", tmp_path / "reg", imgs / "a_20.pgm")
        err = capsys.readouterr().err
        assert str(manifest) in err and str(imgs / "a_20.pgm") in err
        assert tree(tmp_path) == before

    @pytest.mark.parametrize("source", [(), ("--manifest", "b.tsv")], ids=["none", "manifest"])
    def test_no_images_writes_nothing(self, tmp_path, monkeypatch, source):
        imgs = synth_dataset(tmp_path, objects=["B"], angles=[0, 10])
        (tmp_path / "b.tsv").write_text(f"{imgs / 'B_0.pgm'}\tB\n{imgs / 'B_10.pgm'}\tB\t10\n")
        monkeypatch.chdir(tmp_path)
        before = tree(tmp_path)
        raises(NoImages, "learn", "--object", "A", "--registry", "reg", *source)
        assert tree(tmp_path) == before

    @pytest.mark.parametrize("source", ["manifest", "files"])
    def test_object_outside_the_registry_rule_writes_nothing(self, tmp_path, monkeypatch,
                                                             capsys, source):
        imgs = synth_dataset(tmp_path, objects=["A"], angles=[0, 10])
        (tmp_path / "m.tsv").write_text(f"{imgs / 'A_0.pgm'}\t../x\n")
        monkeypatch.chdir(tmp_path)
        before = tree(tmp_path)
        inputs = ("--manifest", "m.tsv") if source == "manifest" else sorted(imgs.glob("A_*"))
        usage_error(capsys, f"argument --object: object id '../x' must match "
                    f"{registry_module._OBJECT_ID.pattern}",
                    "learn", "--object", "../x", "--registry", "reg", *inputs)
        assert tree(tmp_path) == before

    def test_k_over_an_existing_registry_is_a_usage_error(self, tmp_path, capsys):
        """The energy threshold alone cuts a space, so learn takes no --k."""
        imgs = synth_dataset(tmp_path, objects=["A", "B"])
        learn_all(tmp_path, imgs, objects=["A"])
        before = tree(tmp_path)
        usage_error(capsys, "unrecognized arguments: --k 3", "learn", "--object", "B",
                    "--registry", tmp_path / "registry", *sorted(imgs.glob("B_*.pgm")), "--k", "3")
        assert tree(tmp_path) == before

    @pytest.mark.parametrize("flags", [(), ("--tau", "0.9"), ("--k", "3", "--tau", "0.9")],
                             ids=["default", "tau-0.9", "k-3-tau-0.9"])
    def test_every_learned_space_is_cut_by_its_tau(self, tmp_path, flags):
        """Whatever flags learn is given, a space it writes, and load_dir
        reads, keeps the k that the model's recorded threshold picks from its
        views. A flag learn does not take is a usage error and writes nothing."""
        imgs = synth_dataset(tmp_path, objects=["pencil-box"])
        files = sorted(imgs.glob("pencil-box_*.pgm"))
        code = run("learn", "--object", "pencil-box", "--registry", tmp_path / "reg", *files,
                   *flags)
        if code == 0:
            (es,) = eg.ObjectRegistry.load_dir(str(tmp_path / "reg")).spaces
            assert_cut_by_its_tau(es, [eg.vectorize(eg.parse_pgm(f.read_bytes())) for f in files])
        assert code == (1 if "--k" in flags else 0)
        assert (tmp_path / "reg").exists() == (code == 0)

    @pytest.mark.parametrize("env", [None, ""], ids=["unset", "empty"])
    def test_no_registry_directory_writes_nothing(self, tmp_path, monkeypatch, capsys, env):
        imgs = synth_dataset(tmp_path, objects=["A"])
        if env is None:
            monkeypatch.delenv("EIGENGAZE_REGISTRY", raising=False)
        else:
            monkeypatch.setenv("EIGENGAZE_REGISTRY", env)
        monkeypatch.chdir(tmp_path)
        before = tree(tmp_path)
        usage_error(capsys, "the following arguments are required: --registry",
                    "learn", "--object", "A", *sorted(imgs.glob("A_*.pgm")))
        assert tree(tmp_path) == before

    def test_centered_is_not_a_flag(self, tmp_path, capsys):
        imgs = synth_dataset(tmp_path, objects=["A"])
        before = tree(tmp_path)
        usage_error(capsys, "unrecognized arguments: --centered", "learn", "--object", "A",
                    "--registry", tmp_path / "reg", *sorted(imgs.glob("A_*.pgm")), "--centered")
        assert tree(tmp_path) == before

    def test_omitted_build_flags_keep_the_config_defaults(self, tmp_path, monkeypatch):
        """An omitted --tau leaves its value to EigenspaceConfig."""
        monkeypatch.setattr("eigengaze.cli.EigenspaceConfig",
                            functools.partial(eg.EigenspaceConfig, energy_threshold=0.9))
        reg = learn_all(tmp_path, synth_dataset(tmp_path, objects=["A"]), objects=["A"])
        es = eg.load_model((reg / "A.eig").read_bytes())
        assert es.config == eg.EigenspaceConfig(energy_threshold=0.9)

    def test_a_space_of_another_dim_is_not_enrolled(self, tmp_path, capsys):
        reg = tmp_path / "reg"
        for obj, side in (("A", 32), ("B", 16)):
            run("synth", "--objects", obj, "--out", tmp_path / "imgs", "--side", str(side))
        assert run("learn", "--object", "A", "--registry", reg,
                   *sorted((tmp_path / "imgs").glob("A_*.pgm"))) == 0
        before = tree(reg)
        capsys.readouterr()
        assert run("learn", "--object", "B", "--registry", reg,
                   *sorted((tmp_path / "imgs").glob("B_*.pgm"))) == 1
        assert capsys.readouterr().err == "error: dim 256 does not match dim 1024\n"
        assert tree(reg) == before

    @pytest.mark.parametrize("flags", [("--norm", "unit"), ("--uncentered",)],
                             ids=["norm", "uncentered"])
    def test_removed_build_flags_are_usage_errors(self, tmp_path, capsys, flags):
        """Every view is unit-normalized and every build centred, so neither has a flag."""
        imgs = synth_dataset(tmp_path, objects=["A"])
        before = tree(tmp_path)
        usage_error(capsys, f"unrecognized arguments: {' '.join(flags)}", "learn", "--object",
                    "A", "--registry", tmp_path / "reg", *sorted(imgs.glob("A_*.pgm")), *flags)
        assert tree(tmp_path) == before

    @pytest.mark.parametrize(
        "flags", [("--margin", "nan"), ("--margin", "inf"), ("--threshold", "inf")]
    )
    def test_non_finite_policy_is_rejected(self, tmp_path, flags):
        imgs = synth_dataset(tmp_path, objects=["A"])
        code = run("learn", "--object", "A", "--registry", tmp_path / "reg",
                   *sorted(imgs.glob("A_*.pgm")), *flags)
        assert code == 1
        assert not (tmp_path / "reg").exists()

    def test_policy_flags_apply_over_an_existing_registry(self, tmp_path):
        imgs = synth_dataset(tmp_path, objects=["a", "b", "c", "d"])
        reg = tmp_path / "reg"

        def learn(obj, *flags):
            files = sorted(imgs.glob(f"{obj}_*.pgm"))
            assert run("learn", "--object", obj, "--registry", reg, *files, *flags) == 0
            return (reg / "registry.manifest").read_text().splitlines()[1]

        assert learn("a", "--threshold", "0.3") == "policy 0.29999999999999999 1.5"
        assert learn("b", "--threshold", "0.7", "--margin", "2") == (
            "policy 0.69999999999999996 2"
        )
        # an omitted flag keeps the stored value
        assert learn("c") == "policy 0.69999999999999996 2"
        assert learn("d", "--threshold", "auto") == "policy auto 2"

    @pytest.mark.parametrize(
        "flags", [("--margin", "nan"), ("--margin", "0"), ("--threshold", "inf")]
    )
    def test_bad_policy_over_an_existing_registry_writes_nothing(self, tmp_path, flags):
        imgs = synth_dataset(tmp_path, objects=["A", "B"])
        reg = learn_all(tmp_path, imgs, objects=["A"])
        before = file_hashes(reg)
        code = run("learn", "--object", "B", "--registry", reg,
                   *sorted(imgs.glob("B_*.pgm")), *flags)
        assert code == 1
        assert file_hashes(reg) == before

    @pytest.mark.parametrize("name", ["c_front.pgm", "c_back.pgm", "c_-10.pgm"])
    def test_file_name_without_an_angle_is_rejected(self, tmp_path, capsys, name):
        imgs = synth_dataset(tmp_path, objects=["c"], angles=[0, 10])
        bad = imgs / name
        (imgs / "c_10.pgm").rename(bad)
        code = run("learn", "--object", "c", "--registry", tmp_path / "reg",
                   imgs / "c_0.pgm", bad)
        assert code == 1
        assert name in capsys.readouterr().err
        assert not (tmp_path / "reg").exists()

    @pytest.mark.parametrize(
        "name, angle, occluded",
        [("c_0.pgm", 0, False), ("my_obj_20_occ.pgm", 20, True), ("c_370.pgm", 10, False)],
    )
    def test_file_name_carries_the_label(self, name, angle, occluded):
        assert _label_from_filename(name, "c") == eg.ViewLabel("c", angle, occluded)


def learn(reg, imgs, obj, *extra):
    """The exit code of a learn of obj's views in imgs into registry reg."""
    return run("learn", "--object", obj, "--registry", reg, *sorted(imgs.glob(f"{obj}_*.pgm")),
               *extra)


class TestLearnPass:
    """learn reads, checks and writes each stored model once, in one staged pass
    that holds the registry directory's lock."""

    def test_each_stored_model_is_loaded_once_and_hashed_once(self, tmp_path, monkeypatch):
        imgs = synth_dataset(tmp_path, objects=["A", "B", "C"])
        reg = learn_all(tmp_path, imgs, objects=["A", "B"])
        before = {p.name: p.read_bytes() for p in reg.iterdir()}
        loaded, hashed = [], []
        load, digest = registry_module.load_model, eigenspace_module._sidecar_digest
        monkeypatch.setattr(registry_module, "load_model",
                            lambda data, sidecar=None: loaded.append(data) or load(data, sidecar))
        monkeypatch.setattr(eigenspace_module, "_sidecar_digest",
                            lambda data, block: hashed.append(bytes(data)) or digest(data, block))
        assert learn(reg, imgs, "C") == 0
        stored = [before["A.eig"], before["B.eig"]]
        assert loaded == stored
        assert hashed == stored + [(reg / "C.eig").read_bytes()]
        for name, data in before.items():
            if name != "registry.manifest":
                assert (reg / name).read_bytes() == data, name

    @pytest.mark.parametrize("case", ["duplicate-id", "degenerate-views", "damaged-last-model"])
    def test_a_failed_learn_changes_no_file(self, tmp_path, capsys, case):
        imgs = synth_dataset(tmp_path, objects=["A", "B", "C"])
        reg = learn_all(tmp_path, imgs, objects=["A", "B"])
        if case == "damaged-last-model":
            data = bytearray((reg / "B.eig").read_bytes())
            data[data.index(b"dim ") + 4] ^= 1
            (reg / "B.eig").write_bytes(data)
        before = held_files(reg)
        capsys.readouterr()
        if case == "degenerate-views":
            code = run("learn", "--object", "C", "--registry", reg, imgs / "C_0.pgm")
        else:
            code = learn(reg, imgs, "A" if case == "duplicate-id" else "C")
        assert code == 1 and capsys.readouterr().err.startswith("error: ")
        assert held_files(reg) == before

    def test_a_failed_first_learn_makes_no_directory(self, tmp_path):
        imgs = synth_dataset(tmp_path, objects=["A"], angles=[0])
        assert run("learn", "--object", "A", "--registry", tmp_path / "new" / "reg",
                   imgs / "A_0.pgm") == 1
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize(
        "damage",
        [
            lambda f8: f8.unlink(),
            # the sidecar written for another .eig text
            lambda f8: f8.write_bytes(save_sidecar(load_model(f8.with_suffix(".eig").read_bytes()),
                                                   b"EIGENGAZE 1\n")),
            lambda f8: f8.write_bytes(f8.read_bytes()[:-1] + b"\0"),
        ],
        ids=["missing", "stale", "damaged"],
    )
    def test_a_stored_model_gets_the_sidecar_save_dir_writes(self, tmp_path, damage):
        """learn writes the files library load_dir, accumulate and a save_dir
        into a new directory write."""
        imgs = synth_dataset(tmp_path, objects=["A", "B", "C"])
        reg = learn_all(tmp_path, imgs, objects=["A", "B"])
        damage(reg / "A.f8")
        saved = ObjectRegistry.load_dir(str(reg))
        assert learn(reg, imgs, "C") == 0
        views = [imgio.vectorize(imgio.parse_pgm(path.read_bytes()),
                                 label=_label_from_filename(path, "C"))
                 for path in sorted(imgs.glob("C_*.pgm"))]
        saved.accumulate("C", views, eg.EigenspaceConfig())
        saved.save_dir(str(tmp_path / "library"))
        assert tree(reg) == tree(tmp_path / "library")

    @pytest.mark.skipif(find_spec("fcntl") is None, reason="no flock on this platform")
    def test_concurrent_learns_both_enroll(self, tmp_path, monkeypatch):
        """The first learn holds the registry's lock through its build, so the
        second waits for it, then loads the first's model and adds its own."""
        imgs = synth_dataset(tmp_path, objects=["A", "B", "C"])
        reg = learn_all(tmp_path, imgs, objects=["A"])
        build, building, release = registry_module.build_eigenspace, Event(), Event()

        def held_build(object_id, *args):
            if object_id == "B":
                building.set()
                release.wait(60)
            return build(object_id, *args)

        monkeypatch.setattr(registry_module, "build_eigenspace", held_build)
        codes = {}
        threads = {obj: Thread(target=lambda obj=obj: codes.update({obj: learn(reg, imgs, obj)}))
                   for obj in ("B", "C")}
        try:
            threads["B"].start()
            assert building.wait(60)
            threads["C"].start()
            threads["C"].join(0.5)
            assert threads["C"].is_alive()
        finally:
            release.set()
            for thread in threads.values():
                thread.join(60)
        assert not any(thread.is_alive() for thread in threads.values())
        assert codes == {"B": 0, "C": 0}
        assert [es.object_id for es in ObjectRegistry.load_dir(str(reg)).spaces] == ["A", "B", "C"]


class TestRecognize:
    def test_training_image_known(self, tmp_path, capsys):
        imgs = synth_dataset(tmp_path)
        reg = learn_all(tmp_path, imgs)
        capsys.readouterr()
        assert run("recognize", imgs / "mobile_20.pgm", "--registry", reg) == 0
        out = capsys.readouterr().out
        assert out.startswith("Known: mobile ")

    def test_heavy_occlusion_unknown(self, tmp_path, capsys):
        imgs = synth_dataset(tmp_path)
        reg = learn_all(tmp_path, imgs)
        heavy = tmp_path / "heavy.pgm"
        # 32x26 of 32x32 is 81% occluded
        assert run("occlude", imgs / "mobile_20.pgm", heavy,
                   "--rect", "0,0,32,26", "--fill", "0") == 0
        capsys.readouterr()
        assert run("recognize", heavy, "--registry", reg) == 2
        assert capsys.readouterr().out.startswith("Unknown:")

    def test_missing_registry(self, tmp_path):
        imgs = synth_dataset(tmp_path, objects=["A"], angles=[0])
        assert run("recognize", imgs / "A_0.pgm",
                   "--registry", tmp_path / "nope") == 1

    def test_registry_naming_no_object_writes_nothing(self, tmp_path):
        imgs = synth_dataset(tmp_path, objects=["A"], angles=[0])
        eg.ObjectRegistry().save_dir(str(tmp_path / "reg"))
        before = tree(tmp_path)
        raises(EmptyRegistry, "recognize", imgs / "A_0.pgm", "--registry", tmp_path / "reg")
        assert tree(tmp_path) == before

    def test_explicit_threshold_override(self, tmp_path):
        imgs = synth_dataset(tmp_path)
        reg = learn_all(tmp_path, imgs)
        assert run("recognize", imgs / "mobile_20.pgm", "--registry", reg,
                   "--threshold", "1e-12") == 2


def scoring_command(tmp_path, command, imgs, reg):
    """argv for recognize of A_0, or evaluate of a one-line manifest into report.csv."""
    if command == "recognize":
        return ["recognize", imgs / "A_0.pgm", "--registry", reg]
    manifest = tmp_path / "q.tsv"
    manifest.write_text(f"{imgs / 'A_0.pgm'}\tA\t0\t0\n")
    return ["evaluate", "--manifest", manifest, "--registry", reg, "--csv", tmp_path / "report.csv"]


@pytest.mark.parametrize("command", ["learn", "recognize", "evaluate"])
def test_the_registry_variable_names_no_registry(tmp_path, monkeypatch, capsys, command):
    imgs = synth_dataset(tmp_path, objects=["A", "B"], angles=TRAIN_ANGLES)
    reg = learn_all(tmp_path, imgs, objects=["A"])
    monkeypatch.setenv("EIGENGAZE_REGISTRY", str(reg))
    if command == "learn":
        argv = ["learn", "--object", "B", "--registry", reg, *sorted(imgs.glob("B_*.pgm"))]
    else:
        argv = scoring_command(tmp_path, command, imgs, reg)
    at = argv.index("--registry")
    del argv[at : at + 2]
    before = tree(tmp_path)
    usage_error(capsys, "the following arguments are required: --registry", *argv)
    assert tree(tmp_path) == before


@pytest.mark.parametrize("command", ["learn", "recognize", "evaluate"])
def test_an_empty_registry_path_is_a_usage_error(tmp_path, monkeypatch, capsys, command):
    """Run inside a registry, where an empty path would name it for reading."""
    imgs = synth_dataset(tmp_path, objects=["A", "B"], angles=TRAIN_ANGLES)
    reg = learn_all(tmp_path, imgs, objects=["A"])
    if command == "learn":
        argv = ["learn", "--object", "B", "--registry", reg, *sorted(imgs.glob("B_*.pgm"))]
    else:
        argv = scoring_command(tmp_path, command, imgs, reg)
    argv[argv.index("--registry") + 1] = ""
    monkeypatch.chdir(reg)
    before = tree(tmp_path)
    usage_error(capsys, "argument --registry: the registry path is empty", *argv)
    assert tree(tmp_path) == before


@pytest.mark.parametrize("command", ["learn", "recognize"])
def test_a_zero_threshold_is_the_policys_error(tmp_path, capsys, command):
    """EnrollmentPolicy, not the flag's reader, holds the threshold's range."""
    imgs = synth_dataset(tmp_path, objects=["A", "B"], angles=TRAIN_ANGLES)
    reg = learn_all(tmp_path, imgs, objects=["A"])
    if command == "learn":
        argv = ["learn", "--object", "B", "--registry", reg, *sorted(imgs.glob("B_*.pgm"))]
    else:
        argv = scoring_command(tmp_path, command, imgs, reg)
    before = tree(tmp_path)
    capsys.readouterr()
    assert run(*argv, "--threshold", "0") == 1
    assert capsys.readouterr().err == ("error: unknown_threshold must be 'auto' or positive "
                                       "and finite, not 0.0\n")
    assert tree(tmp_path) == before


@pytest.mark.parametrize("command", ["recognize", "evaluate"])
class TestScoringCommands:
    def test_empty_registry_is_the_library_error(self, tmp_path, capsys, command):
        imgs = synth_dataset(tmp_path, objects=["A"], angles=[0])
        eg.ObjectRegistry().save_dir(str(tmp_path / "reg"))
        argv = scoring_command(tmp_path, command, imgs, tmp_path / "reg")
        before = tree(tmp_path)
        capsys.readouterr()
        assert run(*argv) == 1
        assert capsys.readouterr().err == "error: no enrolled objects\n"
        assert tree(tmp_path) == before

    def test_in_space_only_is_a_usage_error(self, tmp_path, capsys, command):
        imgs = synth_dataset(tmp_path, objects=["A", "B"], angles=TRAIN_ANGLES)
        reg = learn_all(tmp_path, imgs, objects=["A", "B"])
        argv = scoring_command(tmp_path, command, imgs, reg)
        before = tree(tmp_path)
        usage_error(capsys, "unrecognized arguments: --in-space-only", *argv, "--in-space-only")
        assert tree(tmp_path) == before


class TestEvaluate:
    def test_training_manifest_perfect(self, tmp_path, capsys):
        imgs = synth_dataset(tmp_path)
        reg = learn_all(tmp_path, imgs, extra=["--tau", "1"])
        manifest = tmp_path / "q.tsv"
        lines = [
            f"{imgs / f'{obj}_{a}.pgm'}\t{obj}\t{a}\t0"
            for obj in OBJECTS
            for a in TRAIN_ANGLES
        ]
        manifest.write_text("\n".join(lines) + "\n")
        csv_out = tmp_path / "report.csv"
        assert run("evaluate", "--manifest", manifest, "--registry", reg,
                   "--csv", csv_out, "--text", tmp_path / "report.txt") == 0
        assert "r = 1.0000" in capsys.readouterr().out
        assert csv_out.read_text().splitlines()[0] == "true_id,predicted_id,count"
        assert (tmp_path / "report.txt").exists()

    def test_empty_manifest(self, tmp_path):
        imgs = synth_dataset(tmp_path)
        reg = learn_all(tmp_path, imgs)
        manifest = tmp_path / "empty.tsv"
        manifest.write_text("")
        assert run("evaluate", "--manifest", manifest, "--registry", reg) == 1

    def test_offset_queries_rate(self, tmp_path, capsys):
        imgs = synth_dataset(tmp_path)
        reg = learn_all(tmp_path, imgs)
        qdir = tmp_path / "queries"
        assert run("synth", "--objects", ",".join(OBJECTS), "--out", qdir,
                   "--angles", ",".join(str(a) for a in QUERY_ANGLES)) == 0
        manifest = tmp_path / "offset.tsv"
        lines = [
            f"{qdir / f'{obj}_{a}.pgm'}\t{obj}\t{a}\t0"
            for obj in OBJECTS
            for a in QUERY_ANGLES
        ]
        manifest.write_text("\n".join(lines) + "\n")
        assert run("evaluate", "--manifest", manifest, "--registry", reg) == 0
        out = capsys.readouterr().out
        rate = float(out.split("r = ")[1].split()[0])
        assert rate >= 0.90


class TestLocale:
    def test_text_files_are_utf8_whatever_the_locale(self, tmp_path, monkeypatch):
        """Under an ASCII locale without UTF-8 mode, evaluate reads a UTF-8
        manifest naming a non-ASCII path, and evaluate and inspect write the
        same files as in this process."""
        imgs = synth_dataset(tmp_path, objects=["A", "B"])
        learn_all(tmp_path, imgs, objects=["A", "B"])
        assert run("synth", "--objects", "A", "--angles", "30", "--out", tmp_path / "dätä") == 0
        (tmp_path / "q.tsv").write_text("dätä/A_30.pgm\tA\t30\t0\n", encoding="utf-8")
        argvs = [("evaluate", "--manifest", "q.tsv", "--registry", "registry", "--csv", "{}.csv",
                  "--text", "{}.txt"),
                 ("inspect", "registry/A.eig", "--dims", "2", "--out", "{}.out")]
        src = str(Path(eg.__file__).resolve().parents[1])
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        outputs = []
        for argv in argvs:
            done = subprocess.run(
                [sys.executable, "-X", "utf8=0", "-m", "eigengaze.cli",
                 *(a.format("ascii") for a in argv)],
                cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
            )
            outputs.append((done.returncode, done.stdout, done.stderr))
        assert outputs == [(0, "r = 1.0000 (1/1)\n", ""), (0, "", "")]
        monkeypatch.chdir(tmp_path)
        for argv in argvs:
            assert run(*(a.format("here") for a in argv)) == 0
        for suffix in ("csv", "txt", "out"):
            assert Path(f"ascii.{suffix}").read_bytes() == Path(f"here.{suffix}").read_bytes()


def test_importing_the_cli_leaves_fractions_to_evaluate():
    """Only evaluate needs fractions (and the decimal module it imports), so
    learn and recognize processes do not import it."""
    src = str(Path(eg.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, eigengaze.cli; print('fractions' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True,
                          timeout=300)
    assert done.stdout.strip() == b"False"


class TestInspect:
    def test_csv_rows(self, tmp_path, capsys):
        imgs = synth_dataset(tmp_path)
        reg = learn_all(tmp_path, imgs)
        capsys.readouterr()
        assert run("inspect", reg / "mobile.eig", "--dims", "3") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "angle_deg,occluded,c1,c2,c3"
        assert len(lines) == 11

    def test_output_does_not_depend_on_the_sidecar(self, tmp_path, capsys, monkeypatch):
        imgs = synth_dataset(tmp_path)
        reg = learn_all(tmp_path, imgs)
        sidecars = []

        def spy(data, sidecar=None):
            sidecars.append(sidecar)
            return load_model(data, sidecar)

        monkeypatch.setattr(registry_module, "load_model", spy)
        own, other = (reg / "mobile.f8").read_bytes(), (reg / "stapler.f8").read_bytes()
        capsys.readouterr()
        outputs = []
        for f8 in (own, other, None):
            if f8 is None:
                os.remove(reg / "mobile.f8")
            else:
                (reg / "mobile.f8").write_bytes(f8)
            assert run("inspect", reg / "mobile.eig", "--dims", "3") == 0
            outputs.append(capsys.readouterr())
        assert outputs == [outputs[0]] * 3 and outputs[0].err == ""
        # inspect passes the sidecar beside the model, which loads only if it matches
        assert sidecars == [own, other, None]

    def test_dims_too_large(self, tmp_path):
        imgs = synth_dataset(tmp_path)
        reg = learn_all(tmp_path, imgs)
        assert run("inspect", reg / "mobile.eig", "--dims", "99") == 1

    @pytest.fixture
    def saved_space(self, tmp_path, four_object_registry):
        """conftest's first space, saved without a sidecar for inspect to read."""
        es = four_object_registry.spaces[0]
        (tmp_path / "model.eig").write_bytes(eg.save_model(es))
        return es, tmp_path / "model.eig"

    def test_ten_views_three_dims(self, saved_space, capsys):
        es, model = saved_space
        assert es.k >= 3
        assert run("inspect", model, "--dims", "3") == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 10
        assert all(len(row) == 2 + 3 for row in rows)
        assert sum(row[1] == "1" for row in rows) == 1

    def test_dims_equals_k(self, saved_space, capsys):
        es, model = saved_space
        assert run("inspect", model, "--dims", es.k) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [(int(angle), occluded == "1") for angle, occluded, *_ in rows] == [
            (label.view_angle_deg, label.occluded) for label in es.labels]
        assert [[float(c) for c in coords] for _, _, *coords in rows] == es.coords.tolist()

    def test_dims_one_past_k(self, saved_space, capsys):
        es, model = saved_space
        raises(DimsTooLarge, "inspect", model, "--dims", es.k + 1)
        err = capsys.readouterr().err
        assert err == f"error: dims must be in [1, {es.k}], got {es.k + 1}\n"

    def test_out_file(self, tmp_path):
        imgs = synth_dataset(tmp_path)
        reg = learn_all(tmp_path, imgs)
        out = tmp_path / "coords.csv"
        assert run("inspect", reg / "mobile.eig", "--dims", "2", "--out", out) == 0
        assert out.read_text().startswith("angle_deg,occluded,c1,c2")


class TestIntegers:
    """Every integer the CLI reads is ASCII decimal digits and nothing else."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("synth", "--objects", "A", "--out", "out", "--side", "1_6"),
            ("synth", "--objects", "A", "--out", "out", "--side", " 16"),
            ("synth", "--objects", "A", "--out", "out", "--seed", "+1"),
            ("synth", "--objects", "A", "--out", "out", "--seed", "-1"),
            # within the digit rule, but below the side synth_view renders
            ("synth", "--objects", "A", "--out", "out", "--side", "7"),
            ("occlude", "imgs/A_0.pgm", "occ.pgm", "--rect", "\u0661,+2,1_0,4"),
            ("occlude", "imgs/A_0.pgm", "occ.pgm", "--rect", "2,2,16,10", "--fill", "+0"),
            ("inspect", "registry/A.eig", "--dims", "\uff13", "--out", "coords.csv"),
        ],
        ids=["side-underscore", "side-space", "seed-plus", "seed-negative", "side-below-8",
             "rect-mixed", "fill-plus", "dims-fullwidth"],
    )
    def test_integer_outside_the_digit_rule_writes_nothing(self, tmp_path, monkeypatch, argv):
        # ten views give A a k of at least 3, so --dims 3 would succeed
        imgs = synth_dataset(tmp_path, objects=["A", "B"])
        learn_all(tmp_path, imgs, objects=["A"])
        monkeypatch.chdir(tmp_path)
        before = tree(tmp_path)
        assert run(*argv) == 1
        assert tree(tmp_path) == before


class TestDecimals:
    """Every decimal flag is ASCII digits, an optional fraction and an optional exponent."""

    @pytest.mark.parametrize(
        "flags",
        [("--margin", "1_5"), ("--tau", ".9_5"), ("--threshold", "\u0660.\u0665"),
         ("--margin", " 2")],
        ids=["margin-underscore", "tau-underscore", "threshold-arabic-indic", "margin-space"],
    )
    def test_decimal_outside_the_decimal_rule_writes_nothing(self, tmp_path, flags):
        imgs = synth_dataset(tmp_path, objects=["A", "B"])
        learn_all(tmp_path, imgs, objects=["A"])
        before = tree(tmp_path)
        code = run("learn", "--object", "B", "--registry", tmp_path / "registry",
                   *sorted(imgs.glob("B_*.pgm")), *flags)
        assert code == 1
        assert tree(tmp_path) == before


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            (),
            ("recognize",),
            ("recognize", "x.pgm", "--threshold", "-1"),
        ],
        ids=["no-command", "no-image", "negative-threshold"],
    )
    def test_usage_error_is_not_unknown(self, argv, capsys):
        assert run(*argv) == 1
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("learn", "--object", "a", "--margin", "1_5"),
             "argument --margin: '1_5' is not a decimal number: ASCII digits"),
            (("synth", "--objects", "a", "--out", "out", "--side", "1_6"),
             "argument --side: '1_6' is not an integer in ASCII digits"),
            (("recognize", "x.pgm", "--threshold", "1_5"),
             "argument --threshold: '1_5' is not a decimal number: ASCII digits"),
            (("synth", "--objects", "a", "--out", "out", "--angles", "+5"),
             "argument --angles: '+5': '+5' is not an integer in ASCII digits"),
            (("synth", "--objects", "a", "--out", "out", "--angles", "0,\u0661\u0660"),
             "argument --angles: '0,\u0661\u0660': '\u0661\u0660' is not an integer in ASCII"),
            (("occlude", "x.pgm", "y.pgm", "--rect", "1,2,3,1_0"),
             "argument --rect: '1,2,3,1_0': '1_0' is not an integer in ASCII digits"),
            (("occlude", "x.pgm", "y.pgm", "--rect", "1,2,3"),
             "argument --rect: '1,2,3' must be four integers x0,y0,w,h"),
        ],
        ids=["decimal", "integer", "threshold-decimal", "angles",
             "arabic-indic-angle", "rect", "rect-of-three"],
    )
    def test_bad_value_names_its_flag_and_rule_not_its_reader(self, tmp_path, monkeypatch,
                                                               capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        usage_error(capsys, message, *argv)
        assert list(tmp_path.iterdir()) == []

    def test_help_exits_0(self, capsys):
        assert run("recognize", "--help") == 0
        assert "usage:" in capsys.readouterr().out
