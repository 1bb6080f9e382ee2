import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eigengaze as eg
from eigengaze import registry as registry_module
from eigengaze.cli import _label_from_filename, build_parser, main
from eigengaze.eigenspace import load_model
from eigengaze.errors import EigengazeError, NoImages

from conftest import OBJECTS, QUERY_ANGLES, TRAIN_ANGLES


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


def synth_dataset(tmp_path, objects=OBJECTS, angles=None, seed=1):
    out = tmp_path / "imgs"
    angle_arg = ",".join(str(a) for a in (angles or TRAIN_ANGLES))
    assert run("synth", "--objects", ",".join(objects), "--out", out,
               "--angles", angle_arg, "--seed", seed) == 0
    return out


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
    def test_objects_naming_no_object_writes_nothing(self, tmp_path, objects):
        raises(EigengazeError, "synth", "--objects", objects, "--out", tmp_path / "out")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "objects, angles",
        [(",A,,B,", ",10,,20,"), ("A,A", "0,10"), ("A", "10,010")],
        ids=["empty-fields", "repeated-object", "repeated-angle-value"],
    )
    def test_list_outside_the_list_rule_writes_nothing(self, tmp_path, objects, angles):
        raises(EigengazeError, "synth", "--objects", objects, "--angles", angles,
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
        imgs = synth_dataset(tmp_path, objects=["A"])
        occ = imgs / "A_40_occ.pgm"
        assert run("occlude", imgs / "A_40.pgm", occ, "--rect", "2,2,16,10") == 0
        (imgs / "A_40.pgm").unlink()
        reg = learn_all(tmp_path, imgs, objects=["A"])
        text = (reg / "A.eig").read_text()
        assert text.startswith("EIGENGAZE 1\n")
        point_lines = [l for l in text.splitlines() if l.startswith("point ")]
        assert len(point_lines) == 10
        assert sum(l.split()[2] == "1" for l in point_lines) == 1
        assert "k = " in capsys.readouterr().out

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

    @pytest.mark.parametrize("env", [None, ""], ids=["unset", "empty"])
    def test_no_registry_directory_writes_nothing(self, tmp_path, monkeypatch, env):
        imgs = synth_dataset(tmp_path, objects=["A"])
        if env is None:
            monkeypatch.delenv("EIGENGAZE_REGISTRY", raising=False)
        else:
            monkeypatch.setenv("EIGENGAZE_REGISTRY", env)
        monkeypatch.chdir(tmp_path)
        before = tree(tmp_path)
        raises(EigengazeError, "learn", "--object", "A", *sorted(imgs.glob("A_*.pgm")))
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

    def test_env_var_registry(self, tmp_path, monkeypatch):
        imgs = synth_dataset(tmp_path, objects=["A"])
        monkeypatch.setenv("EIGENGAZE_REGISTRY", str(tmp_path / "envreg"))
        files = sorted(imgs.glob("A_*.pgm"))
        assert run("learn", "--object", "A", *files) == 0
        assert (tmp_path / "envreg" / "A.eig").exists()


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
        raises(EigengazeError, "recognize", imgs / "A_0.pgm", "--registry", tmp_path / "reg")
        assert tree(tmp_path) == before

    def test_explicit_threshold_override(self, tmp_path):
        imgs = synth_dataset(tmp_path)
        reg = learn_all(tmp_path, imgs)
        assert run("recognize", imgs / "mobile_20.pgm", "--registry", reg,
                   "--threshold", "1e-12") == 2


class TestEvaluate:
    def test_training_manifest_perfect(self, tmp_path, capsys):
        imgs = synth_dataset(tmp_path)
        reg = learn_all(tmp_path, imgs, extra=["--k", "10"])
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
            ("learn", "--object", "B", "--registry", "registry", "--k", "\u0662",
             "imgs/B_0.pgm", "imgs/B_10.pgm", "imgs/B_20.pgm"),
            ("inspect", "registry/A.eig", "--dims", "\uff13", "--out", "coords.csv"),
        ],
        ids=["side-underscore", "side-space", "seed-plus", "seed-negative", "side-below-8",
             "rect-mixed", "fill-plus", "k-arabic-indic", "dims-fullwidth"],
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
            ("learn", "--object", "a", "--threshold", "0"),
        ],
        ids=["no-command", "no-image", "negative-threshold", "zero-threshold"],
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
            (("recognize", "x.pgm", "--threshold", "0"),
             "argument --threshold: '0' is not a positive decimal number or 'auto'"),
            (("synth", "--objects", "a", "--out", "out", "--angles", "+5"),
             "error: --angles '+5': '+5' is not an integer in ASCII digits"),
            (("synth", "--objects", "a", "--out", "out", "--angles", "0,\u0661\u0660"),
             "error: --angles '0,\u0661\u0660': '\u0661\u0660' is not an integer in ASCII digits"),
            (("occlude", "x.pgm", "y.pgm", "--rect", "1,2,3,1_0"),
             "error: --rect '1,2,3,1_0': '1_0' is not an integer in ASCII digits"),
            (("occlude", "x.pgm", "y.pgm", "--rect", "1,2,3"),
             "error: --rect '1,2,3' must be four integers x0,y0,w,h"),
        ],
        ids=["decimal", "integer", "threshold-decimal", "threshold-zero", "angles",
             "arabic-indic-angle", "rect", "rect-of-three"],
    )
    def test_bad_value_names_its_flag_and_rule_not_its_reader(self, tmp_path, monkeypatch,
                                                               capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert message in err
        assert not any(name in err for name in ("_decimal", "_integer", "_parse_threshold"))
        assert list(tmp_path.iterdir()) == []

    def test_help_exits_0(self, capsys):
        assert run("recognize", "--help") == 0
        assert "usage:" in capsys.readouterr().out
