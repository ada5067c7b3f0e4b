import json

import pytest

from evograph import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    err = capsys.readouterr().err.strip()
    return code, (json.loads(err.splitlines()[-1]) if err else None)


class TestCheckpointErrors:
    @pytest.mark.parametrize("text", ['{"version": 1}', "[]", "not json"])
    def test_evaluate_reports_bad_checkpoint_as_json(self, tmp_path, capsys, text):
        ck = tmp_path / "ck.bin"
        ck.write_text(text)
        code, err = run_cli(capsys, "evaluate", "--checkpoint", str(ck),
                            "--data", str(tmp_path / "unused.csv"))
        assert code == cli.EXIT_RUNTIME
        assert err["error"] == "LoadError"
        assert err["exit_code"] == cli.EXIT_RUNTIME

    def test_missing_checkpoint(self, tmp_path, capsys):
        code, err = run_cli(capsys, "evaluate", "--checkpoint",
                            str(tmp_path / "none.bin"), "--data", "x.csv")
        assert code == cli.EXIT_RUNTIME
        assert err["error"] == "LoadError"


class TestManifest:
    def test_written_atomically(self, tmp_path):
        manifest = cli.RunManifest.create("train", None, "sha256:0", [3])
        path = manifest.write(tmp_path / "run")
        assert json.loads(path.read_text())["seed_list"] == [3]
        assert [p.name for p in path.parent.iterdir()] == ["manifest.json"]
