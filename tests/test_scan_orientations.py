"""scripts/scan_orientations.py tabulates c1 over the diamond's orientations."""

import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "scan_orientations.py"


def test_split_diamond_beats_every_orientation(capsys):
    spec = importlib.util.spec_from_file_location("scan_orientations", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main(["--split", "2", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == [
        "best single-direction c1 = 5",
        "split d5 = 2x2: directed MC = 6, c1 = 6",
    ]
