from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from test_cli import COMMAND_MODULES as LOADED_MODULES

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("startup_walls", ROOT / "tools" / "startup_walls.py")
startup_walls = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(startup_walls)


def test_each_command_imports_the_modules_it_loads():
    for command, modules in startup_walls.COMMAND_MODULES.items():
        loaded = LOADED_MODULES["cachesim-file" if command == "cachesim" else command]
        assert set(modules) == loaded, command


def test_one_sample_prints_a_row_per_command(tmp_path, capsys):
    out = tmp_path / "walls.json"
    assert startup_walls.main(["--samples", "1", "--json", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split(" | ")[0].lstrip("| ") for line in lines[3:]]
    assert rows == [startup_walls.BARE, *startup_walls.COMMAND_MODULES]
    walls = json.loads(out.read_text())["walls_s"]
    (label,) = walls
    assert all(len(w) == 1 and w[0] > 0 for w in walls[label].values())
