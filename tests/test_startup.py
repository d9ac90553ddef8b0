"""What a fresh interpreter pays to start the CLI: `import affcluster.cli`
loads none of the stdlib modules that are slow to import or build, and the
bundled fixtures load through the package's own loader, so a zip-imported
package reads them too.

Each test runs `python -I -S`: without `site`, no .pth file of the
environment can import these modules before the package does."""

import subprocess
import sys
import zipfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# dataclasses imports inspect; importlib.resources imports pathlib and typing
NOT_LOADED = ("dataclasses", "inspect", "typing", "importlib.resources", "pathlib")


def _run(code, path):
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(path)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_cli_loads_no_slow_stdlib_modules():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import affcluster, affcluster.cli; "
        f"print(sorted(m for m in {NOT_LOADED!r} if m in sys.modules))"
    )
    assert _run(code, SRC) == "[]\n"


def test_fixtures_load_from_a_zip_imported_package(tmp_path):
    archive = tmp_path / "affcluster.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for path in sorted((SRC / "affcluster").rglob("*")):
            if path.suffix in (".py", ".json"):
                zf.write(path, path.relative_to(SRC).as_posix())
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "from affcluster import cli; "
        "assert cli.__file__.startswith(sys.argv[1]), cli.__file__; "
        "print(cli.load_matrix('a2t'))"
    )
    assert _run(code, archive) == (
        "ExtendedExchangeMatrix(rows=((0, 1, 1), (-1, 0, 1), (-1, -1, 0), "
        "(1, 0, 0), (0, 1, 0), (0, 0, 1)), n=3)\n"
    )
