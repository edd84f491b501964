"""The examples in README.md print what the README says they print.

The CLI document is run through `analyze` and `verify --max-order 12` and
compared line for line with the blocks shown after it; the library example
is executed and each printed value compared with the comment beside its
`print` call ("..." ends a prefix, "identical" repeats the line before).
"""

import contextlib
import io
import pathlib
import re

from artifact import cli

README = (pathlib.Path(__file__).resolve().parent.parent
          / "README.md").read_text(encoding="utf-8")


def block_after(marker, lang=""):
    """Body of the first fenced block of the language after marker."""
    start = README.index(marker)
    found = re.compile(r"^```%s\n(.*?)^```" % lang, re.M | re.S).search(
        README, start)
    return found.group(1)


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def test_readme_cli_document(tmp_path):
    path = tmp_path / "input.json"
    path.write_text(block_after("## Command line", "json"))
    code, out = run_cli(["analyze", str(path)])
    assert code == 0
    assert out == block_after("`analyze` on the document above prints:")
    code, out = run_cli(["verify", str(path), "--max-order", "12"])
    assert code == 0
    assert out == block_after("and `verify` confirms")


def test_readme_library_example():
    source = block_after("## Library example", "python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    claims = [line.split("#", 1)[1].strip() for line in source.splitlines()
              if line.startswith("print(")]
    assert len(printed) == len(claims) == 3
    for k, (got, claim) in enumerate(zip(printed, claims)):
        if claim.startswith("identical"):
            assert got == printed[k - 1]
        elif claim.endswith("...)"):
            assert got.startswith(claim[:-len("...)")])
        else:
            assert got == claim
