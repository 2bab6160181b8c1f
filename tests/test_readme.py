import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The ``python`` code block under README's "Library use" heading."""
    section = README.read_text().split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_example_writes_its_vtu(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(library_example(), str(README), "exec"), namespace)
    assert (tmp_path / "solution.vtu").stat().st_size > 0
    # the example's adaptive run reaches the tolerance it sets
    config, history = namespace["config"], namespace["history"]
    assert history.records[-1].estimator <= config.estimator_tol
