"""The package namespace and the README's Library section agree with the code."""

import importlib
import re
from pathlib import Path

import mpclust

README = Path(__file__).resolve().parents[1] / "README.md"

DOCUMENTED = {
    "DataMatrix", "load_matrix", "write_matrix", "log2_plus_one",
    "HyperParams", "run", "RunResult", "ConsensusState", "consensus_of",
    "finalize_hierarchical", "finalize_spectral", "tune_minipatch_size", "TuneResult",
    "ari", "f1_features", "select_by_score",
    "SynthSpec", "SynthData", "generate",
}


def _resolve(dotted: str):
    """The object a dotted ``mpclust.…`` name refers to, importing submodules on the way."""
    obj, path = mpclust, "mpclust"
    for part in dotted.split(".")[1:]:
        path += "." + part
        obj = getattr(obj, part) if hasattr(obj, part) else importlib.import_module(path)
    return obj


def test_namespace_is_the_documented_library():
    assert sorted(mpclust.__all__) == sorted(DOCUMENTED | {"__version__"})
    for name in mpclust.__all__:
        assert getattr(mpclust, name) is not None


def test_readme_lists_the_namespace():
    text = README.read_text()
    assert [name for name in sorted(DOCUMENTED) if f"`{name}`" not in text] == []


def test_readme_names_resolve():
    names = set(re.findall(r"\bmpclust(?:\.\w+)+", README.read_text()))
    assert {"mpclust.consensus_of", "mpclust.consensus.load_consensus_binary"} <= names
    for dotted in sorted(names):
        _resolve(dotted)


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    scope: dict = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    assert scope["s"].shape == (60, 60)
    assert scope["result"].labels.shape == (60,) and capsys.readouterr().out
