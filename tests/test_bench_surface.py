"""The part of chordcheck that the benchmark under bench/ calls still exists.

The benchmark reaches `checker`, `sim` and `events` as module attributes. A
change that renames or removes one of those attributes, or a keyword the
benchmark passes to one of them, would make benchmark operations fail; this
test finds it from the benchmark's source, without running the benchmark.
"""

import ast
import inspect
from pathlib import Path

from chordcheck import checker, events, sim

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = {"checker": checker, "sim": sim, "events": events}


def _chain(node):
    """['sim', 'SimConfig'] for `sim.SimConfig`; None unless rooted at a module name."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in MODULES and names:
        return [node.id, *reversed(names)]
    return None


def _uses():
    """(file:line, attribute chain, keywords passed) for every chain the benchmark reaches."""
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                chain = _chain(node.func)
                keywords = [kw.arg for kw in node.keywords if kw.arg is not None]
            elif isinstance(node, ast.Attribute):
                chain, keywords = _chain(node), []
            else:
                continue
            if chain:
                yield f"{path.name}:{node.lineno}", chain, keywords


def test_every_attribute_and_keyword_the_benchmark_uses_exists():
    uses = list(_uses())
    assert {chain[0] for _, chain, _ in uses} == set(MODULES)
    assert any(chain == ["sim", "SimConfig"] and keywords for _, chain, keywords in uses)
    missing = []
    for where, chain, keywords in uses:
        target = MODULES[chain[0]]
        for name in chain[1:]:
            if not hasattr(target, name):
                missing.append(f"{where}: {'.'.join(chain)}")
                break
            target = getattr(target, name)
        else:
            params = inspect.signature(target).parameters if keywords else {}
            missing += [f"{where}: {'.'.join(chain)}({kw}=)" for kw in keywords if kw not in params]
    assert not missing
