"""The mutation probe's list follows the code it names.

``tools/mutation_probe.py`` stops when a fragment does not occur exactly once
in its file; this catches a stale fragment without running the probe.
"""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_probe():
    spec = importlib.util.spec_from_file_location("mutation_probe",
                                                  ROOT / "tools" / "mutation_probe.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


MUTATIONS = _load_probe().MUTATIONS


@pytest.mark.parametrize("mutation", MUTATIONS,
                         ids=[re.sub(r"\W+", "-", m.name).strip("-") for m in MUTATIONS])
def test_fragment_occurs_once(mutation):
    text = (ROOT / mutation.path).read_text()
    assert text.count(mutation.old) == 1, (mutation.name, mutation.old)
