"""The README's library quick start and field-file examples, run as written."""

import re
from pathlib import Path

import pytest

from lieforge.hierarchy import REAL_JET, catalogue_member
from lieforge.symmetry import parse_field, verify_generator

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README, re.S)


def test_quick_start_runs():
    (block,) = _blocks("python")
    exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize("member, index", [(3, 0), (2, 1)],
                         ids=["member 3 scaling", "member 2 family"])
def test_field_examples_verify(member, index):
    X = parse_field(_blocks("text")[index], REAL_JET.with_constants(("c",)))
    assert verify_generator(catalogue_member(member), X).status == "Zero"
