"""``python -m repro.service serve``: the flags the CLI offers."""

import argparse

from repro.core.registry import SKETCH_CLASSES
from repro.service.cli import _build_parser


def _serve_parser() -> argparse.ArgumentParser:
    (commands,) = [
        action for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return commands.choices["serve"]


def test_sketch_choices_are_the_registry():
    (sketch,) = [
        action for action in _serve_parser()._actions
        if "--sketch" in action.option_strings
    ]
    assert list(sketch.choices) == sorted(SKETCH_CLASSES)
    assert sketch.default in sketch.choices
