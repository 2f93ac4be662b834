"""tools/sample_workload.py: what row a sampled frame is charged to."""

import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "sample_workload.py"
_spec = importlib.util.spec_from_file_location("sample_workload", _TOOL)
sample_workload = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sample_workload)
frame_key = sample_workload.frame_key


def test_a_frame_is_charged_to_its_file_function_or_line():
    frame = sys._getframe()
    assert frame_key(frame, "file") == __file__
    assert frame_key(frame, "function") == \
        f"{__file__}:test_a_frame_is_charged_to_its_file_function_or_line"
    assert frame_key(frame, "line") == f"{__file__}:{frame.f_lineno}"
    # Files of the program are named from src/repro/ down.
    scope = {}
    exec(compile("import sys\nframe = sys._getframe()",
                 sample_workload.PREFIX + "yarn/x.py", "exec"), scope)
    assert frame_key(scope["frame"], "function") == "yarn/x.py:<module>"


def test_generated_code_is_charged_to_the_class_it_was_generated_for():
    """A dataclass's ``__init__`` / ``__eq__`` / ``__hash__`` all live
    in the file ``<string>``: a bare ``<string>`` row hides whose."""
    frames = []

    @dataclass
    class Probe:
        x: int

        def __post_init__(self):
            frames.append(sys._getframe(1))      # the generated __init__

    Probe(1)
    (generated,) = frames
    assert generated.f_code.co_filename == "<string>"
    for by in ("file", "function", "line"):
        assert frame_key(generated, by) == "<string> Probe.__init__"
