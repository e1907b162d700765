"""Patch data model, parsing, rendering, and application.

This subpackage implements the patch substrate the whole pipeline rests on:
the :class:`Patch`/:class:`FileDiff`/:class:`Hunk` value objects, parsers for
both GitHub ``.patch`` downloads and ``git show`` output, renderers that
round-trip them, strict patch application, and the paper's C/C++ file filter.
"""

from .apply import apply_file_diff, invert_file_diff, invert_hunk, reverse_file_diff
from .gitformat import diffstat, parse_patch, render_mbox_patch, render_patch
from .model import C_CPP_EXTENSIONS, FileDiff, Hunk, Line, LineKind, Patch, is_c_cpp_path, split_lines
from .unified import parse_file_diffs, parse_hunk_header, render_file_diff, render_file_diffs

__all__ = [
    "C_CPP_EXTENSIONS",
    "FileDiff",
    "Hunk",
    "Line",
    "LineKind",
    "Patch",
    "apply_file_diff",
    "diffstat",
    "invert_file_diff",
    "invert_hunk",
    "is_c_cpp_path",
    "parse_file_diffs",
    "parse_hunk_header",
    "parse_patch",
    "render_file_diff",
    "render_file_diffs",
    "render_mbox_patch",
    "render_patch",
    "reverse_file_diff",
    "split_lines",
]
