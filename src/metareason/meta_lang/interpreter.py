"""Exact interpreter for meta-programs, producing step-by-step traces."""

from __future__ import annotations

from .ast import MetaProgram, Trace


def eval_program(program: MetaProgram) -> Trace:
    """The trace of ``program``'s run: each statement's environment and the answer.

    A program is checked and run once, with exact arithmetic, when it is built
    (``MetaProgram``), so every program that exists runs and this walks nothing.
    Identical programs yield identical traces.
    """
    return Trace(program._steps, program._answer, program)
