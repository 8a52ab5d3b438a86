"""Evaluation harness: prompts, backends, extraction, runner, reports."""

# The benchmark imports these names from the package, and traces reporting, which loads runner.
from . import reporting
from .backends import prompt_sha256
from .prompts import Paradigm, assemble_prompt
