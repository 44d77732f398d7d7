"""Control-flow-graph program model and synthetic program generation.

The paper's workloads are commercial server stacks traced under Flexus;
those traces are proprietary, so this package builds synthetic programs
whose *control-flow structure* matches the paper's characterisation data
(Figures 3 and 4, Table 1): layered call graphs of many small functions,
short-offset conditional branches inside functions, calls/returns/traps
between them, and Zipf-distributed hotness.
"""

from repro.cfg.model import (
    BasicBlock,
    CondBehavior,
    Function,
    Program,
    ProgramImage,
)
from repro.cfg.generator import GeneratorParams, generate_program

__all__ = [
    "BasicBlock",
    "CondBehavior",
    "Function",
    "Program",
    "ProgramImage",
    "GeneratorParams",
    "generate_program",
]
