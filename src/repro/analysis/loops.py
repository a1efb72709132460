"""Natural-loop detection.

A back edge ``n -> h`` exists when the branch target h dominates n; the
natural loop of that edge is h plus every block that can reach n
without passing through h. This is what the MIPS-style loop-driven
inlining heuristic (§1.2) needs: call sites whose block is inside a
loop body.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.cfg import CFG, build_cfg
from repro.analysis.dominators import dominator_sets
from repro.il.function import ILFunction
from repro.il.instructions import Opcode


@dataclass
class NaturalLoop:
    header: int
    body: set[int] = field(default_factory=set)


def natural_loops(cfg: CFG) -> list[NaturalLoop]:
    """All natural loops, one per back edge."""
    dom = dominator_sets(cfg)
    loops = []
    for block in cfg.blocks:
        for successor in block.successors:
            if successor in dom[block.index]:
                loops.append(_natural_loop(cfg, successor, block.index))
    return loops


def _natural_loop(cfg: CFG, header: int, source: int) -> NaturalLoop:
    loop = NaturalLoop(header, {header, source})
    frontier = [source]
    while frontier:
        index = frontier.pop()
        if index == header:
            continue
        for predecessor in cfg.blocks[index].predecessors:
            if predecessor not in loop.body:
                loop.body.add(predecessor)
                frontier.append(predecessor)
    return loop


def call_sites_in_loops(function: ILFunction) -> set[int]:
    """Site ids of direct calls whose block lies inside some loop."""
    cfg = build_cfg(function)
    loop_blocks: set[int] = set()
    for loop in natural_loops(cfg):
        loop_blocks |= loop.body
    result: set[int] = set()
    for block_index in loop_blocks:
        block = cfg.blocks[block_index]
        for instr in block.instructions(function):
            if instr.op in (Opcode.CALL, Opcode.ICALL):
                result.add(instr.site)
    return result
