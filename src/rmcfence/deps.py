"""Control- and data-dependence facts feeding the encoder.

can_data is one fact per (scope, source, target), over one region: the
blocks reachable from the source's block and reaching the target's over
real edges, not entering the bind block (a detour through function exit
ends the invocation and cannot carry an SSA value). Every walk of real
edges that avoids the bind block lies in that region. A walk whose
stretch after its last visit of the source's block crosses a pseudo
edge carries no dependence: that stretch re-enters at the entry and
reaches the target's block without passing the source's, every value
the target uses is defined on it (an op's arguments, or the phi arm
from the previous block), each step strictly earlier by SSA dominance,
and so the chain ends at a definition other than the source's read.
"""

from .ir import Action, Branch, Phi, PureOp, dominance


class DepAnalysis:
    def __init__(self, cfg):
        self.cfg = cfg
        self.defs = {}  # value id -> defining instruction
        self.def_block = {}
        for bid, blk in cfg.blocks.items():
            for ins in blk.instrs:
                d = getattr(ins, "defines", None)
                if d:
                    self.defs[d] = ins
                    self.def_block[d] = bid
        self._dominates = None
        self._reach_memo = {}
        self._depends_memo = {}
        self._ctrl_memo = {}

    # -- regions ------------------------------------------------------------

    def _reach(self, start, forward, avoid):
        """The frozenset of blocks reachable from `start` over real edges,
        forward or backward, without entering `avoid`. Triples share their
        ends, so each answer is kept."""
        key = (start, forward, avoid)
        out = self._reach_memo.get(key)
        if out is None:
            nbr = self.cfg.real_succ if forward else self.cfg.real_pred
            seen, stack = set(), [start]
            while stack:
                b = stack.pop()
                if b in seen or b == avoid:
                    continue
                seen.add(b)
                stack.extend(nbr[b])
            out = self._reach_memo[key] = frozenset(seen)
        return out

    # -- value dependence ---------------------------------------------------

    def value_depends(self, src_action, operand, region):
        """Does `operand` carry src_action's loaded value on every admissible
        execution? Greatest fixpoint, so loop-carried chains count."""
        if not isinstance(operand, str):
            return False
        key = (src_action.id, region)
        dep = self._depends_memo.get(key)
        if dep is None:
            dep = {v: True for v in self.defs}
            changed = True
            while changed:
                changed = False
                for v, ins in self.defs.items():
                    new = self._dep_step(src_action, ins, dep, region)
                    if new != dep[v]:
                        dep[v] = new
                        changed = True
            self._depends_memo[key] = dep
        return dep.get(operand, False)

    def _dep_step(self, src_action, ins, dep, region):
        arm = lambda o: isinstance(o, str) and dep[o]
        if isinstance(ins, Action):
            return ins is src_action
        if isinstance(ins, PureOp):
            return any(arm(a) for a in ins.args)
        if isinstance(ins, Phi):
            arms = [o for p, o in ins.arms if p in region]
            return bool(arms) and all(arm(o) for o in arms)
        return False

    # -- facts --------------------------------------------------------------

    def can_data(self, bind, src_action, dst_action):
        """True iff src's loaded value reaches dst's address (reads) or
        address/data (writes, rmws) on every walk of real edges between
        their blocks that avoids `bind`; no walk that crosses a pseudo
        edge after its last visit of src's block carries it."""
        if not src_action.reads_value:
            return False
        sblk, tblk = self.cfg.action_block[src_action.id], self.cfg.action_block[dst_action.id]
        region = self._reach(sblk, True, bind) & self._reach(tblk, False, bind)
        operands = [dst_action.address_operand]
        if dst_action.kind in ("write", "rmw"):
            operands.append(dst_action.data)
        return any(self.value_depends(src_action, o, region) for o in operands)

    def can_ctrl(self, src_action, edge, synth=False):
        """Existing: edge source ends in a branch conditioned on src's value.
        Synth: additionally any edge whose source is strictly dominated by
        src's block (a bogus branch could be inserted there)."""
        if not src_action.reads_value:
            return False
        key = (src_action.id, edge, synth)
        hit = self._ctrl_memo.get(key)
        if hit is not None:
            return hit
        result = self._can_ctrl_existing(src_action, edge)
        if not result and synth:
            result = self._strictly_dominated(edge[0], self.cfg.action_block[src_action.id])
        self._ctrl_memo[key] = result
        return result

    def _can_ctrl_existing(self, src_action, edge):
        term = self.cfg.blocks[edge[0]].term
        if not isinstance(term, Branch):
            return False
        return self.value_depends(src_action, term.cond, frozenset(self.cfg.blocks))

    def _strictly_dominated(self, block, by):
        if self._dominates is None:
            self._dominates = dominance(self.cfg.entry, self.cfg.real_succ.__getitem__)
        return block != by and self._dominates(by, block)
