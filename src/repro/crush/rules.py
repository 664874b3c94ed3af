"""CRUSH rules and the placement mapping engine.

A rule is a small program over the hierarchy: ``take`` a root, ``choose``
(or ``chooseleaf``) N items of a given type, ``emit``.  The engine here
ports the behaviour of Ceph's ``crush_do_rule`` in two modes:

* **firstn** — replica placement: ranks shift down on failure;
* **indep** — erasure-coded placement: ranks are positional and failed
  slots stay holes so shard identity is preserved.

Collision, out-device rejection (probabilistic reweight test), and
bounded retry (``choose_total_tries``) follow the published algorithm.

A :class:`Mapper` can also memoize descents computed in bulk by
:mod:`repro.crush.batch` (:meth:`Mapper.fill_memo`); the rule logic
itself always runs here, one input at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from ..errors import CrushError
from .batch import descend_many
from .hashing import hash32_2
from .map import CrushMap
from .types import CRUSH_ITEM_NONE, MAX_DEPTH, WEIGHT_ONE, DeviceClass

#: Default retry budget, matching Ceph's choose_total_tries tunable.
CHOOSE_TOTAL_TRIES = 50


class StepOp(Enum):
    """Rule step opcodes."""

    TAKE = "take"
    CHOOSE_FIRSTN = "choose_firstn"
    CHOOSE_INDEP = "choose_indep"
    CHOOSELEAF_FIRSTN = "chooseleaf_firstn"
    CHOOSELEAF_INDEP = "chooseleaf_indep"
    EMIT = "emit"


@dataclass(frozen=True)
class Step:
    """One rule instruction.

    ``num`` follows CRUSH semantics: 0 means "as many as requested",
    a negative value means "requested minus |num|".
    """

    op: StepOp
    arg: int = 0  # bucket id for TAKE
    num: int = 0  # replica count for CHOOSE*
    type_id: int = 0  # hierarchy type for CHOOSE*


@dataclass(frozen=True)
class CrushRule:
    """A named sequence of steps.

    ``device_class`` restricts placement to devices of one media class
    (Ceph's class-aware rules) — how a pool targets SSDs while SMR/HDD
    devices in the same hierarchy serve archival pools.
    """

    rule_id: int
    name: str
    steps: tuple[Step, ...]
    device_class: Optional[DeviceClass] = None

    def __post_init__(self):
        if not self.steps or self.steps[0].op != StepOp.TAKE:
            raise CrushError(f"rule {self.name!r} must start with a take step")
        if self.steps[-1].op != StepOp.EMIT:
            raise CrushError(f"rule {self.name!r} must end with an emit step")


def replicated_rule(
    root_id: int,
    fault_domain_type: int = 0,
    rule_id: int = 0,
    name: str = "replicated",
    device_class: Optional[DeviceClass] = None,
) -> CrushRule:
    """Standard replica rule: take root, chooseleaf N fault domains, emit.

    With ``fault_domain_type=0`` devices are chosen directly.
    """
    if fault_domain_type == 0:
        choose = Step(StepOp.CHOOSE_FIRSTN, num=0, type_id=0)
    else:
        choose = Step(StepOp.CHOOSELEAF_FIRSTN, num=0, type_id=fault_domain_type)
    return CrushRule(
        rule_id, name, (Step(StepOp.TAKE, arg=root_id), choose, Step(StepOp.EMIT)), device_class
    )


def erasure_rule(
    root_id: int,
    fault_domain_type: int = 0,
    rule_id: int = 1,
    name: str = "erasure",
    device_class: Optional[DeviceClass] = None,
) -> CrushRule:
    """EC rule: indep placement so shard ranks are stable."""
    if fault_domain_type == 0:
        choose = Step(StepOp.CHOOSE_INDEP, num=0, type_id=0)
    else:
        choose = Step(StepOp.CHOOSELEAF_INDEP, num=0, type_id=fault_domain_type)
    return CrushRule(
        rule_id, name, (Step(StepOp.TAKE, arg=root_id), choose, Step(StepOp.EMIT)), device_class
    )


def _numrep(step: Step, num_rep: int) -> int:
    """Items a choose step picks per working item when ``num_rep`` are asked."""
    numrep = step.num if step.num > 0 else num_rep + step.num
    return min(numrep, num_rep) if step.num == 0 else numrep


class Mapper:
    """Executes rules against a :class:`CrushMap`."""

    def __init__(self, cmap: CrushMap, total_tries: int = CHOOSE_TOTAL_TRIES):
        self.map = cmap
        self.total_tries = total_tries
        self._required_class: Optional[DeviceClass] = None
        #: Memoized descents: (start, r, want_type) -> {x: item}.  Only
        #: :meth:`fill_memo` adds entries; :meth:`clear_memo` drops them.
        self._memo: dict[tuple[int, int, int], dict[int, int]] = {}

    # -- descent memo ----------------------------------------------------------

    def fill_memo(self, rule: CrushRule, xs: np.ndarray, num_rep: int) -> None:
        """Memoize round 0 of ``rule``'s first choose step for every x in ``xs``.

        One batched pass computes, for each input and each rank ``rep``,
        the descent from the take item with ``r = rep`` and, for
        chooseleaf, the first leaf descent under the item found.  A
        descent is a pure function of the buckets, so the memo is exact
        until the map changes: the owner calls :meth:`clear_memo` then.
        """
        take, step = rule.steps[0], rule.steps[1]
        if step.op in (StepOp.TAKE, StepOp.EMIT) or take.arg not in self.map.buckets:
            return
        xs = np.asarray(xs, dtype=np.uint32)
        numrep = _numrep(step, num_rep)
        lane_xs = np.tile(xs, numrep)
        lane_rs = np.repeat(np.arange(numrep, dtype=np.int64), len(xs))
        starts = [take.arg] * len(lane_xs)
        items = descend_many(self.map, starts, lane_xs, lane_rs, step.type_id)
        self._remember(starts, lane_xs, lane_rs, step.type_id, items)
        if step.op in (StepOp.CHOOSELEAF_FIRSTN, StepOp.CHOOSELEAF_INDEP):
            found = [i for i, item in enumerate(items) if item is not None]
            starts = [items[i] for i in found]
            lane_xs, lane_rs = lane_xs[found], lane_rs[found]
            leaves = descend_many(self.map, starts, lane_xs, lane_rs, 0)
            self._remember(starts, lane_xs, lane_rs, 0, leaves)

    def _remember(self, starts, xs, rs, want_type: int, items) -> None:
        memo = self._memo
        for start, x, r, item in zip(starts, xs.tolist(), rs.tolist(), items):
            if item is not None:
                memo.setdefault((start, r, want_type), {})[x] = item

    def clear_memo(self) -> None:
        """Drop every memoized descent (call after any map mutation)."""
        self._memo.clear()

    # -- device acceptance -------------------------------------------------------

    def _device_ok(self, dev_id: int, x: int) -> bool:
        """Class filter plus reweight test (probability reweight/0x10000)."""
        dev = self.map.devices[dev_id]
        if self._required_class is not None and dev.device_class != self._required_class:
            return False
        if dev.reweight >= WEIGHT_ONE:
            return True
        if dev.reweight == 0:
            return False
        return (hash32_2(x, dev_id) & 0xFFFF) < dev.reweight

    # -- descent -----------------------------------------------------------------

    def _descend(self, start: int, x: int, r: int, want_type: int) -> Optional[int]:
        """Walk from ``start`` down to an item of ``want_type`` using rank r."""
        memo = self._memo.get((start, r, want_type))
        if memo is not None:
            item = memo.get(x)
            if item is not None:
                return item
        node = start
        for _ in range(MAX_DEPTH):
            if self.map.type_of(node) == want_type:
                return node
            if node >= 0:
                return None  # reached a device above the wanted type: dead end
            bucket = self.map.buckets[node]
            if bucket.size == 0:
                return None
            node = bucket.choose(x, r)
        raise CrushError(f"descent from {start} exceeded max depth {MAX_DEPTH}")

    def _leaf_under(self, node: int, x: int, rank: int) -> Optional[int]:
        """Pick one acceptable device under ``node`` (chooseleaf recursion)."""
        for ftotal in range(self.total_tries):
            item = self._descend(node, x, rank + ftotal * 7919, want_type=0)
            if item is None:
                continue
            if self._device_ok(item, x):
                return item
        return None

    # -- choose ---------------------------------------------------------------------

    def _choose_firstn(
        self, start: int, x: int, numrep: int, want_type: int, recurse_to_leaf: bool, out: list[int]
    ) -> list[int]:
        chosen: list[int] = []
        leaves: list[int] = []
        for rep in range(numrep):
            found = None
            leaf_found = None
            for ftotal in range(self.total_tries):
                r = rep + ftotal
                item = self._descend(start, x, r, want_type)
                if item is None or item in chosen:
                    continue
                if recurse_to_leaf:
                    leaf = self._leaf_under(item, x, rep)
                    if leaf is None or leaf in leaves or leaf in out:
                        continue
                    found, leaf_found = item, leaf
                    break
                if want_type == 0:
                    if not self._device_ok(item, x) or item in out:
                        continue
                found = item
                break
            if found is not None:
                chosen.append(found)
                if recurse_to_leaf:
                    leaves.append(leaf_found)
        return leaves if recurse_to_leaf else chosen

    def _choose_indep(
        self, start: int, x: int, numrep: int, want_type: int, recurse_to_leaf: bool, out: list[int]
    ) -> list[int]:
        # Breadth-first rounds (as in crush_choose_indep): every unfilled
        # slot tries once per round with r = rep + round*numrep.  Round 0
        # draws are therefore identical whether or not other slots failed,
        # which is what keeps EC shard ranks stable across device failures.
        result: list[Optional[int]] = [None] * numrep
        taken: set[int] = set(o for o in out if o != CRUSH_ITEM_NONE)
        for ftotal in range(self.total_tries):
            unfilled = [rep for rep in range(numrep) if result[rep] is None]
            if not unfilled:
                break
            for rep in unfilled:
                r = rep + ftotal * numrep
                item = self._descend(start, x, r, want_type)
                if item is None or item in taken or item in result:
                    continue
                if recurse_to_leaf:
                    leaf = self._leaf_under(item, x, rep)
                    if leaf is None or leaf in taken or leaf in result:
                        continue
                    result[rep] = leaf
                    taken.add(leaf)
                    continue
                if want_type == 0 and not self._device_ok(item, x):
                    continue
                result[rep] = item
                taken.add(item)
        return [CRUSH_ITEM_NONE if v is None else v for v in result]

    # -- rule execution ----------------------------------------------------------------

    def do_rule(self, rule: CrushRule, x: int, num_rep: int) -> list[int]:
        """Map input ``x`` to ``num_rep`` items under ``rule``.

        firstn rules return up to ``num_rep`` devices (possibly fewer);
        indep rules return exactly ``num_rep`` slots with
        :data:`CRUSH_ITEM_NONE` holes where placement failed.
        """
        if num_rep < 1:
            raise CrushError(f"num_rep must be >= 1, got {num_rep}")
        self._required_class = rule.device_class
        working: list[int] = []
        out: list[int] = []
        for step in rule.steps:
            if step.op == StepOp.TAKE:
                if step.arg not in self.map.buckets and step.arg not in self.map.devices:
                    raise CrushError(f"take of unknown item {step.arg}")
                working = [step.arg]
            elif step.op == StepOp.EMIT:
                out.extend(working)
                working = []
            else:
                numrep = _numrep(step, num_rep)
                firstn = step.op in (StepOp.CHOOSE_FIRSTN, StepOp.CHOOSELEAF_FIRSTN)
                to_leaf = step.op in (StepOp.CHOOSELEAF_FIRSTN, StepOp.CHOOSELEAF_INDEP)
                next_working: list[int] = []
                for node in working:
                    if firstn:
                        next_working.extend(
                            self._choose_firstn(node, x, numrep, step.type_id, to_leaf, out)
                        )
                    else:
                        next_working.extend(
                            self._choose_indep(node, x, numrep, step.type_id, to_leaf, out)
                        )
                working = next_working
        return out
