package cpu

// SBBudgetStop describes the instruction boundary an Extend hook is
// asked at, for tests: given the VA of the last instruction the
// observer saw fetched, it reports whether the boundary at PC lies
// inside the chain being dispatched between two steps of one fetch run,
// and whether the step there is a delay slot. Both are false at a
// boundary between chains.
func (c *CPU) SBBudgetStop(lastFetch uint32) (midRun, slot bool) {
	s := c.sb.cur
	if s == nil {
		return false, false
	}
	for k := 1; k < len(s.steps); k++ {
		if s.steps[k].pc == c.PC && s.steps[k-1].pc == lastFetch {
			return s.steps[k-1].run > 1, s.steps[k].flags&sbSlot != 0
		}
	}
	return false, false
}
