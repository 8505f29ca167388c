// Package verify statically checks an epoxie-instrumented executable
// against the instrumentation invariants the paper could only validate
// dynamically (§4.3 validates traces by comparing predictions against
// direct measurement). The verifier decodes the rewritten text with
// internal/isa and walks every instrumented basic block, confirming —
// without running the machine — that the trace the binary would
// produce is the trace the parsing library expects:
//
//   - bb-head: every instrumented block begins with the Figure 2
//     prologue `sw ra,124(xreg3); jal bbtrace; li zero,N`, with N
//     equal to the trace words the block generates (§3.2).
//   - mem-trace: every memory instruction is reached through a
//     `jal memtrace` whose delay slot lets memtrace compute the
//     right effective address — the instruction itself, or an EA
//     no-op with matching base/offset in the hazard case (§3.2) —
//     and the per-block reference count, widths, and load/store
//     kinds agree with the side table.
//   - steal: the stolen registers xreg1..xreg3 never appear in
//     rewritten user code outside the shadow load/store idiom
//     (§3.2/§3.5: uses "are replaced with sequences of instructions
//     that use a 'shadow' value for the register, in memory").
//   - branch-target: every static control transfer in instrumented
//     code lands on a post-rewrite block head, so execution can
//     never enter a block past its trace prologue (§3.2's address
//     correction).
//   - hoist: when the original delay slot held a memory instruction,
//     the rewriter hoisted it above the transfer; the hoist must
//     have been safe (the transfer must not read what the hoisted
//     instruction writes) and must leave a nop in the slot.
//   - side-table: the static side table and the image agree — each
//     record address is the jal-return address of an instrumented
//     block head, record addresses are unique, and original
//     addresses fall inside the uninstrumented text (§3.5's "lookup
//     table in the trace parsing library").
//
// Findings are structured diagnostics in a deterministic order, so a
// corrupted binary fails the same way every time.
package verify

import (
	"fmt"
	"sort"

	"systrace/internal/dataflow"
	"systrace/internal/obj"
)

// Rule identifiers. Each encodes one paper invariant (see the package
// comment and DESIGN.md's "Static verification" section).
const (
	RuleBBHead       = "bb-head"
	RuleMemTrace     = "mem-trace"
	RuleSteal        = "steal"
	RuleBranchTarget = "branch-target"
	RuleHoist        = "hoist"
	RuleSideTable    = "side-table"
	// RuleDeadReg: a block flagged lean (the rewriter elided the
	// prologue's ra save because liveness proved ra dead on entry)
	// must have ra dead there under the verifier's own, independently
	// derived liveness over the rewritten image.
	RuleDeadReg = "dead-reg"
	// RuleLiveClobber: instrumentation never clobbers a live register
	// without restoring it — an unbracketed borrowed-scratch shadow
	// load is legal only when the scratch is dead once the rewritten
	// group ends.
	RuleLiveClobber = "live-clobber"
	// RuleAddrClass: when the verifier's own value analysis proves a
	// traced effective address constant, the address must be plausible
	// — not in the null page, not a store into text, not misaligned
	// for its access width. A group routed to the specialized
	// memtrace_sp entry must really have sp as its slot base.
	RuleAddrClass = "addr-class"
	// RuleRedundantEA: every EA rebase the rewriter performed (its
	// claim that base+imm was provably equal to anchor+imm') must be
	// re-provable by the verifier's own, independently derived value
	// analysis over the rewritten image.
	RuleRedundantEA = "redundant-ea"
)

// Rules lists every rule identifier in report order.
var Rules = []string{
	RuleBBHead, RuleMemTrace, RuleSteal, RuleBranchTarget, RuleHoist, RuleSideTable,
	RuleDeadReg, RuleLiveClobber, RuleAddrClass, RuleRedundantEA,
}

// Diag is one verification finding.
type Diag struct {
	Addr  uint32 `json:"addr"`  // address of the offending instruction or table entry
	Block uint32 `json:"block"` // head address of the rewritten block it belongs to
	Rule  string `json:"rule"`
	Msg   string `json:"msg"`
}

func (d Diag) String() string {
	return fmt.Sprintf("0x%08x [%s] %s (block 0x%08x)", d.Addr, d.Rule, d.Msg, d.Block)
}

// Result is the outcome of verifying one executable.
type Result struct {
	Name   string         `json:"name"`
	Blocks int            `json:"blocks"` // instrumented blocks walked
	Checks map[string]int `json:"checks"` // rule -> checks performed
	Diags  []Diag         `json:"diags"`  // violations, sorted by (Addr, Rule, Msg)
}

// Clean reports whether no invariant was violated.
func (r *Result) Clean() bool { return len(r.Diags) == 0 }

// Fails returns the number of diagnostics per rule.
func (r *Result) Fails() map[string]int {
	out := make(map[string]int, len(Rules))
	for _, d := range r.Diags {
		out[d.Rule]++
	}
	return out
}

// Executable verifies an epoxie-instrumented image. It returns an
// error when the image cannot be verified at all (not instrumented,
// unknown tool, missing runtime symbols); instrumentation defects are
// reported as Diags in the Result, never as errors.
func Executable(e *obj.Executable) (*Result, error) {
	if e == nil {
		return nil, fmt.Errorf("verify: nil executable")
	}
	if e.Instr == nil {
		return nil, fmt.Errorf("verify: %s is not instrumented", e.Name)
	}
	if e.Instr.Tool != "epoxie" {
		return nil, fmt.Errorf("verify: %s: unsupported instrumentation tool %q (only epoxie's compact emission is verifiable)",
			e.Name, e.Instr.Tool)
	}
	bb, okBB := e.Symbol("bbtrace")
	mt, okMT := e.Symbol("memtrace")
	if !okBB || !okMT {
		return nil, fmt.Errorf("verify: %s: tracing runtime symbols missing (bbtrace %v, memtrace %v)",
			e.Name, okBB, okMT)
	}
	mtsp, okSP := e.Symbol("memtrace_sp")

	w := newWalker(e, bb, mt, mtsp, okSP)
	// The verifier's own liveness and value analysis over the rewritten
	// image, for the flow rules, under the same traced-image
	// configuration the guest lints and the cost model use. If the
	// image is too damaged to analyze, the structural rules still run
	// and report the damage.
	if facts, err := dataflow.AnalyzeExecutable(e, dataflow.TracedExeConfig(e)); err == nil {
		w.flow, w.vals = facts, facts.Values()
	}
	w.sideTable()
	w.rebases()
	for i := range e.Blocks {
		b := &e.Blocks[i]
		if b.Flags&(obj.BBNoInstrument|obj.BBHandTraced) != 0 {
			continue
		}
		w.block(b)
		w.res.Blocks++
	}

	sort.Slice(w.res.Diags, func(i, j int) bool {
		a, b := w.res.Diags[i], w.res.Diags[j]
		if a.Addr != b.Addr {
			return a.Addr < b.Addr
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
	return w.res, nil
}
