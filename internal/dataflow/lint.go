package dataflow

import (
	"fmt"
	"sort"

	"systrace/internal/isa"
	"systrace/internal/obj"
)

// Whole-binary lint over the value facts: sanity properties any guest
// image should satisfy regardless of instrumentation, checked with the
// same CFG and abstract values the cost model and verifier use. Where
// verify re-proves the *instrumentation's* invariants block by block,
// the lint asks about the *program*: is every block reachable, does
// every direct control transfer land on a block boundary, does every
// return leave the stack where the caller put it, and does any store
// go through a pointer the analysis proves wild.

// Lint check names, used as diagnostic categories and check counters.
const (
	LintUnreachable  = "unreachable"
	LintInterior     = "jump-interior"
	LintStackBalance = "stack-balance"
	LintWildStore    = "wild-store"
)

// LintDiag is one finding.
type LintDiag struct {
	// Addr is the offending instruction; Block the containing block.
	Addr  uint32 `json:"addr"`
	Block uint32 `json:"block"`
	Check string `json:"check"`
	Msg   string `json:"msg"`
}

func (d LintDiag) String() string {
	return fmt.Sprintf("0x%08x [%s]: %s", d.Addr, d.Check, d.Msg)
}

// LintResult is the lint report for one image.
type LintResult struct {
	Name   string `json:"image"`
	Blocks int    `json:"blocks"`
	// Checks counts properties actually examined per check, so a clean
	// result distinguishes "proved" from "nothing to look at".
	Checks map[string]int `json:"checks"`
	Diags  []LintDiag     `json:"diags,omitempty"`
}

// Clean reports whether no diagnostic fired.
func (r *LintResult) Clean() bool { return len(r.Diags) == 0 }

func (r *LintResult) check(name string) { r.Checks[name]++ }
func (r *LintResult) diag(addr, blk uint32, check, format string, args ...any) {
	r.Diags = append(r.Diags, LintDiag{
		Addr: addr, Block: blk, Check: check,
		Msg: fmt.Sprintf(format, args...),
	})
}

// TracedExeConfig is the front-end configuration for an
// epoxie-instrumented image: the tracing-runtime entries are
// transparent and the rewriter's relocation-level escape views apply.
// It degrades gracefully on an uninstrumented image (no runtime
// symbols, no Instr side table).
func TracedExeConfig(e *obj.Executable) ExeConfig {
	var cfg ExeConfig
	for _, name := range []string{"bbtrace", "memtrace", "memtrace_sp"} {
		if a, ok := e.Symbol(name); ok {
			cfg.Transparent = append(cfg.Transparent, a)
		}
	}
	// The memtrace runtime dispatches into its slot table with a
	// computed jr (entry + reg*16); the address escapes through
	// instruction immediates no relocation scan can see, so declare it.
	if a, ok := e.Symbol("memtrace_table"); ok {
		cfg.AddrTaken = append(cfg.AddrTaken, a)
	}
	if e.Instr != nil {
		cfg.AddrTaken = append(cfg.AddrTaken, e.Instr.Flow.AddrTaken...)
		cfg.Poison = e.Instr.Flow.EscapedText
	}
	return cfg
}

// LintExecutable lints a linked guest image.
func LintExecutable(e *obj.Executable) (*LintResult, error) {
	if e == nil {
		return nil, fmt.Errorf("dataflow: nil executable")
	}
	cfg := TracedExeConfig(e)
	facts, err := AnalyzeExecutable(e, cfg)
	if err != nil {
		return nil, err
	}
	p := facts.p
	r := &LintResult{Name: e.Name, Blocks: len(p.blocks), Checks: map[string]int{}}

	lintReachability(r, e, p, cfg)
	lintInteriors(r, e, p)
	lintStackBalance(r, e, p, facts)
	lintWildStores(r, e, p, facts)

	sort.Slice(r.Diags, func(i, j int) bool { return r.Diags[i].Addr < r.Diags[j].Addr })
	return r, nil
}

// lintReachability flood-fills the CFG from every root control can
// enter through — the image entry point, address-taken or escaped
// blocks, exported function entries (callable from outside the static
// view: syscall dispatch, vectors, libc linked for completeness), and
// the transparent runtime entries — and reports blocks no path covers.
func lintReachability(r *LintResult, e *obj.Executable, p *Program, cfg ExeConfig) {
	seen := make([]bool, len(p.blocks))
	var stack []int
	push := func(bi int) {
		if bi >= 0 && bi < len(p.blocks) && !seen[bi] {
			seen[bi] = true
			stack = append(stack, bi)
		}
	}
	if bi, ok := p.byKey[uint64(e.Entry)]; ok {
		push(bi)
	}
	for _, a := range cfg.Transparent {
		if bi, ok := p.byKey[uint64(a)]; ok {
			push(bi)
		}
	}
	for _, f := range p.fns {
		push(f.entry)
	}
	// An escaped function's interior is fair game for computed jumps
	// (the memtrace dispatch table is entered at entry + reg*16), so
	// every block of an address-taken function counts as a root, as
	// does any individually escaped/poisoned block. This is fn.escaped,
	// not fn.retAll: wire() also sets retAll for pure liveness
	// conservatism ("no known call sites"), which would make every
	// block a root and the check vacuous.
	for i := range p.blocks {
		b := &p.blocks[i]
		if b.poisoned || (b.fn >= 0 && p.fns[b.fn].escaped) {
			push(i)
		}
	}
	for len(stack) > 0 {
		bi := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		b := &p.blocks[bi]
		switch b.kind {
		case termFall, termCall, termCallUnknown:
			push(b.next)
			push(b.target)
		case termBranch:
			push(b.target)
			push(b.next)
		case termJump, termTailCall:
			push(b.target)
		}
	}
	for i := range p.blocks {
		r.check(LintUnreachable)
		if seen[i] {
			continue
		}
		b := &p.blocks[i]
		name := e.FuncName(uint32(b.key))
		r.diag(uint32(b.key), uint32(b.key), LintUnreachable,
			"block in %s is unreachable from any entry, call, branch, or escaped address", name)
	}
}

// lintInteriors re-derives every direct control-transfer target from
// the encoded words and requires it to land on a block boundary inside
// text. The CFG builder quietly degrades unresolved targets to
// "unknown"; the lint makes that a finding, because a direct branch
// into the middle of a block — in a rewritten image, into the middle
// of an instrumentation group — bypasses the group's record and
// desynchronizes the trace.
func lintInteriors(r *LintResult, e *obj.Executable, p *Program) {
	for i := range p.blocks {
		b := &p.blocks[i]
		n := len(b.words)
		if n < 2 || !isa.HasDelaySlot(b.words[n-2]) || isTransparent(b, n-2) {
			continue
		}
		term := b.words[n-2]
		termAddr := uint32(b.key) + uint32(n-2)*4
		ins := isa.Decode(term)
		var target uint32
		switch {
		case isa.IsBranch(term):
			target = termAddr + 4 + isa.SignExt16(ins.Imm)<<2
		case ins.Op == isa.OpJ || ins.Op == isa.OpJAL:
			target = jumpTarget(termAddr, term)
		default: // jr/jalr: no static target
			continue
		}
		r.check(LintInterior)
		if target < e.TextBase || target >= e.TextEnd() {
			r.diag(termAddr, uint32(b.key), LintInterior,
				"control transfer to 0x%08x outside text [0x%08x,0x%08x)",
				target, e.TextBase, e.TextEnd())
			continue
		}
		if _, ok := p.byKey[uint64(target)]; !ok {
			r.diag(termAddr, uint32(b.key), LintInterior,
				"control transfer into block interior 0x%08x (bypasses the group head at its block start)",
				target)
		}
	}
}

// lintStackBalance requires every return the analysis can see to leave
// sp exactly at its function-entry height. A known nonzero height at a
// `jr ra` (after the delay slot — MIPS epilogues pop the frame there)
// is a definite leak or smash; an unknown height is skipped, matching
// the analysis' conservatism.
func lintStackBalance(r *LintResult, e *obj.Executable, p *Program, facts *Facts) {
	vals := facts.Values()
	for i := range p.blocks {
		b := &p.blocks[i]
		if b.kind != termRet {
			continue
		}
		st, ok := vals.At(uint32(b.key), len(b.words))
		if !ok {
			continue
		}
		v := st.Reg(isa.RegSP)
		if v.Kind != VSP {
			continue
		}
		r.check(LintStackBalance)
		if v.Off != 0 {
			r.diag(uint32(b.key)+uint32(len(b.words)-2)*4, uint32(b.key), LintStackBalance,
				"%s returns with sp displaced %+d bytes from function entry",
				e.FuncName(uint32(b.key)), v.Off)
		}
	}
}

// lintWildStores flags stores whose effective address the value
// analysis proves constant and wild: in the null page, inside text, or
// misaligned for the access width.
func lintWildStores(r *LintResult, e *obj.Executable, p *Program, facts *Facts) {
	vals := facts.Values()
	for i := range p.blocks {
		b := &p.blocks[i]
		for k, w := range b.words {
			if !isa.IsMem(w) || isa.IsLoad(w) {
				continue
			}
			st, ok := vals.At(uint32(b.key), k)
			if !ok {
				continue
			}
			ea := EA(st, w)
			if ea.Kind != VConst {
				continue
			}
			r.check(LintWildStore)
			addr := uint32(b.key) + uint32(k)*4
			a := uint32(ea.Off)
			sz := uint32(isa.MemSize(w))
			switch {
			case a < 0x1000:
				r.diag(addr, uint32(b.key), LintWildStore,
					"store through provably constant address 0x%08x in the null page", a)
			case a >= e.TextBase && a < e.TextEnd():
				r.diag(addr, uint32(b.key), LintWildStore,
					"store through provably constant address 0x%08x inside text", a)
			case sz > 1 && a%sz != 0:
				r.diag(addr, uint32(b.key), LintWildStore,
					"%d-byte store through provably constant address 0x%08x is misaligned", sz, a)
			}
		}
	}
}
