package obj

import (
	"sort"

	"systrace/internal/isa"
)

// Conventional segment bases. User text sits at the bottom of kuseg
// and user data at a fixed, text-size-independent base — which is why
// epoxie's text expansion "does not affect the trace addresses
// generated" for data (paper §3.2): only text addresses move, and
// those are mapped back through the translation table.
const (
	UserTextBase   = 0x00400000
	UserDataBase   = 0x10000000
	UserStackTop   = 0x7ffff000
	KernelTextBase = 0x80030000 // kseg0, after the exception vectors
)

// ExeBlock is a basic block at its final linked address.
type ExeBlock struct {
	Addr   uint32
	NInstr int32
	Flags  BBFlags
	Mem    []MemOp
}

// InstrBlock is one entry of the instrumented binary's side table: it
// keys the basic-block record address that bbtrace writes into the
// trace (the return address of `jal bbtrace`) to the block's address
// in the original, uninstrumented layout. The trace parsing library
// "will use static information about the binary image to map this
// address to the correct basic block address in the original binary"
// (paper §3.2).
type InstrBlock struct {
	RecordAddr uint32 // jal-return address inside instrumented text
	OrigAddr   uint32 // block address in the uninstrumented binary
	NInstr     int32
	Flags      BBFlags
	Mem        []MemOp
}

// FlowStats records what the rewriter's dataflow analysis did: how
// much it saw, and how many save/restore sites it proved elidable.
type FlowStats struct {
	Blocks      int // CFG blocks the liveness fixpoint covered
	Funcs       int // functions in the interprocedural summary
	Passes      int // worklist pops until fixpoint
	SaveSites   int // sites where a save/restore pair was considered
	SavesElided int // sites proven dead and elided
	Fallbacks   int // sites where analysis could not prove death
	BytesSaved  int // instrumented-text bytes avoided by elision

	// AddrTaken lists instrumented function entry addresses whose
	// address escaped through a relocation (the rewriter's view); the
	// verifier feeds these into its own analysis so both sides agree
	// on which functions have invisible callers.
	AddrTaken []uint32

	// EscapedText lists instrumented text addresses (beyond function
	// entries) that escape through non-jump relocations — interior
	// jump-table targets. The verifier poisons these blocks in its own
	// value analysis; a data-section scan alone misses addresses
	// materialized through lui/ori immediate pairs.
	EscapedText []uint32

	// EA strength reduction (the forward value analysis's rewriter
	// consumer): how many traced memory groups were considered, how
	// many had their addressing operand rebased onto a provably equal
	// anchor, and how many were routed to the specialized sp runtime
	// entry.
	EASites   int
	EARebased int
	EASpecial int
	// EARebases holds one record per rebased operand so the verifier's
	// redundant-ea rule can re-prove each equality with its own
	// exe-side analysis.
	EARebases []EARebase
}

// EARebase records one effective-address strength reduction: the slot
// word at Addr encodes NewBase+NewImm where the original program
// computed OrigBase+OrigImm; the rewriter's value analysis proved the
// two equal at that point. Within a Rewritten object Addr is a text
// offset; BuildInstrumented translates it to an instrumented address.
type EARebase struct {
	Addr     uint32
	OrigBase uint8
	NewBase  uint8
	OrigImm  uint16
	NewImm   uint16
}

// InstrInfo is the static side table produced by instrumentation.
type InstrInfo struct {
	Tool         string // "epoxie", "epoxie-orig", "pixie", "mahler"
	Blocks       []InstrBlock
	OrigTextSize uint32 // bytes of uninstrumented text
	TextSize     uint32 // bytes of instrumented text
	Flow         FlowStats
}

// GrowthFactor returns instrumented/original text size.
func (ii *InstrInfo) GrowthFactor() float64 {
	if ii.OrigTextSize == 0 {
		return 0
	}
	return float64(ii.TextSize) / float64(ii.OrigTextSize)
}

// Executable is a fully linked image ready to load.
type Executable struct {
	Name     string
	Entry    uint32
	TextBase uint32
	Text     []isa.Word
	DataBase uint32
	Data     []byte
	BSSBase  uint32
	BSSSize  uint32
	Syms     []Symbol // Off is the absolute address here
	Blocks   []ExeBlock
	// Traced is the Ultrix-style flag in the executable image that
	// tells the kernel to set up per-process trace pages at exec time
	// (paper §3.6).
	Traced bool
	Instr  *InstrInfo // non-nil when the image is instrumented
}

// Symbol returns the absolute address of the named symbol.
func (e *Executable) Symbol(name string) (uint32, bool) {
	for i := range e.Syms {
		if e.Syms[i].Name == name {
			return e.Syms[i].Off, true
		}
	}
	return 0, false
}

// TextEnd returns the first address past the text segment.
func (e *Executable) TextEnd() uint32 { return e.TextBase + uint32(len(e.Text))*4 }

// BSSEnd returns the first address past the BSS (initial program
// break).
func (e *Executable) BSSEnd() uint32 { return e.BSSBase + e.BSSSize }

// BlockFor returns the basic block containing addr, or nil.
func (e *Executable) BlockFor(addr uint32) *ExeBlock {
	i := sort.Search(len(e.Blocks), func(i int) bool { return e.Blocks[i].Addr > addr })
	if i == 0 {
		return nil
	}
	b := &e.Blocks[i-1]
	if addr < b.Addr+uint32(b.NInstr)*4 {
		return b
	}
	return nil
}

// FuncName returns the name of the function containing addr ("" if
// unknown). Used by diagnostics and the reference-counting tools.
func (e *Executable) FuncName(addr uint32) string {
	best, bestAddr := "", uint32(0)
	for i := range e.Syms {
		s := &e.Syms[i]
		if s.Func && s.Off <= addr && s.Off >= bestAddr {
			best, bestAddr = s.Name, s.Off
		}
	}
	return best
}
