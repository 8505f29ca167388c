// Package obj defines the object-file and executable model used by the
// tracing toolchain. Like the MIPS object code the paper's epoxie
// consumed, our object files carry symbol and relocation tables —
// which is what allows a link-time rewriter to "distinguish
// unambiguously between uses of addresses and uses of coincidentally
// similar constants" and to do all address correction statically
// (paper §3.2). Following Mahler, object modules also carry a
// basic-block table ("basic blocks and their sizes are identifiable at
// link time", paper §3.4) recording each block's length and the
// position of its loads and stores.
package obj

import (
	"fmt"

	"systrace/internal/isa"
)

// Relocation kinds.
type RelKind uint8

const (
	// RelJ26 patches the 26-bit target field of a J/JAL.
	RelJ26 RelKind = iota
	// RelHI16 patches the high half of an address constant (lui).
	RelHI16
	// RelLO16 patches the low half of an address constant.
	RelLO16
	// RelWord patches a full 32-bit word (address in data, or a
	// jump-table entry).
	RelWord
)

func (k RelKind) String() string {
	switch k {
	case RelJ26:
		return "J26"
	case RelHI16:
		return "HI16"
	case RelLO16:
		return "LO16"
	case RelWord:
		return "WORD"
	}
	return fmt.Sprintf("RelKind(%d)", int(k))
}

// Reloc is one relocation record: the word at Off within its section
// must be patched with the address of symbol Sym plus Addend.
type Reloc struct {
	Off    uint32
	Kind   RelKind
	Sym    int // index into the object's symbol table
	Addend int32
}

// Section identifiers within an object file.
type SectionID uint8

const (
	SecText SectionID = iota
	SecData
	SecBSS
)

func (s SectionID) String() string {
	switch s {
	case SecText:
		return ".text"
	case SecData:
		return ".data"
	case SecBSS:
		return ".bss"
	}
	return fmt.Sprintf("Section(%d)", int(s))
}

// Symbol is a named location. Undefined symbols (references to other
// objects) have Defined=false and are resolved by the linker.
type Symbol struct {
	Name    string
	Section SectionID
	Off     uint32
	Defined bool
	Func    bool // marks function entry points
}

// Basic-block flags. These drive the special behaviors the trace
// parsing library implements for specific basic blocks (paper §3.5):
// hand-traced routines, instruction counters, and the idle loop.
type BBFlags uint16

const (
	// BBNoInstrument marks code that epoxie must not rewrite: parts
	// of the tracing system itself, or routines "too delicate to be
	// rewritten mechanically" (paper §3.3).
	BBNoInstrument BBFlags = 1 << iota
	// BBHandTraced marks blocks whose trace records are emitted by
	// hand-inserted code rather than epoxie instrumentation.
	BBHandTraced
	// BBIdleLoop marks the kernel idle loop; the parser counts its
	// instructions to estimate I/O delays (paper §4.1).
	BBIdleLoop
	// BBCounterStart and BBCounterStop toggle per-block instruction
	// counting in the analysis program (paper §3.5).
	BBCounterStart
	BBCounterStop
	// BBLeanPrologue marks blocks instrumented with the two-word
	// prologue (no `sw ra` before `jal bbtrace`): dataflow analysis
	// proved ra dead on entry, so the stale ra restore inside bbtrace
	// is harmless. The verifier checks lean blocks against its own,
	// independently derived liveness.
	BBLeanPrologue
	// BBUTLBHandler marks the user-TLB miss handler. The handler is
	// deliberately not traced: the simulator synthesizes its activity
	// from simulated TLB misses instead (paper §4.1).
	BBUTLBHandler
)

// MemOp records one memory instruction inside a basic block: its
// instruction index within the block, whether it is a load, and the
// access width. The trace parsing library uses this static information
// "to determine the correct interleaving of instruction and data
// memory references" (paper §3.5).
type MemOp struct {
	Index int16
	Load  bool
	Size  int8
}

// BasicBlock describes one block of straight-line code in a text
// section.
type BasicBlock struct {
	Off    uint32 // byte offset of first instruction within .text
	NInstr int32
	Flags  BBFlags
	Mem    []MemOp
}

// TraceWords returns the number of words of trace this block emits
// when instrumented: one for the block record plus one per memory
// reference. This is the value epoxie plants in the LINop delay slot.
func (b *BasicBlock) TraceWords() int { return 1 + len(b.Mem) }

// File is a relocatable object module.
type File struct {
	Name    string
	Text    []isa.Word
	Data    []byte
	BSSSize uint32
	Syms    []Symbol
	Relocs  []Reloc // sorted by (section implied: text relocs reference text offsets)
	// TextRelocs and DataRelocs are kept separately: a relocation's
	// Off is within its own section.
	DataRelocs []Reloc
	Blocks     []BasicBlock
}

// SymIndex returns the index of the symbol named name, or -1.
func (f *File) SymIndex(name string) int {
	for i := range f.Syms {
		if f.Syms[i].Name == name {
			return i
		}
	}
	return -1
}

// AddSym appends a symbol and returns its index. If an undefined
// symbol of the same name exists it is returned (and upgraded if the
// new one is defined).
func (f *File) AddSym(s Symbol) int {
	if i := f.SymIndex(s.Name); i >= 0 {
		if s.Defined && !f.Syms[i].Defined {
			f.Syms[i] = s
		}
		return i
	}
	f.Syms = append(f.Syms, s)
	return len(f.Syms) - 1
}

// Validate performs structural checks: block table sorted, contiguous
// coverage of text, mem-op indices consistent with the instructions.
func (f *File) Validate() error {
	var next uint32
	for bi := range f.Blocks {
		b := &f.Blocks[bi]
		if b.Off != next {
			return fmt.Errorf("obj %s: block %d at 0x%x, expected 0x%x (gap or overlap)",
				f.Name, bi, b.Off, next)
		}
		if b.NInstr <= 0 {
			return fmt.Errorf("obj %s: block %d empty", f.Name, bi)
		}
		end := b.Off + uint32(b.NInstr)*4
		if end > uint32(len(f.Text))*4 {
			return fmt.Errorf("obj %s: block %d extends past text end", f.Name, bi)
		}
		var want []MemOp
		for k := int32(0); k < b.NInstr; k++ {
			w := f.Text[b.Off/4+uint32(k)]
			if isa.IsMem(w) {
				want = append(want, MemOp{Index: int16(k), Load: isa.IsLoad(w), Size: int8(isa.MemSize(w))})
			}
		}
		if len(want) != len(b.Mem) {
			return fmt.Errorf("obj %s: block %d at 0x%x: %d mem ops recorded, %d in code",
				f.Name, bi, b.Off, len(b.Mem), len(want))
		}
		for k := range want {
			if want[k] != b.Mem[k] {
				return fmt.Errorf("obj %s: block %d memop %d mismatch: table %+v code %+v",
					f.Name, bi, k, b.Mem[k], want[k])
			}
		}
		next = end
	}
	if next != uint32(len(f.Text))*4 {
		return fmt.Errorf("obj %s: block table covers 0x%x of 0x%x text bytes",
			f.Name, next, len(f.Text)*4)
	}
	for _, r := range f.Relocs {
		if r.Off/4 >= uint32(len(f.Text)) {
			return fmt.Errorf("obj %s: text reloc at 0x%x out of range", f.Name, r.Off)
		}
		if r.Sym < 0 || r.Sym >= len(f.Syms) {
			return fmt.Errorf("obj %s: reloc sym index %d out of range", f.Name, r.Sym)
		}
	}
	for _, r := range f.DataRelocs {
		if r.Off+4 > uint32(len(f.Data)) {
			return fmt.Errorf("obj %s: data reloc at 0x%x out of range", f.Name, r.Off)
		}
		if r.Sym < 0 || r.Sym >= len(f.Syms) {
			return fmt.Errorf("obj %s: data reloc sym index %d out of range", f.Name, r.Sym)
		}
	}
	return nil
}
