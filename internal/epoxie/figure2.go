package epoxie

import (
	"fmt"

	"systrace/internal/asm"
	"systrace/internal/isa"
	"systrace/internal/link"
	"systrace/internal/obj"
)

// Figure2Output reproduces the paper's Figure 2: the fopen entry
// sequence before and after instrumentation by epoxie.
type Figure2Output struct {
	Before []string
	After  []string
}

// Figure2 instruments the paper's example code sequence
//
//	fopen:  addiu sp,sp,-24
//	        sw    ra,20(sp)
//	        sw    a0,24(sp)
//	        jal   _findiop
//	        sw    a1,28(sp)
//
// and returns the disassembly of both versions, or the build's error.
// The store of ra is the
// hazard case (it reads ra, which `jal memtrace` destroys), so it gets
// an effective-address no-op in the delay slot; the store in
// _findiop's delay slot is hoisted above the call, as in the paper.
func Figure2() (Figure2Output, error) {
	a := asm.New("figure2")
	a.Func("fopen", 0)
	a.I(isa.ADDIU(isa.RegSP, isa.RegSP, uint16(0x10000-24)))
	a.I(isa.SW(isa.RegRA, isa.RegSP, 20))
	a.I(isa.SW(isa.RegA0, isa.RegSP, 24))
	a.JalSym("_findiop")
	a.I(isa.SW(isa.RegA1, isa.RegSP, 28))
	a.Func("_findiop", asm.NoInstrument)
	a.I(isa.JR(isa.RegRA))
	a.I(isa.NOP)
	f := a.MustFinish()

	lopt := link.Options{
		Name:     "figure2",
		Entry:    "fopen",
		TextBase: obj.UserTextBase,
		DataBase: obj.UserDataBase,
	}
	b, err := BuildInstrumented([]*obj.File{f}, lopt, Config{}, UserRuntime)
	if err != nil {
		return Figure2Output{}, fmt.Errorf("figure 2: %w", err)
	}
	var missing error
	sym := func(e *obj.Executable, name string) uint32 {
		a, ok := e.Symbol(name)
		if !ok && missing == nil {
			missing = fmt.Errorf("figure 2: %s has no symbol %q", e.Name, name)
		}
		return a
	}
	oaddr, iaddr := sym(b.Orig, "fopen"), sym(b.Instr, "fopen")
	calls := map[uint32]string{}
	for _, name := range []string{"bbtrace", "memtrace", "memtrace_sp", "_findiop"} {
		calls[sym(b.Instr, name)] = name
	}
	if missing != nil {
		return Figure2Output{}, missing
	}

	var out Figure2Output
	ob := b.Orig.BlockFor(oaddr)
	for k := int32(0); k < ob.NInstr; k++ {
		va := oaddr + uint32(k)*4
		out.Before = append(out.Before, isa.Disassemble(va, b.Orig.Text[(va-b.Orig.TextBase)/4]))
	}
	ib := b.Instr.BlockFor(iaddr)
	for k := int32(0); k < ib.NInstr; k++ {
		va := iaddr + uint32(k)*4
		w := b.Instr.Text[(va-b.Instr.TextBase)/4]
		s := isa.Disassemble(va, w)
		// Annotate the runtime calls symbolically, as the paper does.
		if w>>26 == isa.OpJAL {
			target := va&0xf0000000 | w<<2&0x0ffffffc
			if name, ok := calls[target]; ok {
				s = "jal    " + name
			}
		}
		out.After = append(out.After, s)
	}
	return out, nil
}
