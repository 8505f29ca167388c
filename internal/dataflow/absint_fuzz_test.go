package dataflow

import (
	"testing"

	"systrace/internal/asm"
	"systrace/internal/isa"
	"systrace/internal/obj"
)

// FuzzAbsInt checks the value analysis's soundness claim against a
// concrete oracle: whatever the abstract interpreter reports at a
// program point must over-approximate the machine state of any one
// concrete execution reaching that point. The fuzz input shapes a
// small multi-function program (ABI-conforming: balanced frames, ra
// never clobbered between jal and jr) and drives the branch decisions
// of one executed path; the oracle simulates that path with real
// register/memory semantics and, before every instruction, checks each
// register the analysis claims to know — const(k), sp+δ, gp+δ,
// base+δ — against the simulated value. Branch directions may be
// infeasible: the analysis is path-insensitive, so its facts must hold
// over every CFG edge regardless.
func FuzzAbsInt(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 1, 3, 0, 1, 2, 3, 4, 5, 6, 7, 250, 9, 9})
	f.Add([]byte{1, 2, 0, 0, 4, 4, 200, 100, 7, 3, 1, 0})
	f.Add([]byte{3, 1, 1, 6, 2, 5, 0, 255, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &byteReader{data: data}
		a := asm.New("fuzz")

		nFuncs := 1 + r.next()%3
		fname := func(i int) string { return "v" + string(rune('0'+i)) }
		bname := func(fi, bi int) string {
			return "v" + string(rune('0'+fi)) + "b" + string(rune('0'+bi))
		}
		reg := func() int { return fuzzRegs[r.next()%len(fuzzRegs)] }
		for fi := 0; fi < nFuncs; fi++ {
			a.Func(fname(fi), 0)
			frame := uint32(8 + r.next()%4*8)
			a.I(isa.ADDIU(isa.RegSP, isa.RegSP, uint16(-frame)))
			nBlocks := 1 + r.next()%3
			for bi := 0; bi < nBlocks; bi++ {
				a.Label(bname(fi, bi))
				for k, n := 0, r.next()%5; k < n; k++ {
					switch r.next() % 8 {
					case 0:
						a.I(isa.ADDU(reg(), reg(), reg()))
					case 1:
						a.I(isa.ADDIU(reg(), reg(), uint16(r.next())))
					case 2:
						a.I(isa.LUI(reg(), uint16(r.next())))
					case 3:
						a.I(isa.ORI(reg(), reg(), uint16(r.next())))
					case 4:
						a.I(isa.LW(reg(), reg(), uint16(r.next()%8*4)))
					case 5:
						a.I(isa.SW(reg(), reg(), uint16(r.next()%8*4)))
					case 6:
						a.I(isa.SUBU(reg(), reg(), reg()))
					case 7:
						a.I(isa.SLL(reg(), reg(), uint32(r.next()%8)))
					}
				}
				if bi == nBlocks-1 {
					a.I(isa.ADDIU(isa.RegSP, isa.RegSP, uint16(frame)))
					a.I(isa.JR(isa.RegRA))
					a.I(isa.NOP)
					continue
				}
				switch r.next() % 4 {
				case 0: // fall through
				case 1:
					a.Br(isa.BEQ(reg(), reg(), 0), bname(fi, r.next()%nBlocks))
					a.I(isa.NOP)
				case 2:
					a.JalSym(fname(r.next() % nFuncs))
					a.I(isa.NOP)
				case 3:
					a.Jmp(bname(fi, r.next()%nBlocks))
					a.I(isa.NOP)
				}
			}
		}
		file, err := a.Finish()
		if err != nil {
			t.Fatalf("generator produced invalid module: %v", err)
		}
		p, err := AnalyzeObjects([]*obj.File{file})
		if err != nil {
			t.Fatalf("AnalyzeObjects on generated module: %v", err)
		}
		runValueOracle(t, file, p.Object(0), r)
	})
}

// initMem is the oracle's deterministic initial memory image.
func initMem(addr uint32) uint32 { return addr*2654435761 + 0x9e3779b9 }

// runValueOracle simulates one concrete path (branch directions drawn
// from r) and checks every known abstract value against the simulated
// state at each instruction.
func runValueOracle(t *testing.T, f *obj.File, facts *Facts, r *byteReader) {
	j26 := map[uint32]uint32{}
	for _, rl := range f.Relocs {
		if rl.Kind == obj.RelJ26 && rl.Sym >= 0 && rl.Sym < len(f.Syms) {
			j26[rl.Off] = f.Syms[rl.Sym].Off + uint32(rl.Addend)
		}
	}
	leaders := map[uint32]bool{}
	for i := range f.Blocks {
		leaders[f.Blocks[i].Off] = true
	}

	var regs [32]uint32
	for i := 1; i < 32; i++ {
		regs[i] = uint32(i) * 0x01010101 // arbitrary; entry facts are ⊤
	}
	regs[isa.RegSP] = 0x7fff0000
	regs[isa.RegGP] = 0x10008000
	mem := map[uint32]uint32{}
	siteLast := map[uint64]uint32{} // load site -> last value it produced

	type frame struct{ sp, gp uint32 } // anchors at function entry
	anchor := frame{regs[isa.RegSP], regs[isa.RegGP]}
	var anchors []frame
	var stack []uint32 // concrete return addresses

	// check compares the abstract claims before instruction k of the
	// block at off against the concrete registers.
	vals := facts.Values()
	check := func(off uint32, k int) {
		st, ok := vals.At(off, k)
		if !ok {
			t.Fatalf("path executes block 0x%x (+%d) but analysis has no state for it", off, k)
		}
		for ri := 1; ri < 32; ri++ {
			v := st[ri]
			var want uint32
			switch v.Kind {
			case VBot:
				t.Fatalf("path executes block 0x%x (+%d) but %s is ⊥ (unreached)",
					off, k, isa.RegName(ri))
				continue
			case VConst:
				want = uint32(v.Off)
			case VSP:
				want = anchor.sp + uint32(v.Off)
			case VGP:
				want = anchor.gp + uint32(v.Off)
			case VBase:
				last, seen := siteLast[v.Base]
				if !seen {
					t.Fatalf("block 0x%x (+%d): %s anchored to load site 0x%x the path never executed",
						off, k, isa.RegName(ri), v.Base)
				}
				want = last + uint32(v.Off)
			default:
				continue // ⊤: no claim
			}
			if regs[ri] != want {
				t.Fatalf("block 0x%x (+%d): %s = 0x%x concretely, but analysis claims %+v (0x%x)",
					off, k, isa.RegName(ri), regs[ri], v, want)
			}
		}
	}

	// exec applies one instruction's concrete semantics. site is the
	// instruction's static identity (load value-numbering).
	exec := func(w isa.Word, site uint64) {
		d := isa.Decode(w)
		simm := uint32(isa.SignExt16(d.Imm))
		set := func(rd int, v uint32) {
			if rd != 0 {
				regs[rd] = v
			}
		}
		switch d.Op {
		case isa.OpSpecial:
			switch d.Funct {
			case isa.FnADDU:
				set(d.Rd, regs[d.Rs]+regs[d.Rt])
			case isa.FnSUBU:
				set(d.Rd, regs[d.Rs]-regs[d.Rt])
			case isa.FnAND:
				set(d.Rd, regs[d.Rs]&regs[d.Rt])
			case isa.FnOR:
				set(d.Rd, regs[d.Rs]|regs[d.Rt])
			case isa.FnXOR:
				set(d.Rd, regs[d.Rs]^regs[d.Rt])
			case isa.FnSLL:
				set(d.Rd, regs[d.Rt]<<d.Shamt)
			case isa.FnSRL:
				set(d.Rd, regs[d.Rt]>>d.Shamt)
			case isa.FnSRA:
				set(d.Rd, uint32(int32(regs[d.Rt])>>d.Shamt))
			}
		case isa.OpADDIU:
			set(d.Rt, regs[d.Rs]+simm)
		case isa.OpORI:
			set(d.Rt, regs[d.Rs]|uint32(d.Imm))
		case isa.OpXORI:
			set(d.Rt, regs[d.Rs]^uint32(d.Imm))
		case isa.OpLUI:
			set(d.Rt, uint32(d.Imm)<<16)
		case isa.OpJAL:
			// ra is set when the jump executes, before its delay slot.
		case isa.OpLW:
			addr := regs[d.Rs] + simm
			v, ok := mem[addr]
			if !ok {
				v = initMem(addr)
			}
			set(d.Rt, v)
			siteLast[site] = v
		case isa.OpSW:
			mem[regs[d.Rs]+simm] = regs[d.Rt]
		}
	}

	pc := uint32(0)
	var blockOff uint32
	var blockK int
	for steps := 0; steps < 512; steps++ {
		if pc/4 >= uint32(len(f.Text)) {
			break
		}
		if leaders[pc] {
			blockOff, blockK = pc, 0
		}
		check(blockOff, blockK)
		w := f.Text[pc/4]
		site := uint64(blockOff) + uint64(blockK)*4 // == block key + word index (object 0)
		if !isa.HasDelaySlot(w) {
			exec(w, site)
			pc += 4
			blockK++
			continue
		}
		if pc/4+1 >= uint32(len(f.Text)) {
			break
		}
		d := isa.Decode(w)
		if d.Op == isa.OpJAL {
			regs[isa.RegRA] = pc + 8
		}
		blockK++
		check(blockOff, blockK)
		exec(f.Text[pc/4+1], site+4) // delay slot
		switch {
		case isa.IsBranch(w):
			if r.next()%2 == 1 {
				pc = pc + 4 + isa.SignExt16(d.Imm)<<2
			} else {
				pc += 8
			}
		case d.Op == isa.OpJAL:
			target, ok := j26[pc]
			if !ok || len(stack) >= 16 {
				return
			}
			stack = append(stack, pc+8)
			anchors = append(anchors, anchor)
			pc = target
			anchor = frame{regs[isa.RegSP], regs[isa.RegGP]}
		case d.Op == isa.OpJ:
			target, ok := j26[pc]
			if !ok {
				return
			}
			pc = target
		case d.Op == isa.OpSpecial && d.Funct == isa.FnJR && d.Rs == isa.RegRA:
			if len(stack) == 0 {
				return // back to the unknown caller; oracle stops
			}
			if regs[isa.RegRA] != stack[len(stack)-1] {
				return // ra diverged from the call stack; outside the modeled ABI
			}
			pc = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			anchor = anchors[len(anchors)-1]
			anchors = anchors[:len(anchors)-1]
		default:
			return
		}
	}
}
