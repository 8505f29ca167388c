package mahler

import "systrace/internal/isa"

// callSite describes one of the three call forms: named call, indirect
// call, or system call (sysnum is the syscall number + 1; 0 = none).
type callSite struct {
	name   string
	target Expr
	sysnum int
	args   []Expr
}

// call implements the uniform call protocol:
//
//  1. evaluate every argument (and the indirect target) onto the
//     scratch stack — nested calls transparently spill and restore
//     live scratch, so partially evaluated outer calls survive;
//  2. move the argument values into a0..a3 / f12..f15 (and t9 for an
//     indirect target) and pop them;
//  3. spill any scratch still live below the arguments (values held
//     by an enclosing expression);
//  4. transfer (jal / jalr t9 / syscall);
//  5. capture the result into a fresh scratch register;
//  6. restore the spilled scratch registers.
//
// want selects the expected result type; calls to void functions in
// expression position are compile errors.
func (c *cg) call(s callSite, want Type) val {
	if len(s.args) > 4 {
		cerr("%s: call with %d arguments (max 4)", c.f.Name, len(s.args))
	}
	var ret Type
	switch {
	case s.sysnum > 0:
		ret = TInt
	case s.name != "":
		sig, ok := c.sigs[s.name]
		if !ok {
			cerr("%s: call to undeclared function %q (declare with Extern)", c.f.Name, s.name)
		}
		ret = sig
	default:
		ret = want // indirect calls trust the annotation
	}
	if want != TVoid && ret == TVoid {
		cerr("%s: void function %q used in expression", c.f.Name, s.name)
	}

	baseI, baseF := c.itop, c.ftop

	// 1. Evaluate arguments onto the scratch stack.
	vals := make([]val, len(s.args))
	floatArg := make([]bool, len(s.args))
	for i, arg := range s.args {
		arg = c.resolve(arg)
		if arg.exprType() == TFloat {
			floatArg[i] = true
			vals[i] = c.evalF(arg)
		} else {
			vals[i] = c.eval(arg)
		}
	}
	var tgt val
	if s.target != nil {
		tgt = c.eval(s.target)
	}

	// 2. Move into argument registers and pop.
	if s.target != nil {
		c.a.I(isa.ADDU(isa.RegT9, tgt.reg, isa.RegZero))
		c.release(tgt)
	}
	for i := len(s.args) - 1; i >= 0; i-- {
		if floatArg[i] {
			c.a.I(isa.FMOV(12+i, vals[i].reg))
			c.releaseF(vals[i])
		} else {
			c.a.I(isa.ADDU(isa.RegA0+i, vals[i].reg, isa.RegZero))
			c.release(vals[i])
		}
	}
	if c.itop != baseI || c.ftop != baseF {
		cerr("%s: call argument stack imbalance", c.f.Name)
	}

	// 3. Spill enclosing live scratch.
	for k := 0; k < baseI; k++ {
		c.a.I(isa.SW(intScratch[k], isa.RegSP, uint16(frIntSpill+4*k)))
	}
	for k := 0; k < baseF; k++ {
		c.a.I(isa.SWC1(fltScratch[k], isa.RegSP, uint16(frFltSpill+8*k)))
	}

	// 4. Transfer.
	switch {
	case s.sysnum > 0:
		c.a.LI(isa.RegV0, uint32(s.sysnum-1))
		c.a.I(isa.SYSCALL())
	case s.target != nil:
		c.a.I(isa.JALR(isa.RegRA, isa.RegT9))
		c.a.I(isa.NOP)
	default:
		c.a.JalSym(s.name)
		c.a.I(isa.NOP)
	}

	// 5/6. Capture result, restore spills.
	restore := func() {
		for k := 0; k < baseI; k++ {
			c.a.I(isa.LW(intScratch[k], isa.RegSP, uint16(frIntSpill+4*k)))
		}
		for k := 0; k < baseF; k++ {
			c.a.I(isa.LWC1(fltScratch[k], isa.RegSP, uint16(frFltSpill+8*k)))
		}
	}
	if want == TVoid {
		restore()
		return val{}
	}
	if want == TFloat {
		if ret != TFloat {
			cerr("%s: float use of int-returning function %q", c.f.Name, s.name)
		}
		fr := c.pushF()
		c.a.I(isa.FMOV(fr, 0))
		restore()
		return val{fr, true}
	}
	if ret == TFloat {
		cerr("%s: int use of float-returning function %q", c.f.Name, s.name)
	}
	rd := c.pushI()
	c.a.I(isa.ADDU(rd, isa.RegV0, isa.RegZero))
	restore()
	return val{rd, true}
}

func (c *cg) stmt(s Stmt) {
	switch x := s.(type) {
	case assignStmt:
		v := c.f.lookup(x.name)
		if v == nil {
			cerr("%s: assign to undeclared local %q", c.f.Name, x.name)
		}
		if v.typ == TFloat {
			fv := c.evalF(x.e)
			c.a.I(isa.SWC1(fv.reg, isa.RegSP, uint16(v.frame)))
			c.releaseF(fv)
			return
		}
		r := c.eval(x.e)
		if v.sreg >= 0 {
			if r.reg != v.sreg {
				c.a.I(isa.ADDU(v.sreg, r.reg, isa.RegZero))
			}
		} else {
			c.a.I(isa.SW(r.reg, isa.RegSP, uint16(v.frame)))
		}
		c.release(r)
	case storeStmt:
		rv := c.eval(x.e)
		base, off := c.evalAddr(x.addr)
		switch x.size {
		case 1:
			c.a.I(isa.SB(rv.reg, base.reg, off))
		case 2:
			c.a.I(isa.SH(rv.reg, base.reg, off))
		case 4:
			c.a.I(isa.SW(rv.reg, base.reg, off))
		default:
			cerr("%s: bad store size %d", c.f.Name, x.size)
		}
		c.release(base)
		c.release(rv)
	case storeFStmt:
		fv := c.evalF(x.e)
		base, off := c.evalAddr(x.addr)
		c.a.I(isa.SWC1(fv.reg, base.reg, off))
		c.release(base)
		c.releaseF(fv)
	case ifStmt:
		cond := c.eval(x.cond)
		c.release(cond)
		if x.els == nil {
			end := c.label()
			c.a.Br(isa.BEQ(cond.reg, isa.RegZero, 0), end)
			c.a.I(isa.NOP)
			c.stmts(x.then)
			c.a.Label(end)
			return
		}
		els, end := c.label(), c.label()
		c.a.Br(isa.BEQ(cond.reg, isa.RegZero, 0), els)
		c.a.I(isa.NOP)
		c.stmts(x.then)
		// The jump over the else arm is dead when the then arm already
		// left unconditionally (break/continue/return); emitting it
		// anyway creates an unreachable block `lint -pass guest` flags.
		if !terminal(x.then) {
			c.a.Jmp(end)
			c.a.I(isa.NOP)
		}
		c.a.Label(els)
		c.stmts(x.els)
		c.a.Label(end)
	case whileStmt:
		top, end := c.label(), c.label()
		c.a.Label(top)
		cond := c.eval(x.cond)
		c.release(cond)
		c.a.Br(isa.BEQ(cond.reg, isa.RegZero, 0), end)
		c.a.I(isa.NOP)
		c.loops = append(c.loops, loopLabels{cont: top, brk: end})
		c.stmts(x.body)
		c.loops = c.loops[:len(c.loops)-1]
		if !terminal(x.body) {
			c.a.Jmp(top)
			c.a.I(isa.NOP)
		}
		c.a.Label(end)
	case breakStmt:
		if len(c.loops) == 0 {
			cerr("%s: break outside loop", c.f.Name)
		}
		c.a.Jmp(c.loops[len(c.loops)-1].brk)
		c.a.I(isa.NOP)
	case continueStmt:
		if len(c.loops) == 0 {
			cerr("%s: continue outside loop", c.f.Name)
		}
		c.a.Jmp(c.loops[len(c.loops)-1].cont)
		c.a.I(isa.NOP)
	case returnStmt:
		if x.e == nil {
			if c.f.Ret != TVoid {
				cerr("%s: bare return in %v function", c.f.Name, c.f.Ret)
			}
		} else if c.f.Ret == TFloat {
			fv := c.evalF(x.e)
			if fv.reg != 0 {
				c.a.I(isa.FMOV(0, fv.reg))
			}
			c.releaseF(fv)
		} else if c.f.Ret == TInt {
			r := c.eval(x.e)
			c.a.I(isa.ADDU(isa.RegV0, r.reg, isa.RegZero))
			c.release(r)
		} else {
			cerr("%s: value return in void function", c.f.Name)
		}
		c.a.Jmp(c.epi)
		c.a.I(isa.NOP)
	case exprStmt:
		e := c.resolve(x.e)
		switch ce := e.(type) {
		case callExpr:
			c.call(callSite{name: ce.name, args: ce.args}, TVoid)
		case callPtr:
			c.call(callSite{target: ce.target, args: ce.args}, TVoid)
		case syscallExpr:
			c.call(callSite{sysnum: ce.num + 1, args: ce.args}, TVoid)
		default:
			if e.exprType() == TFloat {
				c.releaseF(c.evalF(e))
			} else {
				c.release(c.eval(e))
			}
		}
	case mtc0Stmt:
		r := c.eval(x.e)
		c.a.I(isa.MTC0(r.reg, x.reg))
		c.release(r)
	case cop0Stmt:
		c.a.I(isa.Instr{Op: isa.OpCOP0, Rs: isa.Cop0CO, Funct: x.fn}.Encode())
	case haltStmt:
		c.a.I(isa.BREAK(0))
	default:
		cerr("%s: unhandled statement %T", c.f.Name, s)
	}
}

// terminal reports whether a statement list always leaves by an
// unconditional transfer (break, continue, or return), so any code
// emitted directly after it would be unreachable. An if is terminal
// only when both arms exist and are terminal.
func terminal(stmts []Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch x := stmts[len(stmts)-1].(type) {
	case breakStmt, continueStmt, returnStmt:
		return true
	case ifStmt:
		return x.els != nil && terminal(x.then) && terminal(x.els)
	}
	return false
}
