// Package userland provides the user-level runtime for programs that
// run on the simulated kernels: the startup stub (in traced builds it
// points xreg3 at the per-process trace pages and initializes the
// buffer bookkeeping — under Mach the first touch of those pages is
// what makes the kernel allocate them, §3.6), a tiny libc of syscall
// wrappers, and the build helper producing original + instrumented
// images.
package userland

import (
	"fmt"

	"systrace/internal/asm"
	"systrace/internal/epoxie"
	"systrace/internal/isa"
	"systrace/internal/kernel"
	"systrace/internal/link"
	m "systrace/internal/mahler"
	"systrace/internal/obj"
	"systrace/internal/obs"
	"systrace/internal/trace"
)

// Crt0 builds the startup stub. The kernel fabricates sp and jumps to
// _start; main's return value becomes the exit status. The traced and
// untraced variants have identical sizes so that program layout — and
// therefore every address in the trace — matches the uninstrumented
// binary exactly.
func Crt0(traced bool) *obj.File {
	a := asm.New("crt0u")
	a.Func("_start", asm.NoInstrument)
	li32 := func(r int, v uint32) {
		a.I(isa.LUI(r, uint16(v>>16)))
		a.I(isa.ORI(r, r, uint16(v)))
	}
	if traced {
		li32(isa.XReg3, trace.UserTraceVA)
		li32(isa.RegAT, trace.UserTraceVA+trace.BookSize)
		a.I(isa.SW(isa.RegAT, isa.XReg3, trace.BookBufPtr))
		li32(isa.RegAT, trace.UserTraceVA+trace.BookSize+trace.UserBufBytes)
		a.I(isa.SW(isa.RegAT, isa.XReg3, trace.BookBufEnd))
	} else {
		for i := 0; i < 8; i++ {
			a.I(isa.NOP)
		}
	}
	a.JalSym("main")
	a.I(isa.NOP)
	a.I(isa.OR(isa.RegA0, isa.RegV0, isa.RegZero))
	li32(isa.RegV0, kernel.SysExit)
	a.I(isa.SYSCALL())
	a.I(isa.NOP) // not reached
	return a.MustFinish()
}

// Libc returns a module of syscall wrappers and common routines the
// workloads share. It is compiled and linked into every program (and
// therefore traced, like the real libc).
func Libc() *m.Module {
	lib := m.NewModule("libc")

	wrap := func(name string, num int, nargs int) {
		f := lib.Func(name, m.TInt)
		args := make([]m.Expr, 0, nargs)
		for i := 0; i < nargs; i++ {
			p := fmt.Sprintf("a%d", i)
			f.Param(p, m.TInt)
			args = append(args, m.V(p))
		}
		f.Code(func(b *m.Block) {
			b.Return(m.Syscall(num, args...))
		})
	}
	wrap("sys_write", kernel.SysWrite, 3)
	wrap("sys_read", kernel.SysRead, 3)
	wrap("sys_open", kernel.SysOpen, 1)
	wrap("sys_close", kernel.SysClose, 1)
	wrap("sys_brk", kernel.SysBrk, 1)
	wrap("sys_getpid", kernel.SysGetPID, 0)
	wrap("sys_yield", kernel.SysYield, 0)
	wrap("sys_time", kernel.SysTime, 0)
	wrap("sys_tracectl", kernel.SysTraceCtl, 1)
	wrap("msg_recv", kernel.SysMsgRecv, 1)
	wrap("msg_reply", kernel.SysMsgReply, 4)
	wrap("disk_read", kernel.SysDiskRead, 3)
	wrap("disk_write", kernel.SysDiskWrite, 3)

	// memcpy(dst, src, n)
	f := lib.Func("memcpy", m.TInt)
	f.Param("dst", m.TInt)
	f.Param("src", m.TInt)
	f.Param("n", m.TInt)
	f.Locals("i")
	f.Code(func(b *m.Block) {
		b.Assign("i", m.I(0))
		b.If(m.Eq(m.And(m.Or(m.V("dst"), m.V("src")), m.I(3)), m.I(0)), func(b *m.Block) {
			b.While(m.LeU(m.Add(m.V("i"), m.I(4)), m.V("n")), func(b *m.Block) {
				b.StoreW(m.Add(m.V("dst"), m.V("i")), m.LoadW(m.Add(m.V("src"), m.V("i"))))
				b.Assign("i", m.Add(m.V("i"), m.I(4)))
			})
		}, nil)
		b.While(m.LtU(m.V("i"), m.V("n")), func(b *m.Block) {
			b.StoreB(m.Add(m.V("dst"), m.V("i")), m.LoadB(m.Add(m.V("src"), m.V("i"))))
			b.Assign("i", m.Add(m.V("i"), m.I(1)))
		})
		b.Return(m.V("dst"))
	})

	// memset(dst, c, n)
	f = lib.Func("memset", m.TInt)
	f.Param("dst", m.TInt)
	f.Param("c", m.TInt)
	f.Param("n", m.TInt)
	f.Locals("i")
	f.Code(func(b *m.Block) {
		b.For("i", m.I(0), m.V("n"), func(b *m.Block) {
			b.StoreB(m.Add(m.V("dst"), m.V("i")), m.V("c"))
		})
		b.Return(m.V("dst"))
	})

	// strlen(s)
	f = lib.Func("strlen", m.TInt)
	f.Param("s", m.TInt)
	f.Locals("i")
	f.Code(func(b *m.Block) {
		b.Assign("i", m.I(0))
		b.While(m.Ne(m.LoadB(m.Add(m.V("s"), m.V("i"))), m.I(0)), func(b *m.Block) {
			b.Assign("i", m.Add(m.V("i"), m.I(1)))
		})
		b.Return(m.V("i"))
	})

	// puts(s): write a NUL-terminated string to the console.
	f = lib.Func("puts", m.TInt)
	f.Param("s", m.TInt)
	f.Code(func(b *m.Block) {
		b.Return(m.Call("sys_write", m.I(1), m.V("s"), m.Call("strlen", m.V("s"))))
	})

	return lib
}

// DeclareLibc registers the libc externs on a workload module.
func DeclareLibc(mod *m.Module) {
	for _, n := range []string{"sys_write", "sys_read", "sys_open", "sys_close",
		"sys_brk", "sys_getpid", "sys_yield", "sys_time", "sys_tracectl",
		"msg_recv", "msg_reply", "disk_read", "disk_write",
		"memcpy", "memset", "strlen", "puts"} {
		mod.Extern(n, m.TInt)
	}
}

// Program is a built user program in both forms.
type Program struct {
	Name  string
	Orig  *obj.Executable // uninstrumented (direct measurement)
	Instr *obj.Executable // epoxie-instrumented (tracing)
}

// Build compiles modules (plus libc) and produces the original and
// instrumented executables with identical data layout.
func Build(name string, mods []*m.Module, opt m.Options) (*Program, error) {
	return BuildFlow(name, mods, opt, epoxie.FlowOn)
}

// BuildFlow is Build with an explicit rewriter liveness mode; the
// differential oracle uses it to produce FlowOff and FlowPadded
// variants of the same program.
func BuildFlow(name string, mods []*m.Module, opt m.Options, flow epoxie.FlowMode) (*Program, error) {
	sp := obs.BeginDetail("userland_build", name)
	defer sp.End()
	objs := []*obj.File{Crt0(true)}
	csp := obs.Begin("mahler_compile")
	for _, mod := range append(mods, Libc()) {
		o, err := mod.Compile(opt)
		if err != nil {
			csp.End()
			return nil, fmt.Errorf("userland %s: %w", name, err)
		}
		objs = append(objs, o)
	}
	csp.End()
	lopt := link.Options{
		Name:     name,
		Entry:    "_start",
		TextBase: obj.UserTextBase,
		DataBase: obj.UserDataBase,
	}
	b, err := epoxie.BuildInstrumented(objs, lopt, epoxie.Config{Flow: flow}, epoxie.UserRuntime)
	if err != nil {
		return nil, fmt.Errorf("userland %s: %w", name, err)
	}
	// The untraced image must not poke the trace pages: rebuild the
	// original with the untraced crt0 (same code size as a stub is
	// NoInstrument; layout of the program proper is unchanged).
	objs[0] = Crt0(false)
	lsp := obs.Begin("link")
	orig, err := link.Link(objs, lopt)
	lsp.End()
	if err != nil {
		return nil, fmt.Errorf("userland %s: %w", name, err)
	}
	return &Program{Name: name, Orig: orig, Instr: b.Instr}, nil
}
