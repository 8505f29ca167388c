package kernel_test

import (
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"systrace/internal/cpu"
	"systrace/internal/kernel"
	m "systrace/internal/mahler"
	"systrace/internal/obj"
	"systrace/internal/telemetry"
	"systrace/internal/trace"
	"systrace/internal/userland"
	"systrace/internal/workload"
)

// helloModule writes a line to the console and exits with a status.
func helloModule() *m.Module {
	mod := m.NewModule("hello")
	userland.DeclareLibc(mod)
	mod.Data("msg", []byte("hello, kernel world\n\x00"))
	f := mod.Func("main", m.TInt)
	f.Code(func(b *m.Block) {
		b.Call("puts", m.Addr("msg", 0))
		b.Return(m.I(42))
	})
	return mod
}

func TestBootHelloUltrix(t *testing.T) {
	kexe, err := kernel.Build(kernel.Config{Flavor: kernel.Ultrix})
	if err != nil {
		t.Fatalf("kernel build: %v", err)
	}
	prog, err := userland.Build("hello", []*m.Module{helloModule()}, m.Options{})
	if err != nil {
		t.Fatalf("user build: %v", err)
	}
	disk, err := kernel.BuildDiskImage(map[string][]byte{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := kernel.DefaultBoot(kernel.Ultrix)
	cfg.DiskImage = disk
	sys, err := kernel.Boot(kexe, []kernel.BootProc{{Exe: prog.Orig}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(50_000_000); err != nil {
		t.Fatalf("run: %v (console: %q)", err, sys.Console())
	}
	if !sys.M.Halted {
		t.Fatal("machine did not halt")
	}
	if got := sys.Console(); !strings.Contains(got, "hello, kernel world") {
		t.Fatalf("console = %q", got)
	}
}

// fileSumModule opens "data.bin", reads it in 512-byte chunks, and
// returns the byte sum.
func fileSumModule() *m.Module {
	mod := m.NewModule("filesum")
	userland.DeclareLibc(mod)
	mod.Data("path", []byte("data.bin\x00"))
	mod.Global("buf", 512)
	f := mod.Func("main", m.TInt)
	f.Locals("fd", "n", "i", "sum")
	f.Code(func(b *m.Block) {
		b.Assign("fd", m.Call("sys_open", m.Addr("path", 0)))
		b.If(m.Lt(m.V("fd"), m.I(0)), func(b *m.Block) { b.Return(m.Neg(m.I(1))) }, nil)
		b.Assign("sum", m.I(0))
		b.While(m.I(1), func(b *m.Block) {
			b.Assign("n", m.Call("sys_read", m.V("fd"), m.Addr("buf", 0), m.I(512)))
			b.If(m.Le(m.V("n"), m.I(0)), func(b *m.Block) { b.Break() }, nil)
			b.For("i", m.I(0), m.V("n"), func(b *m.Block) {
				b.Assign("sum", m.Add(m.V("sum"), m.LoadB(m.Add(m.Addr("buf", 0), m.V("i")))))
			})
		})
		b.Call("sys_close", m.V("fd"))
		b.Return(m.V("sum"))
	})
	return mod
}

func testData() ([]byte, uint32) {
	data := make([]byte, 10000)
	var sum uint32
	for i := range data {
		data[i] = byte(i*7 + 3)
		sum += uint32(data[i])
	}
	return data, sum
}

// exit status is visible through the zombie's trapframe a0 slot.
func exitStatus(t testing.TB, sys *kernel.System, pid int) uint32 {
	t.Helper()
	procs := symbol(t, sys.Kernel, "procs") - 0x80000000
	p := procs + uint32(pid-1)*kernel.ProcStride
	return sys.M.RAM.ReadWord(p + kernel.PSave + kernel.TFRegs + (4-1)*4) // a0
}

func bootAndRun(t *testing.T, flavor kernel.Flavor, traced bool, mods map[string]*m.Module, files map[string][]byte) *kernel.System {
	t.Helper()
	kexe, err := kernel.Build(kernel.Config{Flavor: flavor, Traced: traced})
	if err != nil {
		t.Fatalf("kernel build: %v", err)
	}
	var procs []kernel.BootProc
	if flavor == kernel.Mach {
		srv, err := userland.Build("ux", []*m.Module{userland.UXServer()}, m.Options{})
		if err != nil {
			t.Fatalf("server build: %v", err)
		}
		exe := srv.Orig
		if traced {
			exe = srv.Instr
		}
		procs = append(procs, kernel.BootProc{Exe: exe, IsServer: true})
	}
	names := make([]string, 0, len(mods))
	for n := range mods {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		prog, err := userland.Build(n, []*m.Module{mods[n]}, m.Options{})
		if err != nil {
			t.Fatalf("user build %s: %v", n, err)
		}
		exe := prog.Orig
		if traced {
			exe = prog.Instr
		}
		procs = append(procs, kernel.BootProc{Exe: exe})
	}
	disk, err := kernel.BuildDiskImage(files)
	if err != nil {
		t.Fatal(err)
	}
	cfg := kernel.DefaultBoot(flavor)
	cfg.DiskImage = disk
	if traced {
		cfg.TraceBufBytes = 4 << 20
	}
	sys, err := kernel.Boot(kexe, procs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(400_000_000); err != nil {
		t.Fatalf("run: %v (console %q)", err, sys.Console())
	}
	if !sys.M.Halted {
		t.Fatal("machine did not halt")
	}
	return sys
}

func TestFileReadUltrix(t *testing.T) {
	data, sum := testData()
	sys := bootAndRun(t, kernel.Ultrix, false,
		map[string]*m.Module{"filesum": fileSumModule()},
		map[string][]byte{"data.bin": data})
	if got := exitStatus(t, sys, 1); got != sum {
		t.Errorf("file sum = %d, want %d", got, sum)
	}
}

func TestFileReadMach(t *testing.T) {
	data, sum := testData()
	sys := bootAndRun(t, kernel.Mach, false,
		map[string]*m.Module{"filesum": fileSumModule()},
		map[string][]byte{"data.bin": data})
	if got := exitStatus(t, sys, 2); got != sum {
		t.Errorf("file sum = %d, want %d", got, sum)
	}
}

// bootSys builds everything but does not run, so tests can attach the
// analysis program first. Returns the system and the per-pid side
// tables (pid 0 = kernel).
func bootSys(t *testing.T, flavor kernel.Flavor, traced bool, mods map[string]*m.Module, files map[string][]byte) (*kernel.System, map[int]*trace.SideTable) {
	t.Helper()
	kexe, err := kernel.Build(kernel.Config{Flavor: flavor, Traced: traced})
	if err != nil {
		t.Fatalf("kernel build: %v", err)
	}
	tables := map[int]*trace.SideTable{}
	if traced {
		tables[0] = trace.NewSideTable(kexe.Instr.Blocks)
	}
	var procs []kernel.BootProc
	addProg := func(name string, ms []*m.Module, server bool) {
		prog, err := userland.Build(name, ms, m.Options{})
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		exe := prog.Orig
		if traced {
			exe = prog.Instr
			tables[len(procs)+1] = trace.NewSideTable(exe.Instr.Blocks)
		}
		procs = append(procs, kernel.BootProc{Exe: exe, IsServer: server})
	}
	if flavor == kernel.Mach {
		addProg("ux", []*m.Module{userland.UXServer()}, true)
	}
	names := make([]string, 0, len(mods))
	for n := range mods {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		addProg(n, []*m.Module{mods[n]}, false)
	}
	disk, err := kernel.BuildDiskImage(files)
	if err != nil {
		t.Fatal(err)
	}
	cfg := kernel.DefaultBoot(flavor)
	cfg.DiskImage = disk
	if traced {
		cfg.TraceBufBytes = 4 << 20
		cfg.ClockInterval = 50_000 * 15 // time-dilation compensation
	}
	sys, err := kernel.Boot(kexe, procs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys, tables
}

func runTraced(t *testing.T, flavor kernel.Flavor, mods map[string]*m.Module, files map[string][]byte) (*kernel.System, *trace.Parser, []trace.Event) {
	t.Helper()
	sys, tables := bootSys(t, flavor, true, mods, files)
	p := trace.NewParser(tables[0])
	for pid, tab := range tables {
		if pid != 0 {
			p.AddProcess(pid, tab)
		}
	}
	var events []trace.Event
	var perr error
	sys.OnTrace = func(words []uint32) {
		if perr != nil {
			return
		}
		events, perr = p.Parse(words, events)
	}
	if err := sys.Run(3_000_000_000); err != nil {
		t.Fatalf("run: %v (console %q)", err, sys.Console())
	}
	if perr != nil {
		t.Fatalf("trace parse: %v", perr)
	}
	if err := p.Finish(); err != nil {
		t.Fatalf("trace finish: %v", err)
	}
	return sys, p, events
}

func TestTracedUltrixSystem(t *testing.T) {
	data, sum := testData()
	sys, p, events := runTraced(t, kernel.Ultrix,
		map[string]*m.Module{"filesum": fileSumModule()},
		map[string][]byte{"data.bin": data})
	if got := exitStatus(t, sys, 1); got != sum {
		t.Errorf("traced run result %d want %d", got, sum)
	}
	if p.Records == 0 || p.MemRefs == 0 {
		t.Fatalf("no trace content: records=%d refs=%d", p.Records, p.MemRefs)
	}
	var kern, user, idle uint64
	for _, ev := range events {
		if ev.Kind != trace.EvIFetch {
			continue
		}
		if ev.Kernel {
			kern++
		} else {
			user++
		}
		if ev.Idle {
			idle++
		}
	}
	t.Logf("events=%d kernI=%d userI=%d idleI=%d records=%d modesw=%d ctx=%d maxnest=%d drained=%d",
		len(events), kern, user, idle, p.Records, p.ModeSws, p.CtxSws, p.MaxDepth, sys.DrainedWords)
	if kern == 0 || user == 0 {
		t.Error("trace must interleave kernel and user references")
	}
	if idle == 0 {
		t.Error("expected idle-loop instructions (disk waits) in the trace")
	}
}

func TestTracedMachSystem(t *testing.T) {
	data, sum := testData()
	sys, p, events := runTraced(t, kernel.Mach,
		map[string]*m.Module{"filesum": fileSumModule()},
		map[string][]byte{"data.bin": data})
	if got := exitStatus(t, sys, 2); got != sum {
		t.Errorf("traced run result %d want %d", got, sum)
	}
	var srv, client uint64
	for _, ev := range events {
		if ev.Kind == trace.EvIFetch && !ev.Kernel {
			if ev.Pid == 1 {
				srv++
			} else {
				client++
			}
		}
	}
	t.Logf("events=%d serverI=%d clientI=%d records=%d", len(events), srv, client, p.Records)
	if srv == 0 {
		t.Error("expected user-level UX server activity in the trace")
	}
}

// TestMultiProcessScheduling: two CPU-bound processes preempted by the
// clock must both complete with correct results.
func TestMultiProcessScheduling(t *testing.T) {
	spin := func(name string, n int32, ret int32) *m.Module {
		mod := m.NewModule(name)
		userland.DeclareLibc(mod)
		f := mod.Func("main", m.TInt)
		f.Locals("i", "acc")
		f.Code(func(b *m.Block) {
			b.Assign("acc", m.I(0))
			b.For("i", m.I(0), m.I(n), func(b *m.Block) {
				b.Assign("acc", m.Add(m.V("acc"), m.V("i")))
			})
			b.Return(m.Add(m.Mod(m.V("acc"), m.I(10000)), m.I(ret)))
		})
		return mod
	}
	sys := bootAndRun(t, kernel.Ultrix, false, map[string]*m.Module{
		"p1": spin("p1", 60000, 100000),
		"p2": spin("p2", 40000, 200000),
	}, nil)
	r1, r2 := exitStatus(t, sys, 1), exitStatus(t, sys, 2)
	if r1 != 100000+60000*59999/2%10000 {
		t.Errorf("p1 = %d", r1)
	}
	if r2 != 200000+40000*39999/2%10000 {
		t.Errorf("p2 = %d", r2)
	}
	if ticks := sys.ReadKernelWord("ticks"); ticks < 3 {
		t.Errorf("expected clock preemption, ticks=%d", ticks)
	}
}

// TestBrkGrowsHeap: sys_brk maps fresh zeroed pages.
func TestBrkGrowsHeap(t *testing.T) {
	mod := m.NewModule("heap")
	userland.DeclareLibc(mod)
	f := mod.Func("main", m.TInt)
	f.Locals("base", "p", "i", "sum")
	f.Code(func(b *m.Block) {
		b.Assign("base", m.Call("sys_brk", m.I(0))) // current break
		b.Assign("p", m.Call("sys_brk", m.Add(m.V("base"), m.I(3*4096))))
		b.If(m.LtU(m.V("p"), m.Add(m.V("base"), m.I(3*4096))), func(b *m.Block) {
			b.Return(m.Neg(m.I(1)))
		}, nil)
		// Touch every new page.
		b.For("i", m.I(0), m.I(3*4096/4), func(b *m.Block) {
			b.StoreW(m.Add(m.V("base"), m.Mul(m.V("i"), m.I(4))), m.V("i"))
		})
		b.Assign("sum", m.I(0))
		b.For("i", m.I(0), m.I(3*4096/4), func(b *m.Block) {
			b.Assign("sum", m.Add(m.V("sum"), m.LoadW(m.Add(m.V("base"), m.Mul(m.V("i"), m.I(4))))))
		})
		b.Return(m.Mod(m.V("sum"), m.I(100000)))
	})
	sys := bootAndRun(t, kernel.Ultrix, false, map[string]*m.Module{"heap": mod}, nil)
	n := int64(3 * 4096 / 4)
	want := uint32(n * (n - 1) / 2 % 100000)
	if got := exitStatus(t, sys, 1); got != want {
		t.Errorf("heap sum %d want %d", got, want)
	}
}

// TestFileWriteUltrix: the conservative write policy pushes data to
// the disk image synchronously.
func TestFileWriteUltrix(t *testing.T) {
	mod := m.NewModule("writer")
	userland.DeclareLibc(mod)
	mod.Data("path", []byte("out.bin\x00"))
	mod.Global("buf", 256)
	f := mod.Func("main", m.TInt)
	f.Locals("fd", "i", "n")
	f.Code(func(b *m.Block) {
		b.For("i", m.I(0), m.I(256), func(b *m.Block) {
			b.StoreB(m.Add(m.Addr("buf", 0), m.V("i")), m.Xor(m.V("i"), m.I(0x5a)))
		})
		b.Assign("fd", m.Call("sys_open", m.Addr("path", 0)))
		b.If(m.Lt(m.V("fd"), m.I(0)), func(b *m.Block) { b.Return(m.Neg(m.I(1))) }, nil)
		b.Assign("n", m.Call("sys_write", m.V("fd"), m.Addr("buf", 0), m.I(256)))
		b.Call("sys_close", m.V("fd"))
		b.Return(m.V("n"))
	})
	out := make([]byte, 512)
	sys := bootAndRun(t, kernel.Ultrix, false,
		map[string]*m.Module{"writer": mod},
		map[string][]byte{"out.bin": out})
	if got := exitStatus(t, sys, 1); got != 256 {
		t.Fatalf("write returned %d", got)
	}
	// The bytes must be on the disk image itself (synchronous write).
	img := sys.M.Disk.Image
	// out.bin data begins at its directory start sector.
	// Find it through the directory (sector 1+).
	start := uint32(0)
	for i := 0; i < 64; i++ {
		e := kernel.DirEntrySize + i*kernel.DirEntrySize
		if string(img[e:e+7]) == "out.bin" {
			start = uint32(img[e+kernel.DirNameLen])<<24 | uint32(img[e+kernel.DirNameLen+1])<<16 |
				uint32(img[e+kernel.DirNameLen+2])<<8 | uint32(img[e+kernel.DirNameLen+3])
		}
	}
	if start == 0 {
		t.Fatal("out.bin not found in directory")
	}
	for i := 0; i < 256; i++ {
		if img[int(start)*kernel.SectorSize+i] != byte(i)^0x5a {
			t.Fatalf("disk byte %d = 0x%x", i, img[int(start)*kernel.SectorSize+i])
		}
	}
}

// TestUTLBCounter: the hardware miss counter advances under address
// space pressure.
func TestUTLBCounter(t *testing.T) {
	mod := m.NewModule("tlbpressure")
	userland.DeclareLibc(mod)
	mod.Global("big", 96*4096) // 96 pages > 64 TLB entries
	f := mod.Func("main", m.TInt)
	f.Locals("i", "pass", "sum")
	f.Code(func(b *m.Block) {
		b.Assign("sum", m.I(0))
		b.For("pass", m.I(0), m.I(3), func(b *m.Block) {
			b.For("i", m.I(0), m.I(96), func(b *m.Block) {
				b.Assign("sum", m.Add(m.V("sum"),
					m.LoadW(m.Add(m.Addr("big", 0), m.Mul(m.V("i"), m.I(4096))))))
			})
		})
		b.Return(m.Add(m.V("sum"), m.I(7)))
	})
	sys := bootAndRun(t, kernel.Ultrix, false, map[string]*m.Module{"tlb": mod}, nil)
	if got := sys.UTLBCount(); got < 96 {
		t.Errorf("UTLB counter %d, want >= 96 (working set exceeds the TLB)", got)
	}
}

// TestTraceCtlSyscall: user-level tracing control (§3.1).
func TestTraceCtlSyscall(t *testing.T) {
	mod := m.NewModule("tctl")
	userland.DeclareLibc(mod)
	f := mod.Func("main", m.TInt)
	f.Locals("i", "acc")
	f.Code(func(b *m.Block) {
		b.Call("sys_tracectl", m.I(kernel.TraceCtlOff))
		b.Assign("acc", m.I(0))
		b.For("i", m.I(0), m.I(1000), func(b *m.Block) {
			b.Assign("acc", m.Add(m.V("acc"), m.I(1)))
		})
		b.Call("sys_tracectl", m.I(kernel.TraceCtlOn))
		b.Return(m.V("acc"))
	})
	sys, tables := bootSys(t, kernel.Ultrix, true, map[string]*m.Module{"tctl": mod}, nil)
	p := trace.NewParser(tables[0])
	p.AddProcess(1, tables[1])
	var perr error
	sys.OnTrace = func(words []uint32) {
		if perr == nil {
			_, perr = p.Parse(words, nil)
		}
	}
	if err := sys.Run(400_000_000); err != nil {
		t.Fatal(err)
	}
	if perr != nil {
		t.Fatalf("parse: %v", perr)
	}
	if got := exitStatus(t, sys, 1); got != 1000 {
		t.Errorf("result %d", got)
	}
	if p.ModeSws < 1 {
		t.Error("trace_ctl off/on should appear as mode boundaries")
	}
}

// TestMachMultiClient: several clients banging on the UX server
// concurrently, with scheduling interleave, each gets its own correct
// answer and descriptor state.
func TestMachMultiClient(t *testing.T) {
	data1, sum1 := testData()
	data2 := make([]byte, 5000)
	var sum2 uint32
	for i := range data2 {
		data2[i] = byte(i*3 + 1)
		sum2 += uint32(data2[i])
	}
	mk := func(name, path string) *m.Module {
		mod := m.NewModule(name)
		userland.DeclareLibc(mod)
		mod.Data("path", []byte(path+"\x00"))
		mod.Global("buf", 512)
		f := mod.Func("main", m.TInt)
		f.Locals("fd", "n", "i", "sum")
		f.Code(func(b *m.Block) {
			b.Assign("fd", m.Call("sys_open", m.Addr("path", 0)))
			b.If(m.Lt(m.V("fd"), m.I(0)), func(b *m.Block) { b.Return(m.Neg(m.I(1))) }, nil)
			b.Assign("sum", m.I(0))
			b.While(m.I(1), func(b *m.Block) {
				b.Assign("n", m.Call("sys_read", m.V("fd"), m.Addr("buf", 0), m.I(512)))
				b.If(m.Le(m.V("n"), m.I(0)), func(b *m.Block) { b.Break() }, nil)
				b.For("i", m.I(0), m.V("n"), func(b *m.Block) {
					b.Assign("sum", m.Add(m.V("sum"), m.LoadB(m.Add(m.Addr("buf", 0), m.V("i")))))
				})
			})
			b.Call("sys_close", m.V("fd"))
			b.Return(m.V("sum"))
		})
		return mod
	}
	sys := bootAndRun(t, kernel.Mach, false, map[string]*m.Module{
		"c1": mk("c1", "data.bin"),
		"c2": mk("c2", "other.bin"),
	}, map[string][]byte{"data.bin": data1, "other.bin": data2})
	// pid 1 = server, clients in sorted name order: c1=2, c2=3.
	if got := exitStatus(t, sys, 2); got != sum1 {
		t.Errorf("client 1 sum %d want %d", got, sum1)
	}
	if got := exitStatus(t, sys, 3); got != sum2 {
		t.Errorf("client 2 sum %d want %d", got, sum2)
	}
}

// TestTracedMultiProcess: two traced processes plus the traced kernel;
// the parser must attribute every stream correctly across context
// switches.
func TestTracedMultiProcess(t *testing.T) {
	spin := func(name string, n int32) *m.Module {
		mod := m.NewModule(name)
		userland.DeclareLibc(mod)
		f := mod.Func("main", m.TInt)
		f.Locals("i", "acc")
		f.Code(func(b *m.Block) {
			b.Assign("acc", m.I(0))
			b.For("i", m.I(0), m.I(n), func(b *m.Block) {
				b.Assign("acc", m.Add(m.V("acc"), m.I(3)))
			})
			b.Return(m.V("acc"))
		})
		return mod
	}
	sys, tables := bootSys(t, kernel.Ultrix, true, map[string]*m.Module{
		"pa": spin("pa", 30000),
		"pb": spin("pb", 20000),
	}, nil)
	p := trace.NewParser(tables[0])
	p.AddProcess(1, tables[1])
	p.AddProcess(2, tables[2])
	perPid := map[int16]uint64{}
	var perr error
	sys.OnTrace = func(words []uint32) {
		if perr != nil {
			return
		}
		var evs []trace.Event
		evs, perr = p.Parse(words, nil)
		for _, ev := range evs {
			if !ev.Kernel && ev.Kind == trace.EvIFetch {
				perPid[ev.Pid]++
			}
		}
	}
	if err := sys.Run(2_000_000_000); err != nil {
		t.Fatal(err)
	}
	if perr != nil {
		t.Fatal(perr)
	}
	if err := p.Finish(); err != nil {
		t.Fatal(err)
	}
	if exitStatus(t, sys, 1) != 90000 || exitStatus(t, sys, 2) != 60000 {
		t.Errorf("results %d/%d", exitStatus(t, sys, 1), exitStatus(t, sys, 2))
	}
	if perPid[1] == 0 || perPid[2] == 0 {
		t.Fatalf("missing per-process trace: %v", perPid)
	}
	// The longer process must have proportionally more trace.
	if perPid[1] <= perPid[2] {
		t.Errorf("expected pid1 > pid2 fetches: %v", perPid)
	}
}

// TestSmallTraceBufferBounded is the §4.3 slack-region invariant as a
// regression test: with the smallest sensible in-kernel buffer the
// generation/analysis switch fires constantly, and the buffer pointer
// must never pass the buffer's hard end — one full per-process flush
// plus one handler's own trace must always fit in the slack. (A
// violation here once sprayed trace words over the first user text
// frame, which sits immediately after the buffer in physical memory.)
func TestSmallTraceBufferBounded(t *testing.T) {
	spec, ok := workload.ByName("egrep")
	if !ok {
		t.Fatal("egrep workload missing")
	}
	kexe, err := kernel.Build(kernel.Config{Flavor: kernel.Ultrix, Traced: true})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := userland.Build(spec.Name, []*m.Module{spec.Build()}, m.Options{})
	if err != nil {
		t.Fatal(err)
	}
	disk, err := kernel.BuildDiskImage(spec.Files)
	if err != nil {
		t.Fatal(err)
	}
	cfg := kernel.DefaultBoot(kernel.Ultrix)
	cfg.DiskImage = disk
	cfg.TraceBufBytes = trace.KernelBufSlack + 64<<10
	cfg.ClockInterval *= 15
	sys, err := kernel.Boot(kexe, []kernel.BootProc{{Exe: prog.Instr}}, cfg)
	if err != nil {
		t.Fatal(err)
	}

	p := trace.NewParser(trace.NewSideTable(kexe.Instr.Blocks))
	p.AddProcess(1, trace.NewSideTable(prog.Instr.Instr.Blocks))
	var perr error
	sys.OnTrace = func(words []uint32) {
		if perr == nil {
			_, perr = p.Parse(words, nil)
		}
	}

	kb := symbol(t, kexe, "kbook") - cpu.KSeg0Base
	hardEnd := uint32(kernel.TraceBufVA) + cfg.TraceBufBytes
	for i := 0; i < 400 && !sys.M.Halted; i++ {
		if err := sys.Run(2_000_000); err != nil &&
			!strings.Contains(err.Error(), "budget") {
			t.Fatalf("slice %d: %v", i, err)
		}
		if ptr := sys.M.RAM.ReadWord(kb); ptr > hardEnd {
			t.Fatalf("slice %d: buffer pointer 0x%x past hard end 0x%x", i, ptr, hardEnd)
		}
	}
	if !sys.M.Halted {
		t.Fatal("system did not finish")
	}
	if sys.M.ExitStatus != 0 {
		t.Fatalf("kernel panic 0x%x (console %q)", sys.M.ExitStatus, sys.Console())
	}
	if sys.Doorbells < 5 {
		t.Fatalf("expected many analysis phases with a minimal buffer, got %d", sys.Doorbells)
	}
	if perr != nil {
		t.Fatalf("trace parse: %v", perr)
	}
	if err := p.Finish(); err != nil {
		t.Fatalf("trace finish: %v", err)
	}
}

// TestUnhandledExceptionPanics: an exception class the kernel has no
// handler for must stop the machine through the halt register with a
// diagnosable status — not re-enter the trap handler. (The old path
// executed BREAK on the kernel stack, whose exception is itself
// "unexpected", recursing forever and spraying nest markers over the
// trace buffer.)
func TestUnhandledExceptionPanics(t *testing.T) {
	kexe, err := kernel.Build(kernel.Config{Flavor: kernel.Ultrix})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := userland.Build("hello", []*m.Module{helloModule()}, m.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Plant a reserved opcode at main's entry.
	va := symbol(t, prog.Orig, "main")
	prog.Orig.Text[(va-prog.Orig.TextBase)/4] = 0xfc000000
	disk, err := kernel.BuildDiskImage(nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := kernel.DefaultBoot(kernel.Ultrix)
	cfg.DiskImage = disk
	sys, err := kernel.Boot(kexe, []kernel.BootProc{{Exe: prog.Orig}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(50_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !sys.M.Halted {
		t.Fatal("machine did not halt on the unhandled exception")
	}
	if sys.M.ExitStatus != 0x7100+10 {
		t.Fatalf("halt status 0x%x, want 0x%x (panic + cause 10)", sys.M.ExitStatus, 0x7100+10)
	}
}

// TestTracedMachMultiClient is the hardest configuration in the paper:
// the traced microkernel, the traced UX server, and two traced clients
// whose file reads become IPC — context switches, cross-address-space
// copies, trace-page first-touch faults, and nested exceptions all in
// one stream that the parser must attribute exactly.
func TestTracedMachMultiClient(t *testing.T) {
	data1, sum1 := testData()
	data2 := make([]byte, 5000)
	var sum2 uint32
	for i := range data2 {
		data2[i] = byte(i*3 + 1)
		sum2 += uint32(data2[i])
	}
	mk := func(name, path string) *m.Module {
		mod := m.NewModule(name)
		userland.DeclareLibc(mod)
		mod.Data("path", []byte(path+"\x00"))
		mod.Global("buf", 512)
		f := mod.Func("main", m.TInt)
		f.Locals("fd", "n", "i", "sum")
		f.Code(func(b *m.Block) {
			b.Assign("fd", m.Call("sys_open", m.Addr("path", 0)))
			b.If(m.Lt(m.V("fd"), m.I(0)), func(b *m.Block) { b.Return(m.Neg(m.I(1))) }, nil)
			b.Assign("sum", m.I(0))
			b.While(m.I(1), func(b *m.Block) {
				b.Assign("n", m.Call("sys_read", m.V("fd"), m.Addr("buf", 0), m.I(512)))
				b.If(m.Le(m.V("n"), m.I(0)), func(b *m.Block) { b.Break() }, nil)
				b.For("i", m.I(0), m.V("n"), func(b *m.Block) {
					b.Assign("sum", m.Add(m.V("sum"), m.LoadB(m.Add(m.Addr("buf", 0), m.V("i")))))
				})
			})
			b.Call("sys_close", m.V("fd"))
			b.Return(m.V("sum"))
		})
		return mod
	}
	sys, p, events := runTraced(t, kernel.Mach, map[string]*m.Module{
		"c1": mk("c1", "data.bin"),
		"c2": mk("c2", "other.bin"),
	}, map[string][]byte{"data.bin": data1, "other.bin": data2})

	// pid 1 = UX server, clients in sorted name order: c1=2, c2=3.
	if got := exitStatus(t, sys, 2); got != sum1 {
		t.Errorf("client 1 sum %d want %d", got, sum1)
	}
	if got := exitStatus(t, sys, 3); got != sum2 {
		t.Errorf("client 2 sum %d want %d", got, sum2)
	}
	// Both clients exit; the server never does.
	if p.ProcExits != 2 {
		t.Errorf("ProcExits = %d want 2", p.ProcExits)
	}
	// Every address space must appear in the reconstructed stream,
	// and kernel references must be present (IPC runs in the kernel).
	seen := map[int16]bool{}
	var kern int
	for _, ev := range events {
		seen[ev.AS] = true
		if ev.Kernel {
			kern++
		}
	}
	for pid := int16(1); pid <= 3; pid++ {
		if !seen[pid] {
			t.Errorf("no events attributed to address space %d", pid)
		}
	}
	if kern == 0 {
		t.Error("no kernel references in a syscall-heavy run")
	}
}

// TestResidentRAM: guest RAM is allocated by the frame on first touch,
// so a run pays for what it touches, not for the 64 MB it is given. An
// untraced Ultrix sed run stays within 1 MB; a traced one within its
// trace buffer plus 1 MB.
func TestResidentRAM(t *testing.T) {
	spec, ok := workload.ByName("sed")
	if !ok {
		t.Fatal("no sed workload")
	}
	for _, traced := range []bool{false, true} {
		sys := bootAndRun(t, kernel.Ultrix, traced, map[string]*m.Module{"sed": spec.Build()}, spec.Files)
		limit := uint64(sys.Cfg.TraceBufBytes) + 1<<20
		got := sys.M.RAM.ResidentBytes()
		t.Logf("traced=%v: %d frames resident (%d KB) of %d MB", traced, got/4096, got>>10, sys.Cfg.RAMBytes>>20)
		if got == 0 || got > limit {
			t.Errorf("traced=%v: %d bytes of guest RAM resident, want 1..%d", traced, got, limit)
		}
	}
}

// TestBootMissingKernelSymbol: a kernel image that lacks one of the
// globals the host reads fails Boot with an error naming it, rather
// than panicking later in a host reader.
func TestBootMissingKernelSymbol(t *testing.T) {
	kexe, err := kernel.Build(kernel.Config{Flavor: kernel.Ultrix})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := userland.Build("hello", []*m.Module{helloModule()}, m.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sym := range []string{"kbook", "utlb_scratch", "procs", "kseg2map", "ticks", "modesw", "curpid"} {
		bad := *kexe
		bad.Syms = slices.DeleteFunc(slices.Clone(kexe.Syms), func(s obj.Symbol) bool { return s.Name == sym })
		if len(bad.Syms) == len(kexe.Syms) {
			t.Fatalf("kernel image has no %q to remove", sym)
		}
		_, err := kernel.Boot(&bad, []kernel.BootProc{{Exe: prog.Orig}}, kernel.DefaultBoot(kernel.Ultrix))
		if err == nil || !strings.Contains(err.Error(), strconv.Quote(sym)) {
			t.Errorf("boot without %q: err = %v, want one naming the symbol", sym, err)
		}
	}
}

// TestKernelWordConcurrentSnapshot: a telemetry scrape (whose ticks
// and modesw samples read kernel globals) and a host read of curpid
// (the doorbell's flush path) may run on different goroutines, so
// reading a kernel word must not write shared state. Run under -race.
func TestKernelWordConcurrentSnapshot(t *testing.T) {
	kexe, err := kernel.Build(kernel.Config{Flavor: kernel.Ultrix})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := userland.Build("hello", []*m.Module{helloModule()}, m.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := kernel.Boot(kexe, []kernel.BootProc{{Exe: prog.Orig}}, kernel.DefaultBoot(kernel.Ultrix))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	sys.AttachTelemetry(reg)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		reg.Snapshot()
	}()
	go func() {
		defer wg.Done()
		sys.ReadKernelWord("curpid")
	}()
	wg.Wait()
}

// symbol returns the address of the named symbol in e, failing the
// test if e has none.
func symbol(t testing.TB, e *obj.Executable, name string) uint32 {
	t.Helper()
	a, ok := e.Symbol(name)
	if !ok {
		t.Fatalf("executable %s: no symbol %q", e.Name, name)
	}
	return a
}
