package workload_test

import (
	"testing"

	"systrace/internal/kernel"
	m "systrace/internal/mahler"
	"systrace/internal/obj"
	"systrace/internal/userland"
	"systrace/internal/workload"
)

// run executes one workload on the given kernel flavor, untraced, and
// returns its exit status.
func run(t *testing.T, spec workload.Spec, flavor kernel.Flavor, traced bool) uint32 {
	t.Helper()
	kexe, err := kernel.Build(kernel.Config{Flavor: flavor, Traced: traced})
	if err != nil {
		t.Fatalf("kernel: %v", err)
	}
	prog, err := userland.Build(spec.Name, []*m.Module{spec.Build()}, m.Options{})
	if err != nil {
		t.Fatalf("build %s: %v", spec.Name, err)
	}
	var procs []kernel.BootProc
	clientPid := 1
	if flavor == kernel.Mach {
		srv, err := userland.Build("ux", []*m.Module{userland.UXServer()}, m.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sexe := srv.Orig
		if traced {
			sexe = srv.Instr
		}
		procs = append(procs, kernel.BootProc{Exe: sexe, IsServer: true})
		clientPid = 2
	}
	exe := prog.Orig
	if traced {
		exe = prog.Instr
	}
	procs = append(procs, kernel.BootProc{Exe: exe})
	disk, err := kernel.BuildDiskImage(spec.Files)
	if err != nil {
		t.Fatal(err)
	}
	cfg := kernel.DefaultBoot(flavor)
	cfg.DiskImage = disk
	if traced {
		cfg.TraceBufBytes = 8 << 20
		cfg.ClockInterval *= 15
	}
	sys, err := kernel.Boot(kexe, procs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(4_000_000_000); err != nil {
		t.Fatalf("%s on %v: %v", spec.Name, flavor, err)
	}
	if !sys.M.Halted {
		t.Fatalf("%s did not halt", spec.Name)
	}
	// Exit status from the zombie's trapframe a0.
	procsPA := symbol(t, sys.Kernel, "procs") - 0x80000000
	p := procsPA + uint32(clientPid-1)*kernel.ProcStride
	return sys.M.RAM.ReadWord(p + kernel.PSave + kernel.TFRegs + 3*4)
}

func TestWorkloadsUltrix(t *testing.T) {
	want := map[string]uint32{}
	for _, spec := range workload.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			got := run(t, spec, kernel.Ultrix, false)
			if got == 0 || got == 0xffffffff {
				t.Fatalf("%s result = %d (suspicious)", spec.Name, int32(got))
			}
			want[spec.Name] = got
			t.Logf("%s = %d", spec.Name, got)
		})
	}
}

func TestWorkloadResultsAgreeAcrossSystems(t *testing.T) {
	// A representative subset: I/O-bound, compute-bound, FP.
	for _, name := range []string{"sed", "compress", "lisp", "liv"} {
		spec, _ := workload.ByName(name)
		t.Run(name, func(t *testing.T) {
			u := run(t, spec, kernel.Ultrix, false)
			mm := run(t, spec, kernel.Mach, false)
			if u != mm {
				t.Errorf("%s: Ultrix=%d Mach=%d", name, u, mm)
			}
			tr := run(t, spec, kernel.Ultrix, true)
			if u != tr {
				t.Errorf("%s: untraced=%d traced=%d (instrumentation changed behavior)", name, u, tr)
			}
		})
	}
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
