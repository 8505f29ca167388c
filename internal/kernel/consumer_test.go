package kernel_test

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"systrace/internal/cpu"
	"systrace/internal/experiment"
	"systrace/internal/kernel"
	"systrace/internal/obs"
	"systrace/internal/workload"
)

// bootWorkload boots a traced corpus workload on the two-phase drain.
func bootWorkload(t *testing.T, name string, flavor kernel.Flavor) *kernel.System {
	t.Helper()
	spec, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	sys, _, err := experiment.Boot(spec, flavor, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// bufPtrPA is the physical address of the kernel's BufPtr word.
func bufPtrPA(t *testing.T, sys *kernel.System) uint32 {
	t.Helper()
	return symbol(t, sys.Kernel, "kbook") - cpu.KSeg0Base
}

// wrapDoorbell runs before on every doorbell, on the machine's
// goroutine, ahead of the kernel's own handler.
func wrapDoorbell(sys *kernel.System, before func(reason uint32)) {
	h := sys.M.TraceCtl.Handler
	sys.M.TraceCtl.Handler = func(reason uint32) uint64 {
		before(reason)
		return h(reason)
	}
}

// TestTwoPhasePrefixDelivery: the two-phase drain ships each fill's
// settled prefix to the consumer while the guest runs, and the doorbell
// ships the rest. Concatenated, everything OnTrace receives must equal
// word for word what the doorbells drained, read from guest RAM at each
// doorbell, and more chunks than doorbells must arrive.
func TestTwoPhasePrefixDelivery(t *testing.T) {
	for _, name := range []string{"sed", "egrep"} {
		for _, flavor := range []kernel.Flavor{kernel.Ultrix, kernel.Mach} {
			t.Run(name+"/"+flavor.String(), func(t *testing.T) {
				sys := bootWorkload(t, name, flavor)
				kb := bufPtrPA(t, sys)
				base := uint32(kernel.TraceBufVA) - cpu.KSeg0Base
				var drained []uint32
				wrapDoorbell(sys, func(uint32) {
					end := sys.M.RAM.ReadWord(kb) - cpu.KSeg0Base
					for pa := base; pa < end; pa += 4 {
						drained = append(drained, sys.M.RAM.ReadWord(pa))
					}
				})
				var got []uint32
				var chunks uint64
				sys.OnTrace = func(words []uint32) {
					if len(words) == 0 {
						t.Error("OnTrace got an empty chunk")
					}
					chunks++
					got = append(got, words...)
				}
				if err := sys.Run(experiment.RunBudget); err != nil {
					t.Fatal(err)
				}
				if uint64(len(drained)) != sys.DrainedWords {
					t.Fatalf("read %d words at the doorbells, DrainedWords %d", len(drained), sys.DrainedWords)
				}
				if len(got) != len(drained) {
					t.Fatalf("OnTrace received %d words, the doorbells drained %d", len(got), len(drained))
				}
				for i := range got {
					if got[i] != drained[i] {
						t.Fatalf("word %d: OnTrace got 0x%08x, the doorbell drained 0x%08x", i, got[i], drained[i])
					}
				}
				if chunks <= sys.Doorbells {
					t.Errorf("%d chunks for %d doorbells: no settled prefix was shipped", chunks, sys.Doorbells)
				}
				if sys.DrainErrors != 0 {
					t.Errorf("DrainErrors = %d on a clean run", sys.DrainErrors)
				}
				t.Logf("%d words in %d chunks over %d doorbells", len(got), chunks, sys.Doorbells)
			})
		}
	}
}

// TestPrefixGuard: once a prefix has been shipped, the words under it
// must not change before the doorbell and BufPtr must not fall below
// it. Each violation fails the Run loudly with ErrPrefixMismatch: a
// flight-recorder dump and DrainErrors.
func TestPrefixGuard(t *testing.T) {
	for _, tc := range []struct {
		name string
		want string // in the error
		arm  func(t *testing.T, sys *kernel.System)
	}{
		{"host write into the shipped prefix", "changed in guest RAM", func(t *testing.T, sys *kernel.System) {
			pa := uint32(kernel.TraceBufVA) - cpu.KSeg0Base
			wrapDoorbell(sys, func(uint32) { sys.M.RAM.WriteWord(pa, sys.M.RAM.ReadWord(pa)^1) })
		}},
		{"BufPtr below the prefix at the doorbell", "already shipped", func(t *testing.T, sys *kernel.System) {
			kb := bufPtrPA(t, sys)
			wrapDoorbell(sys, func(uint32) { sys.M.RAM.WriteWord(kb, uint32(kernel.TraceBufVA)+4) })
		}},
		{"BufPtr below the prefix between bursts", "with no doorbell", func(t *testing.T, sys *kernel.System) {
			kb := bufPtrPA(t, sys)
			const past = 1 << 20 // bytes: 256 K words, well past the first shipped prefix
			done := false
			sys.M.CPU.SetProfiler(4096, func(_ uint32, kern bool, _ uint32, _ uint64) {
				if !done && !kern && sys.M.RAM.ReadWord(kb)-uint32(kernel.TraceBufVA) > past {
					sys.M.RAM.WriteWord(kb, uint32(kernel.TraceBufVA))
					done = true
				}
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var dump bytes.Buffer
			restore := obs.SetFailureWriter(&dump)
			defer restore()
			sys := bootWorkload(t, "sed", kernel.Ultrix)
			sys.OnTrace = func([]uint32) {}
			tc.arm(t, sys)
			err := sys.Run(experiment.RunBudget)
			if !errors.Is(err, kernel.ErrPrefixMismatch) {
				t.Fatalf("Run = %v, want ErrPrefixMismatch", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Run = %v, want it to say %q", err, tc.want)
			}
			if sys.DrainErrors == 0 {
				t.Error("DrainErrors = 0")
			}
			if !strings.Contains(dump.String(), "trace_drain_prefix_mismatch") {
				t.Errorf("failure dump missing trace_drain_prefix_mismatch: %q", dump.String())
			}
		})
	}
}

// TestConsumerPanic: a panic in OnTrace on the drain's consumer
// goroutine is recovered there. Run drains and joins the ring and
// returns an *AnalysisPanic carrying the panic value and its stack, and
// no goroutine is left running; on the two-phase drain the panic hits a
// prefix shipped while the guest runs. The panic also stops the guest,
// so fewer batches ship than on a clean run of the same boot (sed ships
// 13): nothing simulated after it would be analyzed.
func TestConsumerPanic(t *testing.T) {
	data, _ := testData()
	for _, tc := range []struct {
		name string
		boot func(t *testing.T) *kernel.System
	}{
		{"two-phase", func(t *testing.T) *kernel.System { return bootWorkload(t, "sed", kernel.Ultrix) }},
		{"compressed-stream", func(t *testing.T) *kernel.System {
			// Eight times the usual file, so a clean run drains more
			// than a handful of epochs.
			return tracedFilesum(t, bytes.Repeat(data, 8), 8, kernel.DefaultStream())
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var dump bytes.Buffer
			restore := obs.SetFailureWriter(&dump)
			defer restore()
			clean := tc.boot(t)
			if err := clean.Run(experiment.RunBudget); err != nil {
				t.Fatalf("clean run: %v", err)
			}
			sys := tc.boot(t)
			before := runtime.NumGoroutine()
			var calls int
			sys.OnTrace = func([]uint32) {
				if calls++; calls == 2 {
					panic("analysis bug")
				}
			}
			err := sys.Run(experiment.RunBudget)
			var p *kernel.AnalysisPanic
			if !errors.As(err, &p) {
				t.Fatalf("Run = %v, want an *AnalysisPanic", err)
			}
			if p.Value != "analysis bug" || !strings.Contains(string(p.Stack), "TestConsumerPanic") {
				t.Errorf("panic value %v, stack:\n%s", p.Value, p.Stack)
			}
			if !strings.Contains(err.Error(), "analysis bug") {
				t.Errorf("Run error %q does not carry the panic value", err)
			}
			if calls != 2 {
				t.Errorf("OnTrace called %d times, want 2: nothing is delivered after the panic", calls)
			}
			if sys.Shipped >= clean.Shipped {
				t.Errorf("%d batches shipped after a panic on the second, %d on a clean run: the guest ran on after the panic",
					sys.Shipped, clean.Shipped)
			}
			t.Logf("%d batches shipped, %d on a clean run", sys.Shipped, clean.Shipped)
			if !strings.Contains(dump.String(), "trace_analysis_panic") {
				t.Errorf("failure dump missing trace_analysis_panic: %q", dump.String())
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("%d goroutines after Run, %d before", n, before)
			}
		})
	}
}
