package systrace_test

// Workload-level differential oracle for the fast path: full boots of
// sed and lisp, traced and untraced, run on the reference engine and
// on the default engine (superblock chains under StepN, the reference
// Step everywhere else), and the final architectural state, the
// complete Observer event stream, and every externally visible output
// (console, exit status, drained trace words, machine cycles) must
// match. Machine time is instruction-based on both engines, so a
// traced boot — interrupts, DMA, doorbell analysis phases and all — is
// deterministic down to the cycle; any fast-path bug that survives the
// random-program lockstep (internal/cpu) shows up here as a diverging
// stream. A timed face runs the untraced boots under both kernels with
// the execution-driven Timing model attached, as experiment.Measure
// does, and compares the machine's cycles and every Timing counter.

import (
	"math"
	"testing"

	"systrace/internal/cpu"
	"systrace/internal/epoxie"
	"systrace/internal/experiment"
	"systrace/internal/kernel"
	"systrace/internal/memsys"
	obspkg "systrace/internal/obs"
	"systrace/internal/workload"
)

// streamObs folds the event stream into a rolling FNV-1a hash.
type streamObs struct {
	h uint64
	n uint64
}

func (o *streamObs) mix(vs ...uint32) {
	for _, v := range vs {
		o.h ^= uint64(v)
		o.h *= 1099511628211
	}
	o.n++
}

func ob2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func (o *streamObs) Fetch(va, pa uint32, kernel, cached bool) {
	o.mix(1, va, pa, ob2u(kernel), ob2u(cached))
}

// FetchRun is its n Fetch calls, by the Observer contract.
func (o *streamObs) FetchRun(va, pa uint32, n int, kernel, cached bool) {
	for k := uint32(0); k < uint32(n); k++ {
		o.Fetch(va+4*k, pa+4*k, kernel, cached)
	}
}
func (o *streamObs) Load(va, pa uint32, size int, kernel, cached bool) {
	o.mix(2, va, pa, uint32(size), ob2u(kernel), ob2u(cached))
}
func (o *streamObs) Store(va, pa uint32, size int, kernel, cached bool) {
	o.mix(3, va, pa, uint32(size), ob2u(kernel), ob2u(cached))
}
func (o *streamObs) Exception(code int, vector uint32) { o.mix(4, uint32(code), vector) }
func (o *streamObs) FPOp(latency int)                  { o.mix(5, uint32(latency)) }

type engineResult struct {
	gpr       [32]uint32
	fprBits   [32]uint64
	hi, lo    uint32
	pc        uint32
	cp0       cpu.CP0
	tlb       [cpu.NTLB]cpu.TLBEntry
	stat      cpu.Stats
	eventHash uint64
	events    uint64
	traceHash uint64
	traceN    uint64
	console   string
	exit      uint32
	drained   uint64
	doorbells uint64
	cycles    uint64
	sbBuilt   uint64
	sbInstr   uint64
}

// runEngine boots wl on engine and runs it to completion, hashing the
// full Observer event stream when observe is set.
func runEngine(t *testing.T, wl string, engine kernel.Engine, traced, observe bool) engineResult {
	t.Helper()
	spec, ok := workload.ByName(wl)
	if !ok {
		t.Fatalf("no workload %q", wl)
	}
	sys, pid, err := experiment.Config{Flavor: kernel.Ultrix, Seed: 1, Engine: engine}.Boot(spec, traced)
	if err != nil {
		t.Fatal(err)
	}
	obs := &streamObs{}
	if observe {
		sys.M.CPU.Obs = obs
	}
	// Hash every drained trace word in order: the emitted stream,
	// not just its length, must be identical across engines.
	tr := &streamObs{}
	sys.OnTrace = func(words []uint32) {
		for _, w := range words {
			tr.mix(w)
		}
	}
	if err := sys.Run(experiment.RunBudget); err != nil {
		t.Fatalf("%s engine=%v: %v", wl, engine, err)
	}
	c := sys.M.CPU
	sb := c.SuperblockStats()
	res := engineResult{
		gpr: c.GPR, hi: c.HI, lo: c.LO, pc: c.PC,
		cp0: c.CP0, tlb: c.TLB, stat: c.Stat,
		eventHash: obs.h, events: obs.n,
		traceHash: tr.h, traceN: tr.n,
		console: sys.Console(), exit: sys.ExitStatus(pid),
		drained: sys.DrainedWords, doorbells: sys.Doorbells,
		cycles:  sys.M.Cycles(),
		sbBuilt: sb.Built,
		sbInstr: sb.Instructions,
	}
	for i, f := range c.FPR {
		res.fprBits[i] = math.Float64bits(f)
	}
	return res
}

// timedResult is what a Measure-shaped run yields: machine time, the
// retirement count, the kernel's UTLB miss counter, and every counter
// of the Timing model.
type timedResult struct {
	cycles, instret, utlb uint64

	icAccesses, icMisses, dcAccesses, dcMisses, wbWrites uint64

	iStalls, dStalls, wbStalls, uncachedStalls, fpStalls, fpOverlapped, excStalls uint64

	kernelInstr, userInstr, kernelStalls, userStalls uint64
}

// runTimed boots wl untraced under flavor on engine with a Timing model
// attached, as experiment.Measure does, and runs it to completion. It
// also returns the superblock engine's counters.
func runTimed(t *testing.T, wl string, flavor kernel.Flavor, engine kernel.Engine) (timedResult, cpu.SuperblockStats) {
	t.Helper()
	spec, ok := workload.ByName(wl)
	if !ok {
		t.Fatalf("no workload %q", wl)
	}
	sys, _, err := experiment.Config{Flavor: flavor, Seed: 1, Engine: engine}.Boot(spec, false)
	if err != nil {
		t.Fatal(err)
	}
	tm := memsys.NewTiming(memsys.DECstation5000())
	sys.M.AttachTiming(tm, tm)
	if err := sys.Run(experiment.RunBudget); err != nil {
		t.Fatalf("%s/%v engine=%v: %v", wl, flavor, engine, err)
	}
	return timedResult{
		cycles: sys.M.Cycles(), instret: sys.M.CPU.Stat.Instret, utlb: uint64(sys.UTLBCount()),
		icAccesses: tm.IC.Accesses, icMisses: tm.IC.Misses,
		dcAccesses: tm.DC.Accesses, dcMisses: tm.DC.Misses, wbWrites: tm.WB.Writes,
		iStalls: tm.ICacheStalls, dStalls: tm.DCacheStalls, wbStalls: tm.WBStalls,
		uncachedStalls: tm.UncachedStalls, fpStalls: tm.FPStalls, fpOverlapped: tm.FPOverlapped,
		excStalls:   tm.ExcStalls,
		kernelInstr: tm.KernelInstr, userInstr: tm.UserInstr,
		kernelStalls: tm.KernelStalls, userStalls: tm.UserStalls,
	}, sys.M.CPU.SuperblockStats()
}

// runFlowEngine boots wl traced under the given rewriter liveness mode
// and runs it to completion on the reference engine with the observer
// detached, returning the final state and the booted system.
func runFlowEngine(t *testing.T, wl string, flow epoxie.FlowMode) (engineResult, *kernel.System) {
	t.Helper()
	spec, ok := workload.ByName(wl)
	if !ok {
		t.Fatalf("no workload %q", wl)
	}
	sys, pid, err := experiment.Config{Flavor: kernel.Ultrix, Seed: 1, Flow: flow}.Boot(spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(experiment.RunBudget); err != nil {
		t.Fatalf("%s flow=%d: %v", wl, flow, err)
	}
	c := sys.M.CPU
	res := engineResult{
		gpr: c.GPR, hi: c.HI, lo: c.LO, pc: c.PC,
		cp0: c.CP0, tlb: c.TLB, stat: c.Stat,
		console: sys.Console(), exit: sys.ExitStatus(pid),
		drained: sys.DrainedWords, doorbells: sys.Doorbells,
		cycles: sys.M.Cycles(),
	}
	for i, f := range c.FPR {
		res.fprBits[i] = math.Float64bits(f)
	}
	return res, sys
}

// TestDataflowDifferentialOracle proves the liveness-driven
// dead-register elision sound by differential execution.
//
// The rigorous comparison uses FlowPadded: the rewriter makes exactly
// the FlowOn elision decisions but replaces each elided save with a
// nop, so the padded and FlowOff images have identical layout and the
// two traced boots are deterministic down to the cycle. Every
// architectural register except ra, the PC, HI/LO, the retired-
// instruction count, and every externally visible output must then be
// bit-identical. ra is excluded by construction: at an elided site
// bbtrace restores a stale saved value, which is harmless exactly when
// the analysis was right that ra is dead — any consumption of the
// stale value diverges some downstream register, output, or trace
// word, which this oracle catches.
//
// The FlowOn boot then checks the real (shrunk-layout) image
// end-to-end: same computation (console and exit status), strictly
// fewer retired instructions, and actual elisions recorded.
func TestDataflowDifferentialOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("full traced workload boots")
	}
	for _, wl := range []string{"sed", "lisp"} {
		wl := wl
		t.Run(wl, func(t *testing.T) {
			off, _ := runFlowEngine(t, wl, epoxie.FlowOff)
			pad, psys := runFlowEngine(t, wl, epoxie.FlowPadded)

			if pf := psys.Procs[len(psys.Procs)-1].Exe.Instr.Flow; pf.SavesElided == 0 {
				t.Fatalf("padded build elided nothing (%d save sites): oracle compares nothing", pf.SaveSites)
			}
			offGPR, padGPR := off.gpr, pad.gpr
			offGPR[31], padGPR[31] = 0, 0 // ra: stale-by-design at elided sites
			if offGPR != padGPR {
				t.Error("final GPR state (minus ra) diverges between FlowOff and FlowPadded")
			}
			if off.fprBits != pad.fprBits {
				t.Error("final FPR state diverges")
			}
			if off.hi != pad.hi || off.lo != pad.lo || off.pc != pad.pc {
				t.Errorf("HI/LO/PC diverge: %x/%x/%x vs %x/%x/%x",
					off.hi, off.lo, off.pc, pad.hi, pad.lo, pad.pc)
			}
			if off.stat.Instret != pad.stat.Instret {
				t.Errorf("retired instructions diverge: %d vs %d (layouts should be identical)",
					off.stat.Instret, pad.stat.Instret)
			}
			if off.stat.Exceptions != pad.stat.Exceptions || off.stat.Interrupts != pad.stat.Interrupts ||
				off.stat.Syscalls != pad.stat.Syscalls {
				t.Errorf("exception/interrupt/syscall counts diverge: %d/%d/%d vs %d/%d/%d",
					off.stat.Exceptions, off.stat.Interrupts, off.stat.Syscalls,
					pad.stat.Exceptions, pad.stat.Interrupts, pad.stat.Syscalls)
			}
			if off.console != pad.console {
				t.Errorf("console output diverges: %q vs %q", off.console, pad.console)
			}
			if off.exit != pad.exit {
				t.Errorf("exit status diverges: %d vs %d", off.exit, pad.exit)
			}
			if off.drained != pad.drained || off.doorbells != pad.doorbells {
				t.Errorf("trace stream diverges: %d words/%d doorbells vs %d/%d",
					off.drained, off.doorbells, pad.drained, pad.doorbells)
			}
			if off.cycles != pad.cycles {
				t.Errorf("machine time diverges: %d vs %d cycles", off.cycles, pad.cycles)
			}

			on, osys := runFlowEngine(t, wl, epoxie.FlowOn)
			if on.console != off.console {
				t.Errorf("FlowOn console output diverges: %q vs %q", on.console, off.console)
			}
			if on.exit != off.exit {
				t.Errorf("FlowOn exit status diverges: %d vs %d", on.exit, off.exit)
			}
			if on.stat.Instret >= off.stat.Instret {
				t.Errorf("FlowOn retired %d instructions, conservative build %d: elision saved nothing",
					on.stat.Instret, off.stat.Instret)
			}
			of := osys.Procs[len(osys.Procs)-1].Exe.Instr.Flow
			if of.SavesElided == 0 || of.BytesSaved == 0 {
				t.Errorf("FlowOn build records no elision (%+v)", of)
			}
			// The compiler only emits sp-based frame references, so the
			// EA strength reduction must at least route them to the
			// specialized memtrace_sp entry (rebasing proper is covered
			// by hand-written fp-frame unit tests).
			if of.EASites == 0 || of.EASpecial == 0 {
				t.Errorf("FlowOn build specialized no EA sites (%d sites, %d specialized)",
					of.EASites, of.EASpecial)
			}
		})
	}
}

// compareFace checks one default-engine run against the reference run.
// The observer stream is compared only when both runs attached one
// (the batched face runs observer-detached by construction).
func compareFace(t *testing.T, name string, ref, fast engineResult) {
	t.Helper()
	if fast.events != 0 && (ref.events != fast.events || ref.eventHash != fast.eventHash) {
		t.Errorf("observer streams diverge: %d events hash %x (reference) vs %d events hash %x (%s)",
			ref.events, ref.eventHash, fast.events, fast.eventHash, name)
	}
	if ref.gpr != fast.gpr {
		t.Errorf("final GPR state diverges (%s)", name)
	}
	if ref.fprBits != fast.fprBits {
		t.Errorf("final FPR state diverges (%s)", name)
	}
	if ref.hi != fast.hi || ref.lo != fast.lo || ref.pc != fast.pc {
		t.Errorf("HI/LO/PC diverge (%s): %x/%x/%x vs %x/%x/%x",
			name, ref.hi, ref.lo, ref.pc, fast.hi, fast.lo, fast.pc)
	}
	if ref.cp0 != fast.cp0 {
		t.Errorf("CP0 diverges (%s): %+v vs %+v", name, ref.cp0, fast.cp0)
	}
	if ref.tlb != fast.tlb {
		t.Errorf("TLB contents diverge (%s)", name)
	}
	if ref.stat != fast.stat {
		t.Errorf("Stat diverges (%s): %+v vs %+v", name, ref.stat, fast.stat)
	}
	if ref.console != fast.console {
		t.Errorf("console output diverges (%s): %q vs %q", name, ref.console, fast.console)
	}
	if ref.exit != fast.exit {
		t.Errorf("exit status diverges (%s): %d vs %d", name, ref.exit, fast.exit)
	}
	if ref.drained != fast.drained || ref.doorbells != fast.doorbells {
		t.Errorf("trace stream diverges (%s): %d words/%d doorbells vs %d/%d",
			name, ref.drained, ref.doorbells, fast.drained, fast.doorbells)
	}
	if ref.traceN != fast.traceN || ref.traceHash != fast.traceHash {
		t.Errorf("drained trace words diverge (%s): %d words hash %x vs %d words hash %x",
			name, ref.traceN, ref.traceHash, fast.traceN, fast.traceHash)
	}
	if ref.cycles != fast.cycles {
		t.Errorf("machine time diverges (%s): %d vs %d cycles", name, ref.cycles, fast.cycles)
	}
}

func TestWorkloadDifferentialOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("full traced workload boots")
	}
	for _, traced := range []bool{true, false} {
		for _, wl := range []string{"sed", "lisp"} {
			traced, wl := traced, wl
			name := wl + "/untraced"
			if traced {
				name = wl + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				// The batched face runs observer-detached, the
				// configuration perfbench measures: StepN and the
				// superblock tier execute, pinned by the drained
				// trace-word hash — the byte-level identity the
				// paper's analyses depend on.
				ref := runEngine(t, wl, kernel.EngineReference, traced, traced)
				def := runEngine(t, wl, kernel.EngineAuto, traced, false)
				compareFace(t, "default", ref, def)
				if ref.stat.Instret == 0 {
					t.Error("workload retired no instructions")
				}
				if def.sbBuilt == 0 {
					t.Error("default engine built no superblocks: the tier was not exercised")
				}
				if ref.sbInstr != 0 {
					t.Errorf("reference engine retired %d instructions in superblocks", ref.sbInstr)
				}
				if def.sbInstr == 0 || def.sbInstr > def.stat.Instret {
					t.Errorf("default engine retired %d of %d instructions in superblocks, want 1..Instret",
						def.sbInstr, def.stat.Instret)
				}
				if traced {
					// The observed face runs the same engine with an
					// observer attached — how an execution-driven
					// memory model sees it: chains still run and report
					// their fetches one FetchRun per run — and compares
					// the full Observer event stream against the
					// reference's.
					obsd := runEngine(t, wl, kernel.EngineAuto, true, true)
					compareFace(t, "default/observed", ref, obsd)
					if obsd.sbBuilt == 0 || obsd.sbInstr == 0 {
						t.Errorf("observed face built %d superblocks and retired %d instructions in them: superblock dispatch must run with an observer attached",
							obsd.sbBuilt, obsd.sbInstr)
					}
				}
				if t.Failed() {
					// An oracle mismatch is a flight-recorder dump
					// trigger: the recorded exception/TLB/doorbell
					// stream of the diverging runs is the first clue.
					obspkg.Failure("oracle_mismatch",
						name+": engines diverged")
				}
			})
		}
	}
	// The timed face: the Measure path. A stall model keeps bursts at
	// 64 instructions, and the default engine's chains run through the
	// burst boundaries at which nothing happens (the machine extends
	// their budget), so every interrupt must still land on the same
	// instruction, and every stall on the same cycle, as on the
	// reference engine, which steps one instruction at a time.
	for _, flavor := range []kernel.Flavor{kernel.Ultrix, kernel.Mach} {
		for _, wl := range []string{"sed", "lisp"} {
			flavor, wl := flavor, wl
			name := wl + "/timed/" + flavor.String()
			t.Run(name, func(t *testing.T) {
				ref, _ := runTimed(t, wl, flavor, kernel.EngineReference)
				def, sb := runTimed(t, wl, flavor, kernel.EngineAuto)
				if ref != def {
					t.Errorf("timed runs diverge:\n reference %+v\n default   %+v", ref, def)
				}
				if ref.instret == 0 || ref.iStalls == 0 || ref.dStalls == 0 || ref.kernelStalls == 0 || ref.userStalls == 0 {
					t.Errorf("timed run left a counter at zero: %+v", ref)
				}
				if sb.Instructions == 0 || sb.ExitBudget*100 > sb.Instructions/64 {
					t.Errorf("default engine retired %d instructions in chains with %d budget exits: chains did not run through the 64-instruction bursts",
						sb.Instructions, sb.ExitBudget)
				}
				t.Logf("%d cycles, %d instructions (%d in chains, %d budget exits)",
					def.cycles, def.instret, sb.Instructions, sb.ExitBudget)
				if t.Failed() {
					obspkg.Failure("oracle_mismatch", name+": engines diverged")
				}
			})
		}
	}
}
