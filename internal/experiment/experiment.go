// Package experiment runs the paper's validation methodology end to
// end: direct measurement of the uninstrumented system (execution-
// driven memory model attached to the machine) against trace-driven
// prediction (epoxie-instrumented system generating a trace consumed
// by the analysis-side simulator), with pixie supplying the
// arithmetic-stall term. Every table and figure of the paper has a
// generator here; see DESIGN.md's per-experiment index.
package experiment

import (
	"fmt"
	"sync"

	"systrace/internal/epoxie"
	"systrace/internal/isa"
	"systrace/internal/kernel"
	"systrace/internal/machine"
	m "systrace/internal/mahler"
	"systrace/internal/memsys"
	"systrace/internal/obj"
	"systrace/internal/obs"
	"systrace/internal/pixie"
	"systrace/internal/telemetry"
	"systrace/internal/trace"
	"systrace/internal/tracecheck"
	"systrace/internal/userland"
	"systrace/internal/verify"
	"systrace/internal/workload"
)

// IdleScale is the time-dilation compensation factor: instrumented
// code runs about fifteen times slower, so traced idle-loop counts are
// multiplied by fifteen to estimate I/O stalls and the traced system's
// clock runs at 1/15th rate (§4.1).
const IdleScale = 15

// Budget bounds one simulated run.
const runBudget = 6_000_000_000

// Build caching: kernels, programs, and the pixie arithmetic-stall
// runs are deterministic, so each is produced once and shared
// read-only by every System booted afterwards. A build takes seconds,
// so the table lock is never held across one: each cache entry carries
// its own sync.Once — concurrent callers for the same key wait on the
// entry while builds for different keys proceed in parallel on the
// Runner's worker pool.
type buildEntry[T any] struct {
	once sync.Once
	val  T
	err  error
}

var (
	cacheMu    sync.Mutex // guards the cache maps only, never a build
	kcache     = map[string]*buildEntry[*obj.Executable]{}
	pcache     = map[string]*buildEntry[*userland.Program]{}
	arithCache = map[string]*buildEntry[uint64]{}
	cfgCache   = map[*obj.Executable]*buildEntry[*verify.CFG]{}
)

// cacheEntry finds or inserts the entry for key under cacheMu.
func cacheEntry[K comparable, T any](m map[K]*buildEntry[T], key K) *buildEntry[T] {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	e, ok := m[key]
	if !ok {
		e = &buildEntry[T]{}
		m[key] = e
	}
	return e
}

// Config identifies one run: everything besides the workload that
// selects what a Measure, Predict or Conformance run simulates. The
// zero values of Flow, Engine, Stream and BufBytes are the standard
// run (liveness elision on, the default engine, the paper's two-phase
// drain, the 4 MB trace buffer), so Config{Flavor: f, Seed: s} is the
// configuration every table of the paper uses. Config is comparable:
// it is the Runner's memo key, so runs that differ in any field never
// share a result.
type Config struct {
	Flavor kernel.Flavor
	// Seed is the page-mapping seed (kernel.BootConfig.MapSeed).
	Seed uint32
	// Flow is the rewriter liveness mode every image of the system is
	// built in; the differential oracle compares FlowPadded against
	// FlowOff. Each mode has its own build cache entries.
	Flow epoxie.FlowMode
	// Engine pins the CPU execution engine (kernel.BootConfig.Engine).
	Engine kernel.Engine
	// Stream selects the drain of traced runs; the zero value is the
	// two-phase stop-the-world drain.
	Stream kernel.StreamConfig
	// BufBytes overrides the in-kernel trace-buffer size of traced runs
	// when nonzero. Smaller buffers force multi-epoch streaming rings:
	// with the 4 MB default a short workload drains once at the final
	// flush.
	BufBytes uint32
}

// String renders the configuration for run ids and error messages:
// flavor and seed, then each field that differs from its default.
func (c Config) String() string {
	s := fmt.Sprintf("%v:%d", c.Flavor, c.Seed)
	if c.Flow != epoxie.FlowOn {
		s += fmt.Sprintf(":flow%d", c.Flow)
	}
	if c.Engine != kernel.EngineAuto {
		s += ":" + c.Engine.String()
	}
	if c.Stream != (kernel.StreamConfig{}) {
		s += fmt.Sprintf(":stream%dx%d", c.Stream.Epochs, c.Stream.HandoffPerWord)
		if c.Stream.Compress {
			s += "z"
		}
	}
	if c.BufBytes != 0 {
		s += fmt.Sprintf(":buf%d", c.BufBytes)
	}
	return s
}

func kernelExe(flavor kernel.Flavor, traced bool, flow epoxie.FlowMode) (*obj.Executable, error) {
	e := cacheEntry(kcache, fmt.Sprintf("%v-%v-%d", flavor, traced, flow))
	e.once.Do(func() {
		e.val, e.err = kernel.Build(kernel.Config{Flavor: flavor, Traced: traced, Flow: flow})
	})
	return e.val, e.err
}

// Program returns the memoized build of spec's user program, both the
// uninstrumented and epoxie-instrumented executables. External callers
// (`tracestat metrics`' static-verification report) share the same cache as
// the experiment runs, so asking for a program never builds it twice.
func Program(spec workload.Spec) (*userland.Program, error) { return program(spec, epoxie.FlowOn) }

func program(spec workload.Spec, flow epoxie.FlowMode) (*userland.Program, error) {
	return userProgram(spec.Name, spec.Build, flow)
}

// server is the Mach systems' UX server program.
func server(flow epoxie.FlowMode) (*userland.Program, error) {
	return userProgram("ux", userland.UXServer, flow)
}

func userProgram(name string, build func() *m.Module, flow epoxie.FlowMode) (*userland.Program, error) {
	e := cacheEntry(pcache, fmt.Sprintf("%s-%d", name, flow))
	e.once.Do(func() {
		e.val, e.err = userland.BuildFlow(name, []*m.Module{build()}, m.Options{}, flow)
	})
	return e.val, e.err
}

// exeCFG derives (once per instrumented image — kernels and programs
// are themselves cached singletons, so a pointer key suffices) the
// post-rewrite static CFG the conformance checker walks. The CFG is
// shared by every checker of that image, concurrent ones included.
func exeCFG(e *obj.Executable) (*verify.CFG, error) {
	en := cacheEntry(cfgCache, e)
	en.once.Do(func() {
		en.val, en.err = verify.NewCFG(e)
	})
	return en.val, en.err
}

// conformanceChecker assembles a tracecheck.Checker for a booted traced
// system: the kernel's CFG plus one per traced process image.
func conformanceChecker(name string, sys *kernel.System) (*tracecheck.Checker, error) {
	c := tracecheck.New(name)
	kg, err := exeCFG(sys.Kernel)
	if err != nil {
		return nil, err
	}
	c.SetKernelCFG(kg)
	for i, bp := range sys.Procs {
		if bp.Exe.Instr == nil {
			continue
		}
		g, err := exeCFG(bp.Exe)
		if err != nil {
			return nil, err
		}
		c.AddProcessCFG(i+1, g)
	}
	return c, nil
}

// Conformance boots the traced system for one workload and runs its
// trace through the offline conformance checker (`lint -pass trace`'s
// corpus): the simulator's own output must be a legal observation
// of the static CFG plus the kernel trace protocol.
func (c Config) Conformance(spec workload.Spec) (*tracecheck.Result, error) {
	sys, _, err := c.boot(spec, true, nil)
	if err != nil {
		return nil, err
	}
	chk, err := conformanceChecker(fmt.Sprintf("%s/%v", spec.Name, c.Flavor), sys)
	if err != nil {
		return nil, err
	}
	sys.OnTrace = chk.Check
	if err := sys.Run(runBudget); err != nil {
		return nil, fmt.Errorf("conformance %s/%v: %w", spec.Name, c, err)
	}
	return chk.Finish(), nil
}

// Boot assembles the standard system for one workload without running
// it; it is Config{Flavor: flavor, Seed: seed}.Boot.
func Boot(spec workload.Spec, flavor kernel.Flavor, traced bool, seed uint32) (*kernel.System, int, error) {
	return Config{Flavor: flavor, Seed: seed}.boot(spec, traced, nil)
}

// Boot assembles a bootable system for one workload without running
// it: the kernel flavor, the (instrumented if traced) program plus a
// Mach server when the flavor needs one, the disk image, and the boot
// configuration c selects. It returns the system and the client pid.
// External harnesses — the differential oracles and perfbench — drive
// the machine themselves; the builds come from the same memoized
// caches as every experiment.
func (c Config) Boot(spec workload.Spec, traced bool) (*kernel.System, int, error) {
	return c.boot(spec, traced, nil)
}

// RunBudget is the standard per-run instruction budget used by the
// experiment suite (exported for harnesses built on Boot).
const RunBudget = runBudget

// boot is Boot with the client image replaced by override when it is
// non-nil (the pixie count-mode binary behind the arithmetic-stall
// term).
func (c Config) boot(spec workload.Spec, traced bool, override *obj.Executable) (*kernel.System, int, error) {
	kexe, err := kernelExe(c.Flavor, traced, c.Flow)
	if err != nil {
		return nil, 0, err
	}
	prog, err := program(spec, c.Flow)
	if err != nil {
		return nil, 0, err
	}
	exe := image(prog, traced)
	if override != nil {
		exe = override
	}
	var procs []kernel.BootProc
	if c.Flavor == kernel.Mach {
		srv, err := server(c.Flow)
		if err != nil {
			return nil, 0, err
		}
		procs = append(procs, kernel.BootProc{Exe: image(srv, traced), IsServer: true})
	}
	procs = append(procs, kernel.BootProc{Exe: exe})
	disk, err := kernel.BuildDiskImage(spec.Files)
	if err != nil {
		return nil, 0, err
	}
	cfg := kernel.DefaultBoot(c.Flavor)
	cfg.DiskImage = disk
	cfg.MapSeed = c.Seed
	cfg.Engine = c.Engine
	if traced {
		cfg.TraceBufBytes = trace.DefaultKernelBufBytes
		if c.BufBytes != 0 {
			cfg.TraceBufBytes = c.BufBytes
		}
		cfg.ClockInterval *= IdleScale
		cfg.Stream = c.Stream
	}
	sys, err := kernel.Boot(kexe, procs, cfg)
	if err != nil {
		return nil, 0, err
	}
	// Pids count from 1 in boot order and the client boots last.
	return sys, len(procs), nil
}

// image picks the executable of prog a boot runs.
func image(prog *userland.Program, traced bool) *obj.Executable {
	if traced {
		return prog.Instr
	}
	return prog.Orig
}

// Measured is one direct measurement of the uninstrumented system.
type Measured struct {
	Name       string
	Flavor     kernel.Flavor
	Cycles     uint64
	Seconds    float64
	Instr      uint64
	UTLBMisses uint32
	Result     uint32
	Timing     *memsys.Timing
}

// Measure runs the uninstrumented workload under the execution-driven
// machine model — the paper's "measurements of execution time made
// with an accurate timer" plus the hardware TLB miss counter.
func Measure(spec workload.Spec, flavor kernel.Flavor, seed uint32) (*Measured, error) {
	return measure(spec, Config{Flavor: flavor, Seed: seed}, nil)
}

// measure is Measure under c, with the run's subsystems registered on
// reg (which may be nil) under a run="untraced" label plus any extra
// labels (the Runner adds a run-id dimension here so concurrent runs'
// series stay distinct). Measured runs are untraced, so c's drain
// fields do not apply.
func measure(spec workload.Spec, c Config, reg *telemetry.Registry, extra ...telemetry.Label) (*Measured, error) {
	sp := obs.BeginDetail("measure_run", fmt.Sprintf("%s/%v/seed%d", spec.Name, c.Flavor, c.Seed))
	defer sp.End()
	sys, pid, err := c.boot(spec, false, nil)
	if err != nil {
		return nil, err
	}
	tm := memsys.NewTiming(memsys.DECstation5000())
	sys.M.AttachTiming(tm, tm)
	labels := append([]telemetry.Label{telemetry.L("run", "untraced")}, extra...)
	sys.M.CPU.RegisterMetrics(reg, labels...)
	sys.M.RegisterMetrics(reg, labels...)
	sys.AttachTelemetry(reg, labels...)
	tm.RegisterMetrics(reg, labels...)
	if err := sys.Run(runBudget); err != nil {
		return nil, fmt.Errorf("measure %s/%v: %w", spec.Name, c, err)
	}
	return &Measured{
		Name:       spec.Name,
		Flavor:     c.Flavor,
		Cycles:     sys.M.Cycles(),
		Seconds:    machine.Seconds(sys.M.Cycles()),
		Instr:      sys.M.CPU.Stat.Instret,
		UTLBMisses: sys.UTLBCount(),
		Result:     sys.ExitStatus(pid),
		Timing:     tm,
	}, nil
}

// Predicted is one trace-driven prediction.
type Predicted struct {
	Name   string
	Flavor kernel.Flavor
	// The four components of Table 2's predicted time.
	CPUCycles   uint64 // one cycle per (non-idle) traced instruction
	MemStalls   uint64
	ArithStalls uint64
	IOStalls    uint64 // idle-loop count scaled by IdleScale
	Cycles      uint64
	Seconds     float64

	IdleInstr    uint64
	TraceWords   uint64
	Events       uint64
	UTLBMisses   uint64 // simulated (Table 3 "predicted")
	ModeSwitches uint64
	Result       uint32
	TracedInstr  uint64 // machine instructions of the traced run (dilation)
	// TracedCycles is total machine time of the traced run including
	// analysis phases; AnalysisCycles is the analysis-phase share.
	TracedCycles   uint64
	AnalysisCycles uint64
	// OverlapCycles is analysis work retired concurrently with
	// generation under the streaming drain (zero in two-phase mode);
	// Stream is the epoch ring's accounting for the run.
	OverlapCycles uint64
	Stream        kernel.StreamStats
	Sim           *memsys.TraceSim
	Parser        *trace.Parser
	// Conformance is the offline trace↔CFG check run over the same raw
	// stream the parser consumed. Diagnostics are reported, not fatal:
	// the prediction is still computed from whatever parsed.
	Conformance *tracecheck.Result
}

// StaticWords applies the static per-block cost table to the observed
// per-block entry counts: Σ counts(b)·(1+|Mem(b)|), summed per image
// (a block's cost is read from its own side table, so images that
// share addresses, like Mach's UX server and its client, are priced
// apart). This is the dataflow cost model's prediction of the stream
// size given only the execution mix; the residual against Parser.Words
// is stream overhead the table does not model (epoch markers,
// resynchronization dirt, blocks interrupted mid-record by
// exceptions).
func (p *Predicted) StaticWords() uint64 {
	var sum uint64
	for _, tc := range p.Parser.BlockCounts() {
		for id, n := range tc.Counts {
			sum += n * uint64(1+len(tc.Table.Block(id).Mem))
		}
	}
	return sum
}

// StaticWordErr is the signed relative error of the static cost table
// against the words the parser actually consumed, as a fraction.
func (p *Predicted) StaticWordErr() float64 {
	if p.Parser == nil || p.Parser.Words == 0 {
		return 0
	}
	return float64(p.StaticWords())/float64(p.Parser.Words) - 1
}

// Predict runs the traced system, streams the trace through the
// parsing library into the trace-driven simulator, runs the pixie
// count-mode binary for arithmetic stalls, and assembles the predicted
// execution time from its four components (§5.1).
func Predict(spec workload.Spec, flavor kernel.Flavor, seed uint32) (*Predicted, error) {
	return predict(spec, Config{Flavor: flavor, Seed: seed}, nil)
}

// PredictStream is Predict under a drain configuration and trace-buffer
// size (bufBytes of 0 keeps the standard buffer): the trace flows
// through the epoch-ring streaming path — compressed on the wire when
// stream.Compress is set — with the analysis running on the consumer
// goroutine instead of charging stop-the-world analysis cycles.
func PredictStream(spec workload.Spec, flavor kernel.Flavor, seed uint32,
	bufBytes uint32, stream kernel.StreamConfig) (*Predicted, error) {
	return predict(spec, Config{Flavor: flavor, Seed: seed, Stream: stream, BufBytes: bufBytes}, nil)
}

// predict is Predict under c, with the run's subsystems — traced
// machine, kernel trace driver, parser, and analysis-side simulator —
// registered on reg (which may be nil) under a run="traced" label plus
// any extra labels (see measure).
func predict(spec workload.Spec, c Config, reg *telemetry.Registry, extra ...telemetry.Label) (*Predicted, error) {
	sp := obs.BeginDetail("predict_run", fmt.Sprintf("%s/%v/seed%d", spec.Name, c.Flavor, c.Seed))
	defer sp.End()
	sys, pid, err := c.boot(spec, true, nil)
	if err != nil {
		return nil, err
	}

	// Side tables: kernel + every traced process image.
	p := trace.NewParser(trace.NewSideTable(sys.Kernel.Instr.Blocks))
	// Per-block entry counts feed the static cost model's validation
	// (predicted words per entry × observed entries vs. words seen).
	p.CountBlocks()
	for i, bp := range sys.Procs {
		if bp.Exe.Instr != nil {
			p.AddProcess(i+1, trace.NewSideTable(bp.Exe.Instr.Blocks))
		}
	}
	policy := memsys.PolicySequential
	if c.Flavor == kernel.Mach {
		policy = memsys.PolicyRandom
	}
	sim := memsys.NewTraceSim(memsys.DECstation5000(), policy,
		kernel.DefaultBoot(c.Flavor).RAMBytes>>12, c.Seed)

	labels := append([]telemetry.Label{telemetry.L("run", "traced")}, extra...)
	sys.M.CPU.RegisterMetrics(reg, labels...)
	sys.M.RegisterMetrics(reg, labels...)
	sys.AttachTelemetry(reg, labels...)
	p.RegisterMetrics(reg, labels...)
	sim.RegisterMetrics(reg, labels...)

	chk, err := conformanceChecker(fmt.Sprintf("%s/%v", spec.Name, c.Flavor), sys)
	if err != nil {
		return nil, err
	}

	// Each drain's (or epoch's) analysis runs under a trace_analysis
	// span nested in the kernel host's trace_drain (or the streaming
	// consumer's stream_consume), split into its layers: the
	// conformance check and the parse feeding the memory-system
	// simulation. The consumer has already decoded a compressed epoch.
	var perr error
	sys.OnTrace = func(words []uint32) {
		asp := obs.Begin("trace_analysis")
		defer asp.End()
		sp := obs.Begin("tracecheck")
		chk.Check(words)
		sp.End()
		if perr == nil {
			sp := obs.Begin("parse_simulate")
			perr = p.ParseTo(words, sim)
			sp.End()
		}
	}
	if err := sys.Run(runBudget); err != nil {
		return nil, fmt.Errorf("predict %s/%v: %w", spec.Name, c, err)
	}
	if perr != nil {
		return nil, fmt.Errorf("predict %s/%v: %w", spec.Name, c, perr)
	}

	conf := chk.Finish()
	conf.RegisterMetrics(reg, labels...)

	arith, err := arithStalls(spec)
	if err != nil {
		return nil, err
	}

	cpu := sim.Instr - sim.IdleInstr
	io := sim.IdleInstr * IdleScale
	total := cpu + sim.MemStalls() + arith + io
	return &Predicted{
		Name:           spec.Name,
		Flavor:         c.Flavor,
		CPUCycles:      cpu,
		MemStalls:      sim.MemStalls(),
		ArithStalls:    arith,
		IOStalls:       io,
		Cycles:         total,
		Seconds:        machine.Seconds(total),
		IdleInstr:      sim.IdleInstr,
		TraceWords:     sys.DrainedWords,
		Events:         p.Fetches + p.MemRefs,
		UTLBMisses:     sim.TLB.Misses,
		ModeSwitches:   sys.Doorbells,
		Result:         sys.ExitStatus(pid),
		TracedInstr:    sys.M.CPU.Stat.Instret,
		TracedCycles:   sys.M.Cycles(),
		AnalysisCycles: sys.M.ExtraCycles(),
		OverlapCycles:  sys.M.OverlapCycles(),
		Stream:         sys.StreamStats,
		Sim:            sim,
		Parser:         p,
		Conformance:    conf,
	}, nil
}

// arithStalls returns the pixie arithmetic-stall estimate for the
// workload, memoized per workload: the count-mode run is deterministic
// and both systems' predictions charge the same term (counted on the
// Ultrix system), so the suite performs it once.
func arithStalls(spec workload.Spec) (uint64, error) {
	e := cacheEntry(arithCache, spec.Name)
	e.once.Do(func() {
		e.val, e.err = runArithStalls(spec)
	})
	return e.val, e.err
}

// runArithStalls runs the pixie basic-block counting binary and
// charges each block's floating-point latency by its execution count —
// "Pixie was used to estimate arithmetic stalls, as the tracing system
// does not measure these events" (§5.1).
func runArithStalls(spec workload.Spec) (uint64, error) {
	prog, err := program(spec, epoxie.FlowOn)
	if err != nil {
		return 0, err
	}
	res, err := pixie.RewriteWithBook(prog.Orig, pixie.ModeCount, trace.UserTraceVA)
	if err != nil {
		return 0, err
	}
	sys, pid, err := Config{Flavor: kernel.Ultrix, Seed: 1}.boot(spec, false, res.Exe)
	if err != nil {
		return 0, err
	}
	if err := sys.Run(runBudget); err != nil {
		return 0, fmt.Errorf("pixie count %s: %w", spec.Name, err)
	}
	// Static FP latency per original block, weighted by count.
	var stalls uint64
	for bi := range prog.Orig.Blocks {
		b := &prog.Orig.Blocks[bi]
		cnt, ok := sys.ReadUserWord(pid, res.CountsVA+uint32(bi)*4)
		if !ok || cnt == 0 {
			continue
		}
		var lat uint64
		for k := int32(0); k < b.NInstr; k++ {
			w := prog.Orig.Text[(b.Addr-prog.Orig.TextBase)/4+uint32(k)]
			lat += uint64(isa.FPLatency(w))
		}
		stalls += uint64(cnt) * lat
	}
	return stalls, nil
}
