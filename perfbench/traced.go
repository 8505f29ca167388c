package main

import (
	"fmt"

	"systrace/internal/experiment"
	"systrace/internal/kernel"
	"systrace/internal/memsys"
	"systrace/internal/telemetry"
	"systrace/internal/trace"
	"systrace/internal/tracecheck"
)

// tracedRun is one op rebuilt from layer calls under the tracer, with
// the layers' counters read through their RegisterMetrics registries.
type tracedRun struct {
	c            counts
	snap         telemetry.Snapshot
	checkedWords uint64 // words the conformance checker consumed
}

// predictTraced rebuilds experiment.Predict (k == kindPredict) or
// experiment.PredictStream (k == kindStream) for op o from the images
// and the layers' public calls, recording a span around each: op, boot,
// run, and within the run the check, parse and simulate callbacks. On
// the streaming drain the callbacks run on the consumer goroutine, each
// epoch under an epoch span that also covers the ring's decode.
func predictTraced(im *images, tr *tracer, k kind, o op) (tracedRun, error) {
	var r tracedRun
	var stream kernel.StreamConfig
	var bufBytes uint32
	lane := laneMain
	if k == kindStream {
		stream, bufBytes, lane = kernel.DefaultStream(), streamBufBytes, laneConsumer
	}
	opSp := tr.begin(laneMain, "op")
	defer tr.end(opSp)

	sp := tr.begin(laneMain, "boot")
	sys, pid, err := im.boot(o, true, nil, stream, bufBytes)
	tr.end(sp)
	if err != nil {
		return r, err
	}

	p := trace.NewParser(trace.NewSideTable(sys.Kernel.Instr.Blocks))
	p.CountBlocks()
	chk := tracecheck.New(o.String())
	kg := im.cfgs[sys.Kernel]
	if kg == nil {
		return r, fmt.Errorf("predict %v: no CFG for the kernel image", o)
	}
	chk.SetKernelCFG(kg)
	for i, bp := range sys.Procs {
		if bp.Exe.Instr == nil {
			continue
		}
		g := im.cfgs[bp.Exe]
		if g == nil {
			return r, fmt.Errorf("predict %v: no CFG for process %d", o, i+1)
		}
		p.AddProcess(i+1, trace.NewSideTable(bp.Exe.Instr.Blocks))
		chk.AddProcessCFG(i+1, g)
	}
	policy := memsys.PolicySequential
	if o.flavor == kernel.Mach {
		policy = memsys.PolicyRandom
	}
	sim := memsys.NewTraceSim(memsys.DECstation5000(), policy,
		kernel.DefaultBoot(o.flavor).RAMBytes>>12, o.seed)

	reg := telemetry.New()
	sys.M.CPU.RegisterMetrics(reg)
	sys.M.RegisterMetrics(reg)
	p.RegisterMetrics(reg)
	sim.RegisterMetrics(reg)

	endEpoch := func() {
		if id := tr.openOn(laneConsumer, "epoch"); id >= 0 {
			tr.end(id)
		}
	}
	var events uint64
	var perr, cerr error
	buf := make([]trace.Event, 0, 1<<16)
	compressed := stream.Enabled() && stream.Compress
	if compressed {
		sys.OnEpoch = func(enc []byte) {
			endEpoch() // an epoch that failed to decode never reached OnTrace
			tr.begin(laneConsumer, "epoch")
			sp := tr.begin(laneConsumer, "check")
			if cerr == nil {
				cerr = chk.CheckCompressed(enc)
			}
			tr.end(sp)
		}
	}
	sys.OnTrace = func(words []uint32) {
		defer endEpoch()
		if !compressed {
			sp := tr.begin(lane, "check")
			chk.Check(words)
			tr.end(sp)
		}
		if perr != nil {
			return
		}
		sp := tr.begin(lane, "parse")
		var evs []trace.Event
		evs, perr = p.Parse(words, buf[:0])
		tr.end(sp)
		if perr != nil {
			return
		}
		sp = tr.begin(lane, "simulate")
		events += uint64(len(evs))
		sim.Events(evs)
		tr.end(sp)
	}

	sp = tr.begin(laneMain, "run")
	err = sys.Run(experiment.RunBudget)
	tr.end(sp)
	endEpoch()
	if err != nil {
		return r, fmt.Errorf("predict %v: %w", o, err)
	}
	if perr != nil {
		return r, fmt.Errorf("predict %v: %w", o, perr)
	}
	if cerr != nil {
		return r, fmt.Errorf("predict %v: compressed stream: %w", o, cerr)
	}
	conf := chk.Finish()
	if !conf.Clean() {
		return r, &failure{class: classNonconformant,
			msg: fmt.Sprintf("%v: tracecheck: %d diagnostic(s), truncated=%v", o, len(conf.Diags), conf.Truncated)}
	}

	arith := im.arith[o.spec.Name]
	cpu := sim.Instr - sim.IdleInstr
	io := sim.IdleInstr * experiment.IdleScale
	r.c = counts{
		Result:         sys.ExitStatus(pid),
		GuestInstr:     sys.M.CPU.Stat.Instret,
		Cycles:         sys.M.Cycles(),
		UTLBMisses:     sim.TLB.Misses,
		TraceWords:     sys.DrainedWords,
		Events:         events,
		Predicted:      cpu + sim.MemStalls() + arith + io,
		MemStalls:      sim.MemStalls(),
		ArithStalls:    arith,
		IOStalls:       io,
		ModeSwitches:   sys.Doorbells,
		AnalysisCycles: sys.M.ExtraCycles(),
		OverlapCycles:  sys.M.OverlapCycles(),
		Stream:         sys.StreamStats,
	}
	r.snap = reg.Snapshot()
	r.checkedWords = conf.Words
	return r, nil
}

// measureTraced rebuilds experiment.Measure for op o: untraced boot,
// the execution-driven Timing model attached, run.
func measureTraced(im *images, tr *tracer, o op) (tracedRun, error) {
	var r tracedRun
	opSp := tr.begin(laneMain, "op")
	defer tr.end(opSp)
	sp := tr.begin(laneMain, "boot")
	sys, pid, err := im.boot(o, false, nil, kernel.StreamConfig{}, 0)
	tr.end(sp)
	if err != nil {
		return r, err
	}
	tm := memsys.NewTiming(memsys.DECstation5000())
	sys.M.AttachTiming(tm, tm)
	reg := telemetry.New()
	sys.M.CPU.RegisterMetrics(reg)
	sys.M.RegisterMetrics(reg)
	tm.RegisterMetrics(reg)
	sp = tr.begin(laneMain, "run")
	err = sys.Run(experiment.RunBudget)
	tr.end(sp)
	if err != nil {
		return r, fmt.Errorf("measure %v: %w", o, err)
	}
	r.c = counts{
		Result:     sys.ExitStatus(pid),
		GuestInstr: sys.M.CPU.Stat.Instret,
		Cycles:     sys.M.Cycles(),
		UTLBMisses: uint64(sys.UTLBCount()),
	}
	r.snap = reg.Snapshot()
	return r, nil
}

// bareRun boots op o untraced through experiment.Boot and runs it with
// no memory model: the machine alone, which Measure's time is compared
// against to price the Timing model. It returns the exit status and
// instructions retired.
func bareRun(tr *tracer, o op) (result uint32, instr uint64, err error) {
	opSp := tr.begin(laneMain, "bare")
	defer tr.end(opSp)
	sp := tr.begin(laneMain, "bare-boot")
	sys, pid, err := experiment.Boot(o.spec, o.flavor, false, o.seed)
	tr.end(sp)
	if err != nil {
		return 0, 0, err
	}
	sp = tr.begin(laneMain, "bare-run")
	err = sys.Run(experiment.RunBudget)
	tr.end(sp)
	if err != nil {
		return 0, 0, fmt.Errorf("bare run %v: %w", o, err)
	}
	return sys.ExitStatus(pid), sys.M.CPU.Stat.Instret, nil
}
