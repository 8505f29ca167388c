package main

import (
	"fmt"

	"systrace/internal/experiment"
	"systrace/internal/kernel"
	"systrace/internal/workload"
)

// kind is the experiment entry point a workload drives.
type kind int

const (
	// kindPredict is experiment.Predict: traced boot with the paper's
	// two-phase (stop-the-world) drain, analysis inside the run.
	kindPredict kind = iota
	// kindMeasure is experiment.Measure: untraced boot with the
	// execution-driven memory model attached.
	kindMeasure
	// kindStream is experiment.PredictStream: traced boot whose epochs
	// are analysed on a consumer goroutine beside the producer.
	kindStream
)

// streamBufBytes is the trace-buffer (epoch) size of the streaming
// workload: small enough that every program drains over several
// epochs, large enough to stay clear of the known 512 KB failure
// (NOTES.md).
const streamBufBytes = 1 << 20

// def is one benchmark workload: an entry point, its programs and the
// kernel flavors they run on. Ops run program-major, flavor-minor.
type def struct {
	name    string
	kind    kind
	progs   []string
	flavors []kernel.Flavor
}

var defs = []def{
	{"predict-ultrix", kindPredict, []string{"sed", "egrep", "lisp", "liv"}, []kernel.Flavor{kernel.Ultrix}},
	{"measure", kindMeasure, []string{"compress", "espresso", "tomcatv"}, []kernel.Flavor{kernel.Ultrix, kernel.Mach}},
	{"stream-mach", kindStream, []string{"sed", "egrep", "lisp", "yacc"}, []kernel.Flavor{kernel.Mach}},
}

func lookupDef(name string) (def, error) {
	for _, d := range defs {
		if d.name == name {
			return d, nil
		}
	}
	return def{}, fmt.Errorf("unknown workload %q", name)
}

// traced reports whether the workload's ops run the traced system.
func (d def) traced() bool { return d.kind != kindMeasure }

// knownResult is each program's exit status: the answer its computation
// must produce on either kernel and under any page mapping.
var knownResult = map[string]uint32{
	"sed":      678,
	"egrep":    795,
	"yacc":     676040,
	"gcc":      806757,
	"compress": 3044530,
	"espresso": 6910700,
	"lisp":     276,
	"liv":      19,
	"tomcatv":  19975,
}

// op is one call into the system: one program on one kernel flavor
// under its own page-mapping seed.
type op struct {
	spec   workload.Spec
	flavor kernel.Flavor
	seed   uint32 // kernel MapSeed (and the trace simulator's seed)
}

func (o op) String() string { return fmt.Sprintf("%s/%v", o.spec.Name, o.flavor) }

// ops expands a workload into its ops. The benchmark seed sets every
// op's MapSeed, so the same seed always gives the same inputs.
func (d def) ops(seed uint64) ([]op, error) {
	var out []op
	for _, name := range d.progs {
		spec, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("workload %s: unknown program %q", d.name, name)
		}
		for _, f := range d.flavors {
			out = append(out, op{spec: spec, flavor: f, seed: mapSeed(seed, len(out))})
		}
	}
	return out, nil
}

// mapSeed derives op i's nonzero page-mapping seed from the benchmark
// seed (a splitmix64 finalizer).
func mapSeed(seed uint64, i int) uint32 {
	x := seed*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	if uint32(x) == 0 {
		return 1
	}
	return uint32(x)
}

// counts are an op's simulated results. They depend only on the op, so
// every call must reproduce them exactly, traced or not.
type counts struct {
	Result         uint32
	GuestInstr     uint64 // instructions the run retired
	Cycles         uint64 // machine cycles of the run (traced cycles for a prediction)
	UTLBMisses     uint64 // measured counter, or simulated for a prediction
	TraceWords     uint64
	Events         uint64
	Predicted      uint64 // predicted cycles (Table 2)
	MemStalls      uint64
	ArithStalls    uint64
	IOStalls       uint64
	ModeSwitches   uint64
	AnalysisCycles uint64
	OverlapCycles  uint64
	Stream         kernel.StreamStats
}

func predictedCounts(p *experiment.Predicted) counts {
	return counts{
		Result:         p.Result,
		GuestInstr:     p.TracedInstr,
		Cycles:         p.TracedCycles,
		UTLBMisses:     p.UTLBMisses,
		TraceWords:     p.TraceWords,
		Events:         p.Events,
		Predicted:      p.Cycles,
		MemStalls:      p.MemStalls,
		ArithStalls:    p.ArithStalls,
		IOStalls:       p.IOStalls,
		ModeSwitches:   p.ModeSwitches,
		AnalysisCycles: p.AnalysisCycles,
		OverlapCycles:  p.OverlapCycles,
		Stream:         p.Stream,
	}
}

func measuredCounts(m *experiment.Measured) counts {
	return counts{
		Result:     m.Result,
		GuestInstr: m.Instr,
		Cycles:     m.Cycles,
		UTLBMisses: uint64(m.UTLBMisses),
	}
}

// call runs op o through the experiment package's public entry point
// for kind k: the untraced, timed path.
func call(k kind, o op) (counts, error) {
	switch k {
	case kindMeasure:
		m, err := experiment.Measure(o.spec, o.flavor, o.seed)
		if err != nil {
			return counts{}, err
		}
		return measuredCounts(m), nil
	case kindStream:
		p, err := experiment.PredictStream(o.spec, o.flavor, o.seed, streamBufBytes, kernel.DefaultStream())
		if err != nil {
			return counts{}, err
		}
		return predictedCounts(p), conformanceErr(p)
	default:
		p, err := experiment.Predict(o.spec, o.flavor, o.seed)
		if err != nil {
			return counts{}, err
		}
		return predictedCounts(p), conformanceErr(p)
	}
}

// conformanceErr reports a prediction whose trace did not pass the
// conformance checker.
func conformanceErr(p *experiment.Predicted) error {
	if c := p.Conformance; c != nil && !c.Clean() {
		return &failure{class: classNonconformant,
			msg: fmt.Sprintf("tracecheck: %d diagnostic(s), truncated=%v", len(c.Diags), c.Truncated)}
	}
	return nil
}
