package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime/debug"
	"sort"
	"time"

	"systrace/internal/experiment"
	"systrace/internal/workload"
)

// Failure classes. Every failed op is counted under exactly one.
const (
	classError            = "error"            // an entry point returned an error
	classPanic            = "panic"            // a panic, recovered at the op boundary
	classWrongResult      = "wrong-result"     // exit status is not the program's known answer
	classNondeterministic = "nondeterministic" // simulated counts differ from the op's first call
	classNonconformant    = "nonconformant"    // tracecheck reported diagnostics
	classFidelity         = "fidelity"         // the traced rebuild disagrees with the entry point
)

// failure is a classified op failure.
type failure struct {
	class string
	msg   string
}

func (f *failure) Error() string { return f.class + ": " + f.msg }

// classOf returns err's failure class; unclassified errors are
// classError.
func classOf(err error) string {
	var f *failure
	if errors.As(err, &f) {
		return f.class
	}
	return classError
}

// bench runs one workload: set-up, a warm-up pass that fixes each op's
// reference counts, then timed passes until the time is spent.
type bench struct {
	d       def
	ops     []op
	specs   []workload.Spec // distinct programs, in op order
	seconds float64
	want    map[string]uint32 // each program's known exit status
	log     io.Writer

	ref       []*counts // each op's counts from its first successful call
	attempted int
	failed    int
	classes   map[string]int
}

func newBench(d def, seed uint64, seconds float64, log io.Writer) (*bench, error) {
	ops, err := d.ops(seed)
	if err != nil {
		return nil, err
	}
	b := &bench{d: d, ops: ops, seconds: seconds, want: knownResult, log: log,
		ref: make([]*counts, len(ops)), classes: map[string]int{}}
	seen := map[string]bool{}
	for _, o := range ops {
		if !seen[o.spec.Name] {
			seen[o.spec.Name] = true
			b.specs = append(b.specs, o.spec)
		}
	}
	return b, nil
}

// settle collects garbage and returns the freed memory to the OS
// before a timed call, so that no call pays for its predecessor's
// garbage and the peak resident set does not depend on where the
// collector happened to leave the heap.
func settle() { debug.FreeOSMemory() }

// protect calls f, turning a panic into a classified failure.
func protect(f func() (counts, error)) (c counts, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &failure{class: classPanic, msg: fmt.Sprintf("%v\n%s", r, debug.Stack())}
		}
	}()
	return f()
}

// attempt makes one timed call for op i and checks it: the program's
// known answer, then the op's reference counts (a mismatch is counted
// under mismatch). Any error or panic is contained here, counted and
// classified; it never ends the run.
func (b *bench) attempt(i int, mismatch string, f func() (counts, error)) (float64, bool) {
	b.attempted++
	t0 := time.Now()
	c, err := protect(f)
	secs := time.Since(t0).Seconds()
	if err == nil {
		err = b.verify(i, c, mismatch)
	}
	if err != nil {
		b.fail(i, err)
		return secs, false
	}
	return secs, true
}

func (b *bench) verify(i int, c counts, mismatch string) error {
	o := b.ops[i]
	if want := b.want[o.spec.Name]; c.Result != want {
		return &failure{class: classWrongResult, msg: fmt.Sprintf("exit status %d, want %d", c.Result, want)}
	}
	if b.ref[i] == nil {
		b.ref[i] = &c
		return nil
	}
	if c != *b.ref[i] {
		return &failure{class: mismatch, msg: fmt.Sprintf("counts %+v, first call gave %+v", c, *b.ref[i])}
	}
	return nil
}

func (b *bench) fail(i int, err error) {
	b.failed++
	b.classes[classOf(err)]++
	fmt.Fprintf(b.log, "perfbench: op %v (map seed %d) failed: %v\n", b.ops[i], b.ops[i].seed, err)
}

// setup repeats the workload's complete set-up at least five times and
// for at least a second, and returns the images of the last one, every
// repetition's layer split, and the calibration time around the loop.
func (b *bench) setup() (*images, []setupTimes, float64, error) {
	var reps []setupTimes
	var im *images
	settle()
	cal := calibrate()
	start := time.Now()
	for len(reps) < 5 || (time.Since(start) < time.Second && len(reps) < 100) {
		settle()
		var st setupTimes
		var err error
		im, st, err = buildImages(b.d, b.specs)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("set-up: %w", err)
		}
		reps = append(reps, st)
	}
	settle()
	cal = (cal + calibrate()) / 2
	return im, reps, cal, nil
}

// passTimes are the timed passes' per-op samples.
type passTimes struct {
	raw    [][]float64 // host seconds per call, by op
	scaled [][]float64 // the same at the reference host speed
	cal    []float64   // every calibration time
}

// timed runs passes over every op until the time is spent (at least
// one pass). Each op is preceded by settle and bracketed by
// calibrations. perOp runs after the untraced call when set (the
// traced run's extra calls).
func (b *bench) timed(perOp func(pass, i int)) passTimes {
	pt := passTimes{raw: make([][]float64, len(b.ops)), scaled: make([][]float64, len(b.ops))}
	calib := func() float64 {
		settle()
		c := calibrate()
		pt.cal = append(pt.cal, c)
		return c
	}
	cal := calib()
	deadline := time.Now().Add(time.Duration(b.seconds * float64(time.Second)))
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for i, o := range b.ops {
			before := cal
			secs, ok := b.attempt(i, classNondeterministic, func() (counts, error) { return call(b.d.kind, o) })
			cal = calib()
			if ok {
				pt.raw[i] = append(pt.raw[i], secs)
				pt.scaled[i] = append(pt.scaled[i], scaled(secs, (before+cal)/2))
			}
			if perOp != nil {
				perOp(pass, i)
				cal = calib()
			}
		}
	}
	return pt
}

// warmUp calls every op once through its entry point, untimed: it fills
// the experiment package's memoized builds and fixes the reference
// counts.
func (b *bench) warmUp() {
	for i, o := range b.ops {
		settle()
		b.attempt(i, classNondeterministic, func() (counts, error) { return call(b.d.kind, o) })
	}
}

// endToEnd is the untraced run: set-up, warm-up, timed passes. Its
// times are at the reference host speed (calibrate.go).
func (b *bench) endToEnd() (map[string]float64, error) {
	_, reps, cal, err := b.setup()
	if err != nil {
		return nil, err
	}
	rssSetup := peakRSSMB()
	b.warmUp()
	rssWarm := peakRSSMB()
	pt := b.timed(nil)
	fmt.Fprintf(b.log, "perfbench: peak RSS %.0f MB after set-up, %.0f MB after warm-up\n", rssSetup, rssWarm)
	wall := sumMedians(pt.scaled)
	var instr float64
	for _, c := range b.ref {
		if c != nil {
			instr += float64(c.GuestInstr)
		}
	}
	setup := make([]float64, len(reps))
	for i, r := range reps {
		setup[i] = r.total()
	}
	b.report(pt, nil)
	return map[string]float64{
		"setup_s":     scaled(median(setup), cal),
		"wall_s":      wall,
		"guest_mips":  ratio(instr, wall) / 1e6,
		"peak_rss_mb": peakRSSMB(),
	}, nil
}

// report prints one line per op: its map seed, pass count, the median
// (min-max) of its raw and scaled times, and the counts every pass
// reproduced; then the calibration times.
func (b *bench) report(pt passTimes, traced [][]float64) {
	for i, o := range b.ops {
		fmt.Fprintf(b.log, "perfbench: %-16v seed=%-10d passes=%-3d untraced=%s scaled=%s",
			o, o.seed, len(pt.raw[i]), spread(pt.raw[i]), spread(pt.scaled[i]))
		if traced != nil {
			fmt.Fprintf(b.log, " traced=%s", spread(traced[i]))
		}
		if c := b.ref[i]; c != nil {
			fmt.Fprintf(b.log, " result=%d instr=%d cycles=%d words=%d events=%d utlb=%d predicted=%d",
				c.Result, c.GuestInstr, c.Cycles, c.TraceWords, c.Events, c.UTLBMisses, c.Predicted)
		}
		fmt.Fprintln(b.log)
	}
	fmt.Fprintf(b.log, "perfbench: calibration %s over %d runs (reference %.4fs)\n", spread(pt.cal), len(pt.cal), calibRefSeconds)
}

// measuredSide measures, untimed, each predicted op's system directly;
// it returns the mean |predicted/measured - 1| in percent, or 0 when
// the workload predicts nothing.
func (b *bench) measuredSide() float64 {
	if !b.d.traced() {
		return 0
	}
	var sum float64
	var n int
	for i, o := range b.ops {
		b.attempted++
		c, err := protect(func() (counts, error) {
			m, err := experiment.Measure(o.spec, o.flavor, o.seed)
			if err != nil {
				return counts{}, err
			}
			return measuredCounts(m), nil
		})
		if err == nil && c.Result != b.want[o.spec.Name] {
			err = &failure{class: classWrongResult, msg: fmt.Sprintf("measured exit status %d, want %d", c.Result, b.want[o.spec.Name])}
		}
		if err != nil {
			b.fail(i, err)
			continue
		}
		if b.ref[i] == nil || c.Cycles == 0 {
			continue
		}
		sum += math.Abs(float64(b.ref[i].Predicted)/float64(c.Cycles) - 1)
		n++
	}
	return 100 * ratio(sum, float64(n))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread formats a sample as "median (min-max)" seconds.
func spread(xs []float64) string {
	if len(xs) == 0 {
		return "none"
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return fmt.Sprintf("%.4fs(%.4f-%.4f)", median(s), s[0], s[len(s)-1])
}

func sumMedians(xss [][]float64) float64 {
	var t float64
	for _, xs := range xss {
		t += median(xs)
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
