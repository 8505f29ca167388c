// Command perfbench is the repository's benchmark of the paper's
// prediction pipeline: build, boot, trace, drain and analyse, driven
// one op at a time through the experiment package and the layers under
// it. See NOTES.md for the workloads, the metrics and the known
// failure.
//
//	perfbench --workload predict-ultrix --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured with no
// spans recorded; with --trace 1 it runs every op both untraced and
// rebuilt from layer calls under spans, and prints the per-layer
// metrics. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Everything else goes
// to standard error.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// metricSpec names a reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEndMetrics are reported with --trace 0.
var endToEndMetrics = []metricSpec{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"guest_mips", "MIPS"},
	{"peak_rss_mb", "MB"},
}

// perLayerMetrics are reported with --trace 1. A layer a workload does
// not run reports 0.
var perLayerMetrics = []metricSpec{
	{"userland.build_s", "s"},
	{"kernel.build_s", "s"},
	{"pixie.count_s", "s"},
	{"verify.cfg_s", "s"},
	{"kernel.boot_s", "s"},
	{"machine.self_s", "s"},
	{"machine.mips", "MIPS"},
	{"machine.guest_instr", "count"},
	{"machine.bare_guest_instr", "count"},
	{"machine.doorbells", "count"},
	{"machine.analysis_cycles", "count"},
	{"cpu.superblock_share", "ratio"},
	{"cpu.superblock_exits", "count"},
	{"cpu.predecode_hit_ratio", "ratio"},
	{"memsys.timing_s", "s"},
	{"memsys.stall_cycles", "count"},
	{"tracecheck.self_s", "s"},
	{"tracecheck.ns_per_word", "ns"},
	{"trace.parse_s", "s"},
	{"trace.ns_per_word", "ns"},
	{"trace.events_per_word", "ratio"},
	{"memsys.tracesim_s", "s"},
	{"memsys.ns_per_event", "ns"},
	{"memsys.tlb_miss_ratio", "ratio"},
	{"memsys.icache_miss_ratio", "ratio"},
	{"memsys.dcache_miss_ratio", "ratio"},
	{"kernel.stream_epochs", "count"},
	{"kernel.stream_compress_ratio", "ratio"},
	{"kernel.stream_stall_cycles", "count"},
	{"kernel.stream_decode_s", "s"},
	{"kernel.consumer_busy_share", "ratio"},
	{"experiment.self_s", "s"},
	{"trace_mwords_per_s", "Mword/s"},
	{"pred_err_pct", "%"},
	{"sim.cycles", "count"},
	{"sim.trace_words", "count"},
	{"sim.events", "count"},
	{"sim.utlb_misses", "count"},
	{"sim.predicted_cycles", "count"},
	{"bench.untraced_wall_s", "s"},
	{"bench.traced_wall_s", "s"},
	{"bench.trace_overhead_s", "s"},
	{"bench.accounted_share", "ratio"},
	{"bench.calib_s", "s"},
	{"fail_ratio", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: predict-ultrix, measure or stream-mach")
	seed := fs.Uint64("seed", 1, "workload seed: sets every op's page-mapping seed")
	seconds := fs.Float64("seconds", 10, "seconds of timed passes (at least one pass runs)")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	spans := fs.String("spans", "", "write the traced run's spans to this JSON file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	d, err := lookupDef(*name)
	if err != nil || (*traced != 0 && *traced != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, trace %d): %v\n", *name, *traced, err)
		return 2
	}
	b, err := newBench(d, *seed, *seconds, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	writeRunRecord(stderr, d.name, *seed, *seconds, *traced)

	var vals map[string]float64
	want := endToEndMetrics
	tr := newTracer()
	if *traced == 1 {
		want = perLayerMetrics
		vals, err = b.perLayer(tr)
	} else {
		vals, err = b.endToEnd()
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *traced == 1 && *spans != "" {
		if err := tr.write(*spans); err != nil {
			fmt.Fprintln(stderr, "perfbench: spans:", err)
		}
	}
	for class, n := range b.classes {
		fmt.Fprintf(stderr, "perfbench: %d op(s) failed as %s\n", n, class)
	}

	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed,
		Metrics: map[string]metricValue{}}
	for _, m := range want {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// writeRunRecord prints what the numbers depend on: the workload, its
// seed, the host and the build.
func writeRunRecord(w io.Writer, name string, seed uint64, seconds float64, traced int) {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	rec := map[string]any{
		"workload": name, "seed": seed, "seconds": seconds, "trace": traced,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"revision": rev,
	}
	b, _ := json.Marshal(rec) // a map of plain values always marshals
	fmt.Fprintf(w, "perfbench: run %s\n", b)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB, or 0
// where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
