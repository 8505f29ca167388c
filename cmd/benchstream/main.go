// benchstream compares the trace drain designs — the paper's two-phase
// stop-the-world analysis against the epoch-ring streaming drain, raw
// and compressed — over full traced boots of the sed + lisp workload
// pair running the complete prediction pipeline (parse, conformance,
// memory-system simulation). It writes BENCH_stream.json in the same
// shape as the other BENCH_*.json reports in the repo root.
//
// Two clocks are reported per cell. Simulated machine cycles are
// deterministic: the streaming drain hides the per-word analysis
// charge behind generation, so its traced run retires in strictly
// fewer cycles. Host wall seconds cover the whole pipeline on this
// machine; on a single-vCPU host the consumer goroutine cannot
// physically overlap the producer, so wall time mostly shows the
// codec's cost, not the pipeline's benefit — num_cpu is recorded so
// readers can judge.
//
//	go run ./cmd/benchstream -out BENCH_stream.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"systrace/internal/experiment"
	"systrace/internal/kernel"
	"systrace/internal/machine"
	"systrace/internal/trace"
	"systrace/internal/workload"
)

type hostInfo struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

type row struct {
	Workload     string  `json:"workload"`
	Config       string  `json:"config"`
	HostSeconds  float64 `json:"host_seconds"`
	TracedCycles uint64  `json:"traced_cycles"`
	SimSeconds   float64 `json:"sim_seconds"`
	Epochs       uint64  `json:"epochs"`
	StallCycles  uint64  `json:"stall_cycles"`
	Overlap      uint64  `json:"overlap_cycles"`
	RawBytes     uint64  `json:"raw_bytes"`
	EncodedBytes uint64  `json:"encoded_bytes"`
	Ratio        float64 `json:"compression_ratio"`
}

type report struct {
	Benchmark   string             `json:"benchmark"`
	Date        string             `json:"date"`
	Command     string             `json:"command"`
	Host        hostInfo           `json:"host"`
	BufBytes    uint32             `json:"trace_buf_bytes"`
	Results     []row              `json:"results"`
	SpeedupSim  map[string]float64 `json:"speedup_sim"`
	Compression map[string]float64 `json:"compression"`
	Notes       []string           `json:"notes"`
}

var workloads = []string{"sed", "lisp"}

// configs in report order. The raw streaming ring isolates the
// pipelining effect; the compressed ring adds the wire codec.
var configs = []struct {
	name   string
	stream kernel.StreamConfig
}{
	{"twophase", kernel.StreamConfig{}},
	{"stream", kernel.StreamConfig{Epochs: 4, HandoffPerWord: 1}},
	{"stream_compress", kernel.DefaultStream()},
}

// run executes the full prediction pipeline once and reports both
// clocks plus the ring's accounting.
func run(wl string, stream kernel.StreamConfig, bufBytes uint32) (row, uint32, error) {
	r := row{Workload: wl}
	spec, ok := workload.ByName(wl)
	if !ok {
		return r, 0, fmt.Errorf("no workload %q", wl)
	}
	// Collect the previous run's machine before the timed region so GC
	// pauses don't land inside it.
	runtime.GC()
	start := time.Now()
	pred, err := experiment.PredictStream(spec, kernel.Ultrix, 1, bufBytes, stream)
	if err != nil {
		return r, 0, err
	}
	r.HostSeconds = time.Since(start).Seconds()
	r.TracedCycles = pred.TracedCycles
	r.SimSeconds = machine.Seconds(pred.TracedCycles)
	r.Epochs = pred.Stream.Epochs
	r.StallCycles = pred.Stream.StallCycles
	r.Overlap = pred.OverlapCycles
	r.RawBytes = pred.Stream.RawBytes
	r.EncodedBytes = pred.Stream.EncodedBytes
	if r.EncodedBytes > 0 {
		r.Ratio = float64(r.RawBytes) / float64(r.EncodedBytes)
	}
	if !pred.Conformance.Clean() {
		return r, 0, fmt.Errorf("%s/%v: trace fails conformance (%d diags)",
			wl, pred.Flavor, len(pred.Conformance.Diags))
	}
	return r, pred.Result, nil
}

func main() {
	out := flag.String("out", "BENCH_stream.json", "output JSON path")
	count := flag.Int("count", 3, "runs per workload/config pair (best host time is kept)")
	bufBytes := flag.Uint("bufbytes", 512<<10, "trace-buffer (epoch) size in bytes")
	flag.Parse()

	// The buffer must clear the §3.3 slack region with room to trace
	// in: a sliver of usable space degenerates into back-to-back mode
	// switches whose dirt swamps the stream.
	if min := uint(trace.KernelBufSlack + 128<<10); *bufBytes < min {
		fmt.Fprintf(os.Stderr, "benchstream: -bufbytes %d below the minimum %d (slack + 128 KB)\n", *bufBytes, min)
		os.Exit(2)
	}

	rep := report{
		Benchmark: "BenchmarkStreamDrain",
		Date:      time.Now().Format("2006-01-02"),
		Command:   fmt.Sprintf("go run ./cmd/benchstream -out %s -count %d", *out, *count),
		Host: hostInfo{
			GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
		BufBytes:    uint32(*bufBytes),
		SpeedupSim:  map[string]float64{},
		Compression: map[string]float64{},
	}

	// Configs are interleaved round-robin rather than run as
	// consecutive blocks: host-load noise
	// dwarfs the effect being measured, and blocking a config's runs
	// together would let one noisy interval masquerade as a config
	// difference. Best-of-count per cell then discards the noise; the
	// simulated-cycle columns are deterministic and identical across
	// repeats.
	best := map[string]row{} // "wl/config" → best-host-time run
	results := map[string]uint32{}
	for i := 0; i < *count; i++ {
		for _, wl := range workloads {
			for _, cfg := range configs {
				key := wl + "/" + cfg.name
				r, res, err := run(wl, cfg.stream, uint32(*bufBytes))
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchstream:", err)
					os.Exit(1)
				}
				r.Config = cfg.name
				fmt.Printf("%-22s run %d: host %6.3fs  sim %d cycles  %d epochs  stall %d  %6.2fx\n",
					key, i+1, r.HostSeconds, r.TracedCycles, r.Epochs, r.StallCycles, r.Ratio)
				prev, seen := best[key]
				if seen && prev.TracedCycles != r.TracedCycles {
					fmt.Fprintf(os.Stderr, "benchstream: %s: nondeterministic simulation (%d vs %d cycles)\n",
						key, prev.TracedCycles, r.TracedCycles)
					os.Exit(1)
				}
				if old, ok := results[wl]; ok && old != res {
					fmt.Fprintf(os.Stderr, "benchstream: %s: workload result changed across drains (%d vs %d)\n",
						key, old, res)
					os.Exit(1)
				}
				results[wl] = res
				if !seen || r.HostSeconds < prev.HostSeconds {
					best[key] = r
				}
			}
		}
	}

	ok := true
	for _, wl := range workloads {
		for _, cfg := range configs {
			rep.Results = append(rep.Results, best[wl+"/"+cfg.name])
		}
		two := best[wl+"/twophase"]
		sc := best[wl+"/stream_compress"]
		rep.SpeedupSim[wl] = round2(float64(two.TracedCycles) / float64(sc.TracedCycles))
		rep.Compression[wl] = round2(sc.Ratio)
		if sc.TracedCycles >= two.TracedCycles {
			fmt.Fprintf(os.Stderr, "benchstream: %s: overlapped drain not faster in simulated time (%d vs %d cycles)\n",
				wl, sc.TracedCycles, two.TracedCycles)
			ok = false
		}
		if sc.Ratio < 4 {
			fmt.Fprintf(os.Stderr, "benchstream: %s: compression %.2fx below the 4x target\n", wl, sc.Ratio)
			ok = false
		}
	}

	rep.Notes = []string{
		"Each cell runs the full prediction pipeline (traced boot, parse, conformance, memsys simulation); best host time of -count interleaved runs.",
		"twophase = stop-the-world per-buffer analysis charge (paper Figure 1); stream = 4-epoch ring, 1 handoff cycle/word, analysis overlapped; stream_compress adds the internal/trace wire codec.",
		"traced_cycles/sim_seconds are deterministic simulated machine time; speedup_sim = twophase/stream_compress traced cycles.",
		"On a single-vCPU host the consumer goroutine cannot physically overlap the producer, so host_seconds mostly prices the codec; the simulated columns carry the design comparison.",
		"compression = raw/encoded bytes over the whole drained stream at the configured epoch size.",
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchstream:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchstream:", err)
		os.Exit(1)
	}
	for _, wl := range workloads {
		fmt.Printf("%s: sim speedup %.2fx, compression %.2fx\n", wl, rep.SpeedupSim[wl], rep.Compression[wl])
	}
	fmt.Printf("wrote %s\n", *out)
	if !ok {
		os.Exit(1)
	}
}

func round2(f float64) float64 { return float64(int(f*100+0.5)) / 100 }
