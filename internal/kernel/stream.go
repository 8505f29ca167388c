package kernel

import (
	"fmt"
	"sync"

	"systrace/internal/obs"
	"systrace/internal/trace"
)

// Epoch-ring streaming drain.
//
// The two-phase design charges the whole buffer's analysis time to the
// machine at every doorbell: generation and analysis strictly
// alternate, as in the paper's Figure 1. The streaming drain instead
// treats each filled buffer as one *epoch* of a ring: the doorbell
// handler copies the epoch out (optionally compressing it with the
// internal/trace stream codec), hands it to a consumer goroutine that
// runs the analysis program while the kernel is already generating the
// next epoch, and charges the machine only the handoff cost plus any
// stall waiting for a free ring slot.
//
// The handoff is sound for the same reason the two-phase drain is: the
// kernel only rings the doorbell from the §3.3 safe points (the trace
// buffer's soft-limit check and the final flush), where no trace store
// is in flight and the bookkeeping word is consistent, so the epoch is
// a self-contained prefix of the stream. The consumer sees epochs in
// doorbell order over a FIFO channel, which is exactly the order the
// two-phase analysis saw them — the analysis program's input is
// byte-identical, only its timing overlaps generation.
//
// Simulated time stays deterministic: the ring is modeled analytically
// with a completion-time queue. Epoch k's analysis completes at
//
//	done(k) = max(handed(k), done(k-1)) + words(k)*AnalysisPerWord
//
// and the producer stalls only when all Epochs-1 in-flight slots are
// still busy at handoff time. The real consumer goroutine does the
// actual host-side work (decode, conformance, memsys simulation)
// concurrently, but contributes nothing to machine time — its modeled
// cycles are recorded on the machine's overlapped-analysis counter so
// the generation/analysis duty cycle stays observable.

// StreamConfig configures the epoch-ring streaming drain. The zero
// value disables it (legacy stop-the-world two-phase analysis).
type StreamConfig struct {
	// Epochs is the ring depth: the number of trace-buffer-sized
	// epochs that may be in flight (one filling, the rest draining or
	// being analyzed). Values below 2 disable streaming — a one-slot
	// ring is the two-phase design.
	Epochs int
	// HandoffPerWord is the machine cycles charged per trace word to
	// hand a filled epoch to the consumer (the copy out of the trace
	// buffer). This replaces the stop-the-world AnalysisPerWord charge.
	HandoffPerWord uint64
	// Compress encodes each epoch with the internal/trace stream codec
	// on handoff; the consumer decodes before analysis, so the wire
	// format is exercised end to end.
	Compress bool
}

// Enabled reports whether the configuration turns streaming on.
func (c StreamConfig) Enabled() bool { return c.Epochs >= 2 }

// DefaultStream returns the standard streaming configuration: a
// four-epoch ring, one handoff cycle per word, compressed handoff.
func DefaultStream() StreamConfig {
	return StreamConfig{Epochs: 4, HandoffPerWord: 1, Compress: true}
}

// StreamStats accumulates one run's streaming-drain accounting.
// Producer-side fields (Epochs..EncodedBytes) are updated by the
// doorbell handler on the machine's goroutine; DecodeErrors is owned by
// the consumer and is stable once Run returns (Run joins the consumer).
// The consumer decodes every compressed epoch exactly once, whatever
// is attached. Each epoch is encoded from a fresh codec state, so an
// undecodable epoch is skipped alone, never delivered, and fails the
// Run; the epochs after it are still decoded and delivered.
type StreamStats struct {
	Epochs       uint64 // epochs handed to the consumer
	StallCycles  uint64 // machine cycles stalled waiting for a ring slot
	RawBytes     uint64 // raw bytes handed off (4 per word)
	EncodedBytes uint64 // encoded bytes handed off (Compress mode)
	DecodeErrors uint64 // epochs the consumer could not decode
}

// epochBuf is one ring slot: a filled epoch in flight from the
// doorbell handler to the consumer.
type epochBuf struct {
	words  []uint32 // raw epoch (also the encoder's input in Compress mode)
	enc    []byte   // encoded epoch (Compress mode)
	reason uint32   // doorbell reason
	pid    uint32   // pid current at drain time (telemetry attribution)
}

// streamer runs one epoch ring for the duration of one System.Run.
type streamer struct {
	sys *System
	cfg StreamConfig

	free chan *epochBuf // ring slots available to the producer
	work chan *epochBuf // filled epochs in doorbell order
	wg   sync.WaitGroup

	enc *trace.Encoder // producer-side encoder (Compress mode)
	err error          // consumer's first decode error, read after close

	// Analytic ring model: completion times of in-flight epochs
	// (sorted; at most Epochs-1 entries) and the previous epoch's
	// completion (the single analysis engine is FIFO).
	compl    []uint64
	prevDone uint64
}

func newStreamer(s *System) *streamer {
	st := &streamer{
		sys:  s,
		cfg:  s.Cfg.Stream,
		free: make(chan *epochBuf, s.Cfg.Stream.Epochs),
		work: make(chan *epochBuf, s.Cfg.Stream.Epochs),
	}
	for i := 0; i < st.cfg.Epochs; i++ {
		st.free <- &epochBuf{}
	}
	if st.cfg.Compress {
		st.enc = trace.NewEncoder()
	}
	st.wg.Add(1)
	go st.consume()
	return st
}

// handoff copies the n-word epoch out of the trace buffer, hands it to
// the consumer, and returns the machine cycles to charge (handoff cost
// plus any modeled stall for a ring slot). Runs on the machine's
// goroutine inside the doorbell handler.
func (st *streamer) handoff(reason, pid uint32, n uint32, now uint64) uint64 {
	s := st.sys
	b := <-st.free // real backpressure: memory is bounded by the ring depth
	b.reason, b.pid = reason, pid
	b.words = s.copyOut(n, b.words)
	if st.cfg.Compress {
		// Every epoch starts from a fresh codec state, so it decodes
		// on its own: a corrupt epoch loses only itself.
		st.enc.Reset()
		b.enc = st.enc.Encode(b.words, b.enc[:0])
		s.StreamStats.EncodedBytes += uint64(len(b.enc))
	}
	st.work <- b

	// Analytic accounting on the deterministic machine clock.
	st.sys.StreamStats.Epochs++
	st.sys.StreamStats.RawBytes += uint64(n) * 4
	handoff := uint64(n) * st.cfg.HandoffPerWord
	t := now + handoff
	for len(st.compl) > 0 && st.compl[0] <= t {
		st.compl = st.compl[1:]
	}
	var stall uint64
	if len(st.compl) >= st.cfg.Epochs-1 {
		// Every slot the kernel could generate into is still busy:
		// wait for the oldest in-flight epoch's analysis to finish.
		stall = st.compl[0] - t
		t = st.compl[0]
		st.compl = st.compl[1:]
	}
	start := t
	if st.prevDone > start {
		start = st.prevDone
	}
	done := start + uint64(n)*s.Cfg.AnalysisPerWord
	st.compl = append(st.compl, done)
	st.prevDone = done
	s.M.AddOverlapCycles(uint64(n) * s.Cfg.AnalysisPerWord)
	s.StreamStats.StallCycles += stall
	return handoff + stall
}

// consume is the analysis side of the ring: decode (if compressed),
// deliver to telemetry and the analysis program, return the slot.
func (st *streamer) consume() {
	defer st.wg.Done()
	s := st.sys
	var dec *trace.Decoder
	if st.cfg.Compress {
		dec = trace.NewDecoder()
	}
	var scratch []uint32
	for b := range st.work {
		sp := obs.Begin("stream_consume")
		words := b.words
		if dec != nil {
			if s.OnEpoch != nil {
				s.OnEpoch(b.enc)
			}
			dsp := obs.Begin("stream_decode")
			var err error
			dec.Reset()
			scratch, err = dec.Decode(b.enc, scratch[:0])
			dsp.End()
			if err != nil {
				s.StreamStats.DecodeErrors++
				obs.Failure("trace_stream_decode",
					fmt.Sprintf("epoch of %d words: %v", len(b.words), err))
				if st.err == nil {
					st.err = err
				}
				st.free <- b
				sp.End()
				continue
			}
			words = scratch
		}
		s.deliver(b.reason, b.pid, words)
		st.free <- b
		sp.End()
	}
}

// close stops the consumer after all handed-off epochs are analyzed
// and returns its first decode error. Returning establishes the
// happens-before the caller needs to read analysis results.
func (st *streamer) close() error {
	close(st.work)
	st.wg.Wait()
	return st.err
}
