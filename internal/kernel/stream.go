package kernel

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

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
// and the producer stalls only when all ringSlots-1 (3) in-flight
// slots are still busy at handoff time. The handoff itself — the copy
// out of the trace buffer — costs one machine cycle a word. The real
// consumer goroutine does the actual host-side work (decode,
// conformance, memsys simulation) concurrently, but contributes
// nothing to machine time — its modeled cycles are recorded on the
// machine's overlapped-analysis counter so the generation/analysis
// duty cycle stays observable.
//
// Both drains run one ring of ringSlots batches: the streaming drain's
// epochs, or the two-phase drain's settled prefixes and tails.

// StreamConfig configures the epoch-ring streaming drain. The zero
// value disables it (legacy stop-the-world two-phase analysis).
type StreamConfig struct {
	// Ring turns the epoch-ring streaming drain on; off, traced runs
	// use the two-phase drain.
	Ring bool
	// Compress encodes each epoch with the internal/trace stream codec
	// on handoff; the consumer decodes before analysis, so the wire
	// format is exercised end to end.
	Compress bool
}

// Enabled reports whether the configuration turns streaming on.
func (c StreamConfig) Enabled() bool { return c.Ring }

// DefaultStream returns the standard streaming configuration: the
// epoch ring with compressed handoff.
func DefaultStream() StreamConfig {
	return StreamConfig{Ring: true, Compress: true}
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

// epochBuf is one ring slot: a batch of trace words in flight from the
// machine's goroutine to the consumer. On the streaming drain it is one
// epoch; on the two-phase drain a settled prefix of the buffer or the
// tail a doorbell drains.
type epochBuf struct {
	words []uint32 // raw batch (also the encoder's input in Compress mode)
	enc   []byte   // encoded epoch (Compress mode)
}

// Both drains' ring holds ringSlots batches, and a streaming handoff
// costs handoffPerWord machine cycles a word. On the two-phase drain a
// settled prefix ships once it holds prefixMinWords words. The hook
// that ships it runs after every burst of up to 16K instructions, so
// a 4 MB buffer reaches the consumer in about 16 batches.
const (
	ringSlots      = 4
	handoffPerWord = 1
	prefixMinWords = 64 << 10
	// sumPiece is how many words the doorbell's prefix check reads
	// from guest RAM at a time.
	sumPiece = 16 << 10
)

// ErrPrefixMismatch reports that a prefix the two-phase drain shipped
// before its doorbell is no longer what the buffer holds: guest RAM
// under it changed, or BufPtr fell below it without a doorbell. The
// user-mode safe point (see shipPrefix) rules both out, so either
// means the consumer analyzed words that are not the trace.
var ErrPrefixMismatch = errors.New("kernel: shipped trace prefix does not match the buffer")

// AnalysisPanic is a panic recovered from the analysis program
// (OnTrace, or OnEpoch) on the consumer goroutine. Batches handed off
// after it are drained undelivered, and Run returns it once the
// consumer is joined.
type AnalysisPanic struct {
	Value any    // the value passed to panic
	Stack []byte // the panicking goroutine's stack
}

func (e *AnalysisPanic) Error() string {
	return fmt.Sprintf("analysis program panicked: %v\n%s", e.Value, e.Stack)
}

// errConsumerDead stops the machine once the analysis program has
// panicked: nothing simulated after it would be analyzed. System.Run
// replaces it with the consumer's *AnalysisPanic.
var errConsumerDead = errors.New("kernel: trace consumer stopped")

// streamer runs one ring and its consumer goroutine for the duration
// of one System.Run, on either drain.
type streamer struct {
	sys *System
	cfg StreamConfig // the zero value on the two-phase drain

	free chan *epochBuf // ring slots available to the producer
	work chan *epochBuf // filled batches in stream order
	wg   sync.WaitGroup

	prodErr error    // the producer's first failure (two-phase prefix check)
	sumBuf  []uint32 // the prefix check's read buffer

	// Consumer-owned state, read by the producer only after close.
	scratch []uint32 // decoded epoch
	err     error    // first undecodable epoch or recovered panic

	// dead is set by the consumer when a panic stops delivery; the
	// between-burst hook reads it to stop the guest.
	dead atomic.Bool
}

func newStreamer(s *System) *streamer {
	st := &streamer{sys: s}
	if s.Cfg.Stream.Enabled() {
		st.cfg = s.Cfg.Stream
	}
	st.free = make(chan *epochBuf, ringSlots)
	st.work = make(chan *epochBuf, ringSlots)
	for i := 0; i < ringSlots; i++ {
		st.free <- &epochBuf{}
	}
	st.wg.Add(1)
	go st.consume()
	return st
}

// handoff copies the n-word epoch out of the trace buffer, hands it to
// the consumer, and returns the machine cycles to charge (handoff cost
// plus any modeled stall for a ring slot). Runs on the machine's
// goroutine inside the doorbell handler.
func (st *streamer) handoff(n uint32, now uint64) uint64 {
	s := st.sys
	b := <-st.free // real backpressure: memory is bounded by the ring depth
	b.words = s.copyOut(0, n, b.words)
	if st.cfg.Compress {
		// Every epoch is coded on its own, so a corrupt epoch loses
		// only itself.
		b.enc = trace.EncodeEpoch(b.words, b.enc[:0])
		s.StreamStats.EncodedBytes += uint64(len(b.enc))
	}
	st.work <- b

	// Analytic accounting on the deterministic machine clock.
	s.StreamStats.Epochs++
	s.Shipped++
	s.StreamStats.RawBytes += uint64(n) * 4
	handoff := uint64(n) * handoffPerWord
	t := now + handoff
	for len(s.compl) > 0 && s.compl[0] <= t {
		s.compl = s.compl[1:]
	}
	var stall uint64
	if len(s.compl) >= ringSlots-1 {
		// Every slot the kernel could generate into is still busy:
		// wait for the oldest in-flight epoch's analysis to finish.
		stall = s.compl[0] - t
		t = s.compl[0]
		s.compl = s.compl[1:]
	}
	start := max(t, s.prevDone)
	done := start + uint64(n)*s.Cfg.AnalysisPerWord
	s.compl = append(s.compl, done)
	s.prevDone = done
	s.M.AddOverlapCycles(uint64(n) * s.Cfg.AnalysisPerWord)
	s.StreamStats.StallCycles += stall
	return handoff + stall
}

// betweenBursts is the machine's between-burst hook on a traced run.
// Once the analysis program has panicked it stops the run, on either
// drain; until then it ships the two-phase drain's settled prefix.
func (st *streamer) betweenBursts() error {
	if st.dead.Load() {
		return errConsumerDead
	}
	if st.cfg.Enabled() {
		return nil
	}
	return st.shipPrefix()
}

// shipPrefix is the two-phase drain's between-burst work: it hands the
// consumer the words [shipped, BufPtr) once at least prefixMinWords of
// them have settled, so the analysis of a fill overlaps its
// generation. It ships only while the CPU is in user mode. User code
// traces into its own per-process buffer, and the kernel writes the
// kernel buffer only in kernel mode (§3.3), so between bursts in user
// mode no kernel trace store is in flight and every word below BufPtr
// is final until the doorbell drains the buffer. The doorbell checks
// that argument on every fill (drainTail). When every slot is busy the
// prefix waits and ships longer later; the guest never waits here.
func (st *streamer) shipPrefix() error {
	s := st.sys
	if st.prodErr != nil || s.M.CPU.KernelMode() {
		return st.prodErr
	}
	n, ok := s.bufWords()
	if !ok {
		return nil // a corrupt BufPtr: the doorbell reports it
	}
	if n < s.shipped {
		st.fail(fmt.Errorf("%w: BufPtr at word %d fell below the %d words shipped, with no doorbell",
			ErrPrefixMismatch, n, s.shipped))
		return st.prodErr
	}
	if n-s.shipped < prefixMinWords {
		return nil
	}
	select {
	case b := <-st.free:
		st.ship(b, n)
	default:
	}
	return nil
}

// drainTail is the two-phase doorbell over an n-word fill: it checks
// that the prefix shipped since the last doorbell still reads the same
// from guest RAM, ships the tail [shipped, n), and starts the next
// fill's prefix. The machine is charged for all n words by the caller.
func (st *streamer) drainTail(n uint32) {
	s := st.sys
	switch {
	case n < s.shipped:
		st.fail(fmt.Errorf("%w: doorbell drains %d words, %d were already shipped",
			ErrPrefixMismatch, n, s.shipped))
	case s.shipped > 0 && st.prefixSum() != s.shippedSum:
		st.fail(fmt.Errorf("%w: the %d words shipped before the doorbell changed in guest RAM",
			ErrPrefixMismatch, s.shipped))
	case n > s.shipped:
		st.ship(<-st.free, n)
	}
	s.shipped, s.shippedSum = 0, 0
}

// ship copies the words [shipped, n) into b, folds them into the
// shipped prefix's checksum, and hands b to the consumer.
func (st *streamer) ship(b *epochBuf, n uint32) {
	s := st.sys
	b.words = s.copyOut(s.shipped, n, b.words)
	s.shippedSum = sumWords(s.shippedSum, b.words)
	s.shipped = n
	s.Shipped++
	st.work <- b
}

// prefixSum recomputes the shipped prefix's checksum from guest RAM.
func (st *streamer) prefixSum() uint64 {
	var h uint64
	for from := uint32(0); from < st.sys.shipped; from += sumPiece {
		st.sumBuf = st.sys.copyOut(from, min(from+sumPiece, st.sys.shipped), st.sumBuf)
		h = sumWords(h, st.sumBuf)
	}
	return h
}

// sumWords folds words into the running checksum h, FNV-1a style: for
// a given word each step is a bijection of h, and for a given h an
// injection of the word, so any one changed word changes the sum.
func sumWords(h uint64, words []uint32) uint64 {
	for _, w := range words {
		h = (h ^ uint64(w)) * 1099511628211
	}
	return h
}

// fail records a producer-side drain failure: loud in the flight
// recorder and DrainErrors, and returned by Run. The between-burst
// hook returns it too, so the machine stops at the next burst.
func (st *streamer) fail(err error) {
	st.sys.DrainErrors++
	obs.Failure("trace_drain_prefix_mismatch", err.Error())
	if st.prodErr == nil {
		st.prodErr = err
	}
}

// consume is the analysis side of the ring: analyze each batch in
// order, then return its slot. After a panic it only returns slots, so
// the producer never blocks on a dead consumer.
func (st *streamer) consume() {
	defer st.wg.Done()
	for b := range st.work {
		if !st.dead.Load() {
			st.analyze(b)
		}
		st.free <- b
	}
}

// analyze delivers one batch under its stream_consume span, decoding a
// compressed epoch first. A panic in the analysis program is recovered
// here and kept as the consumer's error.
func (st *streamer) analyze(b *epochBuf) {
	sp := obs.Begin("stream_consume")
	defer sp.End()
	defer func() {
		if v := recover(); v != nil {
			p := &AnalysisPanic{Value: v, Stack: debug.Stack()}
			obs.Failure("trace_analysis_panic", p.Error())
			st.dead.Store(true)
			if st.err == nil {
				st.err = p
			}
		}
	}()
	s := st.sys
	words := b.words
	if st.cfg.Compress {
		if s.OnEpoch != nil {
			s.OnEpoch(b.enc)
		}
		dsp := obs.Begin("stream_decode")
		var err error
		st.scratch, err = trace.DecodeEpoch(b.enc, st.scratch[:0])
		dsp.End()
		if err != nil {
			s.StreamStats.DecodeErrors++
			obs.Failure("trace_stream_decode",
				fmt.Sprintf("epoch of %d words: %v", len(b.words), err))
			if st.err == nil {
				st.err = err
			}
			return
		}
		words = st.scratch
	}
	if len(words) > 0 {
		s.deliver(words)
	}
}

// close stops the consumer after every handed-off batch is analyzed
// and returns the run's first drain failure: the producer's, else the
// consumer's. Returning establishes the happens-before the caller
// needs to read analysis results.
func (st *streamer) close() error {
	close(st.work)
	st.wg.Wait()
	if st.prodErr != nil {
		return st.prodErr
	}
	if st.err != nil {
		return fmt.Errorf("kernel: trace consumer: %w", st.err)
	}
	return nil
}
