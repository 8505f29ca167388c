package trace

import "fmt"

// Compressed on-the-wire trace encoding (format version 1).
//
// The raw trace is one 32-bit word per entry (§3.3's single-store
// discipline); that is what the kernel writes, but it is a wasteful
// thing to *ship*: basic-block records repeat a handful of nearby text
// addresses (loops), effective addresses walk memory in constant
// strides, and idle loops and marker pairs repeat the same words for
// long stretches. The encoder below is the CVA6 branch-map idea
// adapted to a word stream: predict each word from recent stream
// history and emit only the correction — a correct prediction chain
// collapses to a run token, the way a branch map collapses a run of
// correctly-predicted branches to a bit. It is value-driven — no side
// table is needed on either side — so the decoder reconstructs the
// exact raw word sequence and every existing consumer (parser,
// conformance checker, memsys simulator) runs unchanged behind a
// decode.
//
// Shared predictor state, updated identically by encoder and decoder
// after every word:
//
//   - last:       the previous word (run-length for idle/marker runs)
//   - prev[16], stride[16]: per-address-class (top nibble) last value
//     and last observed delta (delta-encoded bb record addresses;
//     strided data walks)
//   - cache[128]: direct-mapped recent-word cache indexed by a hash of
//     the word (loopy record/marker working sets hit here)
//   - rule[256]:  a first-order context model keyed by a hash of the
//     previous word. Each context remembers how its successor was last
//     produced — as a literal word, or as "this class's stride walk" —
//     so predict() is a single deterministic function of the state.
//     Loop bodies replay the same record→record and record→address
//     transitions every iteration, so whole iterations become chains
//     of correct predictions.
//
// Token stream, first byte t:
//
//	0x00..0x7f  HIT    word = cache[t]                        (1 byte)
//	0x80..0x9f  RUN    repeat last (t&0x1f)+1 times           (1 byte)
//	0xa0..0xaf  PRED   c = t&15; word = prev[c] + stride[c]   (1 byte)
//	0xb0..0xbf  DELTA  c = t&15; zigzag varint d follows;
//	                   word = prev[c] + d; stride[c] = d      (2+ bytes)
//	0xc0..0xdf  PRUN   (t&0x1f)+1 words, each = predict()     (1 byte)
//	0xe0..0xff  reserved (decode error)
//
// After every word w — whatever token carried it — both sides run the
// same fold: learn the context rule for (last → w), then set
// cache[hash(w)] = w, prev[w>>28] = w, last = w. stride[c] changes
// only when a DELTA token carries the word (a mispredicted delta is
// the new stride hypothesis). A RUN's repeats skip the fold entirely
// (folding w == last is idempotent by construction).
//
// Every epoch is coded on its own: EncodeEpoch and DecodeEpoch start
// from a zero predictor state on each call, so an epoch decodes
// without the ones before it and a corrupt epoch loses only itself.
const (
	streamTagHit   = 0x00 // 0x00..0x7f
	streamTagRun   = 0x80 // 0x80..0x9f
	streamTagPred  = 0xa0 // 0xa0..0xaf
	streamTagDelta = 0xb0 // 0xb0..0xbf
	streamTagPrun  = 0xc0 // 0xc0..0xdf

	streamRunMax = 32 // longest run one RUN or PRUN token carries
)

// codecState is the shared predictor state; encoder and decoder apply
// identical updates so the token stream is self-describing.
type codecState struct {
	last   uint32
	prev   [16]uint32
	stride [16]uint32
	cache  [128]uint32
	// Context model: rule[i] describes how the word following context
	// i was last produced. ruleStride[i] false → literal next[i];
	// true → prev[ruleClass[i]] + stride[ruleClass[i]] at predict
	// time (a stride walk re-predicts correctly every iteration even
	// though the value advances).
	next       [256]uint32
	ruleStride [256]bool
	ruleClass  [256]uint8
}

func streamHash(w uint32) uint32 { return (w>>2 ^ w>>9 ^ w>>17) & 127 }
func ctxHash(w uint32) uint32    { return (w>>2 ^ w>>10 ^ w>>18) & 255 }

// predict returns the single next-word prediction for the current
// state.
func (s *codecState) predict() uint32 {
	i := ctxHash(s.last)
	if s.ruleStride[i] {
		c := s.ruleClass[i]
		return s.prev[c] + s.stride[c]
	}
	return s.next[i]
}

// fold learns from coded word w and advances the state. stride[] is
// deliberately not touched here (only DELTA tokens update it): a
// stride hypothesis survives interleaved traffic from other contexts.
func (s *codecState) fold(w uint32) {
	i := ctxHash(s.last)
	c := w >> 28
	if s.prev[c]+s.stride[c] == w {
		s.ruleStride[i] = true
		s.ruleClass[i] = uint8(c)
	} else {
		s.ruleStride[i] = false
		s.next[i] = w
	}
	s.cache[streamHash(w)] = w
	s.prev[c] = w
	s.last = w
}

// EncodeEpoch appends the compressed form of one epoch's words to
// dst and returns it. The predictor starts from its zero state.
func EncodeEpoch(words []uint32, dst []byte) []byte {
	var st codecState
	n := len(words)
	for i := 0; i < n; i++ {
		w := words[i]
		if w == st.last {
			// Run of the previous word; folding a repeat is
			// idempotent, so RUN skips the fold on both sides.
			run := 1
			for i+run < n && words[i+run] == w && run < streamRunMax {
				run++
			}
			i += run - 1
			dst = append(dst, byte(streamTagRun|(run-1)))
			continue
		}
		if st.predict() == w {
			// Chain of correct predictions: fold as we match, since
			// each prediction depends on the previous word's fold.
			run := 1
			st.fold(w)
			for i+run < n && run < streamRunMax && st.predict() == words[i+run] {
				st.fold(words[i+run])
				run++
			}
			i += run - 1
			dst = append(dst, byte(streamTagPrun|(run-1)))
			continue
		}
		if st.cache[streamHash(w)] == w {
			dst = append(dst, byte(streamHash(w)))
			st.fold(w)
			continue
		}
		c := w >> 28
		if st.prev[c]+st.stride[c] == w {
			dst = append(dst, byte(streamTagPred|c))
			st.fold(w)
			continue
		}
		d := w - st.prev[c]
		dst = append(dst, byte(streamTagDelta|c))
		dst = appendZigzag(dst, d)
		st.stride[c] = d
		st.fold(w)
	}
	return dst
}

// StreamError reports a malformed compressed stream.
type StreamError struct {
	Offset int // byte offset of the offending token within the epoch
	Msg    string
}

func (e *StreamError) Error() string {
	return fmt.Sprintf("trace: compressed stream byte %d: %s", e.Offset, e.Msg)
}

// DecodeEpoch appends the words of one epoch encoded by EncodeEpoch
// to dst and returns it, from the same zero predictor state. data must
// hold whole tokens; a StreamError's Offset counts within data.
func DecodeEpoch(data []byte, dst []uint32) ([]uint32, error) {
	var st codecState
	i := 0
	for i < len(data) {
		t := data[i]
		switch {
		case t < 0x80: // HIT
			w := st.cache[t]
			st.fold(w)
			dst = append(dst, w)
			i++
		case t < streamTagPred: // RUN
			run := int(t&0x1f) + 1
			for k := 0; k < run; k++ {
				dst = append(dst, st.last)
			}
			i++
		case t < streamTagDelta: // PRED
			c := t & 15
			w := st.prev[c] + st.stride[c]
			st.fold(w)
			dst = append(dst, w)
			i++
		case t < streamTagPrun: // DELTA
			c := t & 15
			delta, n := zigzag(data[i+1:])
			if n == 0 {
				return dst, &StreamError{i, "truncated delta varint"}
			}
			w := st.prev[c] + delta
			if w>>28 != uint32(c) {
				return dst, &StreamError{i,
					fmt.Sprintf("delta result 0x%08x escapes address class %d", w, c)}
			}
			st.stride[c] = delta
			st.fold(w)
			dst = append(dst, w)
			i += 1 + n
		case t < 0xe0: // PRUN
			run := int(t&0x1f) + 1
			for k := 0; k < run; k++ {
				w := st.predict()
				st.fold(w)
				dst = append(dst, w)
			}
			i++
		default:
			return dst, &StreamError{i, fmt.Sprintf("reserved token 0x%02x", t)}
		}
	}
	return dst, nil
}

// appendZigzag writes v as a zigzag LEB128 varint (small magnitudes
// of either sign stay short).
func appendZigzag(dst []byte, v uint32) []byte {
	z := uint32(int32(v)<<1) ^ uint32(int32(v)>>31)
	for z >= 0x80 {
		dst = append(dst, byte(z)|0x80)
		z >>= 7
	}
	return append(dst, byte(z))
}

// zigzag reads one zigzag varint; n is bytes consumed (0 on
// truncation or overlong input).
func zigzag(data []byte) (v uint32, n int) {
	var z uint32
	for i := 0; i < len(data); i++ {
		b := data[i]
		if i == 4 && b > 0x0f {
			return 0, 0 // would overflow 32 bits
		}
		z |= uint32(b&0x7f) << (7 * i)
		if b < 0x80 {
			return (z >> 1) ^ -(z & 1), i + 1
		}
		if i == 4 {
			return 0, 0
		}
	}
	return 0, 0
}
