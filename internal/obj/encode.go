package obj

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"systrace/internal/isa"
)

// On-disk format. Executables use a simple big-endian format
// (matching the machine's byte order) with a magic word and version
// byte, so the cmd tools can round-trip them.

var exeMagic = [4]byte{'S', 'E', 'X', 'E'}

const formatVersion = 1

type writer struct {
	w   io.Writer
	err error
}

func (w *writer) u8(v uint8) {
	if w.err == nil {
		_, w.err = w.w.Write([]byte{v})
	}
}

func (w *writer) u16(v uint16) {
	if w.err == nil {
		var b [2]byte
		binary.BigEndian.PutUint16(b[:], v)
		_, w.err = w.w.Write(b[:])
	}
}

func (w *writer) u32(v uint32) {
	if w.err == nil {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], v)
		_, w.err = w.w.Write(b[:])
	}
}

func (w *writer) bytes(b []byte) {
	w.u32(uint32(len(b)))
	if w.err == nil {
		_, w.err = w.w.Write(b)
	}
}

func (w *writer) str(s string) { w.bytes([]byte(s)) }

func (w *writer) words(ws []isa.Word) {
	w.u32(uint32(len(ws)))
	if w.err != nil {
		return
	}
	buf := make([]byte, 4*len(ws))
	for i, x := range ws {
		binary.BigEndian.PutUint32(buf[i*4:], x)
	}
	_, w.err = w.w.Write(buf)
}

type reader struct {
	r   *bytes.Reader
	err error
}

func (r *reader) u8() uint8 {
	if r.err != nil {
		return 0
	}
	b, err := r.r.ReadByte()
	r.err = err
	return b
}

func (r *reader) u16() uint16 {
	var b [2]byte
	if r.err == nil {
		_, r.err = io.ReadFull(r.r, b[:])
	}
	return binary.BigEndian.Uint16(b[:])
}

func (r *reader) u32() uint32 {
	var b [4]byte
	if r.err == nil {
		_, r.err = io.ReadFull(r.r, b[:])
	}
	return binary.BigEndian.Uint32(b[:])
}

func (r *reader) bytes() []byte {
	n := r.u32()
	if r.err != nil {
		return nil
	}
	if int64(n) > int64(r.r.Len()) {
		r.err = fmt.Errorf("obj: truncated: %d-byte field with %d bytes left", n, r.r.Len())
		return nil
	}
	b := make([]byte, n)
	_, r.err = io.ReadFull(r.r, b)
	return b
}

func (r *reader) str() string { return string(r.bytes()) }

func (r *reader) words() []isa.Word {
	n := r.u32()
	if r.err != nil {
		return nil
	}
	if int64(n)*4 > int64(r.r.Len()) {
		r.err = fmt.Errorf("obj: truncated: %d-word field with %d bytes left", n, r.r.Len())
		return nil
	}
	ws := make([]isa.Word, n)
	buf := make([]byte, 4*n)
	if _, r.err = io.ReadFull(r.r, buf); r.err != nil {
		return nil
	}
	for i := range ws {
		ws[i] = binary.BigEndian.Uint32(buf[i*4:])
	}
	return ws
}

// count checks a table's entry count n against the bytes left, each
// entry encoding in at least minSize bytes, and returns n, or 0 with
// r.err set when the rest of the input cannot hold the table. A
// corrupt count so never sizes an allocation past the input's size.
func (r *reader) count(n uint32, minSize int) int {
	if r.err != nil {
		return 0
	}
	if int64(n)*int64(minSize) > int64(r.r.Len()) {
		r.err = fmt.Errorf("obj: truncated: %d-entry table (%d+ bytes each) with %d bytes left",
			n, minSize, r.r.Len())
		return 0
	}
	return int(n)
}

// Minimum encoded sizes of the tables' entries (every inner string or
// memop list empty).
const (
	symMinSize        = 4 + 1 + 4 + 1 // name, section, offset, flags
	memOpMinSize      = 2 + 1 + 1     // index, load, size
	exeBlockMinSize   = 4 + 4 + 2 + 2 // addr, instructions, flags, memop count
	instrBlockMinSize = 4 + 4 + 4 + 2 + 2
)

func writeSyms(w *writer, ss []Symbol) {
	w.u32(uint32(len(ss)))
	for _, s := range ss {
		w.str(s.Name)
		w.u8(uint8(s.Section))
		w.u32(s.Off)
		flags := uint8(0)
		if s.Defined {
			flags |= 1
		}
		if s.Func {
			flags |= 2
		}
		w.u8(flags)
	}
}

func readSyms(r *reader) []Symbol {
	ss := make([]Symbol, r.count(r.u32(), symMinSize))
	for i := range ss {
		ss[i].Name = r.str()
		ss[i].Section = SectionID(r.u8())
		ss[i].Off = r.u32()
		f := r.u8()
		ss[i].Defined = f&1 != 0
		ss[i].Func = f&2 != 0
	}
	return ss
}

func writeMemOps(w *writer, ms []MemOp) {
	w.u16(uint16(len(ms)))
	for _, m := range ms {
		w.u16(uint16(m.Index))
		if m.Load {
			w.u8(1)
		} else {
			w.u8(0)
		}
		w.u8(uint8(m.Size))
	}
}

func readMemOps(r *reader) []MemOp {
	ms := make([]MemOp, r.count(uint32(r.u16()), memOpMinSize))
	for i := range ms {
		ms[i].Index = int16(r.u16())
		ms[i].Load = r.u8() != 0
		ms[i].Size = int8(r.u8())
	}
	return ms
}

// Encode serializes the executable.
func (e *Executable) Encode(out io.Writer) error {
	w := &writer{w: out}
	if _, err := out.Write(exeMagic[:]); err != nil {
		return err
	}
	w.u8(formatVersion)
	w.str(e.Name)
	w.u32(e.Entry)
	w.u32(e.TextBase)
	w.words(e.Text)
	w.u32(e.DataBase)
	w.bytes(e.Data)
	w.u32(e.BSSBase)
	w.u32(e.BSSSize)
	writeSyms(w, e.Syms)
	if e.Traced {
		w.u8(1)
	} else {
		w.u8(0)
	}
	w.u32(uint32(len(e.Blocks)))
	for i := range e.Blocks {
		b := &e.Blocks[i]
		w.u32(b.Addr)
		w.u32(uint32(b.NInstr))
		w.u16(uint16(b.Flags))
		writeMemOps(w, b.Mem)
	}
	if e.Instr == nil {
		w.u8(0)
	} else {
		w.u8(1)
		w.str(e.Instr.Tool)
		w.u32(e.Instr.OrigTextSize)
		w.u32(e.Instr.TextSize)
		w.u32(uint32(len(e.Instr.Blocks)))
		for i := range e.Instr.Blocks {
			b := &e.Instr.Blocks[i]
			w.u32(b.RecordAddr)
			w.u32(b.OrigAddr)
			w.u32(uint32(b.NInstr))
			w.u16(uint16(b.Flags))
			writeMemOps(w, b.Mem)
		}
	}
	return w.err
}

// ReadExecutable deserializes an executable image.
func ReadExecutable(data []byte) (*Executable, error) {
	if len(data) < 5 || !bytes.Equal(data[:4], exeMagic[:]) {
		return nil, fmt.Errorf("exe: bad magic")
	}
	if data[4] != formatVersion {
		return nil, fmt.Errorf("exe: version %d, want %d", data[4], formatVersion)
	}
	r := &reader{r: bytes.NewReader(data[5:])}
	e := &Executable{}
	e.Name = r.str()
	e.Entry = r.u32()
	e.TextBase = r.u32()
	e.Text = r.words()
	e.DataBase = r.u32()
	e.Data = r.bytes()
	e.BSSBase = r.u32()
	e.BSSSize = r.u32()
	e.Syms = readSyms(r)
	e.Traced = r.u8() != 0
	e.Blocks = make([]ExeBlock, r.count(r.u32(), exeBlockMinSize))
	for i := range e.Blocks {
		b := &e.Blocks[i]
		b.Addr = r.u32()
		b.NInstr = int32(r.u32())
		b.Flags = BBFlags(r.u16())
		b.Mem = readMemOps(r)
	}
	if r.u8() != 0 {
		ii := &InstrInfo{}
		ii.Tool = r.str()
		ii.OrigTextSize = r.u32()
		ii.TextSize = r.u32()
		ii.Blocks = make([]InstrBlock, r.count(r.u32(), instrBlockMinSize))
		for i := range ii.Blocks {
			b := &ii.Blocks[i]
			b.RecordAddr = r.u32()
			b.OrigAddr = r.u32()
			b.NInstr = int32(r.u32())
			b.Flags = BBFlags(r.u16())
			b.Mem = readMemOps(r)
		}
		e.Instr = ii
	}
	if r.err != nil {
		return nil, r.err
	}
	return e, nil
}
