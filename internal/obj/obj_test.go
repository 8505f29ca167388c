package obj_test

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
	"testing/quick"

	"systrace/internal/isa"
	"systrace/internal/obj"
)

func sampleFile() *obj.File {
	f := &obj.File{
		Name: "sample",
		Text: []isa.Word{
			isa.ADDIU(29, 29, 0xffe0),
			isa.SW(31, 29, 28),
			isa.JAL(0),
			isa.NOP,
			isa.LW(31, 29, 28),
			isa.JR(31),
			isa.ADDIU(29, 29, 32),
		},
		Data:    []byte("hello data"),
		BSSSize: 64,
	}
	f.AddSym(obj.Symbol{Name: "fn", Section: obj.SecText, Off: 0, Defined: true, Func: true})
	f.AddSym(obj.Symbol{Name: "callee", Section: obj.SecText})
	f.Relocs = append(f.Relocs, obj.Reloc{Off: 8, Kind: obj.RelJ26, Sym: 1})
	f.Blocks = []obj.BasicBlock{
		{Off: 0, NInstr: 4, Mem: []obj.MemOp{{Index: 1, Load: false, Size: 4}}},
		{Off: 16, NInstr: 3, Mem: []obj.MemOp{{Index: 0, Load: true, Size: 4}}},
	}
	return f
}

func TestValidateCatchesBadTables(t *testing.T) {
	f := sampleFile()
	f.Blocks[1].Off = 20 // gap
	if f.Validate() == nil {
		t.Error("gap in block table accepted")
	}
	f = sampleFile()
	f.Blocks[0].Mem = nil // memop count mismatch
	if f.Validate() == nil {
		t.Error("missing memop accepted")
	}
	f = sampleFile()
	f.Relocs[0].Off = 1000
	if f.Validate() == nil {
		t.Error("out-of-range reloc accepted")
	}
}

// sampleExecutable is an instrumented two-instruction image with one
// entry in every table ReadExecutable reads.
func sampleExecutable() *obj.Executable {
	return &obj.Executable{
		Name:     "prog",
		Entry:    0x400000,
		TextBase: 0x400000,
		Text:     []isa.Word{isa.NOP, isa.BREAK(0)},
		DataBase: 0x10000000,
		Data:     []byte{1, 2, 3, 4},
		BSSBase:  0x10000008,
		BSSSize:  32,
		Traced:   true,
		Syms:     []obj.Symbol{{Name: "main", Section: obj.SecText, Off: 0x400000, Defined: true, Func: true}},
		Blocks:   []obj.ExeBlock{{Addr: 0x400000, NInstr: 2}},
		Instr: &obj.InstrInfo{
			Tool:         "epoxie",
			OrigTextSize: 8,
			TextSize:     16,
			Blocks: []obj.InstrBlock{
				{RecordAddr: 0x40000c, OrigAddr: 0x400000, NInstr: 2,
					Mem: []obj.MemOp{{Index: 0, Load: true, Size: 4}}},
			},
		},
	}
}

func encodeExecutable(t testing.TB, e *obj.Executable) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCorruptDeserialization(t *testing.T) {
	whole := encodeExecutable(t, sampleExecutable())
	// Every table and field is nonempty, so every proper prefix of the
	// image must error, not panic.
	for n := 0; n < len(whole); n++ {
		if _, err := obj.ReadExecutable(whole[:n]); err == nil {
			t.Errorf("truncation at %d of %d bytes accepted", n, len(whole))
		}
	}
	// Arbitrary bytes must never panic.
	f2 := func(b []byte) bool {
		_, _ = obj.ReadExecutable(b)
		return true
	}
	if err := quick.Check(f2, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestReadExecutableHugeCount: a table count the rest of the input
// cannot hold must fail before it sizes an allocation. The 41-byte
// image below has a valid header and empty name, text and data, then
// claims 1<<24 symbols.
func TestReadExecutableHugeCount(t *testing.T) {
	data := []byte{'S', 'E', 'X', 'E', 1}
	for _, v := range []uint32{
		0,          // name length
		0x400000,   // entry
		0x400000,   // text base
		0,          // text words
		0x10000000, // data base
		0,          // data bytes
		0x10000000, // bss base
		0,          // bss size
		1 << 24,    // symbols
	} {
		data = binary.BigEndian.AppendUint32(data, v)
	}
	if len(data) != 41 {
		t.Fatalf("crafted image is %d bytes, want 41", len(data))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := obj.ReadExecutable(data)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("ReadExecutable accepted a symbol count past the input's end")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("ReadExecutable allocated %d bytes for a 41-byte input", alloc)
	}
}

// FuzzReadExecutable: arbitrary bytes decode to an error or a value,
// never a panic.
func FuzzReadExecutable(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeExecutable(f, sampleExecutable()))
	f.Fuzz(func(t *testing.T, data []byte) {
		if e, err := obj.ReadExecutable(data); (e == nil) == (err == nil) {
			t.Fatalf("ReadExecutable returned %v and %v", e, err)
		}
	})
}

func TestExecutableRoundTrip(t *testing.T) {
	e := sampleExecutable()
	g, err := obj.ReadExecutable(encodeExecutable(t, e))
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != e.Name || g.Entry != e.Entry || !g.Traced || g.Instr == nil ||
		g.Instr.Tool != "epoxie" || len(g.Instr.Blocks) != 1 ||
		g.Instr.Blocks[0].RecordAddr != 0x40000c {
		t.Fatalf("round trip mismatch: %+v", g)
	}
	if g.Instr.GrowthFactor() != 2.0 {
		t.Errorf("growth = %v", g.Instr.GrowthFactor())
	}
}

func TestBlockForAndFuncName(t *testing.T) {
	e := &obj.Executable{
		TextBase: 0x400000,
		Text:     make([]isa.Word, 8),
		Syms: []obj.Symbol{
			{Name: "a", Off: 0x400000, Defined: true, Func: true},
			{Name: "b", Off: 0x400010, Defined: true, Func: true},
		},
		Blocks: []obj.ExeBlock{
			{Addr: 0x400000, NInstr: 4},
			{Addr: 0x400010, NInstr: 4},
		},
	}
	if b := e.BlockFor(0x400008); b == nil || b.Addr != 0x400000 {
		t.Error("BlockFor middle address failed")
	}
	if b := e.BlockFor(0x400010); b == nil || b.Addr != 0x400010 {
		t.Error("BlockFor boundary failed")
	}
	if e.BlockFor(0x400020) != nil {
		t.Error("BlockFor past end should be nil")
	}
	if e.FuncName(0x400014) != "b" || e.FuncName(0x400004) != "a" {
		t.Error("FuncName wrong")
	}
}
