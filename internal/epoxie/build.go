package epoxie

import (
	"fmt"
	"sort"

	"systrace/internal/dataflow"
	"systrace/internal/link"
	"systrace/internal/obj"
	"systrace/internal/obs"
)

// Build is the result of an instrumented link: the original executable
// (for direct measurement) and the instrumented one (for tracing),
// laid out with identical data segments so that the trace's data
// addresses match the uninstrumented program exactly (§3.2: "the
// expansion of traced text does not affect the trace addresses
// generated").
type Build struct {
	Orig  *obj.Executable
	Instr *obj.Executable
}

// BuildInstrumented links objs twice: once untouched and once through
// the rewriter with the tracing runtime appended, and attaches the
// static side table (the "lookup table in the trace parsing library",
// §3.5) to the instrumented image.
func BuildInstrumented(objs []*obj.File, lopt link.Options, cfg Config, kind RuntimeKind) (*Build, error) {
	sp := obs.BeginDetail("epoxie_build", lopt.Name)
	defer sp.End()
	lsp := obs.Begin("link")
	origExe, origLay, err := link.LinkLayout(objs, lopt)
	lsp.End()
	if err != nil {
		return nil, fmt.Errorf("epoxie: original link: %w", err)
	}

	// Liveness over the original objects, before any rewriting: this is
	// what proves a register dead at an instrumentation site.
	var prog *dataflow.Program
	if !cfg.Orig && cfg.Flow != FlowOff {
		dsp := obs.Begin("dataflow_analysis")
		prog, err = dataflow.AnalyzeObjects(objs)
		dsp.End()
		if err != nil {
			return nil, fmt.Errorf("epoxie: dataflow: %w", err)
		}
	}

	var rews []*Rewritten
	var flow obj.FlowStats
	newObjs := make([]*obj.File, 0, len(objs)+1)
	origWords, newWords := 0, 0
	rsp := obs.Begin("epoxie_rewrite")
	for oi, f := range objs {
		ocfg := cfg
		if prog != nil {
			ocfg.facts = prog.Object(oi)
		}
		rw, err := Rewrite(f, ocfg)
		if err != nil {
			rsp.End()
			return nil, err
		}
		rews = append(rews, rw)
		newObjs = append(newObjs, rw.File)
		origWords += rw.OrigWords
		newWords += rw.NewWords
		flow.SaveSites += rw.Flow.SaveSites
		flow.SavesElided += rw.Flow.SavesElided
		flow.Fallbacks += rw.Flow.Fallbacks
		flow.BytesSaved += rw.Flow.BytesSaved
		flow.EASites += rw.Flow.EASites
		flow.EARebased += rw.Flow.EARebased
		flow.EASpecial += rw.Flow.EASpecial
	}
	newObjs = append(newObjs, RuntimeObj(kind))
	rsp.End()

	iopt := lopt
	iopt.Traced = true
	lsp = obs.Begin("link")
	instExe, instLay, err := link.LinkLayout(newObjs, iopt)
	lsp.End()
	if err != nil {
		return nil, fmt.Errorf("epoxie: instrumented link: %w", err)
	}
	if instExe.DataBase != origExe.DataBase {
		return nil, fmt.Errorf("epoxie: data base moved (0x%x -> 0x%x)", origExe.DataBase, instExe.DataBase)
	}

	tool := "epoxie"
	if cfg.Orig {
		tool = "epoxie-orig"
	}
	ii := &obj.InstrInfo{
		Tool:         tool,
		OrigTextSize: uint32(origWords) * 4,
		TextSize:     uint32(newWords) * 4,
	}
	for oi, rw := range rews {
		for _, m := range rw.Map {
			if m.RecordOff == NoRecord {
				continue
			}
			ii.Blocks = append(ii.Blocks, obj.InstrBlock{
				RecordAddr: lopt.TextBase + instLay.TextOff[oi] + m.RecordOff,
				OrigAddr:   lopt.TextBase + origLay.TextOff[oi] + m.OldOff,
				NInstr:     m.Orig.NInstr,
				Flags:      m.Flags,
				Mem:        m.Orig.Mem,
			})
		}
	}
	ii.Flow = flow
	if prog != nil {
		st := prog.Stats()
		ii.Flow.Blocks, ii.Flow.Funcs, ii.Flow.Passes = st.Blocks, st.Funcs, st.Passes
		ii.Flow.AddrTaken = addrTaken(objs, instExe)
		ii.Flow.EscapedText = escapedText(rews, instExe)
		// Rebase records carry object-relative slot offsets; translate
		// them to instrumented addresses for the verifier.
		for oi, rw := range rews {
			for _, reb := range rw.Flow.EARebases {
				reb.Addr += lopt.TextBase + instLay.TextOff[oi]
				ii.Flow.EARebases = append(ii.Flow.EARebases, reb)
			}
		}
	}
	instExe.Instr = ii
	return &Build{Orig: origExe, Instr: instExe}, nil
}

// addrTaken lists instrumented entry addresses of functions whose
// address escapes through a non-jump relocation in the original
// objects — the rewriter's precise view, carried through the side
// table so the verifier's own analysis agrees on which functions have
// invisible callers (computed addresses the data scan cannot see).
func addrTaken(objs []*obj.File, inst *obj.Executable) []uint32 {
	names := map[string]bool{}
	for _, f := range objs {
		note := func(rl obj.Reloc) {
			if rl.Sym >= 0 && rl.Sym < len(f.Syms) {
				names[f.Syms[rl.Sym].Name] = true
			}
		}
		for _, rl := range f.Relocs {
			if rl.Kind != obj.RelJ26 {
				note(rl)
			}
		}
		for _, rl := range f.DataRelocs {
			note(rl)
		}
	}
	var out []uint32
	for _, s := range inst.Syms {
		if s.Func && names[s.Name] {
			out = append(out, s.Off)
		}
	}
	return out
}

// escapedText lists every instrumented text address that escapes
// through a non-jump relocation in the rewritten objects — including
// interior jump-table targets (sym+addend), whose blocks the
// verifier's value analysis must poison. Addresses materialized
// through lui/ori immediate pairs never appear as literal data words,
// so the verifier's data-section scan cannot find them on its own.
// Rewritten-object addends are already remapped to the instrumented
// layout, which is what makes this resolution exact.
func escapedText(rews []*Rewritten, inst *obj.Executable) []uint32 {
	seen := map[uint32]bool{}
	add := func(f *obj.File, rl obj.Reloc) {
		if rl.Kind == obj.RelJ26 || rl.Sym < 0 || rl.Sym >= len(f.Syms) {
			return
		}
		a, ok := inst.Symbol(f.Syms[rl.Sym].Name)
		if !ok {
			return
		}
		addr := uint32(int64(a) + int64(rl.Addend))
		if addr >= inst.TextBase && addr < inst.TextEnd() {
			seen[addr] = true
		}
	}
	for _, rw := range rews {
		for _, rl := range rw.File.Relocs {
			add(rw.File, rl)
		}
		for _, rl := range rw.File.DataRelocs {
			add(rw.File, rl)
		}
	}
	out := make([]uint32, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
