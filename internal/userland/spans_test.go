package userland_test

import (
	"strings"
	"testing"

	"systrace/internal/epoxie"
	"systrace/internal/kernel"
	m "systrace/internal/mahler"
	"systrace/internal/obs"
	"systrace/internal/pixie"
	"systrace/internal/trace"
	"systrace/internal/userland"
	"systrace/internal/verify"
	"systrace/internal/workload"
)

// TestBuildSpans records one program build, one traced kernel build,
// the program's pixie count binary and its CFG, and checks the phase
// spans: each build is a root, and every phase opens directly under
// its own build, on the build's goroutine and inside its interval.
func TestBuildSpans(t *testing.T) {
	obs.Reset()
	spec, ok := workload.ByName("sed")
	if !ok {
		t.Fatal("no sed workload")
	}
	p, err := userland.BuildFlow(spec.Name, []*m.Module{spec.Build()}, m.Options{}, epoxie.FlowOn)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kernel.Build(kernel.Config{Flavor: kernel.Ultrix, Traced: true, Flow: epoxie.FlowOn}); err != nil {
		t.Fatal(err)
	}
	if _, err := pixie.RewriteWithBook(p.Orig, pixie.ModeCount, trace.UserTraceVA); err != nil {
		t.Fatal(err)
	}
	if _, err := verify.NewCFG(p.Instr); err != nil {
		t.Fatal(err)
	}

	tl := obs.Timeline()
	byID := map[uint64]obs.SpanInfo{}
	kids := map[uint64][]obs.SpanInfo{}
	var roots []obs.SpanInfo
	for _, s := range tl {
		byID[s.ID] = s
		if s.Open() {
			t.Errorf("span %s left open", s.Name)
		}
		if s.Parent == 0 {
			roots = append(roots, s)
			continue
		}
		kids[s.Parent] = append(kids[s.Parent], s)
		par, ok := byID[s.Parent]
		switch {
		case !ok:
			t.Errorf("span %s: parent %d not recorded before it", s.Name, s.Parent)
		case s.GID != par.GID || s.Depth != par.Depth+1:
			t.Errorf("span %s (goroutine %d, depth %d) not directly under %s (goroutine %d, depth %d)",
				s.Name, s.GID, s.Depth, par.Name, par.GID, par.Depth)
		case s.StartNs < par.StartNs || s.EndNs > par.EndNs:
			t.Errorf("span %s [%d,%d] outside its parent %s [%d,%d]",
				s.Name, s.StartNs, s.EndNs, par.Name, par.StartNs, par.EndNs)
		}
	}

	// shape renders a span's subtree as name(child,child,...).
	var shape func(s obs.SpanInfo) string
	shape = func(s obs.SpanInfo) string {
		var cs []string
		for _, c := range kids[s.ID] {
			cs = append(cs, shape(c))
		}
		if len(cs) == 0 {
			return s.Name
		}
		return s.Name + "(" + strings.Join(cs, ",") + ")"
	}
	var got []string
	for _, r := range roots {
		got = append(got, shape(r))
	}
	const epoxieBuild = "epoxie_build(link,dataflow_analysis,epoxie_rewrite,link)"
	want := []string{
		"userland_build(mahler_compile," + epoxieBuild + ",link)",
		"kernel_build(mahler_compile," + epoxieBuild + ")",
		"pixie_rewrite",
		"verify_cfg",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("span trees:\n got %s\nwant %s", strings.Join(got, "\n     "), strings.Join(want, "\n     "))
	}
}
