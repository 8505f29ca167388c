package dataflow

import (
	"fmt"
	"sort"

	"systrace/internal/obj"
)

// This file is the static trace-cost model: a prediction of how much
// trace an instrumented image generates per unit of original work,
// derived purely from the rewritten image and its CFG — no execution.
// Each recorded block emits exactly 1 + |Mem| trace words per entry
// (one bbtrace record plus one word per traced memory reference) and
// reconstructs exactly NInstr original instructions, so the only
// unknown is the execution-frequency mix of the blocks. The model
// estimates that mix structurally: blocks are weighted by loop
// nesting depth (10^min(depth,3)), computed from iterated SCC
// condensation of the intra-procedural CFG. The prediction is
// validated dynamically (internal/experiment's
// TestDrainAndDataflowGates compares its per-block cost table against
// measured trace volume on the corpus), not trusted.

// costDepthCap caps the loop-nesting weight exponent: beyond triply
// nested loops the structural estimate has no more signal.
const costDepthCap = 3

// FuncCost is the per-function slice of the model.
type FuncCost struct {
	Name   string  `json:"name"`
	Blocks int     `json:"blocks"`
	Depth  int     `json:"max_loop_depth"`
	Words  float64 `json:"weighted_trace_words"`
	Instrs float64 `json:"weighted_orig_instrs"`
	// Added is the instrumentation text words added to the function
	// (prologues, trace calls, EA no-ops), a static count.
	Added int `json:"added_instr_words"`
}

// WordsPerInstr is the function's predicted trace words per original
// instruction executed.
func (f *FuncCost) WordsPerInstr() float64 {
	if f.Instrs == 0 {
		return 0
	}
	return f.Words / f.Instrs
}

// CostModel is the static trace-cost prediction for one image (or,
// after Merge, a set of images sharing one trace stream).
type CostModel struct {
	Name string `json:"image"`
	// Blocks is the recorded blocks covered; MaxDepth the deepest
	// loop nesting found (capped at costDepthCap).
	Blocks   int `json:"blocks"`
	MaxDepth int `json:"max_loop_depth"`
	// Words and Instrs are the loop-weighted sums over recorded
	// blocks: Σ w(b)·(1+|Mem(b)|) and Σ w(b)·NInstr(b).
	Words  float64 `json:"weighted_trace_words"`
	Instrs float64 `json:"weighted_orig_instrs"`
	// WeightSum is Σ w(b), the denominator for per-entry averages.
	WeightSum float64 `json:"weight_sum"`
	// AddedInstr is the total instrumentation text words added;
	// OrigInstr the original text words they were added to.
	AddedInstr int `json:"added_instr_words"`
	OrigInstr  int `json:"orig_instr_words"`

	Funcs []FuncCost `json:"funcs,omitempty"`
}

// WordsPerInstr is the headline prediction: trace words emitted per
// original instruction executed. Its dynamic counterpart is
// TraceWords / Parser.Fetches.
func (c *CostModel) WordsPerInstr() float64 {
	if c.Instrs == 0 {
		return 0
	}
	return c.Words / c.Instrs
}

// WordsPerBlock is the predicted trace words per recorded block entry.
func (c *CostModel) WordsPerBlock() float64 {
	if c.WeightSum == 0 {
		return 0
	}
	return c.Words / c.WeightSum
}

// AddedPerInstr is the static code-growth ratio: instrumentation
// words added per original text word.
func (c *CostModel) AddedPerInstr() float64 {
	if c.OrigInstr == 0 {
		return 0
	}
	return float64(c.AddedInstr) / float64(c.OrigInstr)
}

// Merge folds another image's model into this one, as when a kernel
// and a user program feed the same trace stream. Per-function rows
// are concatenated.
func (c *CostModel) Merge(o *CostModel) {
	c.Blocks += o.Blocks
	if o.MaxDepth > c.MaxDepth {
		c.MaxDepth = o.MaxDepth
	}
	c.Words += o.Words
	c.Instrs += o.Instrs
	c.WeightSum += o.WeightSum
	c.AddedInstr += o.AddedInstr
	c.OrigInstr += o.OrigInstr
	c.Funcs = append(c.Funcs, o.Funcs...)
}

// StaticCostTraced builds the model of an epoxie-instrumented image
// with the standard tracing-runtime entries marked transparent and
// the rewriter's relocation-level escape views applied — the same
// front-end configuration the verifier uses.
func StaticCostTraced(e *obj.Executable) (*CostModel, error) {
	if e == nil {
		return nil, fmt.Errorf("dataflow: nil executable")
	}
	return StaticCost(e, TracedExeConfig(e))
}

// StaticCost builds the trace-cost model of one instrumented image.
func StaticCost(e *obj.Executable, cfg ExeConfig) (*CostModel, error) {
	if e == nil || e.Instr == nil {
		return nil, fmt.Errorf("dataflow: cost model needs an instrumented image")
	}
	facts, err := AnalyzeExecutable(e, cfg)
	if err != nil {
		return nil, err
	}
	p := facts.p
	depths := loopDepths(p)
	weights := blockWeights(p, depths)

	c := &CostModel{Name: e.Name}
	perFn := map[string]*FuncCost{}
	for i := range e.Instr.Blocks {
		ib := &e.Instr.Blocks[i]
		eb := e.BlockFor(ib.RecordAddr)
		if eb == nil {
			continue
		}
		depth, w := 0, 1.0
		if bi, ok := p.byKey[uint64(eb.Addr)]; ok {
			depth, w = depths[bi], weights[bi]
		}
		words := float64(1 + len(ib.Mem))
		c.Blocks++
		c.Words += w * words
		c.Instrs += w * float64(ib.NInstr)
		c.WeightSum += w
		if depth > c.MaxDepth {
			c.MaxDepth = depth
		}
		added := int(eb.NInstr) - int(ib.NInstr)
		if added < 0 {
			added = 0
		}
		c.AddedInstr += added
		c.OrigInstr += int(ib.NInstr)

		name := e.FuncName(eb.Addr)
		fc := perFn[name]
		if fc == nil {
			fc = &FuncCost{Name: name}
			perFn[name] = fc
		}
		fc.Blocks++
		fc.Words += w * words
		fc.Instrs += w * float64(ib.NInstr)
		fc.Added += added
		if depth > fc.Depth {
			fc.Depth = depth
		}
	}
	for _, fc := range perFn {
		c.Funcs = append(c.Funcs, *fc)
	}
	sort.Slice(c.Funcs, func(i, j int) bool { return c.Funcs[i].Name < c.Funcs[j].Name })
	return c, nil
}

// costLoopBase is the assumed trip weight of one loop nesting level.
// Inter-procedural refinements (Wu–Larus-style invocation propagation
// over the static call graph) were evaluated against the corpus and
// made the estimate uniformly worse — deep call chains under a cold
// entry point get overweighted — so the mix model is intra-procedural
// loop structure only; see DESIGN.md.
const costLoopBase = 10.0

func weight(depth int) float64 {
	w := 1.0
	if depth > costDepthCap {
		depth = costDepthCap
	}
	for ; depth > 0; depth-- {
		w *= costLoopBase
	}
	return w
}

// blockWeights estimates each block's relative execution frequency
// from its intra-procedural loop nesting depth: costLoopBase^depth.
func blockWeights(p *Program, depths []int) []float64 {
	out := make([]float64, len(p.blocks))
	for i := range p.blocks {
		out[i] = weight(depths[i])
	}
	return out
}

// loopDepths assigns each block its loop-nesting depth by iterated
// SCC condensation: blocks in no cycle are depth 0; each non-trivial
// SCC contributes a nesting level, and removing its header exposes
// the next level. Call edges do not count as successors (a call
// returns), so the depths are intra-procedural.
func loopDepths(p *Program) []int {
	n := len(p.blocks)
	succ := make([][]int, n)
	for i := range p.blocks {
		b := &p.blocks[i]
		switch b.kind {
		case termFall, termCall, termCallUnknown:
			if b.next >= 0 {
				succ[i] = append(succ[i], b.next)
			}
		case termBranch:
			if b.target >= 0 {
				succ[i] = append(succ[i], b.target)
			}
			if b.next >= 0 {
				succ[i] = append(succ[i], b.next)
			}
		case termJump:
			if b.target >= 0 {
				succ[i] = append(succ[i], b.target)
			}
		}
		// termTailCall, termRet, termJumpUnknown: no intra-procedural
		// successor the depth estimate should follow.
	}
	depth := make([]int, n)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	nestSCCs(succ, all, 0, depth)
	return depth
}

// nestSCCs finds non-trivial SCCs within nodes, assigns their members
// depth d+1, and recurses with each SCC's header removed.
func nestSCCs(succ [][]int, nodes []int, d int, depth []int) {
	if d >= costDepthCap {
		return
	}
	in := map[int]bool{}
	for _, v := range nodes {
		in[v] = true
	}
	for _, scc := range tarjan(succ, nodes, in) {
		trivial := len(scc) == 1
		if trivial {
			v := scc[0]
			for _, s := range succ[v] {
				if s == v {
					trivial = false
					break
				}
			}
		}
		if trivial {
			continue
		}
		for _, v := range scc {
			depth[v] = d + 1
		}
		// Drop the header (a member with a predecessor outside the
		// SCC, falling back to the smallest index) and look for inner
		// loops among the rest.
		member := map[int]bool{}
		for _, v := range scc {
			member[v] = true
		}
		header := scc[0]
	find:
		for _, u := range nodes {
			if member[u] {
				continue
			}
			for _, s := range succ[u] {
				if member[s] {
					header = s
					break find
				}
			}
		}
		inner := make([]int, 0, len(scc)-1)
		for _, v := range scc {
			if v != header {
				inner = append(inner, v)
			}
		}
		nestSCCs(succ, inner, d+1, depth)
	}
}

// tarjan returns the strongly connected components of the subgraph
// induced by nodes (iterative, to keep deep CFGs off the Go stack).
func tarjan(succ [][]int, nodes []int, in map[int]bool) [][]int {
	index := map[int]int{}
	low := map[int]int{}
	onStack := map[int]bool{}
	var sccStack []int
	var sccs [][]int
	next := 0

	type frame struct {
		v  int
		si int
	}
	for _, root := range nodes {
		if _, seen := index[root]; seen {
			continue
		}
		frames := []frame{{root, 0}}
		index[root], low[root] = next, next
		next++
		sccStack = append(sccStack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.si < len(succ[f.v]) {
				w := succ[f.v][f.si]
				f.si++
				if !in[w] {
					continue
				}
				if _, seen := index[w]; !seen {
					index[w], low[w] = next, next
					next++
					sccStack = append(sccStack, w)
					onStack[w] = true
					frames = append(frames, frame{w, 0})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := &frames[len(frames)-1]
				if low[f.v] < low[parent.v] {
					low[parent.v] = low[f.v]
				}
			}
			if low[f.v] == index[f.v] {
				var scc []int
				for {
					w := sccStack[len(sccStack)-1]
					sccStack = sccStack[:len(sccStack)-1]
					onStack[w] = false
					scc = append(scc, w)
					if w == f.v {
						break
					}
				}
				sccs = append(sccs, scc)
			}
		}
	}
	return sccs
}
