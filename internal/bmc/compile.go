package bmc

import (
	"fmt"

	"emmver/internal/aig"
	"emmver/internal/pass"
	"emmver/internal/pba"
)

// compiled carries the output of the static pass pipeline together with
// everything needed to translate engine results back to the source
// netlist's coordinates. The public entry points (CheckCtx,
// CheckManyParallelCtx) compile first (CheckCompiledCtx takes the
// caller's compile), run the engines on the reduced
// netlist, and back-map before returning, so callers only ever see source
// property indices, source node ids in witnesses, and source latch indices
// in PBA trackers.
type compiled struct {
	n        *aig.Netlist
	props    []int
	mp       *pass.Mapping
	src      *aig.Netlist
	srcProps []int
}

// compileModel runs the pipeline selected by opt.Passes. It also rewrites
// opt.abs into compiled coordinates in place (the caller passes its own
// Options copy). An invalid spec is a programmer error — the CLIs validate
// specs before any engine runs — so it panics rather than growing an error
// return on every Check signature.
func compileModel(n *aig.Netlist, props []int, opt *Options) compiled {
	return modelOf(n, props, compileSpec(n, props, *opt), opt)
}

// compileSpec runs the pipeline opt.Passes selects over n for props.
func compileSpec(n *aig.Netlist, props []int, opt Options) *pass.Compiled {
	res, err := pass.Compile(n, props, pass.Options{Spec: opt.Passes, Obs: opt.Obs})
	if err != nil {
		panic("bmc: " + err.Error())
	}
	return res
}

// modelOf wraps res, the pipeline's output for props of n, and rewrites
// opt.abs into its coordinates like compileModel.
func modelOf(n *aig.Netlist, props []int, res *pass.Compiled, opt *Options) compiled {
	c := compiled{n: res.N, props: res.Props, mp: res.Map, src: n, srcProps: props}
	if opt.abs != nil && !res.Map.IsIdentity() {
		opt.abs = mapAbsToCompiled(opt.abs, res.N, res.Map)
	}
	return c
}

// finish translates one engine result from compiled to source coordinates.
func (c compiled) finish(r *Result, srcProp int, opt Options) *Result {
	r.Prop = srcProp
	if c.mp.IsIdentity() {
		return r
	}
	if r.Witness != nil {
		r.Witness = c.mapWitnessToSource(r.Witness)
		// The engine already replayed the compiled-coordinate witness; a
		// second replay on the source netlist validates the back-mapping
		// itself.
		if opt.ValidateWitness && opt.abs == nil {
			if err := r.Witness.Replay(c.src, srcProp); err != nil {
				panic(fmt.Sprintf("bmc: back-mapped witness replay failed: %v", err))
			}
		}
	}
	if r.Tracker != nil {
		r.Tracker = r.Tracker.Remap(
			func(i int) int { return c.mp.SourceLatchIndex(i) },
			func(mi, ri int) (int, int) { return c.mp.SourceMem(mi), c.mp.SourceRead(mi, ri) },
		)
	}
	return r
}

// mapWitnessToSource rewrites a compiled-netlist witness into source node
// ids and memory indices. Inputs and latches the pipeline removed simply
// have no entry — the property cannot depend on them, and the simulator
// defaults absent inputs to false and absent initial latches to their
// reset value.
func (c compiled) mapWitnessToSource(w *Witness) *Witness {
	out := &Witness{Length: w.Length}
	for _, in := range w.Inputs {
		sin := make(map[aig.NodeID]bool, len(in))
		for id, v := range in {
			if sid, ok := c.mp.SourceInput(id); ok {
				sin[sid] = v
			}
		}
		out.Inputs = append(out.Inputs, sin)
	}
	out.InitLatches = make(map[aig.NodeID]bool, len(w.InitLatches))
	for id, v := range w.InitLatches {
		if sid, ok := c.mp.SourceLatch(id); ok {
			out.InitLatches[sid] = v
		}
	}
	out.MemInit = make([]map[int]uint64, len(c.src.Memories))
	for mi := range out.MemInit {
		out.MemInit[mi] = map[int]uint64{}
	}
	for cmi, words := range w.MemInit {
		out.MemInit[c.mp.SourceMem(cmi)] = words
	}
	return out
}

// mapAbsToCompiled translates an abstraction stated on the source netlist
// (the coordinate system all public results use) onto the compiled
// netlist cn. Latches and ports the pipeline pruned have no compiled
// counterpart and drop out of the abstraction.
func mapAbsToCompiled(a *pba.Abstraction, cn *aig.Netlist, mp *pass.Mapping) *pba.Abstraction {
	out := &pba.Abstraction{FreeLatches: make(map[aig.NodeID]bool, len(a.FreeLatches))}
	for id := range a.FreeLatches {
		if cid, ok := mp.CompiledLatch(id); ok {
			out.FreeLatches[cid] = true
		}
	}
	out.KeptLatches = len(cn.Latches) - len(out.FreeLatches)
	enabled := func(s []bool, i int) bool { return i < len(s) && s[i] }
	for cmi, m := range cn.Memories {
		smi := mp.SourceMem(cmi)
		out.MemEnabled = append(out.MemEnabled, enabled(a.MemEnabled, smi))
		reads := make([]bool, len(m.Reads))
		for cri := range reads {
			sri := mp.SourceRead(cmi, cri)
			reads[cri] = smi < len(a.ReadEnabled) && enabled(a.ReadEnabled[smi], sri)
		}
		out.ReadEnabled = append(out.ReadEnabled, reads)
		writes := make([]bool, len(m.Writes))
		for cwi := range writes {
			swi := mp.SourceWrite(cmi, cwi)
			writes[cwi] = smi < len(a.WriteEnabled) && enabled(a.WriteEnabled[smi], swi)
		}
		out.WriteEnabled = append(out.WriteEnabled, writes)
	}
	return out
}
