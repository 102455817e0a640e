// Quickstart: build a tiny design with an embedded memory, find a real
// bug with EMM-based BMC, validate the counter-example on the concrete
// design, then prove a corrected property by induction.
package main

import (
	"fmt"

	"emmver"
)

func main() {
	// A scratchpad memory guarded by a bounds checker. The checker is
	// buggy: it uses <= instead of < for the upper bound, so address 8
	// (one past the last valid slot 7) slips through.
	d := emmver.NewDesign("scratchpad")
	mem := d.Memory("scratch", 4, 8, emmver.MemZero) // 16 words of 8 bits
	addr := d.Input("addr", 4)
	data := d.Input("data", 8)
	wr := d.InputBit("wr")

	limit := d.Const(4, 8)
	inBounds := d.Ule(addr, limit) // BUG: should be Ult
	mem.Write(addr, data, d.N.And(wr, inBounds))

	// Track whether slot 8 (reserved) was ever written.
	hit := d.BitReg("reserved_hit", false)
	hit.UpdateBit(d.N.Ands(wr, inBounds, d.EqConst(addr, 8)), emmver.True)
	d.Done(hit)

	d.AssertAlways("reserved-slot-untouched", hit.Bit().Not())

	// Hunt for a violation with EMM-based BMC (the memory array is never
	// expanded into state bits).
	opt := emmver.Options{Engine: emmver.EngineBMC2, MaxDepth: 20}
	opt.ValidateWitness = true // replay every CE on the concrete design
	res := emmver.Verify(d.N, 0, opt)
	fmt.Println("buggy design:", res)
	if res.Kind == emmver.CounterExample {
		fmt.Printf("  bug reproduced at cycle %d\n", res.Witness.Length)
		for f := 0; f <= res.Witness.Length; f++ {
			fmt.Printf("  cycle %d: %s\n", f, res.Witness.FormatFrame(d.N, f))
		}
	}

	// Fix the comparison and prove the property by SAT-based induction.
	fixed := emmver.NewDesign("scratchpad-fixed")
	mem2 := fixed.Memory("scratch", 4, 8, emmver.MemZero)
	a2 := fixed.Input("addr", 4)
	d2 := fixed.Input("data", 8)
	w2 := fixed.InputBit("wr")
	ok2 := fixed.Ult(a2, fixed.Const(4, 8))
	mem2.Write(a2, d2, fixed.N.And(w2, ok2))
	hit2 := fixed.BitReg("reserved_hit", false)
	hit2.UpdateBit(fixed.N.Ands(w2, ok2, fixed.EqConst(a2, 8)), emmver.True)
	fixed.Done(hit2)
	fixed.AssertAlways("reserved-slot-untouched", hit2.Bit().Not())

	res2 := emmver.Verify(fixed.N, 0, emmver.Options{Engine: emmver.EngineBMC3, MaxDepth: 20})
	fmt.Println("fixed design:", res2)
}
