package core

import (
	"maps"
	"math/rand"
	"testing"

	"emmver/internal/aig"
	"emmver/internal/sat"
)

// TestRandomTrafficAgainstOracle drives random read/write scripts through
// the EMM constraints and checks every forced read value against a plain
// Go map playing the role of the memory (the property-based heart of the
// package: for any access sequence, EMM forwarding must agree with a real
// memory). It runs under both policies, with the eq. 4 chains and with the
// direct eq. 1 encoding, solving through the refine loop, and checks the
// initial words the witness decoder returns against the script.
func TestRandomTrafficAgainstOracle(t *testing.T) {
	for _, v := range []struct {
		name         string
		lazy, direct bool
	}{{"eager", false, false}, {"lazy", true, false}, {"eager-direct", false, true}, {"lazy-direct", true, true}} {
		t.Run(v.name, func(t *testing.T) { randomTrafficAgainstOracle(t, v.lazy, v.direct) })
	}
}

func randomTrafficAgainstOracle(t *testing.T, lazy, direct bool) {
	rng := rand.New(rand.NewSource(20050307))
	for iter := 0; iter < 60; iter++ {
		aw := 1 + rng.Intn(3)
		dw := 1 + rng.Intn(4)
		nw := 1 + rng.Intn(2)
		nr := 1 + rng.Intn(2)
		init := aig.MemZero
		if rng.Intn(2) == 0 {
			init = aig.MemArbitrary
		}
		depth := 2 + rng.Intn(5)
		h := newMemHarness(t, aw, dw, nw, nr, init, false)
		if lazy {
			h.g.EnableLazy()
		}
		if direct {
			h.g.DisableExclusivity()
		}
		h.g.AddUpTo(depth)

		// Script the traffic.
		type wr struct {
			frame, port int
			addr, data  uint64
			en          bool
		}
		type rd struct {
			frame, port int
			addr        uint64
			en          bool
		}
		var writes []wr
		var reads []rd
		var assumps []sat.Lit
		amask := uint64(1)<<uint(aw) - 1
		dmask := uint64(1)<<uint(dw) - 1
		for f := 0; f <= depth; f++ {
			for w := 0; w < nw; w++ {
				ev := wr{frame: f, port: w, addr: rng.Uint64() & amask,
					data: rng.Uint64() & dmask, en: rng.Intn(2) == 1}
				writes = append(writes, ev)
				assumps = append(assumps, h.assumeBit(h.we[w], f, ev.en))
				assumps = append(assumps, h.assumeVec(h.waddr[w], f, ev.addr)...)
				assumps = append(assumps, h.assumeVec(h.wdata[w], f, ev.data)...)
			}
			for r := 0; r < nr; r++ {
				ev := rd{frame: f, port: r, addr: rng.Uint64() & amask, en: rng.Intn(2) == 1}
				reads = append(reads, ev)
				assumps = append(assumps, h.assumeBit(h.re[r], f, ev.en))
				assumps = append(assumps, h.assumeVec(h.raddr[r], f, ev.addr)...)
			}
		}
		if got := h.solve(assumps); got != sat.Sat {
			t.Fatalf("iter %d: scripted traffic must be satisfiable", iter)
		}

		// Oracle: replay the script on a Go map. unwritten collects the
		// initial word each read of a never-written address observed.
		mem := map[uint64]uint64{}
		written := map[uint64]bool{}
		unwritten := map[int]uint64{}
		initVal := func(a uint64) (uint64, bool) {
			if v, ok := mem[a]; ok {
				return v, true
			}
			if init == aig.MemZero {
				return 0, true
			}
			return 0, false // arbitrary: unconstrained
		}
		for f := 0; f <= depth; f++ {
			// Reads see pre-write contents of this frame.
			for _, ev := range reads {
				if ev.frame != f || !ev.en {
					continue
				}
				var got uint64
				for i, l := range h.rdata[ev.port] {
					if h.s.LitValue(h.u.Lit(l, f)) == sat.True {
						got |= 1 << uint(i)
					}
				}
				want, fixed := initVal(ev.addr)
				if fixed && got != want {
					t.Fatalf("iter %d frame %d port %d addr %d: model reads %d, oracle %d (written=%v)",
						iter, f, ev.port, ev.addr, got, want, written[ev.addr])
				}
				if !fixed {
					// Arbitrary-init location: pin the model's choice so
					// later reads must agree (eq. 6).
					mem[ev.addr] = got
				}
				if !written[ev.addr] {
					unwritten[int(ev.addr)] = got
				}
			}
			// Apply this frame's writes (higher port index wins races).
			for _, ev := range writes {
				if ev.frame != f || !ev.en {
					continue
				}
				mem[ev.addr] = ev.data
				written[ev.addr] = true
			}
		}
		if dec := h.g.MemInit(depth)[0]; !maps.Equal(dec, unwritten) {
			t.Fatalf("iter %d: decoded initial words %v, script observed %v", iter, dec, unwritten)
		}
	}
}
