// Package serve is the verification-as-a-service layer: a long-running
// job server that accepts netlists over HTTP/JSON, runs them through the
// engines on a bounded worker pool, streams live progress as JSONL, and
// memoizes verdicts in a content-addressed cache.
//
// The cache is keyed by *meaning*, not by bytes: a submission is parsed,
// run through the static compile pipeline its request names, and the
// resulting netlist is hashed structurally (names excluded) together with
// the request's semantic fields (engine, passes — spec.FamilyKey). Two
// submissions that differ in formatting, signal names, or structure the
// pipeline removes land on the same cache family; verdicts flow between
// them. Within a family the depth dimension is exploited monotonically: a
// PROOF answers every depth, a counter-example at depth d answers every
// depth >= d, and a NO_CE frontier at depth k answers shallower requests
// outright and warm-starts deeper ones from k+1 (bmc.Options.StartDepth).
package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"sort"

	"emmver/internal/aig"
)

// SourceKey identifies the submission as written: the format, the Verilog
// top module and elaboration parameters, the property index, and the raw
// source bytes. Witnesses are expressed in the source netlist's node
// coordinates, so a cached witness is only returned to requests with a
// matching SourceKey; the verdict itself flows on the structural keys
// below. The same bytes elaborated with other parameters are another
// netlist, so the parameters are hashed too, in sorted name order.
func SourceKey(format, top string, params map[string]uint64, prop int, src []byte) string {
	h := sha256.New()
	h.Write([]byte("emmver-source-v2|" + format + "|" + top + "|"))
	names := make([]string, 0, len(params))
	for name := range params {
		names = append(names, name)
	}
	sort.Strings(names)
	writeInt(h, len(names))
	for _, name := range names {
		writeInt(h, len(name))
		h.Write([]byte(name))
		writeInt(h, int(params[name]))
	}
	writeInt(h, prop)
	h.Write(src)
	return hex.EncodeToString(h.Sum(nil))
}

// NetlistKey is the canonical structural hash of a compiled netlist with
// respect to one property: every node (kind and fanins), the input and
// latch declarations, the full memory geometry (ports, initialization,
// image), the environment constraints, and the property literal. Names do
// not participate — renaming signals cannot miss the cache — and neither
// do other properties of the same design, so two designs sharing the
// logic cone of the submitted property hash equal after the compile
// pipeline prunes the rest.
func NetlistKey(n *aig.Netlist, props []int) string {
	h := sha256.New()
	h.Write([]byte("emmver-netlist-v1"))
	writeInt(h, n.NumNodes())
	for id := 0; id < n.NumNodes(); id++ {
		nd := n.NodeAt(aig.NodeID(id))
		writeInt(h, int(nd.Kind), int(nd.F0), int(nd.F1))
	}
	writeInt(h, len(n.Inputs))
	for _, id := range n.Inputs {
		writeInt(h, int(id))
	}
	writeInt(h, len(n.Latches))
	for _, l := range n.Latches {
		writeInt(h, int(l.Node), int(l.Next), int(l.Init))
	}
	writeInt(h, len(n.Memories))
	for _, m := range n.Memories {
		writeInt(h, m.AW, m.DW, int(m.Init))
		if m.Init == aig.MemImage {
			writeInt(h, len(m.Image))
			for _, w := range m.Image {
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], w)
				h.Write(b[:])
			}
		}
		writeInt(h, len(m.Writes))
		for _, wp := range m.Writes {
			writeLits(h, wp.Addr)
			writeLits(h, wp.Data)
			writeInt(h, int(wp.En))
		}
		writeInt(h, len(m.Reads))
		for _, rp := range m.Reads {
			writeLits(h, rp.Addr)
			writeInt(h, int(rp.En))
			writeInt(h, len(rp.Data))
			for _, d := range rp.Data {
				writeInt(h, int(d))
			}
		}
	}
	writeInt(h, len(n.Constraints))
	for _, c := range n.Constraints {
		writeInt(h, int(c))
	}
	writeInt(h, len(props))
	for _, pi := range props {
		writeInt(h, int(n.Props[pi].OK))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeInt(h hash.Hash, vs ...int) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
		h.Write(b[:])
	}
}

func writeLits(h hash.Hash, ls []aig.Lit) {
	writeInt(h, len(ls))
	for _, l := range ls {
		writeInt(h, int(l))
	}
}
