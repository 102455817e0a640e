package designs

import (
	"math/rand"
	"testing"

	"emmver/internal/aig"
	"emmver/internal/bmc"
	"emmver/internal/sim"
)

// tinyFilter keeps the line short so witnesses stay shallow.
func tinyFilter() ImageFilterConfig {
	return ImageFilterConfig{LineWidth: 3, AW: 3, DW: 4, NumProps: 16}
}

// streamImage feeds pixels row-major and collects the output after each
// cycle.
func streamImage(f *ImageFilter, img [][]uint64) []uint64 {
	s := sim.New(f.M.N)
	var outs []uint64
	valid := f.M.N.Inputs // resolved below by name
	_ = valid
	var validID aig.NodeID
	var pixelIDs []aig.NodeID
	for _, id := range f.M.N.Inputs {
		name := f.M.N.InputName(id)
		if name == "valid" {
			validID = id
		}
		if len(name) >= 5 && name[:5] == "pixel" {
			pixelIDs = append(pixelIDs, id)
		}
	}
	for _, row := range img {
		for _, px := range row {
			in := map[aig.NodeID]bool{validID: true}
			for b, id := range pixelIDs {
				in[id] = px>>uint(b)&1 == 1
			}
			s.Step(in)
			s.Begin(nil)
			outs = append(outs, s.EvalVec(f.Out))
		}
	}
	return outs
}

func TestFilterComputesSmoothing(t *testing.T) {
	cfg := tinyFilter()
	f := NewImageFilter(cfg)
	w := cfg.LineWidth
	img := [][]uint64{
		{1, 2, 3},
		{4, 5, 6},
		{7, 8, 9},
		{10, 11, 12},
	}
	outs := streamImage(f, img)
	// Output at cycle t reflects the pixel consumed at cycle t-1 (one
	// register of latency). For a pixel at row r ≥ 2, col c, the output
	// is (img[r-2][c] + img[r-1][c] + img[r][c]) / 4.
	for r := 2; r < len(img); r++ {
		for c := 0; c < w; c++ {
			cycle := r*w + c // output registered one cycle after input r*w+c
			want := (img[r-2][c] + img[r-1][c] + img[r][c]) / 4
			if outs[cycle] != want {
				t.Fatalf("row %d col %d: out=%d want %d (all %v)", r, c, outs[cycle], want, outs)
			}
		}
	}
}

func TestFilterOutputZeroWhileUnprimed(t *testing.T) {
	cfg := tinyFilter()
	f := NewImageFilter(cfg)
	img := [][]uint64{{15, 15, 15}, {15, 15, 15}}
	outs := streamImage(f, img)
	for i, o := range outs {
		if o != 0 {
			t.Fatalf("cycle %d: output %d before priming", i, o)
		}
	}
}

func TestFilterMaxOutput(t *testing.T) {
	f := NewImageFilter(tinyFilter())
	if f.MaxOutput != 11 { // 3·15/4
		t.Fatalf("MaxOutput=%d want 11", f.MaxOutput)
	}
	if !f.ExpectedReachable(11) || f.ExpectedReachable(12) {
		t.Fatalf("reachability prediction wrong")
	}
}

func TestFilterReachabilitySplit(t *testing.T) {
	cfg := tinyFilter()
	f := NewImageFilter(cfg)
	res := bmc.CheckManyParallel(f.Netlist(), f.PropIndices(), bmc.Options{
		Engine:   bmc.EngineBMC3,
		MaxDepth: 40,

		ValidateWitness: true,
	}, 1)
	for v := 0; v < cfg.NumProps; v++ {
		r := res.Results[v]
		if f.ExpectedReachable(v) {
			if r.Kind != bmc.KindCE {
				t.Fatalf("out==%d should be reachable, got %v", v, r)
			}
		} else if r.Kind != bmc.KindProof {
			t.Fatalf("out==%d should be proved unreachable, got %v", v, r)
		}
	}
	// High output values need the pipeline primed: depth ≥ 2 lines.
	if res.MaxWitnessDepth < 2*cfg.LineWidth {
		t.Fatalf("max witness depth %d suspiciously shallow", res.MaxWitnessDepth)
	}
	counts := res.Counts()
	if counts[bmc.KindCE] != int(f.MaxOutput)+1 {
		t.Fatalf("CE count %d want %d", counts[bmc.KindCE], f.MaxOutput+1)
	}
}

func TestFilterUnreachableProofIsByInduction(t *testing.T) {
	cfg := tinyFilter()
	f := NewImageFilter(cfg)
	// out == 13 > MaxOutput: backward induction should prove at depth 1
	// (the output register's next value is combinationally bounded).
	r := bmc.Check(f.Netlist(), 13, bmc.Options{Engine: bmc.EngineBMC3, MaxDepth: 10})
	if r.Kind != bmc.KindProof || r.ProofSide != "backward" {
		t.Fatalf("expected backward induction proof, got %v (%s)", r, r.ProofSide)
	}
	if r.Depth > 2 {
		t.Fatalf("induction depth too deep: %d", r.Depth)
	}
}

func TestFilterRandomStreamStaysBounded(t *testing.T) {
	cfg := tinyFilter()
	f := NewImageFilter(cfg)
	s := sim.New(f.M.N)
	rng := rand.New(rand.NewSource(9))
	for c := 0; c < 300; c++ {
		in := s.RandomInputs(rng)
		s.Step(in)
		s.Begin(nil)
		if got := s.EvalVec(f.Out); got > f.MaxOutput {
			t.Fatalf("cycle %d: output %d exceeds bound %d", c, got, f.MaxOutput)
		}
	}
}

func TestDefaultFilterMatchesIndustryI(t *testing.T) {
	cfg := DefaultImageFilter()
	if cfg.AW != 10 || cfg.DW != 8 || cfg.NumProps != 216 {
		t.Fatalf("default config diverges from Industry I: %+v", cfg)
	}
	f := NewImageFilter(cfg)
	st := f.Netlist().Stats()
	if st.Memories != 2 {
		t.Fatalf("Industry I has two memories")
	}
	if f.MaxOutput != 191 {
		t.Fatalf("8-bit smoothing bound must be 191, got %d", f.MaxOutput)
	}
	if len(f.Netlist().Props) != 216 {
		t.Fatalf("expected 216 properties")
	}
}
