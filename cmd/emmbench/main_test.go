package main

import (
	"slices"
	"strings"
	"testing"
)

// TestRowNames pins the row names of BENCH_solver.json, in order, without
// running any body: CI's bench record and the documents name these rows.
func TestRowNames(t *testing.T) {
	want := []string{
		"Propagate",
		"UnrollStrash/On",
		"UnrollStrash/Off",
		"EMMDepthGrowth/On",
		"EMMDepthGrowth/Off",
		"ReduceDBTiers",
		"GrowthSolve",
		"CompilePipeline/Static",
		"CompilePipeline/Off",
		"CompilePipeline/On",
		"EMMDepthGrowth/Reduction",
		"CompilePipeline/Reduction",
	}
	var got []string
	for _, r := range rows {
		got = append(got, r.name)
	}
	for _, d := range reductions {
		got = append(got, d.name)
	}
	if !slices.Equal(got, want) {
		t.Errorf("rows = %q\nwant   %q", got, want)
	}
}

// TestMeasureFailedBody checks that a body that fails, on its first call
// or in a later calibration round, fails its row by name instead of
// recording a zero result.
func TestMeasureFailedBody(t *testing.T) {
	for _, r := range []row{
		{"Broken/first", func(b *testing.B) { b.Fatal("fails on purpose") }},
		{"Broken/later", func(b *testing.B) {
			if b.N > 1 {
				b.Fatal("fails on purpose")
			}
		}},
	} {
		e, err := measure(r)
		if err == nil || !strings.Contains(err.Error(), r.name) {
			t.Errorf("measure(%s) = %+v, %v; want an error naming the row", r.name, e, err)
		}
	}
}
