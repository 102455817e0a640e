package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"emmver/internal/spec"
)

// runMainEnv makes a re-executed test binary run main instead of the tests,
// so each case below exercises the real flag parsing and exit status.
const runMainEnv = "EMMV_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// emmv runs the command with args and returns its exit status and output.
func emmv(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode(), string(out)
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, string(out)
}

// TestExitCodes pins the exit-status contract — 0 when every property is
// PROOF or NO_CE, 1 on a counter-example, 2 for errors and any other
// verdict, never a panic — across every input kind: Verilog, BTOR2, AIGER
// (both written by -export first), and a built-in -design.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	btor := filepath.Join(dir, "growth.btor2")
	aag := filepath.Join(dir, "filter.aag")
	for _, args := range [][]string{
		{"-design", "growth", "-export", btor},
		{"-design", "filter", "-explicit", "-export", aag},
	} {
		if code, out := emmv(t, args...); code != 0 {
			t.Fatalf("emmv %s: exit %d\n%s", strings.Join(args, " "), code, out)
		}
	}
	wedge := filepath.Join("..", "..", "internal", "serve", "testdata", "wedge.v")
	// A memory-free counter: the BDD engine runs on it without -explicit.
	counter := filepath.Join(dir, "counter.v")
	src := "module counter(input clk);\n  reg [3:0] cnt;\n  always @(posedge clk) cnt <= cnt + 4'd1;\n  assert(cnt != 4'd9, \"cnt_ne_9\");\nendmodule\n"
	if err := os.WriteFile(counter, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want int
		out  string // a substring the output must contain ("" = any)
	}{
		{"verilog-proof", []string{"-engine", "bmc3", wedge}, 0, "[rom_reads_zero] PROOF depth=1"},
		{"btor2-proof", []string{"-engine", "bmc3", btor}, 0, "PROOF depth=0"},
		{"aiger-ce", []string{"-engine", "bmc2", "-depth", "12", aag}, 1, "NO_CE depth=12"},
		{"design-ce", []string{"-design", "filter", "-prop", "3", "-engine", "bmc2"}, 1, "[out-ne-3] CE depth=9"},
		{"design-timeout", []string{"-design", "quicksort", "-prop", "p1", "-timeout", "1ns"}, 2, "TIMEOUT depth=0"},
		{"missing-file", []string{filepath.Join(dir, "missing.v")}, 2, "no such file"},
		{"unknown-engine", []string{"-engine", "nope", wedge}, 2, "unknown engine"},
		// The k-induction engine is retired, not an alias of bmc3.
		{"kind-retired", []string{"-engine", "kind", wedge}, 2, `unknown engine "kind"`},
		// bmc1 leaves memory reads free: refused before solving, pointing
		// to the explicit model, instead of a witness-replay panic.
		{"bmc1-memories", []string{"-design", "lookup", "-prop", "0", "-engine", "bmc1", "-depth", "20"}, 2, "expand them first (emmv -explicit)"},
		{"design-pba", []string{"-design", "quicksort", "-n", "3", "-prop", "p2", "-engine", "pba"}, 0, "PROOF depth=28"},
		{"remote-design", []string{"-remote", "unix:" + filepath.Join(dir, "none.sock"), "-design", "growth"}, 2, "-remote"},
		// The server has no BDD engine: -remote must not fall back to a
		// local BDD run.
		{"remote-bdd", []string{"-remote", "unix:" + filepath.Join(dir, "none.sock"), "-engine", "bdd", counter}, 2, "-engine bdd"},
		// The retired fleet flags, the retired -lazy knob (the engine
		// picks the EMM encoding), the retired solver knobs (one solver
		// configuration) and the -no-passes alias (-passes none) are
		// usage errors now.
		{"lazy", []string{"-design", "quicksort", "-lazy"}, 2, "flag provided but not defined: -lazy"},
		{"restart", []string{"-design", "quicksort", "-restart", "luby"}, 2, "flag provided but not defined: -restart"},
		{"no-simplify", []string{"-design", "quicksort", "-no-simplify"}, 2, "flag provided but not defined: -no-simplify"},
		{"no-passes", []string{"-design", "quicksort", "-no-passes"}, 2, "flag provided but not defined: -no-passes"},
		{"share", []string{"-design", "growth", "-jobs", "2", "-share"}, 2, "flag provided but not defined: -share"},
		{"cube", []string{"-design", "growth", "-jobs", "2", "-cube"}, 2, "flag provided but not defined: -cube"},
		{"listen", []string{"-design", "growth", "-listen", "unix:" + filepath.Join(dir, "fleet.sock")}, 2, "flag provided but not defined: -listen"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, out := emmv(t, c.args...)
			if code != c.want || !strings.Contains(out, c.out) || strings.Contains(out, "panic:") {
				t.Errorf("emmv %s: exit %d (want %d; output must contain %q)\n%s",
					strings.Join(c.args, " "), code, c.want, c.out, out)
			}
		})
	}
}

// verdictLine matches a result line, capturing "[name] KIND depth=N" and
// the proof side, if any, around the wall time.
var verdictLine = regexp.MustCompile(`(?m)^  (\[[^\]]+\] [A-Z_]+ depth=\d+) t=\S+( \(\w+\))?$`)

// verdicts returns out's result lines without their wall times.
func verdicts(out string) []string {
	var vs []string
	for _, m := range verdictLine.FindAllStringSubmatch(out, -1) {
		vs = append(vs, m[1]+m[2])
	}
	return vs
}

// TestStatsKeepsVerdicts: -stats only observes. At -jobs 2 a multi-property
// run prints the same verdict lines with and without it, and the -stats run
// adds the per-depth table.
func TestStatsKeepsVerdicts(t *testing.T) {
	args := []string{"-design", "filter", "-jobs", "2"}
	code, plain := emmv(t, args...)
	scode, stats := emmv(t, append(args, "-stats")...)
	want, got := verdicts(plain), verdicts(stats)
	if code != 1 || scode != 1 || len(want) != 16 {
		t.Fatalf("filter: exit %d and %d with %d verdicts, want exit 1 and 16 verdicts\n%s", code, scode, len(want), plain)
	}
	if !slices.Equal(got, want) {
		t.Errorf("-stats changed the verdicts:\n%s\nwithout -stats:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if !strings.Contains(stats, "\ndepth   0: ") || strings.Contains(plain, "\ndepth   0: ") {
		t.Errorf("the per-depth table must appear exactly with -stats:\n%s", stats)
	}
}

// TestEngineUsageNamesEveryEngine: the -engine help text lists every engine
// emmv runs, the request schema's registered engines and emmv's own bdd.
func TestEngineUsageNamesEveryEngine(t *testing.T) {
	code, out := emmv(t, "-h")
	_, after, ok := strings.Cut(out, "\n  -engine string\n")
	if code != 0 || !ok {
		t.Fatalf("emmv -h: exit %d, no -engine flag\n%s", code, out)
	}
	usage, _, _ := strings.Cut(after, "\n")
	for _, name := range append(spec.EngineNames(), "bdd") {
		if !strings.Contains(usage, name+" (") {
			t.Errorf("-engine usage does not name %s: %s", name, usage)
		}
	}
}
