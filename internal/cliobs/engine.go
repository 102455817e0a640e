package cliobs

import (
	"flag"
	"strings"

	"emmver/internal/aig"
	"emmver/internal/bmc"
	"emmver/internal/pass"
	"emmver/internal/spec"
)

// EngineFlags bundles the engine flags shared by all verification CLIs.
// Every knob a request can carry — -engine, -depth, -timeout, -jobs,
// -passes, -restart and -no-simplify — is derived from the
// internal/spec.Spec field tags via spec.RegisterFlags, so the tools
// expose exactly the schema the emmserved job server and the verdict cache
// speak and cannot drift from it. Only -no-passes (a CLI convenience alias
// for -passes=none) sits outside the request schema and is declared here.
type EngineFlags struct {
	// Spec accumulates the parsed schema flags; after flag.Parse it is the
	// verification request the command line describes.
	Spec spec.Spec

	NoPasses *bool
}

// RegisterEngine declares the shared engine flags on the default flag set
// with the schema's default request (BMC-3, depth 100, 5m budget); call it
// before flag.Parse.
func RegisterEngine() *EngineFlags {
	return RegisterEngineFor(spec.Default())
}

// RegisterEngineFor is RegisterEngine with a caller-chosen seed request
// (its field values become the flag defaults) and an optional list of
// schema flags to leave unregistered, for tools whose workload fixes the
// engine or depth.
func RegisterEngineFor(def spec.Spec, skip ...string) *EngineFlags {
	f := &EngineFlags{Spec: def}
	spec.RegisterFlags(flag.CommandLine, &f.Spec, skip...)
	f.NoPasses = flag.Bool("no-passes", false, "disable the static compile pipeline (same as -passes=none)")
	return f
}

// Request resolves the convenience aliases (-no-passes) into the parsed
// Spec and returns the resulting request. Call it after flag.Parse; it is
// the value to submit to a remote server or convert with Spec.Options.
func (f *EngineFlags) Request() spec.Spec {
	s := f.Spec
	if f.NoPasses != nil && *f.NoPasses {
		s.Passes = pass.SpecNone
	}
	return s
}

// PassSpec resolves -passes/-no-passes to the pipeline spec string for
// bmc.Options.Passes / pass.Options.Spec.
func (f *EngineFlags) PassSpec() string {
	return f.Request().Canonical().Passes
}

// DescribeCompile runs the static pipeline once over n for the given
// property set and returns a one-line reduction summary, or "" when the
// pipeline is disabled, invalid, or removes nothing. Engines re-run the
// pipeline internally; this exists only so CLIs can report what it will
// do before the (much longer) solve starts.
func DescribeCompile(n *aig.Netlist, props []int, spec string) string {
	c, err := pass.Compile(n, props, pass.Options{Spec: spec})
	if err != nil {
		return ""
	}
	return c.Summary()
}

// Options converts the parsed request into the engine configuration it
// denotes, via the one Spec → bmc.Options path. The error is user-facing
// (unknown -engine, bad -restart or -passes value).
func (f *EngineFlags) Options() (bmc.Options, error) {
	return f.Request().Options()
}

// ParseNetAddr splits a server address flag into the (network, address)
// pair net.Listen/net.Dial expect: an explicit "unix:" or "tcp:" prefix
// wins, a value containing a path separator is a unix socket, anything else
// is a TCP host:port.
func ParseNetAddr(s string) (network, addr string) {
	switch {
	case strings.HasPrefix(s, "unix:"):
		return "unix", s[len("unix:"):]
	case strings.HasPrefix(s, "tcp:"):
		return "tcp", s[len("tcp:"):]
	case strings.Contains(s, "/"):
		return "unix", s
	default:
		return "tcp", s
	}
}
