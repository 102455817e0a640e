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
// Every knob a request can carry — -engine, -depth, -timeout, -jobs and
// -passes — is derived from the internal/spec.Spec field tags via
// spec.RegisterFlags, so the tools expose exactly the schema the emmserved
// job server and the verdict cache speak and cannot drift from it.
type EngineFlags struct {
	// Spec accumulates the parsed schema flags; after flag.Parse it is the
	// verification request the command line describes: the value to submit
	// to a remote server or convert with Options.
	Spec spec.Spec
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
	return f
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
// (unknown -engine or bad -passes value).
func (f *EngineFlags) Options() (bmc.Options, error) {
	return f.Spec.Options()
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
