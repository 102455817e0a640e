package spec

import (
	"flag"
	"fmt"
	"reflect"
	"strings"

	"emmver/internal/pass"
)

// RegisterFlags declares one command-line flag per tagged Spec field on
// fs, bound directly into *s, with *s's current values as the defaults.
// The flag name and help text come from the field's `flag:"..."` and
// `usage:"..."` tags, so the CLIs cannot drift from the schema: adding a
// knob to Spec adds it — with identical spelling, type, and semantics —
// to every tool that calls this. Names in skip are left unregistered (for
// tools whose workload fixes the engine or depth).
//
// The -passes usage line is completed with the live pass registry at call
// time, and the -engine usage line with the engine registry, so the help
// text always lists exactly the passes and engines this build has.
func RegisterFlags(fs *flag.FlagSet, s *Spec, skip ...string) {
	skipped := make(map[string]bool, len(skip))
	for _, name := range skip {
		skipped[name] = true
	}
	v := reflect.ValueOf(s).Elem()
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name := f.Tag.Get("flag")
		if name == "" || skipped[name] {
			continue
		}
		usage := f.Tag.Get("usage")
		switch name {
		case "passes":
			usage = fmt.Sprintf("static compile pipeline: comma-separated passes from %s (default %q), or none",
				strings.Join(pass.Names(), ","), pass.SpecDefault)
		case "engine":
			usage = EngineUsage()
		}
		switch p := v.Field(i).Addr().Interface().(type) {
		case *string:
			fs.StringVar(p, name, *p, usage)
		case *int:
			fs.IntVar(p, name, *p, usage)
		case *bool:
			fs.BoolVar(p, name, *p, usage)
		case *Duration:
			fs.Var(p, name, usage)
		default:
			panic(fmt.Sprintf("spec: field %s has unregistrable flag type %s", f.Name, f.Type))
		}
	}
}

// FlagNames lists the flag names the schema declares, in field order —
// the drift test compares this against what a FlagSet actually carries.
func FlagNames(skip ...string) []string {
	skipped := make(map[string]bool, len(skip))
	for _, name := range skip {
		skipped[name] = true
	}
	var out []string
	t := reflect.TypeOf(Spec{})
	for i := 0; i < t.NumField(); i++ {
		if name := t.Field(i).Tag.Get("flag"); name != "" && !skipped[name] {
			out = append(out, name)
		}
	}
	return out
}
