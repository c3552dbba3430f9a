// Package vet statically checks the mobility-soundness of a compiled
// program: that the compiler-emitted metadata every node relies on during
// heterogeneous thread and object migration is mutually consistent.
//
// The paper's whole mechanism depends on invariants nothing at run time can
// re-derive: bus-stop tables must enumerate the same machine-independent
// program points on every ISA (§2.2.1, §3.3), activation and object
// templates must exactly describe the state the kernel marshals (§3.2), and
// the per-stop liveness information must match what the generated code
// actually leaves on the evaluation stack. A violation surfaces only as a
// corrupted thread mid-migration — the dominant failure class reported by
// later heterogeneous-migration systems. This package finds such violations
// at compile (or load) time instead.
//
// Checks are organized as named passes over a codegen.Program:
//
//   - stop-isomorphism: bus-stop tables are pairwise isomorphic across all
//     ISAs, and exit-only stops appear only where the ISA permits them
//     (atomic monitor exit);
//   - pc-alignment: every stop PC decodes to an instruction boundary and
//     follows an instruction of the matching trap class;
//   - liveness-consistency: per-stop temporary depth/kinds, push behaviour
//     and live masks agree with the stack map and liveness vet derives from
//     the IR itself and with the call/syscall signatures;
//   - template-coverage: templates cover every variable slot exactly once
//     with the right kinds, register homes are legal for the ISA, and the
//     saved-register area matches the homes (the marshalling/GC contract);
//   - IR dataflow lints: definite-assignment, unreachable code, dead
//     stores, and monitored-object reentrancy hazards.
//
// vet reads nothing codegen computed: each function's stack maps and
// liveness are facts of the IR (ir.Func.Facts, computed once per function
// and shared read-only with codegen and pta), and vet derives the rest
// from them, once, in its own table that every pass reads.
//
// The metadata passes report errors (a program failing them must not be
// run, let alone migrated); the dataflow lints report warnings.
package vet

import (
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/codegen"
	"repro/internal/ir"
	"repro/internal/pta"
)

// Severity classifies a diagnostic.
type Severity int

// Severities, in increasing order.
const (
	SevInfo Severity = iota
	SevWarning
	SevError
)

// String renders the severity.
func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarning:
		return "warning"
	case SevError:
		return "error"
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// ParseSeverity converts a name ("info", "warning", "error") to a Severity.
func ParseSeverity(name string) (Severity, error) {
	switch name {
	case "info":
		return SevInfo, nil
	case "warning":
		return SevWarning, nil
	case "error":
		return SevError, nil
	}
	return 0, fmt.Errorf("vet: unknown severity %q (have info, warning, error)", name)
}

// Diagnostic is one finding of one pass, with enough locus information to
// point at the offending object, function, architecture and bus stop.
type Diagnostic struct {
	Pass   string
	Sev    Severity
	Object string // object name ("" for program-level findings)
	Func   string // function name within the object ("" if n/a)
	Arch   string // architecture name ("" for machine-independent findings)
	Stop   int    // bus-stop number, or -1
	Msg    string
}

// String renders the diagnostic in the stable single-line form used by the
// CLI and golden tests:
//
//	error: [liveness-consistency] Kilroy.tour [vax] stop 3: ...
func (d Diagnostic) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: [%s] ", d.Sev, d.Pass)
	if d.Func != "" {
		fmt.Fprintf(&b, "%s ", d.Func)
	} else if d.Object != "" {
		fmt.Fprintf(&b, "%s ", d.Object)
	}
	if d.Arch != "" {
		fmt.Fprintf(&b, "[%s] ", d.Arch)
	}
	if d.Stop >= 0 {
		fmt.Fprintf(&b, "stop %d: ", d.Stop)
	}
	b.WriteString(d.Msg)
	return b.String()
}

// MaxSeverity returns the highest severity among diags, or (0, false) when
// diags is empty.
func MaxSeverity(diags []Diagnostic) (Severity, bool) {
	if len(diags) == 0 {
		return 0, false
	}
	m := diags[0].Sev
	for _, d := range diags[1:] {
		if d.Sev > m {
			m = d.Sev
		}
	}
	return m, true
}

// HasErrors reports whether any diagnostic is an error.
func HasErrors(diags []Diagnostic) bool {
	m, ok := MaxSeverity(diags)
	return ok && m >= SevError
}

// Dedup merges diagnostics that differ only in architecture: the per-arch
// metadata passes repeat a systematic finding once per ISA, and reading
// the same message five times helps nobody. Merged findings carry the
// architecture names joined with "," in encounter order; everything else
// (order included) is preserved.
func Dedup(diags []Diagnostic) []Diagnostic {
	type key struct {
		pass   string
		sev    Severity
		object string
		fn     string
		stop   int
		msg    string
	}
	idx := map[key]int{}
	var out []Diagnostic
	for _, d := range diags {
		k := key{d.Pass, d.Sev, d.Object, d.Func, d.Stop, d.Msg}
		if i, ok := idx[k]; ok {
			if d.Arch != "" && !strings.Contains(","+out[i].Arch+",", ","+d.Arch+",") {
				if out[i].Arch == "" {
					out[i].Arch = d.Arch
				} else {
					out[i].Arch += "," + d.Arch
				}
			}
			continue
		}
		idx[k] = len(out)
		out = append(out, d)
	}
	return out
}

// PassInfo names and documents one pass, for CLI listings and docs.
type PassInfo struct {
	Name string
	Doc  string
}

// Passes lists every pass in execution order.
func Passes() []PassInfo {
	return []PassInfo{
		{"stop-isomorphism", "bus-stop tables agree across ISAs; exit-only stops only where the ISA permits"},
		{"pc-alignment", "every stop PC is an instruction boundary after the matching trap instruction"},
		{"liveness-consistency", "per-stop temporaries and push behaviour match a recomputed IR stack map"},
		{"template-coverage", "activation/object templates cover every slot once with the right kinds and homes"},
		{"definite-assignment", "variables are assigned before use"},
		{"unreachable-code", "no unreachable IR instructions"},
		{"dead-store", "no stores to variables that are never subsequently read"},
		{"monitor-reentrancy", "monitored operations do not self-invoke monitored operations (deadlock)"},
		{"ptr-escape", "frame-local references captured into heap locations (fields, elements, results) outlive the activation"},
		{"dead-ptr-at-stop", "pointer locals marshaled at in-loop bus stops that no path reads afterwards (needless swizzling)"},
		{"immobile-reach", "process threads that can reach node-fixed objects (static placement constraint on group migration)"},
	}
}

// checker carries the state of one vet run.
type checker struct {
	prog    *codegen.Program
	diags   []Diagnostic
	pta     *pta.Result
	ptaDone bool
	funcs   map[*codegen.ObjectCode][]funcFacts
}

// funcFacts is what vet reads and derives from one IR function, once per
// run, for every pass and every architecture to read.
type funcFacts struct {
	fi  *ir.FuncInfo // nil when the IR does not verify
	err error        // why it does not
	li  *ir.LiveInfo
	// exp is the stop stream every architecture's table must realize.
	exp []expStop
	// assigned[pc*NumVars+v]: some path reaching pc has assigned slot v
	// (all false where pc is unreachable).
	assigned []bool
}

// mayAssigned reports whether some path reaching pc has assigned slot v of
// f.
func (ff *funcFacts) mayAssigned(f *ir.Func, pc, v int) bool {
	return ff.assigned[pc*f.NumVars+v]
}

func newChecker(p *codegen.Program) *checker {
	return &checker{prog: p, funcs: map[*codegen.ObjectCode][]funcFacts{}}
}

// facts returns the per-function table of oc, indexed like oc.IR.Funcs,
// deriving it from the IR's shared facts on first use.
func (c *checker) facts(oc *codegen.ObjectCode) []funcFacts {
	if t, ok := c.funcs[oc]; ok {
		return t
	}
	t := make([]funcFacts, len(oc.IR.Funcs))
	for i, f := range oc.IR.Funcs {
		fi, li, err := f.Facts(oc.IR.VarKinds)
		if err != nil {
			t[i].err = err
			continue
		}
		t[i] = funcFacts{fi: fi, li: li,
			exp:      expectedStops(f, fi, li, c.prog.Opts.OmitLoopPolls),
			assigned: mayAssignedAt(f, fi)}
	}
	c.funcs[oc] = t
	return t
}

func (c *checker) report(pass string, sev Severity, obj, fn string, archName string, stop int, format string, args ...any) {
	c.diags = append(c.diags, Diagnostic{
		Pass: pass, Sev: sev, Object: obj, Func: fn, Arch: archName, Stop: stop,
		Msg: fmt.Sprintf(format, args...),
	})
}

// Check runs every pass over every object of the program.
func Check(p *codegen.Program) []Diagnostic {
	c := newChecker(p)
	for _, oc := range p.Objects {
		c.checkObject(oc)
	}
	return c.diags
}

func (c *checker) checkObject(oc *codegen.ObjectCode) {
	c.stopIsomorphism(oc)
	c.objectTemplate(oc)
	for id := arch.ID(0); id < arch.NumArch; id++ {
		ac := oc.PerArch[id]
		if ac == nil {
			continue
		}
		c.checkArch(oc, ac, c.prog.Spec(ac.Arch))
	}
	c.lintObject(oc)
	c.ptaObject(oc)
}

// checkArch runs the per-architecture metadata passes over one object.
func (c *checker) checkArch(oc *codegen.ObjectCode, ac *codegen.ArchCode, spec *arch.Spec) {
	c.exitOnlyPlacement(oc, ac, spec)
	c.pcAlignment(oc, ac, spec)
	c.livenessConsistency(oc, ac, spec)
	c.templateCoverage(oc, ac, spec)
}

// VetForLoad checks one object's metadata for loading on one architecture:
// the cross-ISA isomorphism plus every per-arch metadata pass for spec. It
// returns a non-nil error when any error-severity finding exists — the
// kernel's code-load path uses it to refuse programs whose metadata would
// corrupt a migrating thread. Lints are skipped: style findings must not
// stop a load.
func VetForLoad(p *codegen.Program, oc *codegen.ObjectCode, spec *arch.Spec) error {
	c := newChecker(p)
	c.stopIsomorphism(oc)
	c.objectTemplate(oc)
	if ac := oc.PerArch[spec.ID]; ac != nil {
		c.checkArch(oc, ac, spec)
	}
	var nErr int
	var first Diagnostic
	for _, d := range c.diags {
		if d.Sev >= SevError {
			if nErr == 0 {
				first = d
			}
			nErr++
		}
	}
	if nErr > 0 {
		more := ""
		if nErr > 1 {
			more = fmt.Sprintf(" (and %d more)", nErr-1)
		}
		return fmt.Errorf("vet: %s%s", first, more)
	}
	return nil
}
