// The tests live in an external package: core imports kernel, kernel
// imports vet (the load-time gate), so vet's own test files must not
// import core from package vet.
package vet_test

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/busstop"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/vet"
)

func compile(t *testing.T, src string) *codegen.Program {
	t.Helper()
	prog, err := core.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

// mustClean asserts a program has no findings at all.
// mustClean matches the emvet CLI's default bar: warnings and errors fail,
// info-severity findings (e.g. immobile-reach notes on examples that use
// fix deliberately) do not.
func mustClean(t *testing.T, prog *codegen.Program) {
	t.Helper()
	for _, d := range vet.Check(prog) {
		if d.Sev >= vet.SevWarning {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

// passNames collects the distinct pass names among diags.
func passNames(diags []vet.Diagnostic) map[string]bool {
	out := map[string]bool{}
	for _, d := range diags {
		out[d.Pass] = true
	}
	return out
}

// wantPass asserts at least one error-severity finding from the named pass.
func wantPass(t *testing.T, diags []vet.Diagnostic, pass string) {
	t.Helper()
	for _, d := range diags {
		if d.Pass == pass && d.Sev == vet.SevError {
			return
		}
	}
	t.Errorf("no %s error; got %d diagnostics:", pass, len(diags))
	for _, d := range diags {
		t.Errorf("  %s", d)
	}
}

// TestExamplesClean runs every pass over every example program: the shipped
// corpus must be vet-clean on all architectures.
func TestExamplesClean(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "programs", "*.em"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example programs found: %v", err)
	}
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			mustClean(t, compile(t, string(src)))
		})
	}
}

const monitoredSrc = `
object Counter
  monitor
    var n: Int <- 0
    operation bump() -> (r: Int)
      n <- n + 1
      r <- n
    end
  end monitor
end Counter

object Main
  process
    var c: Counter <- new Counter
    print("n=", c.bump())
  end process
end Main
`

// restop rebuilds fc.Stops from a mutated copy of its entries.
func restop(t *testing.T, fc *codegen.FuncCode, mutate func(stops []busstop.Info)) {
	t.Helper()
	stops := fc.Stops.All()
	mutate(stops)
	nt, err := busstop.NewTable(stops)
	if err != nil {
		t.Fatalf("rebuilding corrupted table: %v", err)
	}
	fc.Stops = nt
}

// vaxFunc returns the named object's first function's code for the VAX.
func vaxFunc(t *testing.T, prog *codegen.Program, obj string) *codegen.FuncCode {
	t.Helper()
	oc := prog.Object(obj)
	if oc == nil {
		t.Fatalf("no object %s", obj)
	}
	ac := oc.PerArch[arch.VAX]
	if ac == nil || len(ac.Funcs) == 0 {
		t.Fatalf("no VAX code for %s", obj)
	}
	return ac.Funcs[0]
}

// TestCorruptTempDepth skews one architecture's liveness record for one stop:
// both the cross-ISA isomorphism and the IR recomputation must notice.
func TestCorruptTempDepth(t *testing.T) {
	prog := compile(t, monitoredSrc)
	mustClean(t, prog)
	restop(t, vaxFunc(t, prog, "Counter"), func(stops []busstop.Info) {
		stops[0].TempDepth++
		stops[0].TempKinds = append(stops[0].TempKinds, ir.VKInt)
	})
	diags := vet.Check(prog)
	wantPass(t, diags, "stop-isomorphism")
	wantPass(t, diags, "liveness-consistency")
}

// TestCorruptStopPC moves a stop PC off its instruction boundary. Stop
// kinds and liveness still agree everywhere, so only pc-alignment fires.
func TestCorruptStopPC(t *testing.T) {
	prog := compile(t, monitoredSrc)
	restop(t, vaxFunc(t, prog, "Counter"), func(stops []busstop.Info) {
		stops[len(stops)-1].PC--
	})
	diags := vet.Check(prog)
	wantPass(t, diags, "pc-alignment")
	if names := passNames(diags); names["stop-isomorphism"] {
		t.Errorf("PC skew flagged by stop-isomorphism; PCs are machine-dependent")
	}
}

// TestOutOfOrderStopPC swaps the PCs of two print stops. Both PCs are still
// boundaries after a syscall trap, so the only finding is the order: the
// stop behind the previous one must still be decoded and pass.
func TestOutOfOrderStopPC(t *testing.T) {
	prog := compile(t, `
object Main
  process
    print("a")
    print("b")
  end process
end Main
`)
	proc := prog.Object("Main").PerArch[arch.VAX].Funcs
	restop(t, proc[len(proc)-1], func(stops []busstop.Info) {
		if len(stops) != 2 {
			t.Fatalf("Main has %d stops, want 2", len(stops))
		}
		stops[0].PC, stops[1].PC = stops[1].PC, stops[0].PC
	})
	var got []string
	for _, d := range vet.Check(prog) {
		if d.Pass == "pc-alignment" {
			got = append(got, d.String())
		}
	}
	if len(got) != 1 || !strings.Contains(got[0], "stop 1: pc") || !strings.Contains(got[0], "not after the previous stop's pc") {
		t.Errorf("pc-alignment findings %q, want one order finding at stop 1", got)
	}
}

// TestUndecodableStream hands vet a FuncCode built without a decode whose
// stream ends inside an instruction: pc-alignment decodes the bytes itself
// and reports the stream once, instead of judging its stops.
func TestUndecodableStream(t *testing.T) {
	prog := compile(t, monitoredSrc)
	ac := prog.Object("Counter").PerArch[arch.VAX]
	fc := ac.Funcs[0]
	// Cut the stream one byte into its last instruction longer than a byte.
	cut := len(fc.Code)
	for {
		in, ok := fc.Decoded.EndingAt(uint32(cut))
		if !ok {
			t.Fatalf("%s has no instruction longer than a byte", fc.Name)
		}
		cut -= int(in.Size)
		if in.Size > 1 {
			cut++
			break
		}
	}
	ac.Funcs[0] = &codegen.FuncCode{
		Name: fc.Name, OpName: fc.OpName, Code: fc.Code[:cut], Template: fc.Template,
		Stops: fc.Stops, Strings: fc.Strings, NumInstrs: fc.NumInstrs,
	}
	var got []string
	for _, d := range vet.Check(prog) {
		if d.Pass == "pc-alignment" {
			got = append(got, d.String())
		}
	}
	if len(got) != 1 || !strings.Contains(got[0], "undecodable instruction") {
		t.Errorf("pc-alignment findings %q, want one undecodable-instruction finding", got)
	}
}

// TestByteDecodeAgrees runs vet over every example program, and over one
// with a stop PC off its instruction boundary, twice: reading the compile-time decode, and
// with every FuncCode's Decoded cleared so pc-alignment decodes the bytes.
// The two must report the same diagnostics.
func TestByteDecodeAgrees(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "programs", "*.em"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example programs found: %v", err)
	}
	check := func(t *testing.T, src string, tamper func(*codegen.Program)) {
		t.Helper()
		var runs [2][]vet.Diagnostic
		for i := range runs {
			prog := compile(t, src)
			tamper(prog)
			if i == 1 {
				for _, oc := range prog.Objects {
					for _, ac := range oc.PerArch {
						if ac != nil {
							for _, fc := range ac.Funcs {
								fc.Decoded = nil
							}
						}
					}
				}
			}
			runs[i] = vet.Check(prog)
		}
		if !slices.Equal(runs[0], runs[1]) {
			t.Errorf("decoded walk reported %v, byte walk %v", runs[0], runs[1])
		}
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		check(t, string(src), func(*codegen.Program) {})
	}
	check(t, monitoredSrc, func(prog *codegen.Program) {
		restop(t, vaxFunc(t, prog, "Counter"), func(stops []busstop.Info) {
			stops[len(stops)-1].PC--
		})
		if diags := vet.Check(prog); !passNames(diags)["pc-alignment"] {
			t.Fatalf("skewed stop drew no pc-alignment finding: %v", diags)
		}
	})
}

// TestCorruptExitOnly clears the exit-only flag on the VAX monitor-exit
// stop — exactly the §3.3 atomic-UNLINK invariant.
func TestCorruptExitOnly(t *testing.T) {
	prog := compile(t, monitoredSrc)
	fc := vaxFunc(t, prog, "Counter")
	found := false
	restop(t, fc, func(stops []busstop.Info) {
		for i := range stops {
			if stops[i].ExitOnly {
				stops[i].ExitOnly = false
				found = true
			}
		}
	})
	if !found {
		t.Fatal("no exit-only stop in a monitored VAX function")
	}
	diags := vet.Check(prog)
	wantPass(t, diags, "stop-isomorphism")
	wantPass(t, diags, "liveness-consistency")
}

// TestCorruptActivationTemplate flips a variable home's kind: the
// marshalling contract check must fire.
func TestCorruptActivationTemplate(t *testing.T) {
	prog := compile(t, monitoredSrc)
	fc := vaxFunc(t, prog, "Counter")
	if len(fc.Template.Vars) == 0 {
		t.Fatal("function has no variable homes")
	}
	if fc.Template.Vars[0].Kind == ir.VKInt {
		fc.Template.Vars[0].Kind = ir.VKPtr
	} else {
		fc.Template.Vars[0].Kind = ir.VKInt
	}
	wantPass(t, vet.Check(prog), "template-coverage")
}

// TestCorruptSavedRegs drops a saved register the homes require.
func TestCorruptSavedRegs(t *testing.T) {
	prog := compile(t, monitoredSrc)
	fc := vaxFunc(t, prog, "Counter")
	if len(fc.Template.SavedRegs) == 0 {
		t.Skip("no register-homed variables on the VAX for this function")
	}
	fc.Template.SavedRegs = fc.Template.SavedRegs[:len(fc.Template.SavedRegs)-1]
	wantPass(t, vet.Check(prog), "template-coverage")
}

// TestCorruptObjectTemplate flips an object slot kind.
func TestCorruptObjectTemplate(t *testing.T) {
	prog := compile(t, monitoredSrc)
	oc := prog.Object("Counter")
	if len(oc.Template.Slots) == 0 {
		t.Fatal("Counter has no data slots")
	}
	oc.Template.Slots[0] = ir.VKPtr
	wantPass(t, vet.Check(prog), "template-coverage")
}

// TestVetForLoad exercises the kernel's load gate directly: clean programs
// load, tampered ones are refused with the pass named in the error.
func TestVetForLoad(t *testing.T) {
	prog := compile(t, monitoredSrc)
	oc := prog.Object("Counter")
	for _, spec := range arch.AllSpecs() {
		if err := vet.VetForLoad(prog, oc, spec); err != nil {
			t.Errorf("clean program refused on %s: %v", spec.Name, err)
		}
	}
	restop(t, vaxFunc(t, prog, "Counter"), func(stops []busstop.Info) {
		stops[0].TempDepth++
		stops[0].TempKinds = append(stops[0].TempKinds, ir.VKInt)
	})
	err := vet.VetForLoad(prog, oc, arch.SpecOf(arch.VAX))
	if err == nil {
		t.Fatal("tampered table loaded without complaint")
	}
	if !strings.Contains(err.Error(), "liveness-consistency") &&
		!strings.Contains(err.Error(), "stop-isomorphism") {
		t.Errorf("load error does not name the failing pass: %v", err)
	}
	// Lints must not stop a load: a program with a dead store is legal.
	deadStore := compile(t, `
object Main
  process
    var x: Int <- 1
    x <- 2
    print(x)
  end process
end Main
`)
	if !vet.HasErrors(vet.Check(deadStore)) {
		// It does carry a warning, though.
		if m, ok := vet.MaxSeverity(vet.Check(deadStore)); !ok || m != vet.SevWarning {
			t.Error("dead-store fixture produced no warning")
		}
	}
	for _, spec := range arch.AllSpecs() {
		if err := vet.VetForLoad(deadStore, deadStore.Object("Main"), spec); err != nil {
			t.Errorf("warning-only program refused on %s: %v", spec.Name, err)
		}
	}
}

// TestDiagnosticString pins the CLI/golden line format.
func TestDiagnosticString(t *testing.T) {
	d := vet.Diagnostic{
		Pass: "liveness-consistency", Sev: vet.SevError,
		Object: "Kilroy", Func: "Kilroy.tour", Arch: "vax", Stop: 3, Msg: "boom",
	}
	want := "error: [liveness-consistency] Kilroy.tour [vax] stop 3: boom"
	if got := d.String(); got != want {
		t.Errorf("got %q, want %q", got, want)
	}
	d2 := vet.Diagnostic{Pass: "template-coverage", Sev: vet.SevError, Object: "Kilroy", Stop: -1, Msg: "boom"}
	if got, want := d2.String(), "error: [template-coverage] Kilroy boom"; got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

// TestParseSeverity covers the CLI's threshold parsing.
func TestParseSeverity(t *testing.T) {
	for name, want := range map[string]vet.Severity{
		"info": vet.SevInfo, "warning": vet.SevWarning, "error": vet.SevError,
	} {
		got, err := vet.ParseSeverity(name)
		if err != nil || got != want {
			t.Errorf("ParseSeverity(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := vet.ParseSeverity("fatal"); err == nil {
		t.Error("ParseSeverity accepted an unknown name")
	}
}

// TestPassesListed: every pass that can report must be in the listing.
func TestPassesListed(t *testing.T) {
	listed := map[string]bool{}
	for _, p := range vet.Passes() {
		listed[p.Name] = true
	}
	for _, name := range []string{
		"stop-isomorphism", "pc-alignment", "liveness-consistency",
		"template-coverage", "definite-assignment", "unreachable-code",
		"dead-store", "monitor-reentrancy",
	} {
		if !listed[name] {
			t.Errorf("pass %s missing from Passes()", name)
		}
	}
}
