// The run-description surface: Options is kernel.Config, its zero value is
// the shipped system, and RegisterFlags/Resolve is the one command-line
// spelling of it. The command lines below are the ones `make ci` used to
// spell in shell (chaos-smoke, dir-smoke, par-smoke, auto-smoke); here they
// take the path every driver takes, under tier-1 `go test`.
package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/obs"
)

var repoRoot = filepath.Join("..", "..")

// chaosSmokePlan is the seeded plan of the chaos and directory smokes: 5%
// drops, duplicates, delays, corruption and a mid-tour crash/restart of
// node 2.
const chaosSmokePlan = "seed=7,drop=0.05,dup=0.03,delay=0.05:500us,corrupt=0.02,crash=2@76ms:156ms"

// runCommandLine runs `emrun <line>`: flags through RegisterFlags and
// Resolve, then the named program (a path from the repo root) through
// RunSource. -auto-log is emrun's own output flag; it shapes nothing.
func runCommandLine(t *testing.T, line string) *System {
	t.Helper()
	flags := flag.NewFlagSet("emrun", flag.ContinueOnError)
	rf := RegisterFlags(flags)
	flags.Bool("auto-log", false, "")
	if err := flags.Parse(strings.Fields(line)); err != nil {
		t.Fatalf("%s: %v", line, err)
	}
	machines, opts, err := rf.Resolve()
	if err != nil {
		t.Fatalf("%s: %v", line, err)
	}
	src, err := os.ReadFile(filepath.Join(repoRoot, flags.Arg(0)))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := RunSource(string(src), machines, opts)
	if err != nil {
		t.Fatalf("%s: %v", line, err)
	}
	return sys
}

func TestCommandLines(t *testing.T) {
	kilroy := "examples/programs/kilroy.em"
	lines := []struct {
		args   string // emrun's command line, program path last
		golden string // decision-log golden; "" compares output with the flag-free run
	}{
		{"-chaos " + chaosSmokePlan + " " + kilroy, ""},
		{"-dir 3 " + kilroy, ""},
		{"-dir 3 -dir-lease 2000000 " + kilroy, ""},
		{"-dir 3 -chaos " + chaosSmokePlan + " " + kilroy, ""},
		{"-auto greedy-colocate -auto-log examples/programs/zipf_hot.em", "testdata/auto_greedy.golden"},
		{"-auto load-balance -auto-log examples/programs/fixed_pool.em", "testdata/auto_lb.golden"},
	}
	progs, err := filepath.Glob(filepath.Join(repoRoot, "examples", "programs", "*.em"))
	if err != nil || len(progs) == 0 {
		t.Fatalf("no example programs found: %v", err)
	}
	for _, p := range progs {
		lines = append(lines, struct{ args, golden string }{"-parallel examples/programs/" + filepath.Base(p), ""})
	}
	for _, l := range lines {
		t.Run(l.args, func(t *testing.T) {
			sys := runCommandLine(t, l.args)
			if l.golden != "" {
				var log strings.Builder
				for _, d := range sys.AutoDecisionLog() {
					log.WriteString("auto: " + d + "\n")
				}
				want, err := os.ReadFile(filepath.Join(repoRoot, l.golden))
				if err != nil {
					t.Fatal(err)
				}
				if log.String() != string(want) {
					t.Errorf("decision log drifted from %s:\ngot:\n%swant:\n%s", l.golden, log.String(), want)
				}
				return
			}
			prog := l.args[strings.LastIndexByte(l.args, ' ')+1:]
			src, err := os.ReadFile(filepath.Join(repoRoot, prog))
			if err != nil {
				t.Fatal(err)
			}
			plain, err := RunSource(string(src), Figure1Network(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := sys.Output(), plain.Output(); got != want || want == "" {
				t.Errorf("output differs from the flag-free run:\ngot:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestNoFlagsIsZeroOptions: an empty command line is the Figure 1 network
// and the zero Options — what every flag-free literal in the tests, the
// studies and the benchmark runs.
func TestNoFlagsIsZeroOptions(t *testing.T) {
	flags := flag.NewFlagSet("emrun", flag.ContinueOnError)
	rf := RegisterFlags(flags)
	if err := flags.Parse(nil); err != nil {
		t.Fatal(err)
	}
	machines, opts, err := rf.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(machines, Figure1Network()) {
		t.Errorf("default -net = %v, want the Figure 1 network", machines)
	}
	if !reflect.DeepEqual(opts, Options{}) {
		t.Errorf("flag-free Options = %+v, want the zero value", opts)
	}
}

// TestResolveDiagnostics: bad values are errors, an out-of-range -dir is
// clamped with a diagnostic, and the control arms have no flag.
func TestResolveDiagnostics(t *testing.T) {
	resolve := func(args ...string) (Options, string, error) {
		var out bytes.Buffer
		flags := flag.NewFlagSet("emtrace", flag.ContinueOnError)
		flags.SetOutput(&out)
		rf := RegisterFlags(flags)
		if err := flags.Parse(args); err != nil {
			return Options{}, out.String(), err
		}
		_, opts, err := rf.Resolve()
		return opts, out.String(), err
	}
	for _, bad := range [][]string{
		{"-net", "sparc,pdp11"}, {"-mode", "turbo"}, {"-chaos", "drop=2"},
		{"-nosharpen"}, {"-dir-nogroup"},
	} {
		if _, _, err := resolve(bad...); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}
	opts, diag, err := resolve("-net", "sparc,vax", "-dir", "9")
	if err != nil {
		t.Fatal(err)
	}
	if opts.DirReplicas != 2 || !strings.Contains(diag, "emtrace: -dir: 9 replicas exceed the 2-node cluster") {
		t.Errorf("-dir 9 on two nodes: DirReplicas=%d, diagnostics %q", opts.DirReplicas, diag)
	}
}

// TestRunFlagsDeclaredOnce walks the FlagSet RegisterFlags fills and fails
// if any non-test file other than flags.go defines a flag of one of those
// names: a run-shaping flag has one declaration, shared by every driver.
func TestRunFlagsDeclaredOnce(t *testing.T) {
	flags := flag.NewFlagSet("", flag.ContinueOnError)
	RegisterFlags(flags)
	runFlag := map[string]bool{}
	flags.VisitAll(func(f *flag.Flag) { runFlag[f.Name] = true })
	if len(runFlag) != 9 {
		t.Errorf("%d run flags; DESIGN.md's Configuration table lists 9", len(runFlag))
	}
	definers := map[string]bool{
		"String": true, "StringVar": true, "Bool": true, "BoolVar": true, "Int": true, "IntVar": true,
		"Int64": true, "Int64Var": true, "Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true,
		"Float64": true, "Float64Var": true, "Duration": true, "DurationVar": true, "Func": true, "Var": true,
	}
	fset := token.NewFileSet()
	inspect := func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		if rel, _ := filepath.Rel(repoRoot, path); rel == filepath.Join("internal", "core", "flags.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !definers[sel.Sel.Name] {
				return true
			}
			for _, arg := range call.Args {
				lit, ok := arg.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					continue
				}
				if name, _ := strconv.Unquote(lit.Value); runFlag[name] {
					t.Errorf("%s: run flag -%s defined outside core.RegisterFlags", fset.Position(call.Pos()), name)
				}
				break // only the first string literal can be the flag's name
			}
			return true
		})
		return nil
	}
	// Only the source directories: walking the whole checkout would make
	// the test's cached result depend on .git and on CI output files.
	for _, dir := range []string{"cmd", "internal", "tools", "examples"} {
		if err := filepath.WalkDir(filepath.Join(repoRoot, dir), inspect); err != nil {
			t.Fatal(err)
		}
	}
}

// TestZeroConfigIsShippedSystem pins "zero value = shipped system": the
// kilroy tour on the Figure 1 network under Options{} and under the values
// the parent's default-config constructor spelled out must agree byte for byte,
// and both must still read what the parent commit (6dc1cc2) read.
func TestZeroConfigIsShippedSystem(t *testing.T) {
	const (
		parentSimMS  = 228.022
		parentEvents = 48
		parentLog    = "db43eab5850887e56204f551b5cd180032d5e8d153da229913ffb41d69276c20"
		parentMem    = "c4e57a8d08929d9839146e53ddceef5e6edfe3b510670841ec3c22f7426952cd"
	)
	src := kilroySource(t)
	spelled := Options{
		Mode:        kernel.ModeEnhanced,
		Costs:       kernel.DefaultCosts(),
		MemBytes:    8 << 20,
		SliceInstrs: 200000,
	}
	for name, opts := range map[string]Options{"zero": {}, "spelled-out": spelled} {
		sys, err := RunSource(src, Figure1Network(), opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		log := sha256.Sum256(obs.EventLog(sys.Recorder()))
		mem := sha256.New()
		// Node.Mem is as long as the run needed; the parent preallocated
		// MemBytes, so its hash is of each image zero-extended to that.
		for _, n := range sys.Cluster.Nodes {
			mem.Write(n.Mem)
			mem.Write(make([]byte, sys.Cluster.MemBytes-len(n.Mem)))
		}
		if got := sys.ElapsedMS(); got != parentSimMS {
			t.Errorf("%s: sim_ms = %v, parent read %v", name, got, parentSimMS)
		}
		if got := sys.Cluster.Sim.Events(); got != parentEvents {
			t.Errorf("%s: %d simulation events, parent ran %d", name, got, parentEvents)
		}
		if got := hex.EncodeToString(log[:]); got != parentLog {
			t.Errorf("%s: event log sha256 %s, parent's %s", name, got, parentLog)
		}
		if got := hex.EncodeToString(mem.Sum(nil)); got != parentMem {
			t.Errorf("%s: memory images sha256 %s, parent's %s", name, got, parentMem)
		}
		if !reflect.DeepEqual(sys.Cluster.Config, spelled) {
			t.Errorf("%s: config in force = %+v, want the spelled-out defaults", name, sys.Cluster.Config)
		}
	}
}

// TestConfigTableListsEveryField holds DESIGN.md §17's knob table to
// kernel.Config: the field names in the table's first column must be
// exactly the struct's fields, so a field cannot be added, or linger,
// without its row saying who sets it.
func TestConfigTableListsEveryField(t *testing.T) {
	design, err := os.ReadFile(filepath.Join(repoRoot, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(design), "\n## 17. Configuration\n")
	if !ok {
		t.Fatal("DESIGN.md has no §17 Configuration")
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	name := regexp.MustCompile("`([A-Za-z]+)`")
	listed := map[string]bool{}
	for _, line := range strings.Split(sec, "\n") {
		if !strings.HasPrefix(line, "| ") {
			continue
		}
		first := strings.Split(line, "|")[1]
		for _, m := range name.FindAllStringSubmatch(first, -1) {
			if listed[m[1]] {
				t.Errorf("§17 lists %s twice", m[1])
			}
			listed[m[1]] = true
		}
	}
	fields := map[string]bool{}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(kernel.Config{})) {
		fields[f.Name] = true
		if !listed[f.Name] {
			t.Errorf("kernel.Config.%s has no row in DESIGN.md §17", f.Name)
		}
	}
	for name := range listed {
		if !fields[name] {
			t.Errorf("DESIGN.md §17 lists %s, which is not a kernel.Config field", name)
		}
	}
}
