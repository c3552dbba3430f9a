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
	"errors"
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
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
// RunSource, whose error it returns. -auto-log is emrun's own output flag;
// it shapes nothing.
func runCommandLine(t *testing.T, line string) (*System, error) {
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
	return RunSource(string(src), machines, opts)
}

const kilroy = "examples/programs/kilroy.em"

// commandLines are emrun command lines TestCommandLines runs, and
// FuzzResolve's seeds.
type commandLine struct {
	args   string // emrun's command line, program path last
	golden string // decision-log golden; "" compares output with the flag-free run
	prefix string // when set, what the output begins with instead
	fault  error  // when set, the error the run must end in instead
}

var commandLines = []commandLine{
	{"-chaos " + chaosSmokePlan + " " + kilroy, "", "", nil},
	{"-dir 3 " + kilroy, "", "", nil},
	{"-dir 3 -dir-lease 2000000 " + kilroy, "", "", nil},
	{"-dir 3 -chaos " + chaosSmokePlan + " " + kilroy, "", "", nil},
	{"-auto greedy-colocate -auto-log examples/programs/zipf_hot.em", "testdata/auto_greedy.golden", "", nil},
	{"-auto load-balance -auto-log examples/programs/fixed_pool.em", "testdata/auto_lb.golden", "", nil},
	// The ball's move back reached its source before the directory let
	// the outbound move commit: the object and its thread were lost.
	{"-chaos seed=7 -dir 3 -net vax,vax,vax examples/programs/pingpong.em", "",
		"ms per round trip (two thread moves): ", nil},
	// Node 2 crashes for good while a client's call is on its way there:
	// the caller fails with ErrNodeDown, with the directory as without it.
	// With it, the call reaches node 2 through a forwarder, node 0, and the
	// caller must follow the forward to notice node 2 is down.
	{"-chaos seed=1,crash=2@76ms examples/programs/zipf_hot.em", "", "", kernel.ErrNodeDown},
	{"-chaos seed=1,crash=2@76ms -dir 3 examples/programs/zipf_hot.em", "", "", kernel.ErrNodeDown},
	// A call forwarded twice, 1 -> 2 -> 3, whose host crashes for good
	// while it runs: the caller, on node 0, must hear where its call went
	// and fail when node 3 is suspected, with the directory as without it.
	{"-chaos " + strandPlan + " -net sparc,sparc,sparc,sparc " + strand, "", "", kernel.ErrNodeDown},
	{"-chaos " + strandPlan + " -dir 3 -net sparc,sparc,sparc,sparc " + strand, "", "", kernel.ErrNodeDown},
	// The same call, its host crashing at 1.5 s, after the last event that
	// kept the run alive: node 0's heartbeat must stay strong until it
	// suspects node 3, or the run ends with the call still blocked.
	{"-chaos " + strandLatePlan + " -net sparc,sparc,sparc,sparc " + strand, "", "", kernel.ErrNodeDown},
	{"-chaos " + strandLatePlan + " -dir 3 -net sparc,sparc,sparc,sparc " + strand, "", "", kernel.ErrNodeDown},
	// The same chain, but node 3 is down before node 0 asks where the
	// object is: the locate's chase must fail, not wait for ever.
	{"-chaos " + locateStrandPlan + " -net sparc,sparc,sparc,sparc " + locateStrand, "", "", kernel.ErrNodeDown},
	{"-chaos " + locateStrandPlan + " -dir 3 -net sparc,sparc,sparc,sparc " + locateStrand, "", "", kernel.ErrNodeDown},
	// An object moves under a chaos plan while a thread inside it is
	// blocked: in a remote call, with the call's Return landing before the
	// move commits, on a condition, at the monitor's entry, and on another
	// object's move. Each prints
	// what it prints without faults, with the directory as without it.
	{"-chaos seed=1 -net sparc,sparc,sparc " + custodyCall, "", "", nil},
	{"-chaos seed=1 -dir 3 -net sparc,sparc,sparc " + custodyCall, "", "", nil},
	{"-chaos seed=1 -net sparc,sparc,sparc " + custodyWindow, "", "", nil},
	{"-chaos seed=1 -dir 3 -net sparc,sparc,sparc " + custodyWindow, "", "", nil},
	{"-chaos seed=1 -net sparc,sparc,sparc " + custodyWait, "", "", nil},
	{"-chaos seed=1 -dir 3 -net sparc,sparc,sparc " + custodyWait, "", "", nil},
	{"-chaos seed=1 -net sparc,sparc,sparc " + custodyEntry, "", "", nil},
	{"-chaos seed=1 -dir 3 -net sparc,sparc,sparc " + custodyEntry, "", "", nil},
	{"-chaos seed=1 -net sparc,sparc,sparc " + custodyLocal, "", "", nil},
	{"-chaos seed=1 -dir 3 -net sparc,sparc,sparc " + custodyLocal, "", "", nil},
	// The move's source crashes inside the move's commit window, so the
	// commit timer fires while the source is down, and the restart re-arms
	// it.
	{"-chaos seed=1,crash=0@390ms:1500ms -net sparc,sparc,sparc " + custodyWindow, "", "", nil},
	{"-chaos seed=1,crash=0@390ms:1500ms -dir 3 -net sparc,sparc,sparc " + custodyWindow, "", "", nil},
	// The moved call's callee crashes for good: the call's new node
	// suspects it and fails the call.
	{"-chaos seed=1,crash=1@1000ms -net sparc,sparc,sparc " + custodyCall, "", "", kernel.ErrNodeDown},
	{"-chaos seed=1,crash=1@1000ms -dir 3 -net sparc,sparc,sparc " + custodyCall, "", "", kernel.ErrNodeDown},
}

// The moves of internal/core/testdata with a blocked thread aboard.
const (
	custodyCall   = "internal/core/testdata/custody_call.em"
	custodyWindow = "internal/core/testdata/custody_window.em"
	custodyWait   = "internal/core/testdata/custody_wait.em"
	custodyEntry  = "internal/core/testdata/custody_entry.em"
	custodyLocal  = "internal/core/testdata/custody_local.em"
)

// The two-forward chains of internal/core/testdata: node 3 crashes for good
// 0.5 s into strand's 2 s call, and 0.4 s before locate_strand's locate.
const (
	strand           = "internal/core/testdata/strand.em"
	strandPlan       = "seed=1,hb=20ms,suspect=100ms,crash=3@1s"
	strandLatePlan   = "seed=1,hb=20ms,suspect=100ms,crash=3@1500ms"
	locateStrand     = "internal/core/testdata/locate_strand.em"
	locateStrandPlan = "seed=1,hb=20ms,suspect=100ms,crash=3@600ms"
)

func TestCommandLines(t *testing.T) {
	for _, l := range commandLines {
		t.Run(l.args, func(t *testing.T) {
			sys, err := runCommandLine(t, l.args)
			if err != nil || l.fault != nil {
				if !errors.Is(err, l.fault) {
					t.Fatalf("run ended in %v, want %v", err, l.fault)
				}
				return
			}
			if l.golden != "" {
				var log strings.Builder
				for _, d := range sys.Cluster.AutoDecisionLog() {
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
			if l.prefix != "" {
				if got := sys.Output(); !strings.HasPrefix(got, l.prefix) {
					t.Errorf("output = %q, want it to begin %q", got, l.prefix)
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
	// -parallel chose the deleted parallel engine: a script that still
	// passes it must stop at flag parsing, whatever the program, rather
	// than run as though the engine were there.
	progs, err := filepath.Glob(filepath.Join(repoRoot, "examples", "programs", "*.em"))
	if err != nil || len(progs) == 0 {
		t.Fatalf("no example programs found: %v", err)
	}
	for _, p := range progs {
		line := "-parallel examples/programs/" + filepath.Base(p)
		t.Run(line, func(t *testing.T) {
			flags := flag.NewFlagSet("emrun", flag.ContinueOnError)
			flags.SetOutput(io.Discard)
			RegisterFlags(flags)
			if err := flags.Parse(strings.Fields(line)); err == nil || !strings.Contains(err.Error(), "not defined: -parallel") {
				t.Fatalf("parsing %q: %v, want -parallel refused as undefined", line, err)
			}
		})
	}
}

// FuzzResolve: whatever -net, -mode, -chaos and -dir say, the flags fail
// to parse, Resolve returns an error, or kernel.NewCluster turns what it
// resolves into a cluster or an error — never a panic. The seeds are
// commandLines' settings of the four flags.
func FuzzResolve(f *testing.F) {
	for _, l := range commandLines {
		flags := flag.NewFlagSet("emrun", flag.ContinueOnError)
		rf := RegisterFlags(flags)
		flags.Bool("auto-log", false, "")
		if err := flags.Parse(strings.Fields(l.args)); err != nil {
			f.Fatalf("%s: %v", l.args, err)
		}
		f.Add(rf.net, rf.mode, rf.chaos, strconv.Itoa(rf.opts.DirReplicas))
	}
	src, err := os.ReadFile(filepath.Join(repoRoot, kilroy))
	if err != nil {
		f.Fatal(err)
	}
	prog, err := Compile(string(src))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, net, mode, chaos, dir string) {
		flags := flag.NewFlagSet("fuzz", flag.ContinueOnError)
		flags.SetOutput(io.Discard)
		rf := RegisterFlags(flags)
		if flags.Parse([]string{"-net", net, "-mode", mode, "-chaos", chaos, "-dir", dir}) != nil {
			return
		}
		machines, opts, err := rf.Resolve()
		if err != nil || len(machines) > 64 { // every node costs its memory image
			return
		}
		if c, err := kernel.NewCluster(prog, machines, opts); c == nil && err == nil {
			t.Fatalf("-net %q -mode %q -chaos %q -dir %q: NewCluster returned neither a cluster nor an error", net, mode, chaos, dir)
		}
	})
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
		flags := flag.NewFlagSet("emrun", flag.ContinueOnError)
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
	if opts.DirReplicas != 2 || !strings.Contains(diag, "emrun: -dir: 9 replicas exceed the 2-node cluster") {
		t.Errorf("-dir 9 on two nodes: DirReplicas=%d, diagnostics %q", opts.DirReplicas, diag)
	}
}

// TestRunFlagsDeclaredOnce walks the FlagSet RegisterFlags fills. Its names
// must be exactly the -flag names in the Flag column of DESIGN.md §17, and
// the test fails if any non-test file other than flags.go defines a flag of
// one of those names: a run-shaping flag has one declaration, shared by
// every driver.
func TestRunFlagsDeclaredOnce(t *testing.T) {
	flags := flag.NewFlagSet("", flag.ContinueOnError)
	RegisterFlags(flags)
	runFlag := map[string]bool{}
	flags.VisitAll(func(f *flag.Flag) { runFlag[f.Name] = true })
	documented := map[string]bool{}
	flagName := regexp.MustCompile("`-([a-z-]+)`")
	for _, row := range configRows(t) {
		for _, m := range flagName.FindAllStringSubmatch(row[2], -1) {
			documented[m[1]] = true
		}
	}
	for name := range runFlag {
		if !documented[name] {
			t.Errorf("run flag -%s is not in the Flag column of DESIGN.md §17", name)
		}
	}
	for name := range documented {
		if !runFlag[name] {
			t.Errorf("DESIGN.md §17 lists -%s, which RegisterFlags does not register", name)
		}
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

// configRows returns the rows of DESIGN.md §17's table, each split at its
// "|" separators: row[1] is the Field column and row[2] the Flag column.
func configRows(t *testing.T) [][]string {
	t.Helper()
	design, err := os.ReadFile(filepath.Join(repoRoot, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(design), "\n## 17. Configuration\n")
	if !ok {
		t.Fatal("DESIGN.md has no §17 Configuration")
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	var rows [][]string
	for _, line := range strings.Split(sec, "\n") {
		if strings.HasPrefix(line, "| ") {
			rows = append(rows, strings.Split(line, "|"))
		}
	}
	return rows
}

// TestConfigTableListsEveryField holds DESIGN.md §17's knob table to
// kernel.Config: the field names in the table's first column must be
// exactly the struct's fields, so a field cannot be added, or linger,
// without its row saying who sets it.
func TestConfigTableListsEveryField(t *testing.T) {
	name := regexp.MustCompile("`([A-Za-z]+)`")
	listed := map[string]bool{}
	for _, row := range configRows(t) {
		for _, m := range name.FindAllStringSubmatch(row[1], -1) {
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
