// The one command-line spelling of a run: every driver that runs a program
// (emrun, emtrace, emtrace faults) registers these flags and no others that
// shape the run, so a configuration traced is the configuration measured.
// A user-settable Options field appears here exactly once; fields with no
// line here (NoSharpen, AutoNoBatch, DirNoGroupDecrees, SliceInstrs, …) are
// experiment control arms set only from Go (DESIGN.md "Configuration").

package core

import (
	"flag"
	"fmt"
	"strings"

	"repro/internal/chaos"
	"repro/internal/dir"
	"repro/internal/kernel"
	"repro/internal/netsim"
)

// RunFlags holds the run-shaping flags registered on one FlagSet; Resolve
// turns them into a network and Options once the FlagSet has been parsed.
type RunFlags struct {
	fs               *flag.FlagSet
	net, mode, chaos string
	opts             Options
}

// RegisterFlags defines the run-shaping flags on fs.
func RegisterFlags(fs *flag.FlagSet) *RunFlags {
	rf := &RunFlags{fs: fs}
	fs.StringVar(&rf.net, "net", "sun3,hp1,sparc,vax", "comma-separated machine list of "+machineNames+"; the default is the paper's Figure 1 network")
	fs.StringVar(&rf.mode, "mode", "enhanced", "conversion mode: "+modeNames)
	fs.StringVar(&rf.chaos, "chaos", "", "seeded fault plan, e.g. seed=7,drop=0.05,dup=0.02,crash=1@20ms:60ms (see internal/chaos)")
	fs.BoolVar(&rf.opts.VetOnLoad, "vetload", false, "nodes vet each code object's mobility metadata before loading it")
	fs.BoolVar(&rf.opts.LegacyDispatch, "legacy", false, "force the byte-at-a-time reference emulator (slowest; identical results)")
	fs.BoolVar(&rf.opts.Parallel, "parallel", false, "run each node on its own goroutine (identical results; see DESIGN.md §12)")
	fs.StringVar(&rf.opts.AutoPolicy, "auto", "", "adaptive placement policy: greedy-colocate or load-balance (sequential engine only)")
	fs.IntVar(&rf.opts.DirReplicas, "dir", 0, "arm the replicated object directory with N replicas per shard (0: off)")
	fs.Int64Var(&rf.opts.DirLeaseMicros, "dir-lease", 0, "directory read-lease duration in simulated µs (0: lease-free lookups)")
	return rf
}

// Resolve parses the flag values (call it after fs.Parse) into the machine
// list and the Options of the run. An out-of-range -dir replica count is
// clamped here, with a diagnostic line on the FlagSet's output, rather than
// letting the kernel mis-shard silently; the clamped value is what arms the
// directory.
func (rf *RunFlags) Resolve() ([]netsim.MachineModel, Options, error) {
	opts := rf.opts
	machines, err := parseNetwork(rf.net)
	if err != nil {
		return nil, opts, err
	}
	var ok bool
	if opts.Mode, ok = convModes[rf.mode]; !ok {
		return nil, opts, fmt.Errorf("unknown mode %q (have %s)", rf.mode, modeNames)
	}
	if rf.chaos != "" {
		if opts.Chaos, err = chaos.ParsePlan(rf.chaos); err != nil {
			return nil, opts, err
		}
	}
	if opts.DirReplicas != 0 {
		dcfg, diags := dir.Config{Replicas: opts.DirReplicas}.NormalizeDiag(len(machines))
		for _, d := range diags {
			fmt.Fprintf(rf.fs.Output(), "%s: -dir: %s\n", rf.fs.Name(), strings.TrimPrefix(d, "dir: "))
		}
		opts.DirReplicas = dcfg.Replicas
	}
	return machines, opts, nil
}

// machineSpecs and convModes map -net and -mode names to their values.
var (
	machineSpecs = map[string]netsim.MachineModel{
		"sparc": netsim.SPARCstationSLC,
		"sun3":  netsim.Sun3_100,
		"hp1":   netsim.HP9000_433s,
		"hp2":   netsim.HP9000_385,
		"vax":   netsim.VAXstation2000,
	}
	convModes = map[string]kernel.ConvMode{
		"enhanced": kernel.ModeEnhanced,
		"original": kernel.ModeOriginal,
		"batched":  kernel.ModeEnhancedBatched,
		"fastpath": kernel.ModeEnhancedFastPath,
	}
)

const (
	machineNames = "sparc, sun3, hp1, hp2, vax"
	modeNames    = "enhanced, original, batched, fastpath"
)

// parseNetwork parses a comma-separated machine list (e.g. "sparc,vax").
func parseNetwork(spec string) ([]netsim.MachineModel, error) {
	var machines []netsim.MachineModel
	for _, name := range strings.Split(spec, ",") {
		m, ok := machineSpecs[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown machine %q (have %s)", name, machineNames)
		}
		machines = append(machines, m)
	}
	return machines, nil
}
