// Package prof is the CLIs' one profiling hook: the -cpuprofile and
// -memprofile flags of emrun and embench.
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the two profile destinations ("" = off).
type Flags struct{ cpu, mem *string }

// Register adds -cpuprofile and -memprofile to fs.
func Register(fs *flag.FlagSet) Flags {
	return Flags{
		cpu: fs.String("cpuprofile", "", "write a CPU profile to `file` (read with go tool pprof)"),
		mem: fs.String("memprofile", "", "write an allocation profile to `file` when the run ends"),
	}
}

// Start begins the CPU profile, if asked for; call it after fs.Parse.
// The returned stop ends it and writes the allocation profile, and must be
// called before the process exits (os.Exit runs no defers).
func (f Flags) Start() (stop func()) {
	var cpuFile *os.File
	if *f.cpu != "" {
		cpuFile = create(*f.cpu)
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			fatal(err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if *f.mem != "" {
			w := create(*f.mem)
			runtime.GC() // settle the heap so the profile is up to date
			if err := pprof.Lookup("allocs").WriteTo(w, 0); err != nil {
				fatal(err)
			}
			w.Close()
		}
	}
}

func create(path string) *os.File {
	w, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	return w
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "profile:", err)
	os.Exit(1)
}
