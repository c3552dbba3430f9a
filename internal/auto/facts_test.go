package auto_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/auto"
	"repro/internal/auto/workgen"
	"repro/internal/core"
)

var update = flag.Bool("update", false, "rewrite testdata/facts.golden")

// TestFactsGolden pins the static placement facts of every program a
// placement run ships with: the example corpus, the kernel's chatty
// placement program, and the generated workload of embench auto and of the
// dir study's dir4 arms. For each program it lists every class's
// cohort-mates and the pinned classes; -update rewrites the golden.
func TestFactsGolden(t *testing.T) {
	paths, _ := filepath.Glob(filepath.Join("..", "..", "examples", "programs", "*.em"))
	paths = append(paths, filepath.Join("..", "kernel", "testdata", "chatty.em"))
	type program struct{ name, src string }
	var progs []program
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, program{filepath.ToSlash(p), string(src)})
	}
	progs = append(progs, program{"workgen (embench auto, dir4)", workgen.Generate(workgen.Config{
		Seed: 7, Services: 4, Sessions: 3, Requests: 24, Theta: 1.1, Nodes: 4, Open: true,
	})})

	var got bytes.Buffer
	for _, p := range progs {
		prog, err := core.Compile(p.src)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		mates, pinned, err := auto.Facts(prog.IR)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		fmt.Fprintf(&got, "== %s\n", p.name)
		for _, cls := range sortedKeys(mates) {
			fmt.Fprintf(&got, "cohort %s: %s\n", cls, strings.Join(sortedKeys(mates[cls]), " "))
		}
		fmt.Fprintln(&got, strings.Join(append([]string{"pinned:"}, sortedKeys(pinned)...), " "))
	}

	path := filepath.Join("testdata", "facts.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("%s drifted (run with -update to accept):\ngot:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}

// TestFactsCohortsAndPinned: the {Service, Stats} allocation closure makes
// the two classes cohort-mates, and every class a fix statement reaches is
// pinned.
func TestFactsCohortsAndPinned(t *testing.T) {
	src := `
object Stats
  var total: Int <- 0
  operation note(x: Int)
    total <- total + x
  end
end Stats

object Service
  var stats: Stats
  operation work(x: Int) -> (r: Int)
    stats.note(x)
    r <- x
  end
  initially
    stats <- new Stats
  end initially
end Service

object Anchor
  var n: Int <- 0
end Anchor

object Main
  var s: Service
  var a: Anchor
  initially
    s <- new Service
    a <- new Anchor
  end initially
  process
    fix a at thisnode()
    print(s.work(3))
  end process
end Main
`
	prog, err := core.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	cohort, pinned, err := auto.Facts(prog.IR)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(sortedKeys(cohort["Service"]), " "); got != "Service Stats" {
		t.Errorf("Service's cohort-mates = %q, want \"Service Stats\"", got)
	}
	if !pinned["Anchor"] {
		t.Errorf("pinned = %v, want Anchor (reached by fix)", sortedKeys(pinned))
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
