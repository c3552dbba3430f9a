package ir

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// straightLine is a program whose process makes n calls in a row, the shape
// of one unrolled benchmark session.
func straightLine(n int) string {
	var b strings.Builder
	b.WriteString(`
object Svc
  operation f(x: Int) -> (r: Int)
    r <- x + 1
  end
end Svc
object Main
  process
    var s: Svc <- new Svc
    var t: Int <- 0
`)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "    t <- s.f(t + %d)\n", i)
	}
	b.WriteString("    print(t)\n  end process\nend Main\n")
	return b.String()
}

// TestAnalyzeAllocsDoNotGrowWithCode: Analyze cuts every stack map from one
// arena, so its allocation count grows with the logarithm of the code size,
// not with the instruction count. Bound: quadrupling the calls from 1 000 to
// 4 000 adds at most 8 allocations (each doubling of an arena or of the
// walk's scratch stack is one).
func TestAnalyzeAllocsDoNotGrowWithCode(t *testing.T) {
	allocs := func(n int) float64 {
		p, _ := compile(t, straightLine(n))
		o := p.Object("Main")
		f := o.Process()
		return testing.AllocsPerRun(5, func() {
			if _, err := Analyze(f, o.VarKinds); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1000), allocs(4000)
	t.Logf("Analyze allocations: %v at 1000 calls, %v at 4000", small, large)
	if large > small+8 {
		t.Errorf("Analyze makes %v allocations at 4000 calls, %v at 1000: want at most %v", large, small, small+8)
	}
}

// TestStackInRowsAreCapLimited: an append to one stack map must copy it,
// never write into the row of the next instruction; a row is nil exactly
// when its instruction is unreachable.
func TestStackInRowsAreCapLimited(t *testing.T) {
	_, fis := compile(t, straightLine(20))
	for f, fi := range fis {
		for pc, reach := range fi.Reach {
			row := fi.Stack(pc)
			if reach != (row != nil) || cap(row) != len(row) {
				t.Fatalf("%s@%d: row len %d cap %d (nil %v)", f.Name, pc, len(row), cap(row), row == nil)
			}
		}
	}
}

// TestFactsOnceUnderParallelCalls: the first Facts calls on a function may
// come from two goroutines (two loads of one program); both get the one
// computed table, and under -race neither races the other.
func TestFactsOnceUnderParallelCalls(t *testing.T) {
	p, _ := compile(t, straightLine(50))
	type got struct {
		fi *FuncInfo
		li *LiveInfo
	}
	var results [2]map[*Func]got
	var wg sync.WaitGroup
	for i := range results {
		results[i] = map[*Func]got{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, o := range p.Objects {
				for _, f := range o.Funcs {
					fi, li, err := f.Facts(o.VarKinds)
					if err != nil {
						t.Error(err)
						return
					}
					results[i][f] = got{fi, li}
				}
			}
		}()
	}
	wg.Wait()
	for f, a := range results[0] {
		if b := results[1][f]; a != b {
			t.Errorf("%s: two Facts calls returned different tables", f.Name)
		}
	}
}
