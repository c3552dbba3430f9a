package interp

import (
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/kernel"
	"repro/internal/lang/types"
	"repro/internal/netsim"
)

func buildIR(info *types.Info) *ir.Program { return ir.Build(info) }

// runAllLevels executes src at every level of the Figure 2 hierarchy and
// returns (source, bytecode, native) outputs.
func runAllLevels(t *testing.T, src string) (string, string, string) {
	t.Helper()
	info, prog, err := core.CompileWith(src, codegen.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	s := NewSource(info)
	s.Run()
	if len(s.RT().Faults) > 0 {
		t.Fatalf("source faults: %v", s.RT().Faults)
	}
	b := NewBytecode(buildIR(info))
	b.Run()
	if len(b.RT().Faults) > 0 {
		t.Fatalf("bytecode faults: %v", b.RT().Faults)
	}
	sys, err := core.NewSystem(prog, []netsim.MachineModel{netsim.SPARCstationSLC},
		core.Options{Mode: kernel.ModeEnhanced})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("native: %v", err)
	}
	return strings.Join(s.RT().Output, "\n"),
		strings.Join(b.RT().Output, "\n"),
		sys.Output()
}

// differential checks all three levels agree.
func differential(t *testing.T, src string) {
	t.Helper()
	so, bo, no := runAllLevels(t, src)
	if so != bo {
		t.Errorf("source vs bytecode:\n--- source:\n%s\n--- bytecode:\n%s", so, bo)
	}
	if bo != no {
		t.Errorf("bytecode vs native:\n--- bytecode:\n%s\n--- native:\n%s", bo, no)
	}
}

func TestDifferentialArithmetic(t *testing.T) {
	differential(t, `
object Main
  process
    var i: Int <- 1
    var acc: Int <- 0
    while i <= 30 do
      acc <- acc + i * i - i / 2 + i % 3
      i <- i + 1
    end
    print(acc)
    var r: Real <- 1.5
    var j: Int <- 0
    while j < 8 do
      r <- r * 1.5 - 0.25
      j <- j + 1
    end
    print(r)
    print(abs(0 - acc), " ", acc % 7, " ", -acc)
  end process
end Main
`)
}

func TestDifferentialObjectsAndStrings(t *testing.T) {
	differential(t, `
object Stack
  var data: Array[Int]
  var top: Int <- 0
  initially
    data <- new Array[Int](16)
  end initially
  operation push(v: Int)
    data[top] <- v
    top <- top + 1
  end
  operation pop() -> (r: Int)
    top <- top - 1
    r <- data[top]
  end
  function depth() -> (r: Int)
    r <- top
  end
end Stack
object Main
  process
    var s: Stack <- new Stack
    var i: Int <- 0
    while i < 10 do
      s.push(i * 7)
      i <- i + 1
    end
    var out: String <- ""
    while s.depth() > 0 do
      out <- out + str(s.pop()) + ","
    end
    print(out)
    print(out.size(), " ", out[0], " ", out < "7", " ", out == out)
  end process
end Main
`)
}

func TestDifferentialRecursionAndControl(t *testing.T) {
	differential(t, `
object Math
  operation fib(n: Int) -> (r: Int)
    if n < 2 then
      r <- n
    else
      r <- fib(n - 1) + fib(n - 2)
    end
  end
  operation collatz(n: Int) -> (steps: Int)
    var x: Int <- n
    loop
      exit when x == 1
      if x % 2 == 0 then
        x <- x / 2
      else
        x <- 3 * x + 1
      end
      steps <- steps + 1
    end
  end
end Math
object Main
  process
    var m: Math <- new Math
    print(m.fib(12), " ", m.collatz(27))
  end process
end Main
`)
}

func TestDifferentialConcurrency(t *testing.T) {
	differential(t, `
object Queue
  monitor
    var buf: Array[Int]
    var head: Int <- 0
    var tail: Int <- 0
    var count: Int <- 0
    var nonempty: Condition
    var nonfull: Condition
    operation put(v: Int)
      while count == 4 do
        wait nonfull
      end
      buf[tail] <- v
      tail <- (tail + 1) % 4
      count <- count + 1
      signal nonempty
    end
    operation take() -> (r: Int)
      while count == 0 do
        wait nonempty
      end
      r <- buf[head]
      head <- (head + 1) % 4
      count <- count - 1
      signal nonfull
    end
  end monitor
  initially
    buf <- new Array[Int](4)
  end initially
end Queue
object Producer
  var q: Queue
  var n: Int
  process
    var i: Int <- 0
    while i < n do
      q.put(i)
      i <- i + 1
    end
  end process
end Producer
object Main
  var q: Queue
  initially
    q <- new Queue
  end initially
  process
    var p: Producer <- new Producer(q, 8)
    var sum: Int <- 0
    var i: Int <- 0
    while i < 8 do
      sum <- sum + q.take()
      i <- i + 1
    end
    print("sum=", sum, " p=", p == nil)
  end process
end Main
`)
}

func TestDifferentialMobilityNoOpsOnOneNode(t *testing.T) {
	differential(t, `
object Roamer
  operation roam() -> (r: String)
    move self to node(0)
    fix self at thisnode()
    unfix self
    r <- str(locate(self)) + "/" + str(nodes())
  end
end Roamer
object Main
  process
    var x: Roamer <- new Roamer
    print(x.roam())
  end process
end Main
`)
}

func TestStepCountsOrdered(t *testing.T) {
	// The specialization hierarchy: the source level does the most abstract
	// work per program step; byte code does less.
	src := `
object Main
  process
    var i: Int <- 0
    var acc: Int <- 0
    while i < 2000 do
      acc <- acc + i
      i <- i + 1
    end
    print(acc)
  end process
end Main
`
	info, _, err := core.CompileWith(src, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSource(info)
	s.Run()
	b := NewBytecode(buildIR(info))
	b.Run()
	if s.RT().Output[0] != b.RT().Output[0] {
		t.Fatalf("outputs differ: %v vs %v", s.RT().Output, b.RT().Output)
	}
	if s.RT().Steps == 0 || b.RT().Steps == 0 {
		t.Fatal("step counters not incremented")
	}
}

func TestInterpFaults(t *testing.T) {
	src := `
object Main
  process
    var z: Int <- 0
    print(7 / z)
  end process
end Main
`
	info, _, err := core.CompileWith(src, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSource(info)
	s.Run()
	if len(s.RT().Faults) != 1 || !strings.Contains(s.RT().Faults[0], "division by zero") {
		t.Errorf("source faults = %v", s.RT().Faults)
	}
	b := NewBytecode(buildIR(info))
	b.Run()
	if len(b.RT().Faults) != 1 || !strings.Contains(b.RT().Faults[0], "division by zero") {
		t.Errorf("bytecode faults = %v", b.RT().Faults)
	}
}
