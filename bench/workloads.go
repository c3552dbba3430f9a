// Workload generators. Each emits Emerald-subset source text plus the
// check lines a correct run must print, computed here in Go. Nothing is
// imported from internal/auto/workgen or internal/exp: a change there must
// not be able to change the benchmark's inputs.
//
// The seed perturbs the values a program computes with and the order of its
// requests, never the amount of work: wall_s and the simulated metrics have
// to be comparable between seeds (the driver runs every workload at several
// seeds and bounds the spread), so hop, move and request counts are fixed
// and only a sub-0.1% jitter on loop lengths makes sim_ms read differently
// from seed to seed.

package main

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/netsim"
)

// check is one line a correct run prints and the number of ops it vouches
// for. Lines are matched as a multiset: thread interleaving decides the
// order on the multi-process workloads.
type check struct {
	line string
	ops  int
}

// workload is one generated input: a program, the options it runs under,
// and its oracle.
type workload struct {
	name string
	src  string
	opts core.Options
	// ops is the workload's op count; 0 means "one op per simulated
	// instruction", known only after a run (compute_ring).
	ops    int
	opName string
	checks []check
}

// rng is splitmix64, the stream the rest of the repo uses for seeded
// components; the benchmark keeps its own copy.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// newRNG derives an independent stream per (seed, workload).
func newRNG(seed uint64, name string) *rng {
	r := &rng{state: seed}
	for _, c := range []byte(name) {
		r.state = r.next() ^ uint64(c)
	}
	return r
}

// scale divides a size by 50 for -quick runs (the bench_test pass), keeping
// at least lo.
func scale(n int, quick bool, lo int) int {
	if !quick {
		return n
	}
	if n/50 < lo {
		return lo
	}
	return n / 50
}

// workloadNames lists the workloads in report order.
var workloadNames = []string{"compute_ring", "migrate_storm", "invoke_zipf", "dir_tour", "chaos_tour"}

// generate builds the named workload for a seed.
func generate(name string, seed uint64, quick bool) (*workload, error) {
	r := newRNG(seed, name)
	switch name {
	case "compute_ring":
		return computeRing(r, quick), nil
	case "migrate_storm":
		return migrateStorm(r, quick), nil
	case "invoke_zipf":
		return invokeZipf(r, quick), nil
	case "dir_tour":
		return tour("dir_tour", r, scale(dirTourLaps, quick, 100), false), nil
	case "chaos_tour":
		return tour("chaos_tour", r, scale(chaosTourLaps, quick, 100), true), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// Frozen sizes (see README.md, "Sizes").
const (
	ringWalkers   = 4
	ringHops      = 20
	ringChunk     = 60000
	stormCalls    = 60
	stormMoves    = 1000
	zipfServices  = 8
	zipfSessions  = 8
	zipfRequests  = 4000
	zipfTheta     = 1.1
	dirTourLaps   = 6000
	chaosTourLaps = 2000
	movesPerLap   = 8
	lapsPerCheck  = 100
)

// jitterSpins bounds the seeded spin loop the single-process programs start
// with: a few hundred simulated instructions, so that sim_ms reads
// differently from seed to seed without the work changing.
const jitterSpins = 1000

// figure1Nodes is the size of core.Figure1Network().
const figure1Nodes = 4

func onOwnNode(_ string, rootIdx int) int { return rootIdx % figure1Nodes }

// computeRing: one walker per node, each hop an arithmetic chunk then a
// move to the next node round the ring (the exp/par.go ring shape on the
// heterogeneous Figure 1 network).
func computeRing(r *rng, quick bool) *workload {
	hops := ringHops
	chunk := scale(ringChunk, quick, 500)
	chunk += r.intn(chunk/1000 + 1)
	ma, mb, add := 5+r.intn(6), 3+r.intn(4), 1+r.intn(9)

	var b strings.Builder
	fmt.Fprintf(&b, `object Walker
  operation run(start: Int, hops: Int, chunk: Int) -> (r: Int)
    var acc: Int <- 0
    var h: Int <- 0
    while h < hops do
      var i: Int <- 0
      while i < chunk do
        acc <- acc + (i %% %d) * (i %% %d) + %d
        i <- i + 1
      end
      move self to node((start + h + 1) %% nodes())
      h <- h + 1
    end
    r <- acc
  end
end Walker
`, ma, mb, add)
	var acc int32
	for h := 0; h < hops; h++ {
		for i := int32(0); i < int32(chunk); i++ {
			acc += (i%int32(ma))*(i%int32(mb)) + int32(add)
		}
	}
	w := &workload{name: "compute_ring", opName: "simulated instruction",
		opts: core.Options{Placement: onOwnNode}}
	for i := 0; i < ringWalkers; i++ {
		fmt.Fprintf(&b, `
object Driver%d
  process
    var w: Walker <- new Walker
    print("walker %d total: ", w.run(%d, %d, %d))
  end process
end Driver%d
`, i, i, i, hops, chunk, i)
		w.checks = append(w.checks, check{fmt.Sprintf("walker %d total: %d", i, acc), 1})
	}
	w.src = b.String()
	return w
}

// migrateStorm: the Table 1 thread — 13 variables in the moving activation
// (2 parameters, 1 result, 10 locals over Int/Real/Bool/String) — hopping
// round all four machines.
func migrateStorm(r *rng, quick bool) *workload {
	calls := stormCalls
	moves := scale(stormMoves, quick, 20)
	moves -= moves % figure1Nodes // every call ends where it began, so its first move is a real one
	v1, v2, v6, v7 := 100+r.intn(900), 100+r.intn(900), 100+r.intn(900), 100+r.intn(900)
	v3, v8 := float64(1+r.intn(7))+0.25, float64(8+r.intn(7))+0.5
	word := make([]byte, 8)
	for i := range word {
		word[i] = byte('a' + r.intn(26))
	}
	src := fmt.Sprintf(`object Mobile
  operation hop(trips: Int, salt: Int) -> (r: Int)
    var n: Int <- nodes()
    var v1: Int <- %d
    var v2: Int <- %d
    var v3: Real <- %.2f
    var v4: Bool <- true
    var v5: String <- "%s"
    var v6: Int <- %d
    var v7: Int <- %d
    var v8: Real <- %.1f
    var i: Int <- 1
    while i <= trips do
      move self to node(i %% n)
      i <- i + 1
    end
    if v4 then
      r <- v1 + v2 + v6 + v7 + v5.size() + salt
    end
    if v3 < v8 then
      r <- r + 1
    end
  end
end Mobile
object Main
  process
    var m: Mobile <- new Mobile
    var w: Int <- 0
    while w < %d do
      w <- w + 1
    end
    var c: Int <- 0
    while c < %d do
      print(m.hop(%d, c))
      c <- c + 1
    end
  end process
end Main
`, v1, v2, v3, string(word), v6, v7, v8, r.intn(jitterSpins), calls, moves)
	w := &workload{name: "migrate_storm", src: src, ops: calls * moves, opName: "thread move"}
	for c := 0; c < calls; c++ {
		w.checks = append(w.checks, check{fmt.Sprint(v1 + v2 + v6 + v7 + len(word) + c + 1), moves})
	}
	return w
}

// zipfCounts spreads n requests over k ranks with P(rank i) ∝ 1/(i+1)^theta,
// rounding by largest remainder, so every seed issues the same request mix
// and only the order differs.
func zipfCounts(n, k int, theta float64) []int {
	weights := make([]float64, k)
	sum := 0.0
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), theta)
		sum += weights[i]
	}
	counts := make([]int, k)
	rem := make([]float64, k)
	left := n
	for i, wt := range weights {
		exact := wt / sum * float64(n)
		counts[i] = int(exact)
		rem[i] = exact - float64(counts[i])
		left -= counts[i]
	}
	for ; left > 0; left-- {
		best := 0
		for i := range rem {
			if rem[i] > rem[best] {
				best = i
			}
		}
		counts[best]++
		rem[best] = -1
	}
	return counts
}

// invokeZipf: sessions scattered over the cluster issue fully unrolled
// zipf-skewed requests to services that never move after start-up. Each
// session's ranking is rotated so its hot service is its own.
func invokeZipf(r *rng, quick bool) *workload {
	requests := scale(zipfRequests, quick, 40)
	counts := zipfCounts(requests, zipfServices, zipfTheta)

	var b strings.Builder
	b.WriteString(`object Stats
  var total: Int <- 0
  var count: Int <- 0
  operation note(x: Int)
    total <- total + x
    count <- count + 1
  end
end Stats

object Service
  var stats: Stats
  operation work(x: Int) -> (r: Int)
    stats.note(x)
    r <- x * 2 + 1
  end
  initially
    stats <- new Stats
  end initially
end Service

`)
	svc := make([]string, zipfServices)
	for i := range svc {
		svc[i] = fmt.Sprintf("s%d", i)
	}
	w := &workload{name: "invoke_zipf", ops: zipfSessions * requests, opName: "request"}
	ranks := make([]int, 0, requests)
	for si := 0; si < zipfSessions; si++ {
		fmt.Fprintf(&b, "object Sess%d\n", si)
		for _, s := range svc {
			fmt.Fprintf(&b, "  var %s: Service\n", s)
		}
		fmt.Fprintf(&b, "  process\n    move self to node(%d %% nodes())\n    var sum: Int <- 0\n", si)
		ranks = ranks[:0]
		for rank, c := range counts {
			for ; c > 0; c-- {
				ranks = append(ranks, rank)
			}
		}
		for i := len(ranks) - 1; i > 0; i-- {
			j := r.intn(i + 1)
			ranks[i], ranks[j] = ranks[j], ranks[i]
		}
		sum := 0
		for _, rank := range ranks {
			x := 1 + r.intn(97)
			sum += x*2 + 1
			fmt.Fprintf(&b, "    sum <- sum + s%d.work(%d)\n", (si+rank)%zipfServices, x)
		}
		fmt.Fprintf(&b, "    print(\"sess%d sum=\", sum)\n  end process\nend Sess%d\n\n", si, si)
		w.checks = append(w.checks, check{fmt.Sprintf("sess%d sum=%d", si, sum), requests})
	}
	b.WriteString("object Main\n")
	for _, s := range svc {
		fmt.Fprintf(&b, "  var %s: Service\n", s)
	}
	b.WriteString("  initially\n")
	for _, s := range svc {
		fmt.Fprintf(&b, "    %s <- new Service\n", s)
	}
	b.WriteString("  end initially\n  process\n")
	for i, s := range svc {
		fmt.Fprintf(&b, "    move %s to node(%d %% nodes())\n", s, i+1)
	}
	list := strings.Join(svc, ", ")
	for si := 0; si < zipfSessions; si++ {
		fmt.Fprintf(&b, "    var t%d: Sess%d <- new Sess%d(%s)\n", si, si, si, list)
	}
	b.WriteString("  end process\nend Main\n")
	w.src = b.String()
	return w
}

// chaosLapMicros is the simulated length of one chaos_tour lap on the seed
// commit, used only to spread the crash windows over the run. A change that
// shortens the run moves later windows past its end; the README says so.
const chaosLapMicros = 2_100_000

// tour: three couriers bounce among nodes 0-2 with an invocation after
// every move and one locate per lap (the BENCH_dir tour at run length).
// Node 3 hosts no object or thread: it is a shard replica only, so the
// chaos arm can crash it without faulting the program.
func tour(name string, r *rng, laps int, faulty bool) *workload {
	laps -= laps % lapsPerCheck
	x := [6]int{}
	for i := range x {
		x[i] = 1 + r.intn(9)
	}
	src := fmt.Sprintf(`object Courier
  var hops: Int <- 0
  operation bump(x: Int) -> (r: Int)
    hops <- hops + x
    r <- hops
  end
end Courier

object Main
  process
    var a: Courier <- new Courier
    var b: Courier <- new Courier
    var c: Courier <- new Courier
    var chk: Int <- 0
    var w: Int <- 0
    while w < %d do
      w <- w + 1
    end
    var lap: Int <- 0
    while lap < %d do
      move a to node(1)
      chk <- chk + a.bump(%d)
      move b to node(2)
      chk <- chk + b.bump(%d)
      move c to node(1)
      chk <- chk + c.bump(%d)
      move a to node(2)
      chk <- chk + a.bump(%d)
      move b to node(1)
      chk <- chk + b.bump(%d)
      if locate(c) == node(1) then
        chk <- chk + 1
      end
      move a to node(0)
      move b to node(0)
      move c to node(0)
      chk <- (chk + c.bump(%d)) %% 1000003
      lap <- lap + 1
      if lap %% %d == 0 then
        print("lap ", lap, " chk ", chk)
      end
    end
  end process
end Main
`, r.intn(jitterSpins), laps, x[0], x[1], x[2], x[3], x[4], x[5], lapsPerCheck)

	w := &workload{name: name, src: src, ops: laps * movesPerLap, opName: "object move",
		opts: core.Options{DirReplicas: 3, DirLeaseMicros: 2_000_000}}
	var a, b, c, chk int
	for lap := 1; lap <= laps; lap++ {
		a += x[0]
		chk += a
		b += x[1]
		chk += b
		c += x[2]
		chk += c
		a += x[3]
		chk += a
		b += x[4]
		chk += b
		chk++
		c += x[5]
		chk = (chk + c) % 1000003
		if lap%lapsPerCheck == 0 {
			w.checks = append(w.checks, check{fmt.Sprintf("lap %d chk %d", lap, chk), lapsPerCheck * movesPerLap})
		}
	}
	if faulty {
		// Five crash/restart windows of the replica-only host. 120 ms stays
		// below the plan's SuspectAfter (400 ms): a longer window makes the
		// seed fault with "remote invocation lost: node 1 is down".
		plan := &chaos.Plan{Seed: r.next(), Drop: 0.02, Dup: 0.01}
		total := netsim.Micros(laps) * chaosLapMicros
		for i := 1; i <= 5; i++ {
			at := total * netsim.Micros(i) / 6
			plan.Crashes = append(plan.Crashes, chaos.Crash{Node: 3, At: at, RestartAt: at + 120_000})
		}
		w.opts.Chaos = plan
	}
	return w
}
