package chaos

import (
	"reflect"
	"testing"

	"repro/internal/netsim"
	"repro/internal/obs"
)

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("seed=42,drop=0.05,dup=0.03,delay=0.02:2ms,corrupt=0.01," +
		"crash=2@120ms:320ms,crash=1@1s,partition=0-1@10ms:20ms," +
		"hb=25ms,suspect=200ms,commit=500ms,rto=10ms,rtomax=160ms,retries=8,retrymove=250ms")
	if err != nil {
		t.Fatal(err)
	}
	want := &Plan{
		Seed: 42, Drop: 0.05, Dup: 0.03, Delay: 0.02, Corrupt: 0.01,
		DelayMicros: 2_000,
		Crashes: []Crash{
			{Node: 2, At: 120_000, RestartAt: 320_000},
			{Node: 1, At: 1_000_000},
		},
		Partitions:     []Partition{{A: 0, B: 1, From: 10_000, Until: 20_000}},
		HeartbeatEvery: 25_000, SuspectAfter: 200_000, CommitTimeout: 500_000,
		RTOBase: 10_000, RTOMax: 160_000, MaxRetrans: 8, MoveRetry: 250_000,
	}
	if !reflect.DeepEqual(p, want) {
		t.Errorf("ParsePlan mismatch:\ngot  %+v\nwant %+v", p, want)
	}
}

func TestParsePlanErrors(t *testing.T) {
	for _, bad := range []string{
		"bogus",               // not key=value
		"zoom=1",              // unknown key
		"drop=1.5",            // probability out of range
		"drop=-0.1",           // negative probability
		"crash=1",             // missing @at
		"crash=1@50ms:40ms",   // restart before crash
		"partition=0@1ms:2ms", // missing -b
		"partition=0-1@5ms:5ms",
		"hb=-3ms",
		"retries=x",
		"drop=NaN",      // not a probability
		"hb=Infs",       // not a duration
		"commit=1e300s", // overflows microseconds
	} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted invalid input", bad)
		}
	}
}

func TestPlanDefaults(t *testing.T) {
	var p Plan
	if got := p.HeartbeatPeriod(); got != 50_000 {
		t.Errorf("HeartbeatPeriod = %d", got)
	}
	if got := p.SuspectTimeout(); got != 400_000 {
		t.Errorf("SuspectTimeout = %d", got)
	}
	if got := p.CommitWindow(); got != 1_000_000 {
		t.Errorf("CommitWindow = %d", got)
	}
	if got := p.RTOMin(); got != 20_000 {
		t.Errorf("RTOMin = %d", got)
	}
	if got := p.RTOCap(); got != 320_000 {
		t.Errorf("RTOCap = %d", got)
	}
	if got := p.Retries(); got != 10 {
		t.Errorf("Retries = %d", got)
	}
	if got := p.RetryMoveAfter(); got != 300_000 {
		t.Errorf("RetryMoveAfter = %d", got)
	}
	if got := p.DelayBound(); got != 1_000 {
		t.Errorf("DelayBound = %d", got)
	}
}

func TestPlanStringRoundtrip(t *testing.T) {
	p1, err := ParsePlan("seed=9,drop=0.1,dup=0.05,delay=0.02:500us,corrupt=0.01,crash=1@1000us:2000us," +
		"partition=0-1@10ms:20ms,hb=25ms,suspect=200ms,commit=500ms,rto=10ms,rtomax=160ms,retries=8,retrymove=250ms")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ParsePlan(p1.String())
	if err != nil {
		t.Fatalf("String() output does not re-parse: %v", err)
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Errorf("roundtrip mismatch:\ngot  %+v\nwant %+v", p2, p1)
	}
}

// FuzzParsePlan: the -chaos flag is typed by people, so ParsePlan returns a
// plan or an error on any input — it never panics — and a plan it accepts
// survives its own canonical rendering: String() parses back to an equal
// plan, every field included. `make fuzz-smoke` replays the seeds.
func FuzzParsePlan(f *testing.F) {
	for _, s := range []string{
		"", " ", "seed=9,drop=0.1,dup=0.05,delay=0.02:500us,corrupt=0.01,crash=1@1000us:2000us",
		"seed=42,drop=0.05,dup=0.03,delay=0.02:2ms,corrupt=0.01,crash=2@120ms:320ms,crash=1@1s," +
			"partition=0-1@10ms:20ms,hb=25ms,suspect=200ms,commit=500ms,rto=10ms,rtomax=160ms,retries=8,retrymove=250ms",
		"delay=0.5", "delay=0:3ms", "hb=1.5µs, retries=-2 ,,seed=0", "partition=0--2@1:2",
		"drop=NaN", "hb=Infs", "commit=1e300s", "crash=1@5ms:0", "drop=-0", "bogus", "zoom=1", "drop=1.5",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p1, err := ParsePlan(s)
		if err != nil {
			return
		}
		p2, err := ParsePlan(p1.String())
		if err != nil {
			t.Fatalf("ParsePlan(%q) renders as %q, which does not parse: %v", s, p1, err)
		}
		if !reflect.DeepEqual(p1, p2) {
			t.Fatalf("ParsePlan(%q) = %+v renders as %q, which parses to %+v", s, p1, p1, p2)
		}
	})
}

// verdicts feeds a fixed synthetic frame sequence to an injector and
// collects its decisions.
func verdicts(in *Injector) []netsim.Verdict {
	out := make([]netsim.Verdict, 0, 64)
	for i := 0; i < 64; i++ {
		out = append(out, in.Frame(netsim.Micros(i*100), i%4, (i+1)%4, 100+i))
	}
	return out
}

func TestInjectorDeterministic(t *testing.T) {
	plan := &Plan{Seed: 7, Drop: 0.2, Dup: 0.2, Delay: 0.2, Corrupt: 0.2}
	v1 := verdicts(NewInjector(plan, 4, nil))
	v2 := verdicts(NewInjector(plan, 4, nil))
	if !reflect.DeepEqual(v1, v2) {
		t.Error("same seed produced different verdict sequences")
	}
	v3 := verdicts(NewInjector(&Plan{Seed: 8, Drop: 0.2, Dup: 0.2, Delay: 0.2, Corrupt: 0.2}, 4, nil))
	if reflect.DeepEqual(v1, v3) {
		t.Error("different seeds produced identical verdict sequences (PRNG not seeded)")
	}
	// With aggressive probabilities 64 frames must hit every fault class.
	rec := obs.NewRecorder(4, obs.DefaultRingCap)
	verdicts(NewInjector(plan, 4, rec))
	for _, kind := range []string{"drop", "dup", "delay", "corrupt"} {
		if rec.Metrics().Counter("chaos_injected", "kind="+kind) == 0 {
			t.Errorf("no %s faults injected across 64 frames at p=0.2", kind)
		}
	}
}

// An injected fault is counted, logged and charged to its metric series
// without garbage: the series label is not rebuilt per fault.
func TestInjectorFrameDoesNotAllocate(t *testing.T) {
	rec := obs.NewRecorder(2, obs.DefaultRingCap)
	in := NewInjector(&Plan{Seed: 1, Drop: 1}, 2, rec)
	at := netsim.Micros(0)
	if got := testing.AllocsPerRun(200, func() {
		at += 100
		if !in.Frame(at, 0, 1, 64).Drop {
			t.Fatal("drop-everything plan let a frame through")
		}
	}); got != 0 {
		t.Errorf("Frame with an injected drop = %v allocs/run, want 0", got)
	}
	if got := rec.Metrics().Counter("chaos_injected", "kind=drop"); got != 201 { // AllocsPerRun runs once more to warm up
		t.Errorf("chaos_injected{kind=drop} = %d, want 201", got)
	}
	for k, name := range faultKinds {
		if kindLabels[k] != "kind="+name {
			t.Errorf("kindLabels[%d] = %q for fault kind %q", k, kindLabels[k], name)
		}
	}
}

func TestInjectorPartition(t *testing.T) {
	plan := &Plan{Seed: 1, Partitions: []Partition{{A: 0, B: 2, From: 100, Until: 200}}}
	in := NewInjector(plan, 4, nil)
	if v := in.Frame(150, 0, 2, 10); !v.Drop {
		t.Error("frame inside partition window not dropped")
	}
	if v := in.Frame(150, 2, 0, 10); !v.Drop {
		t.Error("partition must cut both directions")
	}
	if v := in.Frame(250, 0, 2, 10); v.Drop {
		t.Error("frame after partition healed was dropped")
	}
	if v := in.Frame(150, 1, 2, 10); v.Drop {
		t.Error("partition leaked onto an uninvolved link")
	}
}

// TestInjectorPerLinkStreams: a link's verdict sequence is a function of
// the plan seed and that link's own frame count only. Frames on other
// links interleaved arbitrarily between them must not perturb it, so a
// change in one node's traffic leaves every other link's faults where
// they were.
func TestInjectorPerLinkStreams(t *testing.T) {
	plan := &Plan{Seed: 7, Drop: 0.2, Dup: 0.2, Delay: 0.2, Corrupt: 0.2}

	alone := NewInjector(plan, 4, nil)
	var want []netsim.Verdict
	for i := 0; i < 32; i++ {
		want = append(want, alone.Frame(netsim.Micros(i*100), 0, 1, 64+i))
	}

	mixed := NewInjector(plan, 4, nil)
	var got []netsim.Verdict
	for i := 0; i < 32; i++ {
		// Interleave traffic on three other links, including the reverse
		// direction of the link under test.
		mixed.Frame(netsim.Micros(i*100), 1, 0, 32)
		mixed.Frame(netsim.Micros(i*100+1), 2, 3, 48)
		got = append(got, mixed.Frame(netsim.Micros(i*100), 0, 1, 64+i))
		mixed.Frame(netsim.Micros(i*100+2), 3, 0, 16)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("interleaved traffic on other links perturbed a link's verdict stream")
	}
}
