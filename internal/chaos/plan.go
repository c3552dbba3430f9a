// Package chaos provides seeded, deterministic fault injection for the
// simulated network and the knobs of the kernel's crash-tolerant migration
// protocol. A Plan describes what goes wrong — per-frame drop / duplicate /
// delay / corruption probabilities, link partitions between node pairs, and
// scheduled node crashes with restarts — and every decision draws from a
// splitmix64 PRNG seeded in the plan, so the same seed yields the same
// faults on the same frame sequence and a byte-identical event log.
package chaos

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/netsim"
)

// Crash schedules one node failure. The node stops executing and receiving
// at At; if RestartAt > At it comes back (with its kernel and link state
// intact — the fail-stop model has durable state), otherwise it stays down.
type Crash struct {
	Node      int
	At        netsim.Micros
	RestartAt netsim.Micros // 0: never restarts
}

// Partition cuts the link between nodes A and B (both directions) during
// [From, Until).
type Partition struct {
	A, B        int
	From, Until netsim.Micros
}

// Plan is a complete fault plan plus protocol tuning. The zero value
// injects nothing; protocol knobs left zero take the defaults below.
type Plan struct {
	Seed uint64

	// Per-frame fault probabilities in [0,1).
	Drop    float64
	Dup     float64
	Delay   float64
	Corrupt float64

	// DelayMicros bounds the extra delivery delay of a delayed frame
	// (uniform in [1, DelayMicros]; 0 selects 1000µs).
	DelayMicros netsim.Micros

	Crashes    []Crash
	Partitions []Partition

	// Protocol tuning (zero selects the default).
	HeartbeatEvery netsim.Micros // heartbeat period (default 50ms)
	SuspectAfter   netsim.Micros // silence before suspicion (default 400ms)
	CommitTimeout  netsim.Micros // move-commit abort window (default 1s)
	RTOBase        netsim.Micros // first retransmission timeout (default 20ms)
	RTOMax         netsim.Micros // retransmission backoff cap (default 320ms)
	MaxRetrans     int           // attempts before giving up on a suspect (default 10)
	MoveRetry      netsim.Micros // delay before retrying an aborted move (default 300ms)
}

// Defaults.
const (
	defHeartbeat  = netsim.Micros(50_000)
	defSuspect    = netsim.Micros(400_000)
	defCommit     = netsim.Micros(1_000_000)
	defRTOBase    = netsim.Micros(20_000)
	defRTOMax     = netsim.Micros(320_000)
	defMaxRetrans = 10
	defMoveRetry  = netsim.Micros(300_000)
	defDelayBound = netsim.Micros(1_000)
)

// HeartbeatPeriod returns the effective heartbeat period.
func (p *Plan) HeartbeatPeriod() netsim.Micros { return orDefault(p.HeartbeatEvery, defHeartbeat) }

// SuspectTimeout returns the silence interval after which a peer is
// suspected down.
func (p *Plan) SuspectTimeout() netsim.Micros { return orDefault(p.SuspectAfter, defSuspect) }

// CommitWindow returns how long a move source waits for the destination's
// install ack before aborting the move.
func (p *Plan) CommitWindow() netsim.Micros { return orDefault(p.CommitTimeout, defCommit) }

// RTOMin returns the first retransmission timeout.
func (p *Plan) RTOMin() netsim.Micros { return orDefault(p.RTOBase, defRTOBase) }

// RTOCap returns the retransmission backoff ceiling.
func (p *Plan) RTOCap() netsim.Micros { return orDefault(p.RTOMax, defRTOMax) }

// Retries returns the retransmission attempt bound.
func (p *Plan) Retries() int { return orDefault(p.MaxRetrans, defMaxRetrans) }

// RetryMoveAfter returns the delay before an aborted move is retried.
func (p *Plan) RetryMoveAfter() netsim.Micros { return orDefault(p.MoveRetry, defMoveRetry) }

// DelayBound returns the delayed-frame extra-delay bound.
func (p *Plan) DelayBound() netsim.Micros { return orDefault(p.DelayMicros, defDelayBound) }

// orDefault returns v when it is set (positive), def otherwise.
func orDefault[T int | netsim.Micros](v, def T) T {
	if v > 0 {
		return v
	}
	return def
}

// ParsePlan parses the -chaos flag grammar: comma-separated key=value
// fields.
//
//	seed=7                 PRNG seed (default 1)
//	drop=0.05              per-frame drop probability
//	dup=0.03               per-frame duplicate probability
//	delay=0.02:2ms         per-frame delay probability : delay bound
//	corrupt=0.02           per-frame corruption probability
//	crash=2@120ms:320ms    node 2 crashes at 120ms, restarts at 320ms
//	crash=2@120ms          node 2 crashes at 120ms and stays down
//	partition=0-1@10ms:20ms  cut link 0<->1 during [10ms, 20ms)
//	hb=50ms suspect=400ms commit=1s rto=20ms rtomax=320ms
//	retries=10 retrymove=300ms        protocol tuning
//
// Durations accept s, ms, us or µs suffixes; a bare number is microseconds.
// crash= and partition= may repeat.
func ParsePlan(s string) (*Plan, error) {
	p := &Plan{Seed: 1}
	if strings.TrimSpace(s) == "" {
		return p, nil
	}
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("chaos: field %q is not key=value", field)
		}
		var err error
		switch key {
		case "seed":
			p.Seed, err = strconv.ParseUint(val, 10, 64)
		case "drop":
			p.Drop, err = parseProb(val)
		case "dup":
			p.Dup, err = parseProb(val)
		case "corrupt":
			p.Corrupt, err = parseProb(val)
		case "delay":
			prob, bound, cut := strings.Cut(val, ":")
			if p.Delay, err = parseProb(prob); err == nil && cut {
				p.DelayMicros, err = parseDuration(bound)
			}
		case "crash":
			var c Crash
			if c, err = parseCrash(val); err == nil {
				p.Crashes = append(p.Crashes, c)
			}
		case "partition":
			var pt Partition
			if pt, err = parsePartition(val); err == nil {
				p.Partitions = append(p.Partitions, pt)
			}
		case "hb":
			p.HeartbeatEvery, err = parseDuration(val)
		case "suspect":
			p.SuspectAfter, err = parseDuration(val)
		case "commit":
			p.CommitTimeout, err = parseDuration(val)
		case "rto":
			p.RTOBase, err = parseDuration(val)
		case "rtomax":
			p.RTOMax, err = parseDuration(val)
		case "retries":
			p.MaxRetrans, err = strconv.Atoi(val)
		case "retrymove":
			p.MoveRetry, err = parseDuration(val)
		default:
			return nil, fmt.Errorf("chaos: unknown field %q", key)
		}
		if err != nil {
			return nil, fmt.Errorf("chaos: field %q: %v", field, err)
		}
	}
	return p, nil
}

func parseProb(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if !(v >= 0 && v < 1) { // NaN is outside too
		return 0, fmt.Errorf("probability %v outside [0,1)", v)
	}
	return v, nil
}

// maxDuration bounds a parsed duration: a simulated year, far past any run
// and small enough that every microsecond count is an exact float64.
const maxDuration = netsim.Micros(365 * 24 * 3600 * 1e6)

// parseDuration parses "1s", "300ms", "200us", "200µs" or a bare
// microsecond count.
func parseDuration(s string) (netsim.Micros, error) {
	scale := 1.0
	switch {
	case strings.HasSuffix(s, "ms"):
		s, scale = s[:len(s)-2], 1e3
	case strings.HasSuffix(s, "us"):
		s = s[:len(s)-2]
	case strings.HasSuffix(s, "µs"):
		s = strings.TrimSuffix(s, "µs")
	case strings.HasSuffix(s, "s"):
		s, scale = s[:len(s)-1], 1e6
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if !(v >= 0 && v*scale <= float64(maxDuration)) { // NaN and Inf too
		return 0, fmt.Errorf("duration outside [0, 1 year]")
	}
	return netsim.Micros(v * scale), nil
}

// parseCrash parses "node@at[:restart]".
func parseCrash(s string) (Crash, error) {
	nodeStr, times, ok := strings.Cut(s, "@")
	if !ok {
		return Crash{}, fmt.Errorf("want node@at[:restart]")
	}
	node, err := strconv.Atoi(nodeStr)
	if err != nil {
		return Crash{}, err
	}
	atStr, restartStr, hasRestart := strings.Cut(times, ":")
	at, err := parseDuration(atStr)
	if err != nil {
		return Crash{}, err
	}
	c := Crash{Node: node, At: at}
	if hasRestart {
		if c.RestartAt, err = parseDuration(restartStr); err != nil {
			return Crash{}, err
		}
		if c.RestartAt <= c.At {
			return Crash{}, fmt.Errorf("restart %v not after crash %v", c.RestartAt, c.At)
		}
	}
	return c, nil
}

// parsePartition parses "a-b@from:until".
func parsePartition(s string) (Partition, error) {
	pair, times, ok := strings.Cut(s, "@")
	if !ok {
		return Partition{}, fmt.Errorf("want a-b@from:until")
	}
	aStr, bStr, ok := strings.Cut(pair, "-")
	if !ok {
		return Partition{}, fmt.Errorf("want a-b@from:until")
	}
	a, err := strconv.Atoi(aStr)
	if err != nil {
		return Partition{}, err
	}
	b, err := strconv.Atoi(bStr)
	if err != nil {
		return Partition{}, err
	}
	fromStr, untilStr, ok := strings.Cut(times, ":")
	if !ok {
		return Partition{}, fmt.Errorf("want a-b@from:until")
	}
	from, err := parseDuration(fromStr)
	if err != nil {
		return Partition{}, err
	}
	until, err := parseDuration(untilStr)
	if err != nil {
		return Partition{}, err
	}
	if until <= from {
		return Partition{}, fmt.Errorf("until %v not after from %v", until, from)
	}
	return Partition{A: a, B: b, From: from, Until: until}, nil
}

// String renders the plan in the ParsePlan grammar, canonically: fields in a
// fixed order, durations in whole microseconds, zero (defaulted) fields
// omitted. Parsing the result gives back an equal plan.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d", p.Seed)
	if p.Drop > 0 {
		fmt.Fprintf(&b, ",drop=%g", p.Drop)
	}
	if p.Dup > 0 {
		fmt.Fprintf(&b, ",dup=%g", p.Dup)
	}
	if p.Delay > 0 || p.DelayMicros > 0 {
		fmt.Fprintf(&b, ",delay=%g", p.Delay)
		if p.DelayMicros > 0 {
			fmt.Fprintf(&b, ":%dus", p.DelayMicros)
		}
	}
	if p.Corrupt > 0 {
		fmt.Fprintf(&b, ",corrupt=%g", p.Corrupt)
	}
	for _, c := range p.Crashes {
		fmt.Fprintf(&b, ",crash=%d@%dus", c.Node, c.At)
		if c.RestartAt > 0 {
			fmt.Fprintf(&b, ":%dus", c.RestartAt)
		}
	}
	for _, pt := range p.Partitions {
		fmt.Fprintf(&b, ",partition=%d-%d@%dus:%dus", pt.A, pt.B, pt.From, pt.Until)
	}
	for _, t := range []struct {
		key string
		d   netsim.Micros
	}{{"hb", p.HeartbeatEvery}, {"suspect", p.SuspectAfter}, {"commit", p.CommitTimeout},
		{"rto", p.RTOBase}, {"rtomax", p.RTOMax}, {"retrymove", p.MoveRetry}} {
		if t.d > 0 {
			fmt.Fprintf(&b, ",%s=%dus", t.key, t.d)
		}
	}
	if p.MaxRetrans != 0 {
		fmt.Fprintf(&b, ",retries=%d", p.MaxRetrans)
	}
	return b.String()
}
